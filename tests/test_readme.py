"""The README's concurrency paragraph names every module-level cache,
and no cache that the package lacks."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_lru_cache(decorator) -> bool:
    """``lru_cache(...)`` or ``functools.lru_cache(...)``, bare or called."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "lru_cache"
            or isinstance(decorator, ast.Attribute)
            and decorator.attr == "lru_cache")


def module_caches():
    """(module, name) of every ``lru_cache`` function and every module-level
    ``*_cache`` variable in the package."""
    found = []
    for path in sorted((ROOT / "src" / "momentsieve").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                if any(map(_is_lru_cache, node.decorator_list)):
                    found.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                found += [(path.stem, t.id) for t in targets
                          if isinstance(t, ast.Name)
                          and t.id.endswith("_cache")]
    return found


def test_readme_names_every_cache():
    readme = (ROOT / "README.md").read_text()
    caches = module_caches()
    assert ("dirichlet", "_char_kernel_cache") in caches
    assert ("cli", "build_parser") in caches
    missing = [f"{module}.{name}" for module, name in caches
               if not re.search(rf"(?<!\w){re.escape(name)}(?!\w)", readme)]
    assert not missing, f"README does not name the caches {missing}"


def test_readme_names_no_stale_cache():
    # the other way round: each backticked name that ends in _cache or
    # _cached is a module-level cache of the package (module-qualified if
    # the README qualifies it); lru_cache is the decorator itself
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(),
                    flags=re.S)
    caches = module_caches()
    names = {name for _, name in caches}
    named, stale = [], []
    for span in re.findall(r"`([^`]+)`", readme):
        for ref in re.findall(r"[\w.]+", span):
            module, _, name = ref.rpartition(".")
            if name == "lru_cache" or not name.endswith(("_cache", "_cached")):
                continue
            named.append(ref)
            if (module, name) not in caches if module else name not in names:
                stale.append(ref)
    assert "riemann._kernel_cache" in named
    assert not stale, f"README names caches the package lacks: {stale}"
