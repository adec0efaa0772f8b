"""The benchmark wraps functions by name; each name must still resolve.

``perfbench/spans.py`` replaces every name of its ``BOUNDARIES`` table with
``getattr``/``setattr`` on the module where callers look it up, so a name
that leaves its module aborts every traced benchmark run.
``perfbench/worker.py`` records each ``synthetic`` grid by replacing
``moments.build_grid``, so the command must look it up there at call time.
"""

import importlib
import importlib.util
from pathlib import Path

from momentsieve import cli, moments

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


def test_every_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module_name}.{name}"
        for module_name, names in spans.BOUNDARIES.items()
        for name in names
        if not callable(getattr(
            importlib.import_module(f"momentsieve.{module_name}"), name, None))
    ]
    assert missing == []


def test_synthetic_grid_goes_through_moments_build_grid(monkeypatch, capsys):
    grids = []
    build_grid = moments.build_grid

    def recording(*args, **kwargs):
        grids.append(build_grid(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(moments, "build_grid", recording)
    code = cli.main(["synthetic", str(ROOT / "fixtures" / "wide_pair.zeros"),
                     "--L", "1"])
    capsys.readouterr()
    assert code == 2
    assert len(grids) == 1
