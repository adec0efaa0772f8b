"""Reports of fixed commands match the stored reports byte for byte.

Each command runs in a fresh ``python -m momentsieve`` process: the kernel
caches of one in-process call can change the digits of a later one, so a
report is reproducible only per process.  Run this file as a script to
rewrite ``tests/golden/`` from the current code; it prints the name of
each file whose bytes changed and, for a JSON report, the top-level keys
added, removed or changed.  Every changed byte should be intended.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

#: name of the stored stdout -> (command line, exit code)
COMMANDS = {
    "xi_n12_256.json": (
        "xi --N 12 --nmax 4 --kmax 4 --bits 256", 0),
    "xi_n24_1024.json": (
        "xi --N 24 --nmax 10 --kmax 10 --bits 1024", 0),
    # inconclusive: 64-bit moments leave deep cells within their radii
    "xi_n22_64.json": ("xi --N 22 --nmax 2 --kmax 18 --bits 64", 3),
    **{f"dirichlet_q5_i{i}.json": (
        f"dirichlet --q 5 --index {i} --N 6 --nmax 2 --kmax 2 --bits 128", 0)
       for i in (1, 2, 3)},
    "dirichlet_q4.csv": (
        "dirichlet --q 4 --N 6 --nmax 2 --kmax 2 --bits 96 --format csv", 0),
    "synthetic_real_23.json": (
        "synthetic fixtures/real_23.zeros --L 1 --nmax 8 --kmax 8", 0),
    # a certified violation
    "synthetic_wide_pair.json": (
        "synthetic fixtures/wide_pair.zeros --L 1", 2),
    "char_table_q8.json": ("char-table --q 8", 0),
}


def run(command: str):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "momentsieve", *command.split()], cwd=ROOT,
        env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=300)
    return proc.returncode, proc.stdout


def key_changes(old: bytes, new: bytes):
    """Top-level keys of two JSON reports: (added, removed, changed)."""
    before, after = json.loads(old), json.loads(new)
    return (sorted(after.keys() - before.keys()),
            sorted(before.keys() - after.keys()),
            sorted(k for k in before.keys() & after.keys()
                   if before[k] != after[k]))


def test_every_golden_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)


def test_key_changes():
    assert key_changes(b'{"a": 1, "b": [2], "c": 3}',
                       b'{"b": [2, 3], "c": 3, "d": null}') \
        == (["d"], ["a"], ["b"])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    command, exit_code = COMMANDS[name]
    code, out = run(command)
    assert code == exit_code
    assert out == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (command, exit_code) in sorted(COMMANDS.items()):
        code, out = run(command)
        if code != exit_code:
            sys.exit(f"{command}: exit {code}, expected {exit_code}")
        path = GOLDEN / name
        stored = path.read_bytes() if path.exists() else None
        if stored == out:
            continue
        print(name if stored is not None else f"{name} (new)")
        if stored is not None and name.endswith(".json"):
            for label, keys in zip(("added", "removed", "changed"),
                                   key_changes(stored, out)):
                if keys:
                    print(f"  {label}: {', '.join(keys)}")
        path.write_bytes(out)
