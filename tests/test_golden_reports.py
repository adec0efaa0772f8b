"""Reports of fixed commands match the stored reports byte for byte.

Each command runs in a fresh ``python -m momentsieve`` process.  The three
``dirichlet --q 5`` commands also run in order in one process, as the
``dirichlet-sweep`` benchmark runs them, and must give the same bytes:
they share one kernel, and its memoized integrals must not make a report
depend on what ran before it.  Neither may a kernel cached for another
cutoff: a command that needs a larger cutoff, run first in the same
process, must leave the reports of a smaller one unchanged.  Run this
file as a script to
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
    # the deepest trapezoidal levels any command reaches
    "xi_n40_2048.json": (
        "xi --N 40 --nmax 18 --kmax 18 --bits 2048", 0),
    # inconclusive: 64-bit moments leave deep cells within their radii
    "xi_n22_64.json": ("xi --N 22 --nmax 2 --kmax 18 --bits 64", 3),
    # below 80 bits, where the scan's sign target is 2^-(bits/2)
    "xi_n8_24.json": ("xi --N 8 --nmax 2 --kmax 2 --bits 24", 3),
    "xi_n8_48.json": ("xi --N 8 --nmax 2 --kmax 2 --bits 48", 0),
    "dirichlet_q5_i1_32.json": (
        "dirichlet --q 5 --index 1 --N 6 --nmax 2 --kmax 2 --bits 32", 0),
    **{f"dirichlet_q5_i{i}.json": (
        f"dirichlet --q 5 --index {i} --N 6 --nmax 2 --kmax 2 --bits 128", 0)
       for i in (1, 2, 3)},
    # a complex pair at depth, beyond the q = 5 characters
    "dirichlet_q7_i1.json": (
        "dirichlet --q 7 --index 1 --N 10 --nmax 3 --kmax 3 --bits 256", 0),
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


def run_in_one_process(commands):
    """(exit code, stdout) of each command, run in order by one process."""
    script = (
        "import contextlib, io, json, sys\n"
        "from momentsieve.cli import main\n"
        "out = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    buf = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buf):\n"
        "        out.append((main(argv), buf.getvalue()))\n"
        "print(json.dumps(out))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script,
         json.dumps([command.split() for command in commands])],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        timeout=300, check=True)
    return [(code, out.encode()) for code, out in json.loads(proc.stdout)]


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


@pytest.mark.parametrize("commands", [
    ("xi --N 30 --nmax 3 --kmax 3 --bits 256",
     "xi --N 8 --nmax 3 --kmax 3 --bits 256"),
    ("dirichlet --q 5 --index 1 --N 20 --nmax 2 --kmax 2 --bits 128",
     "dirichlet --q 5 --index 1 --N 6 --nmax 2 --kmax 2 --bits 128"),
], ids=["xi", "dirichlet"])
def test_larger_cutoff_first_leaves_reports_unchanged(commands):
    # each report of the sequence, run in one process, is the report of
    # its command in a fresh process
    for command, (code, out) in zip(commands, run_in_one_process(commands)):
        assert (code, out) == run(command), command


def test_sweep_in_one_process_matches_goldens():
    names = [f"dirichlet_q5_i{i}.json" for i in (1, 2, 3)]
    results = run_in_one_process([COMMANDS[name][0] for name in names])
    for name, (code, out) in zip(names, results):
        assert code == COMMANDS[name][1], name
        assert out == (GOLDEN / name).read_bytes(), name


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
