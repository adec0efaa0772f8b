"""moment-sieve benchmark: cold-process workloads with checked outputs.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload xi --seed 1 --seconds 20 --trace 0

Each pass of a workload runs in a fresh Python process
(``perfbench/worker.py``), because every command-line user starts with
empty module caches.  Passes repeat while one more, at the mean pass time
so far, still fits in ``--seconds``; there is always at least one.  Every
report is then checked against references that do not come from
momentsieve (``perfbench/reference.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` one untraced and one traced
pass give the per-layer ones (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: a run must end well inside three minutes
BUDGET_S = 170.0
#: set-up samples taken before and again after the passes of a run
SETUPS_EACH_SIDE = 3

PER_LAYER_SPANS = (
    ("riemann.phi", ("calls", "self_s")),
    ("riemann.xi_eval", ("calls", "self_s")),
    ("riemann.xi_coefficients", ("s",)),
    ("riemann.bracket_zeros", ("s",)),
    ("dirichlet.phi_char", ("calls", "self_s")),
    ("dirichlet.char_coeffs", ("s",)),
    ("dirichlet.z_char_eval", ("calls", "self_s")),
    ("dirichlet.first_zero_height", ("s",)),
    ("numkernel.bisect_sign_change", ("calls",)),
    ("numkernel.certify_sign", ("calls", "self_s")),
    ("moments.build_grid", ("self_s",)),
    ("moments.moments_by_recursion", ("s",)),
    ("moments.moments_by_determinant", ("s",)),
    ("oracle.admissibility", ("s",)),
    ("oracle.moments_from_zeros", ("s",)),
    ("oracle.product_to_series", ("s",)),
    ("cli.main", ("self_s",)),
)
LAYERS = ("cli", "riemann", "dirichlet", "numkernel", "moments", "oracle")
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


class Run:
    """Work directory, deadline and worker processes of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.dir = WORK / str(os.getpid())
        self.inputs = self.dir / "inputs"
        self.jobs = 0

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    def generate(self):
        """(seconds, ops): the workload's inputs, written afresh."""
        t0 = time.monotonic()
        ops = workloads.generate(self.workload, self.seed,
                                 self.inputs.relative_to(ROOT))
        return time.monotonic() - t0, ops

    def worker(self, ops, trace: bool = False):
        """Run ``ops`` in a fresh process; return (result, set-up seconds).

        Set-up time runs from just before the process is spawned to the end
        of ``import momentsieve`` inside it.
        """
        self.jobs += 1
        stem = self.dir / f"job{self.jobs}"
        job = {"src": str(SRC), "ops": [op.argv for op in ops],
               "trace": trace, "result": f"{stem}.result.json",
               "spans": f"{stem}.spans.json"}
        Path(f"{stem}.json").write_text(json.dumps(job))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        t_spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), f"{stem}.json"],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed:\n{proc.stderr}")
        result = json.loads(Path(job["result"]).read_text())
        result["spans_path"] = job["spans"]
        return result, result["t_imported"] - t_spawn

    def setup_sample(self) -> float:
        gen_s, _ = self.generate()
        _, spawn_s = self.worker([])
        return gen_s + spawn_s


class Checker:
    """References for one run, computed once, and the per-op verdicts."""

    def __init__(self):
        self._cache = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.wrong_sign = 0
        self.by_family = {}

    def _reference(self, op):
        if op.kind == "xi":
            key = ("xi", op.bits)
            make = lambda: reference.xi_first_zero(op.bits)
        elif op.kind == "dirichlet":
            pair = frozenset({op.index, (op.q - 1 - op.index) % (op.q - 1)})
            key = ("dirichlet", op.q, pair, op.bits)
            make = lambda: reference.dirichlet_first_zero(op.q, op.index,
                                                          op.bits)
        else:
            key = ("synthetic", op.zeros)
            make = lambda: reference.closed_form_signs(
                op.zeros, 1, op.n_max, op.k_max, op.bits)
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def check(self, op, outcome) -> reference.Check:
        self.attempted += 1
        if outcome["raised"] is not None:
            check = reference.Check()
            check.fail(outcome["raised"].strip().splitlines()[-1])
        else:
            checker = {"xi": reference.check_xi,
                       "dirichlet": reference.check_dirichlet,
                       "synthetic": reference.check_synthetic}[op.kind]
            try:
                args = (outcome["report"], outcome["exit"], op,
                        self._reference(op))
                if op.kind == "synthetic":
                    args += (outcome["cells"],)
                check = checker(*args)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                check = reference.Check()
                check.fail(f"malformed report: {exc!r}")
        self.wrong_sign += check.wrong_sign
        tally = self.by_family.setdefault(op.family or op.kind, [0, 0])
        tally[0] += 1
        if not check.ok:
            self.failed += 1
            tally[1] += 1
            if not check.known_defect:
                self.unexpected += 1
                print(f"op {' '.join(op.argv)}: {'; '.join(check.problems)}",
                      file=sys.stderr)
        return check

    def check_pass(self, ops, result) -> int:
        """Check every op of one pass; return its wrong-sign cell count."""
        before = self.wrong_sign
        for op, outcome in zip(ops, result["ops"]):
            self.check(op, outcome)
        return self.wrong_sign - before


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(run: Run, checker: Checker, seconds: int) -> dict:
    setups = [run.setup_sample() for _ in range(SETUPS_EACH_SIDE)]
    passes = []
    t_measure = time.monotonic()
    while True:
        gen_s, ops = run.generate()
        result, spawn_s = run.worker(ops)
        setups.append(gen_s + spawn_s)
        passes.append(result)
        elapsed = time.monotonic() - t_measure
        mean = elapsed / len(passes)
        if (elapsed + mean > seconds
                or time.monotonic() + 1.5 * mean > run.deadline):
            break
    setups += [run.setup_sample() for _ in range(SETUPS_EACH_SIDE)]
    for result in passes:
        checker.check_pass(ops, result)
    ok = (checker.attempted - checker.failed) / checker.attempted
    walls = ", ".join(f"{p['wall_s']:.3f}/{p['cpu_s']:.3f}" for p in passes)
    print(f"{run.workload}: pass wall/cpu {walls} s; set-ups "
          f"{', '.join(f'{s:.3f}' for s in setups)} s", file=sys.stderr)
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
        "ops_ok_frac": (ok, "ratio"),
    }


def per_layer(run: Run, checker: Checker) -> dict:
    _, ops = run.generate()
    plain, _ = run.worker(ops)
    checker.check_pass(ops, plain)
    traced, _ = run.worker(ops, trace=True)
    wrong_sign = checker.check_pass(ops, traced)
    span_list, notes = spans.load(traced["spans_path"])
    summary = spans.summarize(span_list)
    metrics = {}
    for name, fields in PER_LAYER_SPANS:
        entry = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for f in fields:
            metrics[f"{name}.{f}"] = (entry[f], UNITS[f])
    for key, value in spans.certify_counts(notes).items():
        unit = "ratio" if key.endswith("_frac") else "count"
        metrics[f"numkernel.certify_sign.{key}"] = (value, unit)
    metrics["numkernel.certify_sign.wrong_sign"] = (wrong_sign, "count")
    layer = spans.layer_self(span_list)
    for name in LAYERS:
        metrics[f"layer.{name}.self_s"] = (layer.get(name, 0.0), "s")
    self_sum = sum(layer.values())
    op_seconds = [o["seconds"] for o in plain["ops"]]
    metrics["op_p50_s"] = (_quantile(op_seconds, 0.5), "s")
    metrics["op_p90_s"] = (_quantile(op_seconds, 0.9), "s")
    metrics["setup.import_s"] = (plain["import_s"], "s")
    metrics["proc.cpu_s"] = (plain["cpu_s"], "s")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    metrics["trace.unaccounted_s"] = (traced["wall_s"] - self_sum, "s")
    metrics["trace.spans"] = (len(span_list), "count")
    print(f"{run.workload}: traced wall {traced['wall_s']:.3f} s, span self "
          f"times {self_sum:.3f} s, untraced wall {plain['wall_s']:.3f} s",
          file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "momentsieve" / "cli.py").is_file():
        print(f"error: no momentsieve sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    checker = Checker()
    try:
        with Run(args.workload, args.seed) as run:
            if args.trace:
                metrics = per_layer(run, checker)
            else:
                metrics = end_to_end(run, checker, args.seconds)
    except (TimeoutError, subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    families = ", ".join(f"{k} {v[1]}/{v[0]}"
                         for k, v in sorted(checker.by_family.items()))
    print(f"failed ops by family: {families}; unexpected failures: "
          f"{checker.unexpected}", file=sys.stderr)
    print(json.dumps({
        "correct": checker.unexpected == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
