"""One fresh process of a workload: import momentsieve, run its operations.

Usage: ``python3 perfbench/worker.py JOB.json``.  The job names the source
directory, the command lines, whether to trace, and where to write the
result.  Every operation goes through ``momentsieve.cli.main`` with its
report captured in memory; reports, exit codes and timings are written out
after the last operation, so the timed loop does no file output.  The grid
that ``moments.build_grid`` returns (the ``synthetic`` command's) is
recorded as one sign letter per cell, so every certified sign can be
checked, not only the negative cells the report lists.

A job with no operations only imports the package: a set-up sample.
"""

import functools
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def _rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _record_grids(moments, sink: list) -> None:
    """Append the certified signs of each grid ``moments.build_grid`` makes.

    One letter per cell in (n, k) order: ``p``ositive, ``n``egative or
    ``z``ero-uncertain, the initials of the program's sign names.
    """
    build_grid = moments.build_grid

    @functools.wraps(build_grid)
    def recording(*args, **kwargs):
        grid = build_grid(*args, **kwargs)
        sink.append("".join(grid.cells[key].sign[0]
                            for key in sorted(grid.cells)))
        return grid

    moments.build_grid = recording


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    t_import = time.monotonic()
    from momentsieve import cli, dirichlet, moments, oracle, riemann
    t_imported = time.monotonic()
    if not cli.__file__.startswith(job["src"]):
        raise ImportError(f"momentsieve came from {cli.__file__}, "
                          f"not from {job['src']}")

    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install({"cli": cli, "riemann": riemann,
                        "dirichlet": dirichlet, "moments": moments,
                        "oracle": oracle})
    grids = []
    _record_grids(moments, grids)

    ops = []
    t_first = time.monotonic()
    for i, argv in enumerate(job["ops"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op = i
        raised = None
        grids.clear()
        t0 = time.monotonic()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except Exception:
                code = None
                raised = traceback.format_exc()
        t1 = time.monotonic()
        ops.append({"seconds": t1 - t0, "exit": code, "raised": raised,
                    "report": out.getvalue(), "stderr": err.getvalue(),
                    "cells": grids[-1] if grids else None})
    t_last = time.monotonic()

    if tracer is not None:
        tracer.dump(job["spans"])
    result = {
        "t_imported": t_imported,
        "import_s": t_imported - t_import,
        "wall_s": t_last - t_first,
        "ops": ops,
        "peak_rss_mb": _rss_mb(),
        "cpu_s": _cpu_s(),
    }
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
