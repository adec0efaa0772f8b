"""Benchmark inputs: the operations of each workload, generated from a seed.

An operation is one ``moment-sieve`` command line plus the facts the output
checker needs about it.  The program under test only ever sees the command
line and, for ``synthetic-grid``, the zero fixture it names.

* ``xi``: the Riemann pipeline at the default precision, one operation.
* ``dirichlet-sweep``: every primitive non-principal character mod 5, in
  index order (odd complex chi_5.1, even real chi_5.2, odd complex chi_5.3).
* ``synthetic-grid``: 100 generated zero sets in three families, shuffled:
  ``real`` (40 sets, 5-20 real zeros in [1.5, 100]), ``violation``
  (30 sets, reals plus one conjugate pair that breaks the criterion inside
  the grid) and ``near-boundary`` (30 sets, 5-20 real zeros in (1, 1.002]).

The seed only changes ``synthetic-grid``; the other two workloads are fixed
configurations, so their runs differ only by machine noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

WORKLOADS = ("xi", "dirichlet-sweep", "synthetic-grid")

SYNTH_GRID = 25
SYNTH_BITS = 256
FAMILY_SIZES = (("real", 40), ("violation", 30), ("near-boundary", 30))

#: digits after the decimal point of generated real parts and tangents
_DIGITS = 15
#: digits after the decimal point of near-boundary zeros (1 + d * 10^-18)
_NEAR_DIGITS = 18


@dataclass(frozen=True)
class Op:
    """One command line of a workload and what its output must satisfy."""

    argv: Tuple[str, ...]
    kind: str  # xi | dirichlet | synthetic
    bits: int
    n_max: int
    k_max: int
    q: int = 0
    index: int = 0
    family: str = ""
    # zeros as exact decimal strings (re, im), conjugate partners included
    zeros: Tuple[Tuple[str, str], ...] = ()


def _fixed(units: int, digits: int) -> str:
    """Decimal string of units * 10^-digits (units >= 0)."""
    whole, frac = divmod(units, 10 ** digits)
    return f"{whole}.{frac:0{digits}d}"


def _uniform_units(rng: random.Random, lo: float, hi: float,
                   digits: int) -> int:
    scale = 10 ** digits
    return rng.randint(math.ceil(lo * scale), math.floor(hi * scale))


def _has_violation(reals: List[float], pair: complex, grid: int) -> bool:
    """Whether some cell of the closed form is clearly negative (float check).

    The exact reference decides every sign later; this only keeps the
    ``violation`` family true to its name.  A cell counts when its value is
    below -1e-6 times the sum of its term magnitudes.
    """
    lams = [complex(r) for r in reals] + [pair]
    coefs = [1.0] * len(reals) + [2.0]
    row = [c / (lam * lam) for c, lam in zip(coefs, lams)]
    inv = [1 / lam for lam in lams]
    step = [1 - w for w in inv]
    for _n in range(grid + 1):
        terms = row
        for _k in range(grid + 1):
            value = sum(t.real for t in terms)
            if value < -1e-6 * sum(abs(t) for t in terms):
                return True
            terms = [t * s for t, s in zip(terms, step)]
        row = [t * w for t, w in zip(row, inv)]
    return False


def _real_zeros(rng, count, lo, hi):
    return [_fixed(_uniform_units(rng, lo, hi, _DIGITS), _DIGITS)
            for _ in range(count)]


def _near_boundary_zeros(rng, count):
    top = 2 * 10 ** (_NEAR_DIGITS - 3)  # 0.002 in units of 10^-18
    return [_fixed(10 ** _NEAR_DIGITS + rng.randint(1, top), _NEAR_DIGITS)
            for _ in range(count)]


def _violation_zeros(rng):
    """Reals plus one conjugate pair whose closed form goes negative.

    The pair has real part x in [1.5, 30] and tangent t in [0.05, 0.6]; the
    real zeros lie in [|x(1+it)|, 100], so the pair dominates the deep cells.
    Draws without a clearly negative cell are redrawn.
    """
    while True:
        x_units = _uniform_units(rng, 1.5, 30, _DIGITS)
        t_units = _uniform_units(rng, 0.05, 0.6, _DIGITS)
        x = x_units / 10 ** _DIGITS
        y = x * t_units / 10 ** _DIGITS
        reals = _real_zeros(rng, rng.randint(4, 18), abs(complex(x, y)), 100)
        if _has_violation([float(r) for r in reals], complex(x, y),
                          SYNTH_GRID):
            break
    re = _fixed(x_units, _DIGITS)
    im = _fixed(x_units * t_units, 2 * _DIGITS)
    return [(r, "0") for r in reals] + [(re, im), (re, "-" + im)]


def synthetic_sets(seed: int) -> List[Tuple[str, Tuple[Tuple[str, str], ...]]]:
    """The (family, zeros) pairs of ``synthetic-grid`` for ``seed``, shuffled."""
    rng = random.Random(seed)
    sets = []
    for family, size in FAMILY_SIZES:
        for _ in range(size):
            if family == "real":
                zeros = [(r, "0") for r in
                         _real_zeros(rng, rng.randint(5, 20), 1.5, 100)]
            elif family == "violation":
                zeros = _violation_zeros(rng)
            else:
                zeros = [(r, "0") for r in
                         _near_boundary_zeros(rng, rng.randint(5, 20))]
            sets.append((family, tuple(zeros)))
    rng.shuffle(sets)
    return sets


def fixture_text(zeros) -> str:
    return "".join(f"{re}\n" if im == "0" else f"{re} {im}\n"
                   for re, im in zeros)


def generate(workload: str, seed: int, input_dir: Path) -> List[Op]:
    """The operations of ``workload``; writes its fixtures into ``input_dir``.

    Fixture paths in the command lines are as given by ``input_dir``
    (relative paths stay relative, so reports name them the same way).
    """
    if workload == "xi":
        return [Op(argv=("xi", "--N", "12", "--nmax", "4", "--kmax", "4",
                         "--L", "auto", "--bits", "256"),
                   kind="xi", bits=256, n_max=4, k_max=4)]
    if workload == "dirichlet-sweep":
        return [Op(argv=("dirichlet", "--q", "5", "--index", str(i),
                         "--N", "6", "--nmax", "2", "--kmax", "2",
                         "--L", "auto", "--bits", "128"),
                   kind="dirichlet", bits=128, n_max=2, k_max=2, q=5, index=i)
                for i in (1, 2, 3)]
    if workload == "synthetic-grid":
        ops = []
        for i, (family, zeros) in enumerate(synthetic_sets(seed)):
            path = input_dir / f"set_{i:03d}.zeros"
            path.write_text(fixture_text(zeros))
            ops.append(Op(
                argv=("synthetic", str(path), "--L", "1",
                      "--nmax", str(SYNTH_GRID), "--kmax", str(SYNTH_GRID),
                      "--bits", str(SYNTH_BITS)),
                kind="synthetic", bits=SYNTH_BITS, n_max=SYNTH_GRID,
                k_max=SYNTH_GRID, family=family, zeros=zeros))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
