"""Moment sequences of entire functions and the finite positivity grid.

For an entire function f(z) = sum a_n z^n with a_0 = 1, a_n > 0 and zeros
-lambda_n, the attached moment sequence is

    m_k = sum_n lambda_n^(-(k+2)),

computable from the Taylor coefficients alone through the recursion

    (-1)^l m_l = a_1 a_(l+1) - (l+2) a_(l+2)
                 - sum_(k=1..l) m_(l-k) (-1)^(l-k) a_k,

or, as a cross-check, as (-1)^l times the determinant of the unit
lower-triangular system solved by Cramer's rule.  The zeros are all positive
reals exactly when the scaled alternating differences

    cell(n, k) = sum_(j=0..k) (-1)^j C(k,j) m_(n+j) / L^(n+j)

are nonnegative for every n, k (complete monotonicity of the scaled
sequence).  A finite tool can only certify a finite (n, k) rectangle for a
given scale L; :func:`build_grid` does exactly that, with dual-precision
sign certification per cell, and :func:`grid_report` says exactly what was
checked.

Numerical notes: the alternating sums are the dominant cancellation hazard,
so cells are accumulated j-ascending with compensated summation and exact
integer binomials; the recursion is the production path for moments while
the determinant is an O(l^3) cross-check only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath import mpf

from .numkernel import (
    NEGATIVE,
    POSITIVE,
    UNCERTAIN,
    CertifiedSign,
    DomainError,
    PrecisionPolicy,
    binomial,
    certify_sign,
    comp_sum,
    decimal_str,
    require_finite,
    to_mpf,
)

__all__ = [
    "MomentSequence",
    "PositivityGrid",
    "SeriesPrefix",
    "build_grid",
    "grid_report",
    "moments_by_determinant",
    "moments_by_recursion",
    "normalize",
    "scaled_sequence",
]


@dataclass(frozen=True)
class SeriesPrefix:
    """Finite prefix a_0..a_N of Taylor coefficients.

    After the leading coefficient, every entry must have the same sign
    as a_0; zeros are admitted only as a trailing run, so that polynomials
    (finite zero sets) can be represented exactly.
    """

    coeffs: Tuple[mpf, ...]

    def __post_init__(self):
        coeffs = tuple(to_mpf(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise DomainError("empty coefficient list")
        a0 = coeffs[0]
        if a0 == 0:
            raise DomainError("a_0 must be nonzero (index 0)")
        last_nonzero = max(i for i, c in enumerate(coeffs) if c != 0)
        for i in range(1, last_nonzero + 1):
            if not coeffs[i] * a0 > 0:
                raise DomainError(
                    f"coefficient a_{i} violates a_0*a_n > 0 "
                    f"(a_{i} = {coeffs[i]})")

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_normalized(self) -> bool:
        return self.coeffs[0] == 1

    def padded(self, n: int) -> "SeriesPrefix":
        """Extend with trailing zeros up to coefficient index ``n``."""
        if n <= self.degree_bound:
            return self
        extra = (mpf(0),) * (n - self.degree_bound)
        return SeriesPrefix(self.coeffs + extra)


def normalize(raw: Sequence) -> SeriesPrefix:
    """Divide a raw coefficient list by a_0 (fixing an overall sign).

    Accepts any list with a_0 != 0 and a_0*a_n > 0 up to trailing zeros;
    rejects everything else naming the offending index.
    """
    coeffs = [to_mpf(c) for c in raw]
    if not coeffs:
        raise DomainError("empty coefficient list")
    a0 = coeffs[0]
    if a0 == 0:
        raise DomainError("a_0 must be nonzero (index 0)")
    normalized = [c / a0 for c in coeffs]
    return SeriesPrefix(tuple(normalized))


@dataclass(frozen=True)
class MomentSequence:
    """Unscaled moments m_0..m_M with their provenance."""

    m: Tuple[mpf, ...]
    source: str = "recursion"  # recursion | determinant | zero-sum

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(to_mpf(v) for v in self.m))
        for v in self.m:
            require_finite(v, "moment")

    @property
    def max_index(self) -> int:
        return len(self.m) - 1


def moments_by_recursion(s: SeriesPrefix, M: int) -> MomentSequence:
    """Moments m_0..m_M from a normalized prefix via the coefficient recursion.

    Consumes a_(l+2), so M <= N-2 for a prefix a_0..a_N (pad with trailing
    zeros to represent a polynomial of lower degree).
    """
    if not s.is_normalized:
        raise DomainError("series must be normalized (a_0 = 1)")
    if M < 0:
        raise DomainError("M must be >= 0")
    if M > s.degree_bound - 2:
        raise DomainError(
            f"M = {M} needs coefficients up to a_{M + 2}, prefix has "
            f"degree bound {s.degree_bound}")
    a = s.coeffs
    m: List[mpf] = []
    for l in range(M + 1):
        acc = a[1] * a[l + 1] - (l + 2) * a[l + 2]
        acc -= comp_sum(m[l - k] * (-1) ** (l - k) * a[k]
                        for k in range(1, l + 1))
        m.append((-1) ** l * acc)
    return MomentSequence(tuple(m), source="recursion")


def _det_partial_pivot(rows: List[List[mpf]]) -> mpf:
    """Determinant by Gaussian elimination with partial pivoting."""
    n = len(rows)
    a = [row[:] for row in rows]
    det = mpf(1)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[piv][col] == 0:
            return mpf(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor == 0:
                continue
            for c in range(col + 1, n):
                a[r][c] -= factor * a[col][c]
    return det


def moments_by_determinant(s: SeriesPrefix, l: int) -> mpf:
    """m_l as (-1)^l times the Cramer determinant of the triangular system.

    The (l+1) x (l+1) matrix carries the first l columns of the unit
    lower-triangular coefficient matrix and, as last column, the right-hand
    sides a_1 a_(i+1) - (i+2) a_(i+2).  Exists as an independent cross-check
    of :func:`moments_by_recursion`; it is O(l^3) and not the production
    path.
    """
    if not s.is_normalized:
        raise DomainError("series must be normalized (a_0 = 1)")
    if l < 0:
        raise DomainError("l must be >= 0")
    if l > s.degree_bound - 2:
        raise DomainError(
            f"l = {l} needs coefficients up to a_{l + 2}, prefix has "
            f"degree bound {s.degree_bound}")
    a = s.coeffs
    size = l + 1
    rows = []
    for i in range(size):
        row = [a[i - j] if 0 <= i - j else mpf(0) for j in range(size - 1)]
        row.append(a[1] * a[i + 1] - (i + 2) * a[i + 2])
        rows.append(row)
    return (-1) ** l * _det_partial_pivot(rows)


def scaled_sequence(m: MomentSequence, L) -> Tuple[mpf, ...]:
    """The pre-scaled sequence mu_n = m_n / L^n (used by identity tests)."""
    L = to_mpf(L)
    if not L > 0:
        raise DomainError("L must be > 0")
    invL = 1 / L
    out = []
    p = mpf(1)
    for v in m.m:
        out.append(v * p)
        p *= invL
    return tuple(out)


@dataclass(frozen=True)
class PositivityGrid:
    """Certified signs of the scaled alternating differences on a rectangle."""

    n_max: int
    k_max: int
    L: mpf
    bits: int
    cells: Dict[Tuple[int, int], CertifiedSign]
    first_violation: Optional[Tuple[int, int]]
    min_cell: Tuple[int, int, mpf]

    def counts(self) -> Dict[str, int]:
        c = {POSITIVE: 0, NEGATIVE: 0, UNCERTAIN: 0}
        for cell in self.cells.values():
            c[cell.sign] += 1
        return c

    @property
    def verdict(self) -> str:
        counts = self.counts()
        if counts[NEGATIVE]:
            n, k = self.first_violation
            return f"criterion fails at ({n},{k})"
        if counts[UNCERTAIN]:
            return "inconclusive; escalate precision or shrink grid"
        return f"no violation up to ({self.n_max},{self.k_max})"


def _cell_value(m: Tuple[mpf, ...], L: mpf, n: int, k: int) -> mpf:
    """sum_(j=0..k) (-1)^j C(k,j) m_(n+j) / L^(n+j) at ambient precision."""
    invL = 1 / L
    scale = invL ** n

    def terms():
        p = scale
        for j in range(k + 1):
            yield (-1) ** j * binomial(k, j) * m[n + j] * p
            p = p * invL

    return comp_sum(terms())


def build_grid(m: MomentSequence, L, n_max: int, k_max: int,
               policy: PrecisionPolicy = PrecisionPolicy()) -> PositivityGrid:
    """Certify every cell of the (n, k) rectangle for the scale L.

    Requires n_max + k_max <= M so the whole rectangle is defined.  Cells
    are pure functions of (m, L, n, k); they are evaluated in lexicographic
    order but the result is order-independent, so a parallel map would give
    the identical grid.
    """
    L = to_mpf(L)
    if not L > 0:
        raise DomainError("L must be > 0")
    if n_max < 0 or k_max < 0:
        raise DomainError("n_max and k_max must be >= 0")
    if n_max + k_max > m.max_index:
        raise DomainError(
            f"grid ({n_max},{k_max}) needs moments up to index "
            f"{n_max + k_max}, sequence has {m.max_index}")
    cells: Dict[Tuple[int, int], CertifiedSign] = {}
    first_violation = None
    min_cell = None
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            cert = certify_sign(
                lambda n=n, k=k: _cell_value(m.m, L, n, k), policy)
            cells[(n, k)] = cert
            if cert.sign == NEGATIVE and first_violation is None:
                first_violation = (n, k)
            if min_cell is None or cert.value < min_cell[2]:
                min_cell = (n, k, cert.value)
    return PositivityGrid(n_max=n_max, k_max=k_max, L=L, bits=policy.bits,
                          cells=cells, first_violation=first_violation,
                          min_cell=min_cell)


def grid_report(g: PositivityGrid) -> dict:
    """Serializable grid summary.

    Schema (all numbers as full-precision decimal strings)::

        {
          "n_max": int, "k_max": int,
          "L": str, "bits": int,
          "counts": {"positive": int, "negative": int, "zero-uncertain": int},
          "cells_negative": [[n, k, value], ...],
          "first_violation": [n, k] | null,
          "min_cell": [n, k, value],
          "verdict": str
        }
    """
    counts = g.counts()
    negatives = [[n, k, decimal_str(cell.value, g.bits)]
                 for (n, k), cell in g.cells.items()
                 if cell.sign == NEGATIVE]
    return {
        "n_max": g.n_max,
        "k_max": g.k_max,
        "L": decimal_str(g.L, g.bits),
        "bits": g.bits,
        "counts": {POSITIVE: counts[POSITIVE], NEGATIVE: counts[NEGATIVE],
                   UNCERTAIN: counts[UNCERTAIN]},
        "cells_negative": negatives,
        "first_violation": list(g.first_violation) if g.first_violation else None,
        "min_cell": [g.min_cell[0], g.min_cell[1],
                     decimal_str(g.min_cell[2], g.bits)],
        "verdict": g.verdict,
    }
