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

    cell(n, k) = (-1)^k Delta^k mu_n,   mu_n = m_n / L^n,

are nonnegative for every n, k (complete monotonicity of the scaled
sequence; Hausdorff 1921).  A finite tool can only certify a finite (n, k)
rectangle for a given scale L; :func:`build_grid` does exactly that, and
:func:`grid_report` says exactly what was checked.

Every :class:`SeriesPrefix` and :class:`MomentSequence` carries one
absolute error radius per entry (0 when built by hand), stated by its
producer and carried through :func:`normalize` and the recursion; a cell
is certified only when its magnitude exceeds the radius it inherits.  The
recursion is the production path for moments.  It runs in two passes:
the value pass :func:`recursion_values` forms each m_l as one dot product
with exact products and a single rounding (as in Ogita, Rump & Oishi,
SIAM J. Sci. Comput. 26, 2005), over the coefficients up to the last
nonzero one, so M moments of a degree-d polynomial cost O(M d); the
radius pass then needs only the values' magnitudes and the earlier radii.
:func:`moments_by_recursion` runs both; a caller that reads only values
runs the value pass alone.  The determinant is an O(l^3) cross-check
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp

from .numkernel import (
    NEGATIVE,
    POSITIVE,
    UNCERTAIN,
    CertifiedSign,
    DomainError,
    certify_sign,
    decimal_str,
    require_finite,
    to_mpf,
)

__all__ = [
    "MomentSequence",
    "PositivityGrid",
    "SeriesPrefix",
    "build_grid",
    "grid_arguments",
    "grid_report",
    "moments_by_determinant",
    "moments_by_recursion",
    "normalize",
    "recursion_values",
]


def _radii(radii, values) -> Tuple[mpf, ...]:
    """One absolute radius >= 0 per value; no radii means exact values."""
    if not radii:
        return (mpf(0),) * len(values)
    radii = tuple(to_mpf(r) for r in radii)
    if len(radii) != len(values) or not all(r >= 0 for r in radii):
        raise DomainError("need one radius >= 0 per entry")
    return radii


@dataclass(frozen=True)
class SeriesPrefix:
    """Finite prefix a_0..a_N of Taylor coefficients with their radii.

    After the leading coefficient, every entry must have the same sign
    as a_0; zeros are admitted only as a trailing run, so that polynomials
    (finite zero sets) can be represented exactly.  ``radii[n]`` bounds the
    absolute error of a_n (default 0: exact).
    """

    coeffs: Tuple[mpf, ...]
    radii: Tuple[mpf, ...] = ()

    def __post_init__(self):
        coeffs = tuple(to_mpf(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "radii", _radii(self.radii, coeffs))
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
        return SeriesPrefix(self.coeffs + extra, self.radii + extra)


def normalize(raw: Sequence, radii: Sequence = ()) -> SeriesPrefix:
    """Divide a raw coefficient list by a_0 (fixing an overall sign).

    Accepts any list with a_0 != 0 and a_0*a_n > 0 up to trailing zeros;
    rejects everything else naming the offending index.  With radii rho_n
    of the raw c_n (default 0), a_n gets (rho_n + |a_n| rho_0) /
    (|c_0| - rho_0), which bounds any such change of c_n/c_0, plus rounding.
    """
    coeffs = [to_mpf(c) for c in raw]
    if not coeffs:
        raise DomainError("empty coefficient list")
    rho = _radii(radii, coeffs)
    a0 = coeffs[0]
    if not abs(a0) > rho[0]:
        raise DomainError("a_0 must be nonzero beyond its radius (index 0)")
    normalized = [c / a0 for c in coeffs]
    den = abs(a0) - rho[0]
    u = mpf(2) ** -mp.prec
    out = [(r + abs(a) * rho[0]) / den + u * abs(a)
           for r, a in zip(rho[1:], normalized[1:])]
    return SeriesPrefix(tuple(normalized), (mpf(0),) + tuple(out))


@dataclass(frozen=True)
class MomentSequence:
    """Unscaled moments m_0..m_M, their provenance, and radii bounding the
    absolute error of each m_k (default 0: exact)."""

    m: Tuple[mpf, ...]
    source: str = "recursion"  # recursion | determinant | zero-sum
    radii: Tuple[mpf, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(to_mpf(v) for v in self.m))
        for v in self.m:
            require_finite(v, "moment")
        object.__setattr__(self, "radii", _radii(self.radii, self.m))

    @property
    def max_index(self) -> int:
        return len(self.m) - 1


def recursion_values(s: SeriesPrefix, M: int) -> Tuple[mpf, ...]:
    """The value pass: m_0..m_M from a normalized prefix, without radii.

    Consumes a_(l+2), so M <= N-2 for a prefix a_0..a_N (pad with trailing
    zeros to represent a polynomial of lower degree).  Each m_l is one
    ``mpmath.fdot`` of t_l = (-1)^l m_l: the products are exact and the
    sum is rounded once.  The sum over k stops at d, the last index with
    a_k or its radius nonzero, so trailing zeros cost nothing and change
    no value.
    """
    if not s.is_normalized:
        raise DomainError("series must be normalized (a_0 = 1)")
    if M < 0:
        raise DomainError("M must be >= 0")
    if M > s.degree_bound - 2:
        raise DomainError(
            f"M = {M} needs coefficients up to a_{M + 2}, prefix has "
            f"degree bound {s.degree_bound}")
    a, rho = s.coeffs, s.radii
    d = max(k for k in range(len(a)) if a[k] or rho[k])
    minus_a = [-c for c in a[:d + 1]]
    t: List[mpf] = []  # t_l = (-1)^l m_l, so the sums need no signs
    for l in range(M + 1):
        t.append(mpmath.fdot([(a[1], a[l + 1]), (-(l + 2), a[l + 2])] + [
            (t[l - k], minus_a[k]) for k in range(1, min(l, d) + 1)]))
    return tuple(-v if l % 2 else v for l, v in enumerate(t))


def _recursion_radii(s: SeriesPrefix, m: Sequence[mpf]) -> Tuple[mpf, ...]:
    """The radius pass: one radius per value of :func:`recursion_values`.

    Step l needs only |t_l| = |m_l| and the earlier radii.  Each product
    x*y carries the radii through as |x| r_y + |y| r_x + r_x r_y, and
    (l + 4) roundings of the summed magnitudes are added.
    """
    a, rho = s.coeffs, s.radii
    d = max(k for k in range(len(a)) if a[k] or rho[k])
    at = [abs(v) for v in m]  # the a_k are >= 0 already
    u = mpf(2) ** -mp.prec
    r: List[mpf] = []
    for l in range(len(m)):
        pairs = [(a[1], rho[1], a[l + 1], rho[l + 1]),
                 (l + 2, 0, a[l + 2], rho[l + 2])] + [
            (at[l - k], r[l - k], a[k], rho[k])
            for k in range(1, min(l, d) + 1)]
        size = mpmath.fdot((x, y) for x, _, y, _ in pairs)
        r.append(mpmath.fdot([(l + 4, u * size)] + [
            p for x, rx, y, ry in pairs
            for p in ((x, ry), (y, rx), (rx, ry))]))
    return tuple(r)


def moments_by_recursion(s: SeriesPrefix, M: int) -> MomentSequence:
    """Moments m_0..m_M and their radii via the coefficient recursion.

    Runs the value pass :func:`recursion_values` and then the radius pass
    over its values; the radius of m_l bounds the effect of the
    coefficient radii, of the earlier moments' radii and of the rounding.
    Callers that read only the values call the value pass alone.
    """
    m = recursion_values(s, M)
    return MomentSequence(m, source="recursion", radii=_recursion_radii(s, m))


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


@dataclass(frozen=True)
class PositivityGrid:
    """Certified signs of the scaled alternating differences on a rectangle,
    with the radius of each mu_n = m_n / L^n, n = 0..n_max + k_max."""

    n_max: int
    k_max: int
    L: mpf
    bits: int
    cells: Dict[Tuple[int, int], CertifiedSign]
    first_violation: Optional[Tuple[int, int]]
    min_cell: Tuple[int, int, mpf]
    radii: Tuple[mpf, ...]

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


def grid_arguments(L, n_max: int, k_max: int) -> Optional[mpf]:
    """``L`` as an mpf once :func:`build_grid`'s argument checks pass.

    L must be finite and > 0, and n_max and k_max >= 0; an L of None, a
    scale still to be chosen, passes and is returned as None.
    """
    if L is not None:
        L = to_mpf(L)
        if not 0 < L < mpmath.inf:
            raise DomainError("L must be finite and > 0")
    if n_max < 0 or k_max < 0:
        raise DomainError("n_max and k_max must be >= 0")
    return L


def build_grid(m: MomentSequence, L, n_max: int,
               k_max: int) -> PositivityGrid:
    """Certify every cell of the (n, k) rectangle for the scale L.

    Requires n_max + k_max <= M so the whole rectangle is defined.  The
    mu_n = m_n L^-n are formed with 32 guard bits; they and their radii
    (moment radius plus that rounding) become integers at one common
    exponent, the radii rounded up and one unit more.  The tables

        cell(n, k+1) = cell(n, k) - cell(n+1, k),
        R(n, k+1) = R(n, k) + R(n+1, k)

    are then exact, and :func:`certify_sign` rates each cell against R.
    """
    L = grid_arguments(L, n_max, k_max)
    if n_max + k_max > m.max_index:
        raise DomainError(
            f"grid ({n_max},{k_max}) needs moments up to index "
            f"{n_max + k_max}, sequence has {m.max_index}")
    bits = mp.prec
    with workprec(bits + 32):
        u = mpf(2) ** -mp.prec
        invL = 1 / L
        p = mpf(1)  # L^-n, with n roundings
        mu, rad = [], []
        for n in range(n_max + k_max + 1):
            mu.append(m.m[n] * p)
            rad.append((m.radii[n] + (n + 2) * u * abs(m.m[n])) * p)
            p *= invL
        # every |mu_n| / 2^exp < 2^prec, so nint and ceil are exact
        exp = max((mpmath.mag(v) for v in mu if v), default=0) - mp.prec
        row = [int(mpmath.nint(mpmath.ldexp(v, -exp))) for v in mu]
        rrow = [int(mpmath.ceil(mpmath.ldexp(r, -exp))) + 1 for r in rad]
    radii = tuple(mp.make_mpf(from_man_exp(r, exp)) for r in rrow)
    rows = []
    for k in range(k_max + 1):
        rows.append((row, rrow))
        row = [x - y for x, y in zip(row, row[1:])]
        rrow = [x + y for x, y in zip(rrow, rrow[1:])]
    cells: Dict[Tuple[int, int], CertifiedSign] = {}
    first_violation = least = None
    for n in range(n_max + 1):
        for k, (values, bounds) in enumerate(rows):
            v = values[n]
            # one call per cell through this module's global, which the
            # benchmark wraps, until ROADMAP item 5 retargets it
            cert = certify_sign(v, radius=bounds[n])
            # v 2^exp exactly, as mpmath.ldexp(v, exp) gives it
            cells[(n, k)] = CertifiedSign(mp.make_mpf(from_man_exp(v, exp)),
                                          cert.sign, cert.bits_used)
            if cert.sign == NEGATIVE and first_violation is None:
                first_violation = (n, k)
            if least is None or v < least[2]:  # the scale 2^exp is > 0
                least = (n, k, v)
    n, k, _ = least
    min_cell = (n, k, cells[(n, k)].value)
    return PositivityGrid(n_max=n_max, k_max=k_max, L=L, bits=bits,
                          cells=cells, first_violation=first_violation,
                          min_cell=min_cell, radii=radii)


def grid_report(g: PositivityGrid) -> dict:
    """Serializable grid summary.

    Schema (all numbers as full-precision decimal strings)::

        {
          "n_max": int, "k_max": int,
          "L": str, "bits": int,
          "radii": [str, ...],
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
        "radii": [decimal_str(r, g.bits) for r in g.radii],
        "counts": {POSITIVE: counts[POSITIVE], NEGATIVE: counts[NEGATIVE],
                   UNCERTAIN: counts[UNCERTAIN]},
        "cells_negative": negatives,
        "first_violation": list(g.first_violation) if g.first_violation else None,
        "min_cell": [g.min_cell[0], g.min_cell[1],
                     decimal_str(g.min_cell[2], g.bits)],
        "verdict": g.verdict,
    }
