"""The completed-zeta instantiation of the moment criterion.

The even entire function xi(1/2 + s) = sum a_n s^(2n) has the kernel
representation

    a_n = (2/(2n)!) * int_0^inf Phi(u) u^(2n) du,
    Phi(u) = sum_(n>=1) (4 n^4 pi^2 e^(9u/2) - 6 n^2 pi e^(5u/2))
             * exp(-n^2 pi e^(2u)) > 0,

and Xi(s) = xi(1/2 + is) = 2 int_0^inf Phi(u) cos(us) du.  Because Phi
decays doubly exponentially, both integrals are truncated at a closed-form
u_max where the integrand drops below the working epsilon, and all of them
share the Phi values at the quadrature nodes (one kernel build serves every
coefficient and every Xi evaluation at a given precision).

Substituting z = -s^2 turns Xi into an entire function of z with positive
coefficients a_n/a_0 whose zeros are -s_rho^2 over the Xi zeros s_rho, so
the general moment machinery applies with

    m_k = sum_rho s_rho^(-(2k+4)),

computed from the coefficients by the recursion and checked against the
determinant path and against truncated sums over bracketed zeros.  The
scaled grid criterion then needs L > s_1^(-2), with s_1 ~= 14.1347 the
lowest zero, located here by scanning Xi for sign changes and bisecting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from mpmath import mp, mpf
import mpmath

from .moments import (
    MomentSequence,
    PositivityGrid,
    SeriesPrefix,
    build_grid,
    moments_by_determinant,
    moments_by_recursion,
    normalize,
)
from .numkernel import (
    AccuracyError,
    CachedKernelQuadrature,
    ConsistencyError,
    DomainError,
    ZeroBracket,
    bisect_sign_change,  # unused here; perfbench/spans.py wraps it by this name
    decimal_str,
    default_target,
    require_finite,
    scan_target,
    sign_change_brackets,
    to_mpf,
)
from .oracle import save_zeros

__all__ = [
    "MomentTail",
    "XiCoefficients",
    "XiPipelineResult",
    "auto_scale",
    "bracket_zeros",
    "export_brackets",
    "kernel_cutoff",
    "moment_tail",
    "phi",
    "rh_moment_pipeline",
    "xi_coefficients",
    "xi_eval",
    "zero_sum_tail_bound",
]


def phi(u, n_terms: int = 100000) -> mpf:
    """The positive kernel Phi(u), summed until the tail is negligible.

    Phi is even, so the argument is reduced to |u|.  Terms are positive and
    decreasing for u >= 0; summation stops once the next term falls below
    2^-(prec+8) of the partial sum.  Exhausting ``n_terms`` first raises
    :class:`AccuracyError`; a nonpositive result (impossible analytically)
    raises :class:`ConsistencyError`.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    u = abs(to_mpf(u))
    g9 = mpmath.exp(mpf(9) * u / 2)
    g5 = mpmath.exp(mpf(5) * u / 2)
    pi = mpmath.pi
    b = pi * mpmath.exp(2 * u)
    # e^(-n^2 b) by the two-multiplication recurrence, not one exp per term
    p = mpmath.exp(-b)
    ratio = p * p
    q = p * ratio  # e^(-(2n+1) b) at n = 1
    stop = mpf(2) ** (-(mp.prec + 8))
    s = mpf(0)
    for n in range(1, n_terms + 1):
        n2 = n * n
        term = (4 * n2 * n2 * pi * pi * g9 - 6 * n2 * pi * g5) * p
        s += term
        if term < stop * s:
            if not s > 0:
                raise ConsistencyError(f"Phi({u}) evaluated nonpositive: {s}")
            return s
        p *= q
        q *= ratio
    raise AccuracyError(
        f"Phi series did not converge within {n_terms} terms at u = {u}",
        best_estimate=s)


def kernel_cutoff(prec: int, q: int, slope: float) -> mpf:
    """Truncation point of a theta-kernel moment integral.

    Smallest u (on a quarter-unit grid from 1) with
    pi*e^(2u)/q - slope*u > prec*ln2 + 16, where the integrand, bounded by
    exp(slope*u - pi*e^(2u)/q), is below working epsilon; the doubly
    exponential decay makes the remaining tail irrelevant at prec bits.
    For Phi u^(2n), q = 1 and slope = 9/2 + 2n.
    """
    goal = prec * math.log(2) + 16
    u = 1.0
    while math.pi * math.exp(2 * u) / q - slope * u <= goal:
        u += 0.25
    return mpf(u)


_kernel_cache: dict = {}


def _phi_kernel(u_max: mpf, prec: int) -> CachedKernelQuadrature:
    key = (prec, str(u_max))
    if key not in _kernel_cache:
        _kernel_cache[key] = CachedKernelQuadrature(phi, 0, u_max)
    return _kernel_cache[key]


@dataclass(frozen=True)
class XiCoefficients:
    """Computed a_0..a_N with a per-coefficient quadrature difference.

    ``quadrature_error[n]`` is the scaled difference of the last two
    quadrature levels of a_n, not an error bound: it is exactly 0 when two
    levels agree to every guard bit.  ``radii[n]`` is 2/(2n)! times the
    quadrature target (never below that difference) plus a_n's rounding.
    """

    a: Tuple[mpf, ...]
    quadrature_error: Tuple[mpf, ...]
    radii: Tuple[mpf, ...]

    def __post_init__(self):
        for n, v in enumerate(self.a):
            if not v > 0:
                raise ConsistencyError(f"a_{n} evaluated nonpositive: {v}")


def xi_coefficients(N: int) -> XiCoefficients:
    """Taylor coefficients a_0..a_N of xi(1/2 + s) in s^2, by quadrature.

    All coefficients share one cached Phi kernel on [0, u_max(N)]; the
    moment integrals differ only in the polynomial factor u^(2n).
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    prec = mp.prec
    kernel = _phi_kernel(kernel_cutoff(prec, 1, 4.5 + 2 * N), prec)
    a: List[mpf] = []
    errs: List[mpf] = []
    radii: List[mpf] = []
    target, u = default_target(prec), mpf(2) ** -prec
    for n in range(N + 1):
        fac = 2 / mpf(mpmath.factorial(2 * n))
        value, err = kernel.integrate(lambda u, n=n: u ** (2 * n))
        a.append(fac * value)
        errs.append(fac * err)
        radii.append(fac * target + 4 * u * abs(a[-1]))
    return XiCoefficients(tuple(a), tuple(errs), tuple(radii))


def xi_eval(s, target: Optional[mpf] = None) -> mpf:
    """Xi(s) = 2 int_0^umax Phi(u) cos(us) du for real s.

    ``target`` is the absolute quadrature error goal (None: the default).
    """
    s = to_mpf(s)
    prec = mp.prec
    kernel = _phi_kernel(kernel_cutoff(prec, 1, 4.5), prec)
    value, _ = kernel.integrate(lambda u: 2 * mpmath.cos(u * s), target)
    return require_finite(value, "Xi(s)")


_bracket_cache: dict = {}


def bracket_zeros(s_max) -> List[ZeroBracket]:
    """Sign-change brackets of Xi on [0, s_max], bisected to width 2^-(prec/2).

    The scan is :func:`numkernel.sign_change_brackets`; its step is safe up
    to heights of a few hundred.  An empty list is a valid result.
    """
    s_max = to_mpf(s_max)
    prec = mp.prec
    key = (prec, str(s_max))
    if key not in _bracket_cache:
        target = scan_target(prec)
        _bracket_cache[key] = list(sign_change_brackets(
            lambda s: xi_eval(s, target), 0, s_max))
    return _bracket_cache[key]


def zero_sum_tail_bound(T, k: int) -> mpf:
    """Upper bound for sum of s_rho^(-(2k+4)) over zeros above height T.

    Uses the classical per-unit-interval zero count O(log t) with the very
    safe constant 2 (the true density below height ~10^6 is under 0.7 per
    unit):  tail <= 2 * int_(T-1)^inf ln(2t) t^-(2k+4) dt, evaluated in
    closed form.
    """
    T = to_mpf(T)
    if not T > 2:
        raise DomainError("tail bound needs T > 2")
    e = 2 * k + 4
    X = T - 1
    return 2 * (mpmath.log(2 * X) / (e - 1) + mpf(1) / (e - 1) ** 2) \
        * X ** (-(e - 1))


def zero_sum_moment(brackets: Sequence[ZeroBracket], k: int) -> mpf:
    """Truncated moment sum_(rho in brackets) s_rho^(-(2k+4))."""
    return mpf(mpmath.fsum(b.refined_root ** (-(2 * k + 4)) for b in brackets))


def auto_scale(s1) -> mpf:
    """Default grid scale 1.05 * s_1^(-2); anything > s_1^(-2) is admissible."""
    s1 = to_mpf(s1)
    return mpf("1.05") / (s1 * s1)


class MomentTail(NamedTuple):
    """What the Xi and Dirichlet pipelines compute from a series and s_1."""

    s1: mpf
    L: mpf
    moments: MomentSequence
    det_residuals: Tuple[mpf, ...]  # |recursion - determinant| for small l
    grid: PositivityGrid


def moment_tail(N: int, L, n_max: int, k_max: int,
                source: Callable[[], Optional[Tuple[SeriesPrefix, mpf]]]
                ) -> Optional[MomentTail]:
    """The criterion once the normalized coefficients and s_1 are known.

    Checks N >= n_max + k_max + 2 and parses an explicit ``L`` first, then
    calls ``source()`` for the normalized series a_0..a_N with its radii
    and s_1, or None when the positivity hypothesis fails (then this
    returns None too).  ``L`` "auto" or None means :func:`auto_scale`;
    an explicit L must exceed s_1^(-2).  The recursion runs to depth N-2,
    is cross-checked against the determinant path for l <= 8, and the
    (n_max, k_max) grid is certified at the scale L.
    """
    if N < n_max + k_max + 2:
        raise DomainError(
            f"N = {N} too small: grid ({n_max},{k_max}) needs N >= "
            f"{n_max + k_max + 2}")
    auto = L is None or L == "auto"
    if not auto:
        L = to_mpf(L)
    found = source()
    if found is None:
        return None
    series, s1 = found
    if auto:
        L = auto_scale(s1)
    elif not L > 1 / (s1 * s1):
        raise DomainError(
            f"L = {decimal_str(L)} violates the constraint "
            f"L > s_1^-2 = {decimal_str(1 / (s1 * s1))}")
    moments = moments_by_recursion(series, N - 2)
    residuals = tuple(
        abs(moments.m[l] - moments_by_determinant(series, l))
        for l in range(min(8, N - 2) + 1))
    grid = build_grid(moments, L, n_max, k_max)
    return MomentTail(s1, L, moments, residuals, grid)


#: the Xi zero scan covers [0, SCAN_MAX]; s_1 ~= 14.13 lies inside
SCAN_MAX = mpf(16)


@dataclass(frozen=True)
class XiPipelineResult:
    coefficients: XiCoefficients
    brackets: Tuple[ZeroBracket, ...]
    s1: mpf
    L: mpf
    moments: MomentSequence
    det_residuals: Tuple[mpf, ...]
    grid: PositivityGrid


def rh_moment_pipeline(N: int, L, n_max: int, k_max: int) -> XiPipelineResult:
    """Full grid check for the Xi moments.

    Brackets the Xi zeros below :data:`SCAN_MAX`, computes a_0..a_N and
    hands the normalized series and s_1 to :func:`moment_tail`, which
    resolves ``L`` and certifies the (n_max, k_max) grid.
    """
    coeffs = brackets = None

    def source():
        nonlocal coeffs, brackets
        brackets = tuple(bracket_zeros(SCAN_MAX))
        if not brackets:
            raise DomainError(f"no Xi zero located below {SCAN_MAX}")
        coeffs = xi_coefficients(N)
        return normalize(coeffs.a, coeffs.radii), brackets[0].refined_root

    tail = moment_tail(N, L, n_max, k_max, source)
    return XiPipelineResult(coefficients=coeffs, brackets=brackets,
                            **tail._asdict())


def export_brackets(brackets: Sequence[ZeroBracket],
                    path: Union[str, Path]) -> None:
    """Write refined roots as a zero fixture (one 're im' line per zero).

    The exported values are the heights s_rho; loading them as an even zero
    set (z_n = s_rho) feeds the zero-sum moment oracle.
    """
    save_zeros(path, [b.refined_root for b in brackets],
               header="bracketed zero heights")
