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

computed from the coefficients by the recursion (the tests check them
against the determinant path and against truncated sums over bracketed
zeros).  The
scaled grid criterion then needs L > s_1^(-2), with s_1 ~= 14.1347 the
lowest zero, located here by scanning Xi for sign changes and refining each
by Newton steps on Xi and Xi', safeguarded by bisection.
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
    grid_arguments,
    moments_by_determinant,  # unused here; perfbench/spans.py wraps it by this name
    moments_by_recursion,
    normalize,
)
from .numkernel import (
    AccuracyError,
    CachedKernelQuadrature,
    ConsistencyError,
    DomainError,
    ZeroBracket,
    bisect_sign_change,
    decimal_str,
    default_target,
    log_theta_majorant,
    require_finite,
    scan_target,
    sign_changes,
    sign_target,
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

    Domain: |u| <= 32, far past every kernel cutoff.  Beyond it
    Phi(u) < 2^-(10^28), and exp(-pi e^(2u)) would need an argument
    reduction of about 2.9 |u| bits (2.9 s at u = 1e5): DomainError instead.
    """
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    u = abs(to_mpf(u))
    if u > 32:
        raise DomainError("Phi(u) is evaluated for |u| <= 32 only")
    # e^(5u/2), e^(9u/2) and e^(2u) as powers of one e^(u/2)
    e1 = mpmath.exp(u / 2)
    e2 = e1 * e1
    e4 = e2 * e2
    g5 = e4 * e1
    g9 = g5 * e4
    pi = mpmath.pi
    b = pi * e4
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
        f"Phi series did not converge within {n_terms} terms at u = {u}")


def kernel_cutoff(prec: int, q: int, slope: float) -> mpf:
    """Truncation point of a theta-kernel moment integral.

    Smallest u (on a quarter-unit grid from 1) with
    pi*e^(2u)/q - slope*u > prec*ln2 + 16, where the integrand, bounded by
    exp(slope*u - pi*e^(2u)/q), is below working epsilon; the doubly
    exponential decay makes the remaining tail irrelevant at prec bits.
    For Phi u^(2n), q = 1 and slope = 9/2 + 2n.  The quadrature bounds
    the tail past the cutoff from the kernel's majorant.
    """
    goal = prec * math.log(2) + 16
    u = 1.0
    while math.pi * math.exp(2 * u) / q - slope * u <= goal:
        u += 0.25
    return mpf(u)


def _phi_log_majorant(u: float, t: float) -> float:
    """log of a bound on |Phi(u + iy)| over |y| <= t < pi/4, for u >= 0.

    Termwise |e^(9(u+iy)/2)| = e^(9u/2) and
    |exp(-n^2 pi e^(2(u+iy)))| = exp(-n^2 pi e^(2u) cos 2y), so the series
    of the terms' moduli at cos 2t bounds Phi.  Phi is even, so this also
    bounds |Phi(-u + iy)|, where the series of moduli diverges.
    """
    e2u = math.exp(2 * u)
    lead = 4.5 * u + math.log(4 * math.pi ** 2)
    # 4 n^4 pi^2 e^(9u/2) + 6 n^2 pi e^(5u/2), factored
    return log_theta_majorant(
        lambda n: lead + 4 * math.log(n)
        + math.log1p(3 / (2 * math.pi * n * n * e2u)),
        math.pi * e2u * math.cos(2 * t))


_kernel_cache: dict = {}


def _phi_kernel(u_max: mpf, prec: int) -> CachedKernelQuadrature:
    """Cached Phi kernel on [0, u_max'] with u_max' >= u_max, one per precision.

    A request past the cached cutoff replaces the kernel; the integrands
    are negligible on the extra stretch, where the tail bound covers them.
    """
    found = _kernel_cache.get(prec)
    if found is None or found.b < u_max:
        found = _kernel_cache[prec] = CachedKernelQuadrature(
            phi, u_max, _phi_log_majorant)
    return found


@dataclass(frozen=True)
class XiCoefficients:
    """Computed a_0..a_N with their error radii.

    ``radii[n]`` bounds the error of a_n: 2/(2n)! times the quadrature's
    error radius (the strip bound, the tail past the cutoff and the
    rounding of the level sums) plus a_n's rounding.
    """

    a: Tuple[mpf, ...]
    radii: Tuple[mpf, ...]

    def __post_init__(self):
        for n, v in enumerate(self.a):
            if not v > 0:
                raise ConsistencyError(f"a_{n} evaluated nonpositive: {v}")


def xi_coefficients(N: int) -> XiCoefficients:
    """Taylor coefficients a_0..a_N of xi(1/2 + s) in s^2, by quadrature.

    All coefficients are the even moments of one cached Phi kernel on
    [0, u_max(N)], taken together by
    :meth:`CachedKernelQuadrature.moments`.
    """
    if N < 0:
        raise DomainError("N must be >= 0")
    prec = mp.prec
    kernel = _phi_kernel(kernel_cutoff(prec, 1, 4.5 + 2 * N), prec)
    values, radii = kernel.moments(range(0, 2 * N + 1, 2))
    u = mpf(2) ** -prec
    facs = [2 / mpf(mpmath.factorial(2 * n)) for n in range(N + 1)]
    a = [fac * v for fac, v in zip(facs, values)]
    radii = [fac * r + 4 * u * abs(v) for fac, r, v in zip(facs, radii, a)]
    return XiCoefficients(tuple(a), tuple(radii))


def xi_eval(s, target: Optional[mpf] = None, derivative: bool = False):
    """Xi(s) = 2 int_0^umax Phi(u) cos(us) du for real s.

    ``target`` is the absolute error goal (None: the default); the
    integrals, half the values, are taken to half of it.  With
    ``derivative``, returns (Xi(s), Xi'(s)) with
    Xi'(s) = -2 int_0^umax u Phi(u) sin(us) du, integrated together on the
    same Phi values by :meth:`CachedKernelQuadrature.fourier`, which takes
    cos and sin at the nodes by integer angle addition, from two
    ``cos_sin`` calls per trapezoidal level.
    """
    prec = mp.prec
    kernel = _phi_kernel(kernel_cutoff(prec, 1, 4.5), prec)
    half = (default_target(prec) if target is None else to_mpf(target)) / 2
    value = kernel.fourier(s, half, derivative).value
    if derivative:
        return tuple(require_finite(2 * v, "Xi(s) or Xi'(s)") for v in value)
    return require_finite(2 * value, "Xi(s)")


def bracket_zeros(s_max) -> List[ZeroBracket]:
    """Sign-change brackets of Xi on [0, s_max], refined to width 2^-(prec/2).

    The scan is :func:`numkernel.sign_changes` on signs of Xi at the loose
    :func:`numkernel.sign_target`; each sign change is refined by
    :func:`numkernel.bisect_sign_change`, with safeguarded Newton steps on
    Xi and Xi' at the :func:`numkernel.scan_target`, before the scan goes
    on.  The scan step is safe up to heights of a few hundred.  An empty
    list is a valid result.
    """
    prec = mp.prec
    fine, rough = scan_target(prec), sign_target(prec)
    xi = lambda s: xi_eval(s, fine)
    xi_dxi = lambda s: xi_eval(s, fine, derivative=True)
    return [bisect_sign_change(xi, *cell, fdf=xi_dxi)
            for cell in sign_changes(xi, 0, s_max,
                                     rough=lambda s: xi_eval(s, rough))]


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
    s1_radius: mpf  # width of the certified bracket around s1
    L: mpf
    moments: MomentSequence
    grid: PositivityGrid


def moment_tail(
        N: int, L, n_max: int, k_max: int,
        source: Callable[[], Optional[Tuple[SeriesPrefix, ZeroBracket]]]
) -> Optional[MomentTail]:
    """The criterion once the normalized coefficients and s_1 are known.

    Checks N >= n_max + k_max + 2 and the grid arguments of
    :func:`moments.build_grid` (an explicit ``L`` finite and > 0, n_max
    and k_max >= 0) first, so a bad argument costs no quadrature, then
    calls ``source()`` for the normalized series a_0..a_N with its radii
    and the bracket of s_1, or None when the positivity hypothesis fails
    (then this returns None too).  s_1 is the bracket's refined root and
    ``s1_radius`` its width.  ``L`` "auto" or None means
    :func:`auto_scale`; an explicit L must exceed s_1^(-2) over the whole
    bracket, that is lo^(-2).  The recursion
    runs to depth N-2, and the (n_max, k_max) grid is certified at the
    scale L.
    """
    if N < n_max + k_max + 2:
        raise DomainError(
            f"N = {N} too small: grid ({n_max},{k_max}) needs N >= "
            f"{n_max + k_max + 2}")
    auto = L is None or L == "auto"
    L = grid_arguments(None if auto else L, n_max, k_max)
    found = source()
    if found is None:
        return None
    series, bracket = found
    s1 = bracket.refined_root
    if auto:
        L = auto_scale(s1)
    elif not L > 1 / bracket.lo ** 2:
        raise DomainError(
            f"L = {decimal_str(L)} violates the constraint L > s_1^-2 = "
            f"{decimal_str(1 / bracket.lo ** 2)} (at the bracket's low end)")
    moments = moments_by_recursion(series, N - 2)
    return MomentTail(s1, bracket.hi - bracket.lo, L, moments,
                      build_grid(moments, L, n_max, k_max))


#: the Xi zero scan covers [0, SCAN_MAX]; s_1 ~= 14.13 lies inside
SCAN_MAX = mpf(16)


@dataclass(frozen=True)
class XiPipelineResult:
    coefficients: XiCoefficients
    brackets: Tuple[ZeroBracket, ...]
    tail: MomentTail


def rh_moment_pipeline(N: int, L, n_max: int, k_max: int) -> XiPipelineResult:
    """Full grid check for the Xi moments.

    Brackets the Xi zeros below :data:`SCAN_MAX`, computes a_0..a_N and
    hands the normalized series and the bracket of s_1 to
    :func:`moment_tail`, which resolves ``L`` and certifies the
    (n_max, k_max) grid.
    """
    coeffs = brackets = None

    def source():
        nonlocal coeffs, brackets
        # the coefficients' kernel has the larger cutoff: built first, it
        # serves the zero scan too
        _phi_kernel(kernel_cutoff(mp.prec, 1, 4.5 + 2 * N), mp.prec)
        brackets = tuple(bracket_zeros(SCAN_MAX))
        if not brackets:
            raise DomainError(f"no Xi zero located below {SCAN_MAX}")
        coeffs = xi_coefficients(N)
        return normalize(coeffs.a, coeffs.radii), brackets[0]

    tail = moment_tail(N, L, n_max, k_max, source)
    return XiPipelineResult(coeffs, brackets, tail)


def export_brackets(brackets: Sequence[ZeroBracket],
                    path: Union[str, Path]) -> None:
    """Write refined roots as a zero fixture (one 're im' line per zero).

    The exported values are the heights s_rho; loading them as an even zero
    set (z_n = s_rho) feeds the zero-sum moment oracle.
    """
    save_zeros(path, [b.refined_root for b in brackets],
               header="bracketed zero heights")
