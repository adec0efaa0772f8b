"""Arbitrary-precision numeric core shared by every other module.

Everything here runs on mpmath ``mpf``/``mpc`` values at the ambient
``mpmath.mp.prec`` (binary mantissa bits); callers that need a specific
precision wrap calls in ``mpmath.workprec(bits)``.

Provided here:

* :class:`CachedKernelQuadrature` - trapezoidal-rule quadrature of many
  integrals ``int_a^b K(x) g(x) dx`` that share an expensive kernel ``K``;
  the kernel values at the equispaced nodes are computed once, there are
  no node tables, and the error is estimated from inter-level
  differences; :func:`default_target` is the error target unless a caller
  passes one.  The rule needs K*g analytic in a strip around [a, b],
  negligible at b, and negligible or even at a.
* :func:`sign_change_brackets` - zero location: a scan for sign changes
  at step :data:`SCAN_STEP`, each bracket bisected by
  :func:`bisect_sign_change` to width ``2^-(prec/2)``.
* :func:`certify_sign` - the one sign rule: a value known to within a
  stated radius has a certified sign only when its magnitude exceeds the
  radius (midpoint-radius arithmetic in the style of Arb; Johansson,
  IEEE TC 66, 2017); otherwise it is ``zero-uncertain``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from mpmath import mp, mpf, mpc, workprec
import mpmath

__all__ = [
    "AccuracyError",
    "CachedKernelQuadrature",
    "CertifiedSign",
    "ConsistencyError",
    "DomainError",
    "NEGATIVE",
    "POSITIVE",
    "UNCERTAIN",
    "ZeroBracket",
    "bisect_sign_change",
    "certify_sign",
    "comp_sum",
    "decimal_str",
    "default_target",
    "require_finite",
    "scan_target",
    "sign_change_brackets",
    "to_mpc",
    "to_mpf",
]

Number = Union[int, float, str, Fraction, mpf]


class DomainError(ValueError):
    """An argument violates a documented mathematical precondition."""


class AccuracyError(ArithmeticError):
    """A numeric routine could not reach the requested accuracy.

    Carries the best estimate it had, so callers can decide whether the
    partial answer is still useful.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class ConsistencyError(ArithmeticError):
    """An internal identity that should hold analytically failed numerically."""


def to_mpf(x: Number) -> mpf:
    """Convert to mpf at the ambient precision; Fractions divide exactly once."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def to_mpc(x) -> mpc:
    if isinstance(x, Fraction):
        return mpc(to_mpf(x))
    return mpc(x)


def require_finite(x, what: str = "value"):
    """Raise ConsistencyError if x is NaN or infinite; return x otherwise."""
    if isinstance(x, mpc):
        require_finite(x.real, what)
        require_finite(x.imag, what)
        return x
    if mpmath.isnan(x) or mpmath.isinf(x):
        raise ConsistencyError(f"non-finite {what}: {x}")
    return x


def decimal_str(x, bits: Optional[int] = None) -> str:
    """Full-precision decimal string for a real value.

    Reports must round-trip the working precision, so the digit count is
    derived from ``bits`` (default: the ambient precision).
    """
    if bits is None:
        bits = mp.prec
    digits = int(bits / 3.3219280948873626) + 3
    return mpmath.nstr(mpf(x), digits)


def comp_sum(terms) -> mpf:
    """Neumaier-compensated sum, in iteration order."""
    s = mpf(0)
    c = mpf(0)
    for t in terms:
        tot = s + t
        if abs(s) >= abs(t):
            c += (s - tot) + t
        else:
            c += (t - tot) + s
        s = tot
    return s + c


# ---------------------------------------------------------------------------
# Sign certification

POSITIVE = "positive"
NEGATIVE = "negative"
UNCERTAIN = "zero-uncertain"


@dataclass(frozen=True)
class CertifiedSign:
    value: Number
    sign: str
    # the working precision of the inputs; it stays only until ROADMAP
    # item 5 retargets the benchmark's certify_sign note, which reads it
    bits_used: int


def certify_sign(value, *, radius) -> CertifiedSign:
    """Certify the sign of ``value``, known to lie within ``radius`` of it.

    Certified only when ``|value| > radius``; otherwise ``zero-uncertain``,
    a valid answer that inputs at more precision may settle.
    """
    # the radius stays keyword-only until ROADMAP item 5 retargets the
    # benchmark's certify_sign note, which reads a policy from args[1]
    if not radius >= 0:
        raise DomainError(f"radius must be >= 0, got {radius}")
    if value > radius:
        sign = POSITIVE
    elif value < -radius:
        sign = NEGATIVE
    else:
        sign = UNCERTAIN
    return CertifiedSign(value, sign, mp.prec)


# ---------------------------------------------------------------------------
# Quadrature

#: extra working bits inside quadrature loops
_QUAD_GUARD = 32

#: trapezoidal levels (step halvings) tried before giving up
MAX_LEVELS = 12

#: intervals of the level-0 trapezoidal rule on [a, b]
BASE_INTERVALS = 8


def default_target(prec: int) -> mpf:
    """Absolute quadrature error target 2^-(prec-16) at ``prec`` bits."""
    return mpf(2) ** (-(prec - 16))


class CachedKernelQuadrature:
    """Many integrals ``int_a^b K(x) g(x) dx`` sharing one kernel ``K``.

    The rule is the equispaced trapezoidal rule: level 0 has
    :data:`BASE_INTERVALS` intervals with half weights at a and b, and each
    later level adds the midpoints and halves the step.  It converges
    geometrically only if K*g is analytic in a strip around [a, b], is
    negligible at b, and at a is negligible or even about a; otherwise it
    converges like h^2 and ends in :class:`AccuracyError`.  Phi(u) u^(2n)
    and Phi(u) cos(us) are even at u = 0 and phi(y, chi) is negligible at
    +-y_max, so the theta kernels of this package qualify.

    Kernel values at the nodes are computed lazily, once per level, at the
    precision current at construction, and reused for every ``g``.  This
    is the workhorse behind Taylor coefficient batches and zero
    bracketing, where the kernel (a theta-type series) is far more
    expensive than the polynomial or oscillatory factor.
    """

    def __init__(self, kernel, a, b):
        self.a = to_mpf(a)
        self.b = to_mpf(b)
        if not self.b > self.a:
            raise DomainError("CachedKernelQuadrature needs a < b")
        self.prec = mp.prec
        self._kernel = kernel
        self._levels = []  # level -> list of (x, weight * K(x)), step omitted

    def _step(self, level: int) -> mpf:
        return (self.b - self.a) / (BASE_INTERVALS << level)

    def _ensure_level(self, level: int):
        with workprec(self.prec + _QUAD_GUARD):
            while len(self._levels) <= level:
                lv = len(self._levels)
                n = BASE_INTERVALS << lv
                h = self._step(lv)
                if lv == 0:  # half weights at the ends
                    entries = [(x, self._kernel(x) / 2)
                               for x in (self.a, self.b)]
                    js = range(1, n)
                else:  # the midpoints of the previous level
                    entries = []
                    js = range(1, n, 2)
                entries += [(x, self._kernel(x))
                            for x in (self.a + j * h for j in js)]
                self._levels.append(entries)

    def integrate(self, g, target=None):
        """Return (value, err) for ``int K(x) g(x) dx`` at the cached nodes.

        ``target`` is the absolute error goal, :func:`default_target` if None.
        """
        result = None
        with workprec(self.prec + _QUAD_GUARD):
            if target is None:
                target = default_target(self.prec)
            else:
                target = to_mpf(target)
            best = None
            err = mpf("inf")
            for level in range(MAX_LEVELS + 1):
                self._ensure_level(level)
                h = self._step(level)
                new = mpmath.fsum(kw * g(x) for x, kw in self._levels[level])
                s = new * h if best is None else best / 2 + new * h
                if best is not None:
                    err = abs(s - best)
                    if err <= target and level >= 2:
                        result = (s, err)
                        break
                best = s
        if result is None:
            raise AccuracyError(
                "cached-kernel quadrature did not converge "
                f"(last difference {mpmath.nstr(err, 5)})",
                best_estimate=best, error_estimate=err)
        with workprec(self.prec):
            return +result[0], +result[1]


# ---------------------------------------------------------------------------
# Zero location

#: spacing of the sign scan; it must stay below the gap between neighbouring
#: zeros (about 7 near the first Xi zeros, shrinking like 2 pi / log of the
#: height), so 0.5 is safe up to heights of a few hundred
SCAN_STEP = mpf("0.5")


def scan_target(prec: int) -> mpf:
    """Quadrature target 2^-(3 prec/4) for the evaluations of a sign scan."""
    # sign resolution near a simple zero needs error << |f'| * final width
    # ~ 2^-(prec/2); a 3*prec/4 target leaves ample margin and saves levels
    return mpf(2) ** (-(3 * prec // 4))


@dataclass(frozen=True)
class ZeroBracket:
    """An interval around a zero of a real function, with its midpoint."""

    lo: mpf
    hi: mpf
    refined_root: mpf

    def __post_init__(self):
        if not (self.lo < self.refined_root < self.hi):
            raise DomainError("refined root must lie inside the bracket")


def bisect_sign_change(f, lo, hi, f_lo=None, f_hi=None,
                       width=None) -> ZeroBracket:
    """Shrink a sign-change bracket [lo, hi] of ``f`` to ``width`` by bisection.

    The returned bracket holds either a sign change of ``f`` or, when a
    midpoint evaluates to exactly zero, that zero at its centre.  ``width``
    defaults to 2^-(prec/2).
    """
    lo, hi = to_mpf(lo), to_mpf(hi)
    if width is None:
        width = mpf(2) ** (-(mp.prec // 2))
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if not f_lo * f_hi < 0:
        raise DomainError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > width:
        mid = (lo + hi) / 2
        f_mid = f(mid)
        if f_mid == 0:
            lo, hi = mid - width / 2, mid + width / 2
            break
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return ZeroBracket(lo, hi, (lo + hi) / 2)


def sign_change_brackets(f, lo, hi) -> Iterator[ZeroBracket]:
    """Yield a bisected :class:`ZeroBracket` per sign change of ``f`` on [lo, hi].

    ``f`` is evaluated once at each of lo, lo + SCAN_STEP, ..., hi, lazily:
    a caller that stops after one bracket evaluates no scan point beyond it.
    Brackets are refined to the default width of :func:`bisect_sign_change`
    at the precision current when the generator resumes.  An even number of
    zeros within one step, or a zero exactly on a scan point, produce no
    bracket.
    """
    lo, hi = to_mpf(lo), to_mpf(hi)
    s_prev, v_prev = lo, f(lo)
    while s_prev < hi:
        s = min(s_prev + SCAN_STEP, hi)
        v = f(s)
        if v_prev * v < 0:
            yield bisect_sign_change(f, s_prev, s, v_prev, v)
        s_prev, v_prev = s, v
