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
  passes one.  A kernel value may be a tuple of parts with one real
  multiplier each, which folds a kernel on [-b, b] onto [0, b].  The rule
  needs K*g analytic in a strip around [a, b], negligible at b, and
  negligible or even at a.
* zero location: :func:`sign_changes` scans for sign changes at step
  :data:`SCAN_STEP` and needs only certified signs, then
  :func:`bisect_sign_change` refines each: Newton steps
  safeguarded by bisection when a derivative is given, plain bisection
  otherwise, to a bracket of width ``2^-(prec/2)``.
* :func:`certify_sign` - the one sign rule: a value known to within a
  stated radius has a certified sign only when its magnitude exceeds the
  radius (midpoint-radius arithmetic in the style of Arb; Johansson,
  IEEE TC 66, 2017); otherwise it is ``zero-uncertain``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
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
    "decimal_str",
    "default_target",
    "require_finite",
    "scan_target",
    "sign_changes",
    "sign_target",
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
    and Phi(u) cos(us) are even at u = 0, a kernel folded onto [0, b] (below)
    gives even integrands by construction, and phi(y, chi) is negligible at
    +-y_max, so the theta kernels of this package qualify.

    A kernel value may be a tuple of parts ``(K_1, ..., K_p)``; a number
    is the one-part case.  Then the integrand ``g`` returns one real
    multiplier per part, ``(g_1, ..., g_p)``, and the integral is
    ``int sum_j K_j(x) g_j(x) dx``.  A kernel on [-b, b] folded onto
    [0, b] has the parts E = K(x) + K(-x) and F = i (K(x) - K(-x)), so
    K(x) g(x) + K(-x) g(-x) = E g_even(x) - i F g_odd(x): e^(isx) has the
    multipliers (cos sx, sin sx), i x e^(isx) has (-x sin sx, x cos sx),
    and x^n has (x^n, 0) for even n and i times (0, -x^n) for odd n.  At
    x = 0, E = 2 K(0) and F = 0, so the half weight there restores the
    node's full weight on [-b, b], and folded level l is level l + 1 of
    the rule on [-b, b], node for node.

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
        self._multipart = None  # whether kernel values are tuples of parts
        # level -> (nodes, weight * kernel parts, node by node); step omitted
        self._levels = []

    def _step(self, level: int) -> mpf:
        return (self.b - self.a) / (BASE_INTERVALS << level)

    def _ensure_level(self, level: int):
        with workprec(self.prec + _QUAD_GUARD):
            while len(self._levels) <= level:
                lv = len(self._levels)
                n = BASE_INTERVALS << lv
                h = self._step(lv)
                if lv == 0:  # the ends, with half weights
                    nodes = [self.a, self.b]
                    js = range(1, n)
                else:  # the midpoints of the previous level
                    nodes = []
                    js = range(1, n, 2)
                nodes += [self.a + j * h for j in js]
                values = [self._kernel(x) for x in nodes]
                if lv == 0:
                    multi = self._multipart = isinstance(values[0], tuple)
                    values[:2] = [tuple(p / 2 for p in v) if multi else v / 2
                                  for v in values[:2]]
                if self._multipart:
                    values = [p for v in values for p in v]
                self._levels.append((nodes, values))

    def integrate(self, g, target=None):
        """Return (value, err) for ``int K(x) g(x) dx`` at the cached nodes.

        ``target`` is the absolute error goal, :func:`default_target` if None.
        ``g`` may return a tuple of multipliers instead of one: its
        components share the nodes and kernel values, and the value and
        ``err`` are the tuples of their integrals and of their last level
        differences; the rule stops when the largest difference meets the
        target.  Each level's sum is one exactly rounded dot product.
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
                nodes, weights = self._levels[level]
                rows = [g(x) for x in nodes]
                if level == 0:
                    first = rows[0][0] if self._multipart else rows[0]
                    vector = isinstance(first, tuple)
                    flat = chain.from_iterable if self._multipart else iter
                new = [mpmath.fdot(weights, flat(column))
                       for column in (zip(*rows) if vector else [rows])]
                if best is None:
                    s = [v * h for v in new]
                else:
                    s = [b / 2 + v * h for b, v in zip(best, new)]
                    errs = [abs(a - b) for a, b in zip(s, best)]
                    err = max(errs)
                    if err <= target and level >= 2:
                        result = (s, errs)
                        break
                best = s
        unpack = tuple if vector else (lambda parts: parts[0])
        if result is None:
            raise AccuracyError(
                "cached-kernel quadrature did not converge "
                f"(last difference {mpmath.nstr(err, 5)})",
                best_estimate=unpack(best), error_estimate=err)
        with workprec(self.prec):
            return tuple(unpack([+v for v in part]) for part in result)


# ---------------------------------------------------------------------------
# Zero location

#: spacing of the sign scan; it must stay below the gap between neighbouring
#: zeros (about 7 near the first Xi zeros, shrinking like 2 pi / log of the
#: height), so 0.5 is safe up to heights of a few hundred
SCAN_STEP = mpf("0.5")


def scan_target(prec: int) -> mpf:
    """Quadrature target 2^-(3 prec/4) for the evaluations that refine a zero."""
    # the probes at x +- 2^-(prec/2)/2 must get the sign of f right, which
    # needs the error far below |f'| 2^-(prec/2), and a Newton iterate is
    # off by about error/|f'|; 3*prec/4 leaves a margin of 2^-(prec/4) for
    # |f'| near 1, and the trapezoidal rule, converging geometrically,
    # usually lands far below its target
    return mpf(2) ** (-(3 * prec // 4))


def sign_target(prec: int) -> mpf:
    """Quadrature target 2^-(prec/2) for a scan value whose sign alone is used.

    :func:`sign_changes` takes the sign only when :func:`certify_sign`
    certifies it against this radius.
    """
    return mpf(2) ** (-(prec // 2))


@dataclass(frozen=True)
class ZeroBracket:
    """An interval around a zero of a real function, with its midpoint."""

    lo: mpf
    hi: mpf
    refined_root: mpf

    def __post_init__(self):
        if not (self.lo < self.refined_root < self.hi):
            raise DomainError("refined root must lie inside the bracket")


def bisect_sign_change(f, lo, hi, f_lo=None, f_hi=None, width=None,
                       fdf=None) -> ZeroBracket:
    """Shrink a sign-change bracket [lo, hi] of ``f`` to ``width``.

    ``fdf(x)``, when given, returns ``(f(x), f'(x))`` and makes each step a
    Newton step safeguarded by bisection ("rtsafe", Numerical Recipes
    9.4): a step that leaves the bracket or fails to halve the previous
    step bisects instead.  Without ``fdf`` every step bisects.  Each
    evaluation replaces the end of the bracket whose sign it shares, so
    f(lo) f(hi) < 0 holds throughout.  A Newton step below width/4 puts the
    root that close to the new iterate x, so ``f`` is probed at
    x +- width/2: a sign change there is the returned bracket, centred on
    x; otherwise the probes shrink the bracket and the next step bisects.

    The returned bracket holds either a sign change of ``f`` or, when an
    evaluation is exactly zero, that zero at its centre.  ``width``
    defaults to 2^-(prec/2).
    """
    lo, hi = to_mpf(lo), to_mpf(hi)
    if width is None:
        width = mpf(2) ** (-(mp.prec // 2))
    f_lo = f(lo) if f_lo is None else f_lo
    f_hi = f(hi) if f_hi is None else f_hi
    if not f_lo * f_hi < 0:
        raise DomainError(f"no sign change on [{lo}, {hi}]")
    rising = f_hi > 0

    def keep(x, fx):
        nonlocal lo, hi
        if (fx > 0) == rising:
            hi = x
        else:
            lo = x

    x, last = (lo + hi) / 2, hi - lo
    while hi - lo > width:
        fx, dfx = (f(x), 0) if fdf is None else fdf(x)
        if fx == 0:
            return ZeroBracket(x - width / 2, x + width / 2, x)
        keep(x, fx)
        step = fx / dfx if dfx else mpmath.inf  # inf: always bisect
        if abs(step) < width / 4:
            x -= step
            probes = [(p, f(p)) for p in (x - width / 2, x + width / 2)]
            for p, fp in probes:
                if fp == 0:
                    return ZeroBracket(p - width / 2, p + width / 2, p)
            if probes[0][1] * probes[1][1] < 0:
                return ZeroBracket(probes[0][0], probes[1][0], x)
            for p, fp in probes:  # the root is not near x after all
                if lo < p < hi:
                    keep(p, fp)
            x, last = (lo + hi) / 2, (hi - lo) / 2
        elif abs(step) <= last / 2 and lo < x - step < hi:
            x, last = x - step, abs(step)
        else:
            x, last = (lo + hi) / 2, (hi - lo) / 2
    return ZeroBracket(lo, hi, (lo + hi) / 2)


def sign_changes(f, lo, hi, rough=None) -> Iterator[tuple]:
    """Yield ``(a, b, f(a), f(b))`` per scan step [a, b] with a sign change.

    The scan visits lo, lo + SCAN_STEP, ..., hi lazily: a caller that stops
    after one sign change evaluates no scan point beyond it.  It needs only
    signs.  ``rough(x)``, when given, is a cheaper evaluation of ``f``
    within :func:`sign_target` of it; a scan point takes the value
    ``rough(x)`` when :func:`certify_sign` certifies its sign against that
    radius and is re-evaluated by ``f`` otherwise.  An even number of zeros
    within one step, or a zero exactly on a scan point, yield nothing.
    """
    lo, hi = to_mpf(lo), to_mpf(hi)

    def scan(x):
        if rough is not None:
            value = rough(x)
            radius = sign_target(mp.prec)
            if certify_sign(value, radius=radius).sign != UNCERTAIN:
                return value
        return f(x)

    s_prev, v_prev = lo, scan(lo)
    while s_prev < hi:
        s = min(s_prev + SCAN_STEP, hi)
        v = scan(s)
        if v_prev * v < 0:
            yield s_prev, s, v_prev, v
        s_prev, v_prev = s, v
