"""Arbitrary-precision numeric core shared by every other module.

Everything here runs on mpmath ``mpf``/``mpc`` values at the ambient
``mpmath.mp.prec`` (binary mantissa bits); callers that need a specific
precision wrap calls in ``mpmath.workprec(bits)``.

Provided here:

* :class:`CachedKernelQuadrature` - trapezoidal-rule quadrature of the
  integrals ``int_0^inf K(x) x^n dx`` and ``int K(x) e^(isx) dx`` of one
  expensive kernel ``K``, cut at b; the kernel values at the equispaced
  nodes are computed once and there are no node tables.  The error radius
  is an a-priori bound (Trefethen & Weideman's strip bound plus the tail
  past b and the rounding), from a majorant of the kernel on the strip
  |Im x| < :data:`STRIP`, so only the smallest level that meets the
  target is built; :func:`default_target` is the target unless a caller
  passes one.  A kernel value may be a pair of parts, which folds a
  kernel on [-b, b] onto [0, b].  The polynomial moments
  :meth:`CachedKernelQuadrature.moments` are one exact integer sum per
  level, of the kernel values at their least exponent times integer
  powers of the node indices, rounded once; the
  oscillatory integrals take the fixed-point path
  :meth:`CachedKernelQuadrature.fourier`: cos and sin at every node of
  the finest level's equispaced grid by one integer angle-addition sweep
  (the trigonometric recurrence, Numerical Recipes 5.4) from one
  ``cos_sin`` call per evaluation, the coarser levels reading every
  other node, and each level sum one exact integer dot product, the
  inner loop on Python integers as in Johansson's fixed-point elementary
  functions (ARITH 22, 2015), with a proved bound on the fixed-point
  error in the radius.  :meth:`CachedKernelQuadrature.fourier_sign` is
  the same path with its turns at :data:`SIGN_BITS` = 64 fraction bits,
  against the same stored integers, and the loose :func:`sign_target`,
  its value a float with a float radius: what a sign needs.
* zero location: :func:`sign_changes` scans for sign changes at step
  :data:`SCAN_STEP` and needs only certified signs, which a cheap
  evaluation with a radius (such as ``fourier_sign``) gives wherever
  the value exceeds it, then :func:`bisect_sign_change` refines each:
  Newton steps
  safeguarded by bisection when a derivative is given, plain bisection
  otherwise, to a bracket of width ``2^-(prec/2)``.
* :func:`certify_sign` - the one sign rule: a value known to within a
  stated radius has a certified sign only when its magnitude exceeds the
  radius (midpoint-radius arithmetic in the style of Arb; Johansson,
  IEEE TC 66, 2017); otherwise it is ``zero-uncertain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, NamedTuple, Optional, Union

from mpmath import mp, mpf, mpc, workprec
from mpmath.libmp import from_man_exp
import mpmath

__all__ = [
    "AccuracyError",
    "CachedKernelQuadrature",
    "CertifiedSign",
    "ConsistencyError",
    "DomainError",
    "Integral",
    "NEGATIVE",
    "POSITIVE",
    "UNCERTAIN",
    "ZeroBracket",
    "bisect_sign_change",
    "certify_sign",
    "decimal_str",
    "default_target",
    "log_theta_majorant",
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
    """A numeric routine could not reach the requested accuracy."""


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

#: fraction bits of the sums of :meth:`CachedKernelQuadrature.fourier_sign`
SIGN_BITS = 64

#: trapezoidal levels (step halvings) available
MAX_LEVELS = 12

#: intervals of the level-0 trapezoidal rule on [0, b]
BASE_INTERVALS = 8

#: results each :class:`CachedKernelQuadrature` keeps; the oldest goes first
MEMO_SIZE = 1024

#: half-width a of the strip |Im x| < a in which the error bound needs every
#: kernel and integrand analytic; the theta kernels are analytic for
#: |Im x| < pi/4
STRIP = 0.7

#: step and most points of the float grids that sum the majorant integrals
_MAJORANT_STEP = 1 / 32
_MAJORANT_POINTS = 1 << 16

_LN2 = math.log(2)


def default_target(prec: int) -> mpf:
    """Absolute quadrature error target 2^-(prec-16) at ``prec`` bits."""
    return mpf(2) ** (-(prec - 16))


def _to_fixed(x, bits: int) -> int:
    """x 2^bits rounded to the nearest integer, for a real number x.

    An infinite or NaN x raises :class:`ConsistencyError`.
    """
    return _raw_to_fixed(mpf(x)._mpf_, bits)


def _raw_to_fixed(raw, bits: int) -> int:
    """:func:`_to_fixed` of the ``mpmath.libmp`` tuple ``raw``, unrounded."""
    sign, man, exp, _ = raw
    if exp and not man:
        raise ConsistencyError(
            f"non-finite value {mpmath.mpf(raw)} in a fixed-point sum")
    shift = exp + bits
    if shift + man.bit_length() < 0:  # below half a unit
        return 0
    n = man << shift if shift >= 0 \
        else (man + (1 << (-shift - 1))) >> -shift
    return -n if sign else n


def _exact(values):
    """Integers W and one exponent e with W_k 2^e = values[k] exactly.

    e is the least exponent of the nonzero ``mpf`` values, which are
    finite: :meth:`CachedKernelQuadrature._ensure_level` checks them.
    """
    raw = [v._mpf_ for v in values]
    e = min((exp for _, man, exp, _ in raw if man), default=0)
    return [(-man if sign else man) << (exp - e) if man else 0
            for sign, man, exp, _ in raw], e


def _to_float(n: int, exp: int) -> float:
    """n 2^exp as a float, n first cut to its 64 leading bits (within 2^-63
    relative), as ``float`` of an integer past 2^1024 overflows."""
    cut = max(n.bit_length() - 64, 0)
    return math.ldexp(float(n >> cut), exp + cut)


def _log_sum_exp(logs) -> float:
    logs = list(logs)
    top = max(logs)
    if top == -math.inf:
        return top
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def log_theta_majorant(log_coeff, c: float) -> float:
    """log sum_(n>=1) exp(log_coeff(n) - c n^2) in floats, for c > 0.

    The terms are unimodal for the coefficients of theta series (a power
    of n times constants); they are summed until one is past the largest
    and e^-40 below it, after which the rest is far below the outward
    factor of the majorant integrals.
    """
    logs, top, n = [], -math.inf, 1
    while True:
        v = log_coeff(n) - c * n * n
        logs.append(v)
        if v > top:
            top = v
        elif v < top - 40:
            return _log_sum_exp(logs)
        n += 1


class Integral(NamedTuple):
    """What :meth:`CachedKernelQuadrature.moments`, ``fourier`` and
    ``fourier_sign`` return.

    ``radius`` bounds the error of the sum at the guard precision, of
    which ``value`` is the rounding to the working precision (one more
    relative 2^-prec).  For several degrees, or a value with its
    derivative, each field is the tuple of their columns.  From
    ``fourier_sign`` both fields are floats (the value complex on a
    folded kernel): the value is the exact fixed-point sum rounded to a
    float, and the radius covers that rounding too.
    """

    value: object
    radius: object


class CachedKernelQuadrature:
    """The integrals ``int K(x) x^n dx`` and ``int K(x) e^(isx) dx`` of one
    kernel ``K``.

    The rule is the equispaced trapezoidal rule on [0, b]: level 0 has
    :data:`BASE_INTERVALS` intervals with half weights at 0 and b, and each
    later level adds the midpoints and halves the step h.  A one-part
    kernel must be even in x, and K must be analytic in the strip
    |Im x| < a = :data:`STRIP`.  Level l is then half the whole-line rule,
    whose error is at most 2 M / (e^(2 pi a/h) - 1) when int |K g| <= M
    along every line of the strip for the factor g = x^n or e^(isx)
    (Trefethen & Weideman, SIAM Review 56, 2014, Thm 5.1).  By evenness
    the lines need only x >= 0, so the error radius of level l is

        2 e^(sigma a) M_p / (e^(2 pi a/h_l) - 1) + tail_p
            + 2^-(prec + _QUAD_GUARD - 16) R_p,

    where (sigma, p) is the growth of g:
    |g(x + iy)| <= e^(sigma |y|) (x^2 + y^2)^(p/2).  x^n has (0, n),
    e^(isx) has (|s|, 0) and x e^(isx) has (|s|, 1).  With m(x, t) the
    kernel's majorant (a bound on |K(x + iy)| over |y| <= t) and
    w(x) = (x^2 + a^2)^(p/2):

    * M_p = int_0^inf m(x, a) w(x) dx;
    * tail_p = (h_0/2) f(b) + int_b^inf f, with f = m(., 0) w, covers the
      half weight at b and the nodes the rule drops past b; f must
      decrease past b;
    * R_p = int_0^inf m(x, 0) w(x) dx scales the rounding of the level
      sums and of the kernel values at the guard precision, 16 bits of
      slack included.  The theta kernels' values lose about log2 B bits,
      with e^(-B) their leading factor: 10 to 12 bits at the cutoffs of
      256 to 1024 bits.

    The kernel passes ``log m`` as ``log_majorant(x, t)`` in floats.  The
    integrals are summed once per kernel and degree p, at the first
    integral that needs them, on a float grid (upper sums) and doubled:
    they only set an exponent.

    Each call builds only the smallest level l >= 1 whose radius meets the
    target; it raises :class:`AccuracyError` before computing any kernel
    value when no level up to :data:`MAX_LEVELS` does.  Level l - 1 is
    every other node of level l, so |T_l - T_(l-1)| comes free, and one
    above the sum of the two levels' radii raises
    :class:`ConsistencyError`: then K g is not even and analytic in the
    strip, or the majorant does not bound the kernel.

    A kernel value is a number, or the pair of parts (E, F) of a kernel on
    [-b, b] folded onto [0, b]: E = K(x) + K(-x) and F = i (K(x) - K(-x)).
    At x = 0, E = 2 K(0) and F = 0, so the half weight there restores the
    node's full weight on [-b, b], and folded level l is level l + 1 of
    the rule on [-b, b], node for node.  The majorant of a folded kernel
    bounds |K(x + iy)| + |K(-x + iy)|.

    Kernel values at the nodes are computed lazily, once per level, at the
    precision current at construction plus the guard bits, and reused by
    every call; each level also keeps them as one table of integers for
    :meth:`fourier` and :meth:`fourier_sign`, which sum e^(isx) and its
    s-derivative in fixed point.  This is the workhorse behind Taylor
    coefficient batches and zero bracketing, where the kernel (a
    theta-type series) is far more expensive than the polynomial or
    oscillatory factor.

    :meth:`moments` and :meth:`fourier` run at the kernel's precision,
    their arguments converted there, and keep their last
    :data:`MEMO_SIZE` results keyed on those arguments, so a repeated call
    (the conjugate character of a pair, a zero scan over the same points)
    returns the first call's result; a kernel that needs a larger b is a
    new object with an empty memo.
    """

    def __init__(self, kernel, b, log_majorant):
        self.b = to_mpf(b)
        if not self.b > 0:
            raise DomainError("CachedKernelQuadrature needs b > 0")
        self.prec = mp.prec
        self._kernel = kernel
        self._log_majorant = log_majorant
        # level -> one list per kernel part of the weighted kernel values,
        # node by node; the weights omit the step
        self._levels = []
        # level -> (node indices j, components, sum of |W| over them): the
        # node x is j times the level's step, and each component is a
        # nonzero real or imaginary part of the weighted kernel part as the
        # integers W at scale 2^-(prec + guard), (part, imaginary, W, W j)
        self._fixed = []
        self._majorants = {}  # p -> (log M_p, log tail_p, log R_p)
        self._grids = {}  # (t, x0) -> (log m, log(x^2 + a^2)) at x0 + k dx
        # the radius terms that do not depend on s: level -> log of the
        # discretisation factor, (level, sweep, bits) -> log of fourier's
        # fixed-point bound
        self._log_discs = {}
        self._fixed_radii = {}
        # converted arguments -> Integral, and ("log", target) -> its float
        # log, oldest first
        self._memo = {}

    def _step(self, level: int) -> mpf:
        return self.b / (BASE_INTERVALS << level)

    def _ensure_level(self, level: int):
        if level < len(self._levels):
            return
        bits = self.prec + _QUAD_GUARD
        with workprec(bits):
            while len(self._levels) <= level:
                lv = len(self._levels)
                n = BASE_INTERVALS << lv
                h = self._step(lv)
                # every node of [0, b] at level 0, then the midpoints of the
                # previous level
                js = range(n + 1) if lv == 0 else range(1, n, 2)
                rows = [self._kernel(j * h) for j in js]
                if not isinstance(rows[0], tuple):
                    rows = [(v,) for v in rows]
                if lv == 0:  # the ends, with half weights
                    for i in (0, -1):
                        rows[i] = tuple(p / 2 for p in rows[i])
                parts = list(zip(*rows))
                components = []
                for part, column in enumerate(parts):
                    for imaginary in (False, True):
                        w = [_to_fixed(v.imag if imaginary else v.real, bits)
                             for v in column]
                        if any(w):
                            components.append((part, imaginary, w, [
                                wk * j for wk, j in zip(w, js)]))
                self._fixed.append((js, components, sum(
                    abs(wk) for *_, w, _ in components for wk in w)))
                self._levels.append(parts)

    def _majorant_integrals(self, p: int):
        """(log M_p, log tail_p, log R_p) of the class docstring."""
        a, dx, b = STRIP, _MAJORANT_STEP, float(self.b)

        def grid(t, x0):
            """log of m(., t) w at x0, x0 + dx, ... until past the peak and
            60 below it; log m and log(x^2 + a^2) are kept for every p."""
            known = self._grids.setdefault((t, x0), [])
            out, top = [], -math.inf
            for k in range(_MAJORANT_POINTS):
                x = x0 + k * dx
                if k == len(known):
                    known.append((self._log_majorant(x, t),
                                  math.log(x * x + a * a)))
                log_m, log_r2 = known[k]
                out.append(log_m + p / 2 * log_r2)
                top = max(top, out[-1])
                if k and x >= b and out[-1] < min(out[-2], top - 60):
                    return out
            raise DomainError(
                f"the kernel majorant does not decay past {x0 + k * dx}")

        # the tail: a left sum of the decreasing f bounds its integral
        tail = grid(0.0, b)
        if not all(u > v for u, v in zip(tail, tail[1:])):
            raise DomainError(
                f"the kernel majorant does not decrease past b = {b}")
        h0 = b / BASE_INTERVALS
        log_tail = math.log(2) + _log_sum_exp(
            [math.log(h0 / 2) + tail[0]] + [math.log(dx) + v for v in tail])
        # M_p and R_p: upper sums, each cell taking its larger end
        upper = lambda f: math.log(2 * dx) + _log_sum_exp(
            max(u, v) for u, v in zip(f, f[1:]))
        return upper(grid(a, 0.0)), log_tail, upper(grid(0.0, 0.0))

    def _log_radii(self, growth, level: int, sweep: Optional[int] = None,
                   bits: Optional[int] = None):
        """log of the error radius of level ``level``, one per column.

        ``sweep`` adds the error bound of :meth:`fourier`'s fixed-point
        sum of the level taken in the sweep of level ``sweep`` with turns
        at ``bits`` fraction bits (None: prec + guard), which needs the
        kernel values of every level up to ``level``; the rest is
        a-priori.  The discretisation term and the fixed-point bound of a
        level are computed once per kernel.
        """
        log_disc = self._log_discs.get(level)
        if log_disc is None:
            x = 2 * math.pi * STRIP * BASE_INTERVALS * (1 << level) \
                / float(self.b)
            log_disc = self._log_discs[level] = \
                math.log(2) - x - math.log1p(-math.exp(-x))
        guard = -(self.prec + _QUAD_GUARD - 16) * _LN2
        extra = [] if sweep is None else \
            [self._log_fixed_radius(level, sweep, bits)]
        out = []
        for sigma, p in growth:
            if p not in self._majorants:
                self._majorants[p] = self._majorant_integrals(p)
            log_m, log_tail, log_r = self._majorants[p]
            out.append(_log_sum_exp([
                log_disc + float(sigma) * STRIP + log_m, log_tail,
                guard + log_r] + extra))
        return out

    def _target(self, target) -> mpf:
        """``target`` as an mpf, :func:`default_target` if None."""
        target = default_target(self.prec) if target is None \
            else to_mpf(target)
        if not target > 0:
            raise DomainError(f"target must be > 0, got {target}")
        return target

    def _memoized(self, key, compute):
        """``compute()``, or its result stored under ``key``."""
        found = self._memo.get(key)
        if found is None:
            found = compute()
            if len(self._memo) >= MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = found
        return found

    def _level(self, columns, target, fixed: bool = False,
               bits: Optional[int] = None) -> int:
        """The smallest level >= 1 whose radii meet ``target``.

        ``fixed``: with the bound of the fixed-point sums with turns at
        ``bits`` fraction bits (None: prec + guard).
        """
        target = self._target(target)
        log_target = self._memoized(("log", target),
                                    lambda: float(mpmath.log(target)))
        for level in range(1, MAX_LEVELS + 1):
            log_radii = self._log_radii(columns, level)
            if fixed and max(log_radii) <= log_target:
                # builds the level: only once the a-priori part fits
                log_radii = self._log_radii(columns, level, level, bits)
            if max(log_radii) <= log_target:
                return level
        raise AccuracyError(
            f"no trapezoidal level up to {MAX_LEVELS} meets the target "
            f"{mpmath.nstr(target, 5)}: the error bound there is "
            f"{mpmath.nstr(mpmath.exp(max(log_radii)), 5)}")

    def moments(self, degrees, target=None) -> Integral:
        """The :class:`Integral` of ``int K(x) x^n dx`` for each n in ``degrees``.

        Each field is the tuple over ``degrees``.  x^n has the growth
        (0, n), and the level is the first at which every degree's radius
        meets ``target``, the absolute error goal (:func:`default_target`
        if None).  A one-part kernel is even, so every n must be even.  On
        a folded kernel K(x) x^n + K(-x) (-x)^n is E x^n for even n and
        i (-F) x^n for odd n: an even n reads the part E, an odd n reads -F,
        and the integral of an odd degree over [-b, b] is i times its
        value here.

        A node of level lv is x = j h_lv = J h_l with the integer
        J = j 2^(l - lv), so the sum of level l is h_l^(n+1) times one
        exactly rounded dot product of the weighted kernel values of levels
        0..l with the integers J^n (as ``mpmath.fdot`` would round it;
        Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005), summed on
        integers by :meth:`_moment_sums`.  As h_(l-1) = 2 h_l, the sum of
        level l - 1 is 2 h_l^(n+1) times the same dot product over levels
        0..l-1 alone.
        """
        with workprec(self.prec):
            degrees, target = tuple(degrees), self._target(target)
            columns = [(0, n) for n in degrees]

            def compute():
                level = self._level(columns, target)
                below, sums = self._moment_sums(degrees, level)
                return self._integral(columns, level, below, sums, True)

            return self._memoized(("moments", degrees, target), compute)

    def _moment_sums(self, degrees, level: int):
        """:meth:`moments`' sums of levels level-1 and level, per degree.

        Each kernel part's weighted values of levels 0..level are, per
        component (real, and imaginary for a complex part), the integers
        W_k 2^e at their least exponent e, exactly; the terms W_k J_k^n
        step from one wanted degree to the next by one multiply with the
        small integer J_k^(n - n_prev).  The two level sums of a degree are
        then exact integer sums, each rounded once to the guard precision
        by ``from_man_exp``: what ``mpmath.fdot`` gives for the same terms,
        except where its ``mpf_sum`` would drop a term more than 2 prec
        bits below the sum, which the exact sums keep.
        """
        bits = self.prec + _QUAD_GUARD
        with workprec(bits):
            self._ensure_level(level)
            if len(self._levels[0]) == 1 and any(n % 2 for n in degrees):
                raise DomainError(
                    "odd moments need a folded kernel; a one-part kernel "
                    "is even")
            nodes = [j << (level - lv) for lv in range(level + 1)
                     for j in self._fixed[lv][0]]
            split = sum(len(js) for js, *_ in self._fixed[:level])

            def level_sums(terms, e):
                """The sums of levels level-1 and level of terms 2^e."""
                low = sum(terms[:split])
                return [mp.make_mpf(from_man_exp(v, e, bits, "n"))
                        for v in (low, low + sum(terms[split:]))]

            steps = {}  # d -> J^d at every node
            rounded = {}  # n -> (level-1 sum, level sum) of the dot product
            for part in sorted({n % 2 for n in degrees}):
                values = [v for lv in range(level + 1)
                          for v in self._levels[lv][part]]
                complex_ = any(isinstance(v, mpc) for v in values)
                components = [_exact([v.real for v in values]),
                              _exact([v.imag for v in values])] \
                    if complex_ else [_exact(values)]
                at = 0
                for n in sorted({n for n in degrees if n % 2 == part}):
                    if n > at:
                        if n - at not in steps:
                            steps[n - at] = [j ** (n - at) for j in nodes]
                        for terms, _ in components:
                            terms[:] = map(mul, terms, steps[n - at])
                        at = n
                    pair = [level_sums(*c) for c in components]
                    rounded[n] = [mpc(*z) for z in zip(*pair)] \
                        if complex_ else pair[0]

            h, below, sums = self._step(level), [], []
            for n in degrees:
                scale = -h ** (n + 1) if n % 2 else h ** (n + 1)
                below.append(2 * scale * rounded[n][0])
                sums.append(scale * rounded[n][1])
            return below, sums

    def fourier(self, s, target=None, derivative: bool = False) -> Integral:
        """The :class:`Integral` of ``int K(x) e^(isx) dx`` for real ``s``.

        On a one-part kernel, whose K is even, that is ``int K(x) cos sx``
        over [0, b]; on a folded kernel the parts take the multipliers
        (cos sx, sin sx).  With ``derivative`` a second column is the
        s-derivative, i x e^(isx): -x sin sx, or (-x sin sx, x cos sx)
        folded.  The growths are (|s|, 0) and (|s|, 1); ``target`` is as
        for :meth:`moments`, and with ``derivative`` each field of the
        result is the pair of columns.

        The levels, kernel values and a-priori radius are those of
        :meth:`moments`; only the sums are taken in fixed point, by one
        code path at two widths of the turns: F = prec + guard fraction
        bits here, and F = :data:`SIGN_BITS` (or prec + guard, if fewer)
        in :meth:`fourier_sign`.  Let E = 2^-(prec + guard) and e = 2^-F.
        The weighted kernel parts w are stored once, at level build, as the
        integers W = round(w / E), the one table that both widths read.
        The result's level l has the grid x_J = J h, J = 0..n, with h its
        step and n = 8 2^l, and the node j of a level lv <= l is
        J = j 2^(l - lv) on it.  One sweep covers that grid: the angle s h
        is an exact dyadic product, and its cos and sin, from one
        ``cos_sin`` at F + 16 bits (none at s = 0), are rounded to integers
        c, d within 1 of 2^F times the true values.  From the exact
        z_0 = 2^F, with z_J = C_J + i S_J,

            z_(J+1) = floor(z_J (c + i d) / 2^F), componentwise,

        and each column of level lv is one exact integer dot product of the
        W with every 2^(l - lv)-th of these integers (times the node index
        j for the derivative), at scale E e, all levels being converted
        once.  The sums of levels l - 1 and l both come from this one
        sweep.  The error bound :meth:`_log_fixed_radius`, added to the
        radius inside the level choice, covers the fixed point at either
        width:

        * Recurrence.  Let e_J = z_J - 2^F e^(i s J h), so e_0 = 0.  Then
          z_J (c + i d) / 2^F = (2^F e^(i s J h) + e_J)(e^(i s h) + r)
          with |r| <= sqrt 2 e, and the floor is off by less than sqrt 2,
          so |e_(J+1)| <= (1 + sqrt 2 e) |e_J| + 2 sqrt 2 and
          |e_J| <= 2 sqrt 2 J (1 + sqrt 2 e)^J <= 3 J <= 3 (J + 1), as
          J <= n < 2^16 and e <= 2^-32.  The step angle is exact, so there
          is no phase drift from a rounded angle, which would reach
          |s| b e over the grid; the rounding of its cos and sin is r,
          counted at every step.  So the integer T of a turn t (cos or sin
          of s x_J) has |T e - t| <= 3 n e.
        * Conversion.  |W E - w| <= E/2 for each of the P components.
        * Dot product.  Exact.  Per node and component,
          W E T e - w t = W E (T e - t) + (W E - w) t, at most
          |W| E 3 n e + E/2; the cross term (W E - w)(T e - t) needs no
          term of its own, as the first product takes the stored |W|, not
          |w|.  Per level lv and column the error is thus at most
          E e (3 n sum |W| + P n_lv 2^(F-1)), with n_lv the level's node
          count and sum |W| over the components known exactly, and times
          x <= b for the derivative's multipliers.
        * Rounding.  Each total is rounded once to prec + guard bits,
          relative error E <= e, and its node sums are at most
          2 max(1, b) E sum |W|, as |T e| <= 1 + 3 n e < 2: the 2 of
          3 n + 2 below.  The total is
          an integer times a power of the step u, which is dyadic (b over a
          power of 2), so one ``from_man_exp`` of the integer times the
          mantissa of u^k rounds it.  (:meth:`fourier_sign` rounds it to a
          float instead, and adds that rounding to its radius; the term
          is then slack.)

        The sum of level l' <= l is u_l' times the node sums of levels
        0..l', so its fixed-point error in the sweep of level l is at most

            E e u_l' max(1, b) sum_(lv <= l') ((3 n + 2) sum_lv |W|
                                               + P_lv n_lv 2^(F-1)),

        with n = 8 2^l the sweep's last index: for the level below the
        result that is twice its own grid's.
        """
        with workprec(self.prec):
            s, target = to_mpf(s), self._target(target)
            columns = [(abs(s), 0)] + ([(abs(s), 1)] if derivative else [])

            def compute():
                level = self._level(columns, target, fixed=True)
                below, sums = self._fixed_sums(s, level, derivative)
                return self._integral(columns, level, below, sums,
                                      derivative, fixed=True)

            return self._memoized(("fourier", s, target, derivative),
                                  compute)

    def fourier_sign(self, s) -> Integral:
        """``int K(x) e^(isx) dx`` for real ``s`` in floats, for its sign.

        The :class:`Integral`'s value is a Python float, or a complex on a
        folded kernel, and its float radius bounds the whole error of that
        value.  It is :meth:`fourier` at the target :func:`sign_target`
        with turns at F = :data:`SIGN_BITS` fraction bits (prec + guard,
        if fewer), against the kernel's one table of integers: the level
        is the smallest whose a-priori radius plus the fixed-point bound at
        F bits meets the target, and each exact total of the sweep is cut
        to its 64 leading bits (``float`` of the whole integer overflows
        past 2^1024, at 1024 bits and more) and rounded once to a float:
        the cut (2^-63 relative) and the rounding together stay within
        2^-52 relative and 2^-1075 absolute per component.  The radius is
        the a-priori radius plus the fixed-point bound plus that rounding,
        all rounded outward.  The sums of levels l - 1 and l must differ by
        at most the sum of their float radii, or :class:`ConsistencyError`
        is raised, as by :meth:`fourier`.  Results are memoized as
        :meth:`fourier`'s are.
        """
        with workprec(self.prec):
            s = to_mpf(s)

            def compute():
                bits = min(SIGN_BITS, self.prec + _QUAD_GUARD)
                columns = [(abs(s), 0)]
                level = self._level(columns, sign_target(self.prec),
                                    fixed=True, bits=bits)
                totals, complex_ = self._fixed_totals(s, level, False, bits)
                values, radii = [], []
                for top, ((re, im), exp) in zip((level - 1, level),
                                                (t[0] for t in totals)):
                    value = _to_float(re, exp)
                    if complex_:
                        value = complex(value, _to_float(im, exp))
                    log_radius, = self._log_radii(columns, top, level, bits)
                    values.append(value)
                    radii.append((math.exp(log_radius) + abs(value) * 2 ** -52
                                  + 2 ** -1074) * (1 + 2 ** -50))
                _check_levels(level, abs(values[1] - values[0]),
                              radii[0] + radii[1])
                return Integral(values[1], radii[1])

            return self._memoized(("sign", s), compute)

    def _turns(self, s, level: int, bits: Optional[int] = None):
        """2^F (cos s x, sin s x) at the nodes x = J h, J = 0..n, of the
        grid of level ``level``, as integers; F = ``bits`` (None:
        prec + guard).

        One angle-addition sweep with truncating shifts from the exact pair
        (2^F, 0), its step from one ``cos_sin`` of s h and none at s = 0
        (see :meth:`fourier`).
        """
        bits = self.prec + _QUAD_GUARD if bits is None else bits
        if s:
            with workprec(bits + 16):
                dc, ds = (_to_fixed(v, bits) for v in mpmath.cos_sin(
                    mpmath.fmul(s, self._step(level), exact=True)))
        else:
            dc, ds = 1 << bits, 0
        c, sn = 1 << bits, 0
        cs, ss = [c], [sn]
        put_c, put_s = cs.append, ss.append
        for _ in range(BASE_INTERVALS << level):
            c, sn = (c * dc - sn * ds) >> bits, (sn * dc + c * ds) >> bits
            put_c(c)
            put_s(sn)
        return cs, ss

    def _fixed_totals(self, s, level: int, derivative: bool, bits: int):
        """The sums of levels level-1 and level of :meth:`fourier`'s sweep
        with turns at ``bits`` fraction bits, exactly, and whether they
        are complex.

        Per level and column the sum is (R + i I) 2^x, given as
        ((R, I), x) with integers R, I.
        """
        self._ensure_level(level)
        cs, ss = self._turns(s, level, bits)
        # per level and column, the integer sums (real, imaginary) at scale
        # 2^-(prec + guard + bits); the derivative's in units of the level's
        # step
        per_level = []
        for lv in range(level + 1):
            js, components, _ = self._fixed[lv]
            # node j of level lv is node j 2^(level - lv) of the sweep
            at = slice(js.start << (level - lv), None,
                       js.step << (level - lv))
            turns = cs[at], ss[at]
            sums = [[0, 0], [0, 0]]
            for part, imaginary, w, wj in components:
                sums[0][imaginary] += sum(map(mul, w, turns[part]))
                if derivative:
                    d = sum(map(mul, wj, turns[1 - part]))
                    sums[1][imaginary] += d if part else -d
            per_level.append(sums)
        complex_ = any(imaginary for lv in range(level + 1)
                       for _, imaginary, *_ in self._fixed[lv][1])
        frac = self.prec + _QUAD_GUARD + bits  # the sums' fraction bits

        def totals(top):
            # each column is h_top (value) or h_top^2 (derivative) times its
            # integers; a node j h_lv is j 2^(top - lv) h_top, so the
            # derivative's sums of level lv shift by top - lv
            _, man, exp, _ = self._step(top)._mpf_
            return [(tuple(sum(
                per_level[lv][col][i] << col * (top - lv)
                for lv in range(top + 1)) * man ** (col + 1) for i in (0, 1)),
                (col + 1) * exp - frac) for col in range(1 + derivative)]

        return (totals(level - 1), totals(level)), complex_

    def _fixed_sums(self, s, level: int, derivative: bool):
        """:meth:`fourier`'s sums of levels level-1 and level, per column,
        each rounded once to prec + guard bits."""
        bits = self.prec + _QUAD_GUARD
        totals, complex_ = self._fixed_totals(s, level, derivative, bits)

        def rounded(columns):
            out = []
            for pair, exp in columns:
                parts = [mp.make_mpf(from_man_exp(v, exp, bits, "n"))
                         for v in pair]
                out.append(mpc(*parts) if complex_ else parts[0])
            return out

        with workprec(bits):
            return tuple(rounded(columns) for columns in totals)

    def _log_fixed_radius(self, level: int, sweep: Optional[int] = None,
                          bits: Optional[int] = None) -> float:
        """log of :meth:`fourier`'s fixed-point error bound at ``level``.

        The bound of the level's sum taken in the sweep of level ``sweep``
        (None: its own) with turns at ``bits`` fraction bits (None:
        prec + guard), evaluated in floats from exact integers and
        doubled, as the a-priori terms are.  It reads only levels
        0..``level``, which never change once built, so it is computed once
        per (level, sweep, bits), after building the level.
        """
        full = self.prec + _QUAD_GUARD
        sweep = level if sweep is None else sweep
        bits = full if bits is None else bits
        found = self._fixed_radii.get((level, sweep, bits))
        if found is None:
            self._ensure_level(level)
            n = BASE_INTERVALS << sweep
            # the bound's sum, in units of 2^-(prec + guard + bits)
            total = sum((3 * n + 2) * scale
                        + (len(components) * len(js) << (bits - 1))
                        for js, components, scale in self._fixed[:level + 1])
            h = float(self._step(level))
            found = self._fixed_radii[(level, sweep, bits)] = \
                math.log(2 * h * max(1.0, float(self.b))) + math.log(total) \
                - (full + bits) * _LN2 if total else -math.inf
        return found

    def _integral(self, columns, level, below, sums, vector,
                  fixed=False) -> Integral:
        """The :class:`Integral` of the level sums, with the consistency check.

        ``fixed``: the sums come from :meth:`fourier`'s sweep of ``level``.
        """
        sweep = level if fixed else None
        radii = [mpmath.exp(r)
                 for r in self._log_radii(columns, level, sweep)]
        lower = [mpmath.exp(r)
                 for r in self._log_radii(columns, level - 1, sweep)]
        for s, t, r, r_below in zip(sums, below, radii, lower):
            _check_levels(level, abs(s - t), r + r_below)
        unpack = tuple if vector else (lambda parts: parts[0])
        with workprec(self.prec):
            return Integral(unpack([+s for s in sums]), unpack(radii))


def _check_levels(level: int, difference, radius):
    """Raise :class:`ConsistencyError` if the sums of levels level-1 and
    level differ by more than the sum ``radius`` of their radii."""
    if difference > radius:
        raise ConsistencyError(
            f"trapezoidal levels {level - 1} and {level} differ by "
            f"{mpmath.nstr(mpf(difference), 5)}, beyond their error radii "
            f"{mpmath.nstr(mpf(radius), 5)}: the integrand is not even and "
            "analytic in the strip, or the majorant does not bound the "
            "kernel")


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
    """Quadrature target 2^-min(prec/2, 40) for a scan value whose sign
    alone is used: that of :meth:`CachedKernelQuadrature.fourier_sign`.

    Above 80 bits it stops at 2^-40, well within what the 64 fraction bits
    of those turns carry.
    """
    return mpf(2) ** -min(prec // 2, 40)


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
    """Yield ``(a, b, f(a), f(b))`` per sign change between scan points.

    b is a scan point and a the last one before it whose value is not 0,
    so a zero exactly on a scan point between them lies inside [a, b].
    The scan visits lo, lo + SCAN_STEP, ..., hi lazily: a caller that stops
    after one sign change evaluates no scan point beyond it.  It needs only
    signs, and the values it yields may come from ``rough``.
    ``rough(x)``, when given, is a cheaper evaluation of ``f`` as a pair
    ``(value, radius)``, the radius bounding the whole error of the value
    (as :meth:`CachedKernelQuadrature.fourier_sign` gives it); a scan
    point takes ``value`` when :func:`certify_sign` certifies its sign
    against ``radius``, and is re-evaluated by ``f`` otherwise.  An even
    number of zeros within one step, a double zero exactly on a scan
    point, or a zero exactly at lo, yield nothing.  A step that rounds
    back to its start raises :class:`DomainError`.
    """
    lo, hi = to_mpf(lo), to_mpf(hi)

    def scan(x):
        if rough is not None:
            value, radius = rough(x)
            if certify_sign(value, radius=radius).sign != UNCERTAIN:
                return value
        return f(x)

    s_prev = a = lo
    v_a = scan(lo)  # the value at a, the last scan point not at a zero
    while s_prev < hi:
        s = min(s_prev + SCAN_STEP, hi)
        if not s > s_prev:
            raise DomainError(
                f"the scan step {SCAN_STEP} does not advance past {s_prev} "
                f"at {mp.prec} bits")
        v = scan(s)
        if v_a * v < 0:
            yield a, s, v_a, v
        if v:
            a, v_a = s, v
        s_prev = s
