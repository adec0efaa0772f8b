"""Dirichlet characters and the L-function instantiation of the criterion.

Characters modulo q are represented exactly: q is factored by trial
division, the unit group (Z/qZ)* is decomposed into cyclic components (the
smallest primitive root for each odd prime power, {-1} x <5> for 2^k with
k >= 3), and a character is the vector of exponents of its values on the
generators.  Values are roots of unity carried as rational angles, so Gauss
sums and orthogonality relations suffer no premature rounding; the complex
embedding happens at evaluation time only.

For a primitive character the completed function has the kernel form

    xi(1/2 + is, chi) = int_(-inf)^(inf) e^(isy) phi(y, chi) dy,
    phi(y, chi) = 2 sum_(n>=1) n^kappa chi(n)
                  exp(-n^2 pi e^(2y) / q + (kappa + 1/2) y),

with kappa the parity of chi.  The series is summed only at y >= 0; at
y < 0 the theta functional equation gives phi from the series of conj chi.
Every integral is folded onto [0, y_max]: the node y carries the parts
phi(y) + phi(-y) and i (phi(y) - phi(-y)), each integrand one real
multiplier per part.  The pair {chi, conj chi} has one such kernel
(E, F), that of its lower-index character; the other character chi' has
the parts epsilon(chi') (E, -F), so its integrals are products, not
quadratures (see _char_kernel).  Moment data comes from the coefficients
a_n(chi) = int y^n phi(y, chi) dy: the product
f(s, chi) = s^(-2 mu) xi(1/2+is, chi) xi(1/2+is, conj chi) is even with real
coefficients b_n built by convolution, and when the ratios b_n/b_0 are
positive the general recursion applies, giving moments over the zeros of
f and the scaled positivity grid with L > s_1(chi)^(-2).

On the real s-line the product f has constant sign around each zero coming
from a conjugate factor pair (for real chi it is a perfect square), so zero
heights are bracketed on the phase-corrected real factor
Z(s, chi) = epsilon(chi)^(-1/2) xi(1/2+is, chi), whose sign changes are
exactly the zero heights of the chi factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from mpmath import mp, mpf, mpc, workprec
import mpmath

from .moments import (
    SeriesPrefix,
    build_grid,  # unused here; perfbench/spans.py wraps it by this name
    moments_by_determinant,  # unused here; perfbench/spans.py wraps it by this name
    moments_by_recursion,  # unused here; perfbench/spans.py wraps it by this name
)
from .numkernel import (
    POSITIVE,
    AccuracyError,
    CachedKernelQuadrature,
    ConsistencyError,
    DomainError,
    ZeroBracket,
    _QUAD_GUARD,
    bisect_sign_change,
    certify_sign,
    default_target,
    log_theta_majorant,
    scan_target,
    sign_changes,
    sign_target,
    to_mpf,
)
from .riemann import MomentTail, kernel_cutoff, moment_tail

__all__ = [
    "CharCoefficients",
    "DirichletCharacter",
    "GrhPipelineResult",
    "char_coeffs",
    "characters_mod",
    "first_zero_height",
    "gauss_sum",
    "grh_moment_pipeline",
    "phi_char",
    "xi_char_eval",
    "z_char_eval",
]


# ---------------------------------------------------------------------------
# Unit group structure

def _factor(n: int) -> Dict[int, int]:
    """Prime factorization {p: e} of n >= 1 by trial division, p increasing."""
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _components(q: int) -> List[Tuple[int, int, int, int]]:
    """(p, p^e, generator mod p^e, order) per cyclic component of (Z/qZ)*.

    An odd prime power contributes its smallest primitive root g: a unit
    with g^(phi/r) != 1 mod p^e for every prime r dividing phi = phi(p^e).
    The 2-part contributes 3 for 4 || q and [-1, 5] for 2^k, k >= 3.
    """
    comps = []
    for p, e in _factor(q).items():
        pe = p ** e
        if p > 2:
            order = pe - pe // p
            rs = _factor(order)
            g = next(g for g in itertools.count(2) if g % p and all(
                pow(g, order // r, pe) != 1 for r in rs))
            comps.append((p, pe, g, order))
        elif e == 2:
            comps.append((2, 4, 3, 2))
        elif e >= 3:
            comps += [(2, pe, pe - 1, 2), (2, pe, 5, pe // 4)]
    return comps


@lru_cache(maxsize=None)
def _unit_group(q: int):
    """Cyclic decomposition of (Z/qZ)*: generators, orders, discrete logs.

    Returns (gens, orders, dlog) where dlog maps each unit to its exponent
    vector.  q is factored by trial division; each odd prime power
    contributes its smallest primitive root and the 2-part 3 or [-1, 5]
    (see _components), lifted to the unit mod q that is 1 in the other
    components.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    comps = _components(q)
    gens = [1 + q // pe * ((g - 1) * pow(q // pe, -1, pe) % pe)
            for _, pe, g, _ in comps]
    orders = [order for *_, order in comps]
    dlog: Dict[int, Tuple[int, ...]] = {}
    for idx in itertools.product(*(range(d) for d in orders)):
        v = 1 % q
        for g, c in zip(gens, idx):
            v = v * pow(g, c, q) % q
        dlog[v] = idx
    return tuple(gens), tuple(orders), dlog


@dataclass(frozen=True)
class DirichletCharacter:
    """A character mod q as exponents over the unit-group decomposition.

    ``chi(gens[i]) = exp(2 pi i exponents[i] / orders[i])``; values on
    non-units are 0.  Instances are hashable and order-stable: the index
    is the mixed-radix rank of the exponent vector.
    """

    q: int
    exponents: Tuple[int, ...]

    def __post_init__(self):
        gens, orders, _ = _unit_group(self.q)
        if len(self.exponents) != len(orders):
            raise DomainError(
                f"expected {len(orders)} exponents for modulus {self.q}")
        for c, d in zip(self.exponents, orders):
            if not 0 <= c < d:
                raise DomainError(f"exponent {c} out of range for order {d}")

    # -- structure ---------------------------------------------------------

    @property
    def orders(self) -> Tuple[int, ...]:
        return _unit_group(self.q)[1]

    @property
    def index(self) -> int:
        rank = 0
        for c, d in zip(self.exponents, self.orders):
            rank = rank * d + c
        return rank

    @property
    def order(self) -> int:
        o = 1
        for c, d in zip(self.exponents, self.orders):
            o = math.lcm(o, d // math.gcd(d, c))
        return o

    @property
    def is_principal(self) -> bool:
        return all(c == 0 for c in self.exponents)

    @property
    def is_real(self) -> bool:
        return self.order <= 2

    def conjugate(self) -> "DirichletCharacter":
        conj = tuple((-c) % d for c, d in zip(self.exponents, self.orders))
        return DirichletCharacter(self.q, conj)

    # -- values ------------------------------------------------------------

    def value_fraction(self, n: int) -> Optional[Fraction]:
        """Rational t with chi(n) = exp(2 pi i t), or None when gcd(n,q) > 1."""
        if self.q == 1:
            return Fraction(0)
        n %= self.q
        if math.gcd(n, self.q) != 1:
            return None
        _, orders, dlog = _unit_group(self.q)
        t = Fraction(0)
        for c, d, x in zip(self.exponents, orders, dlog[n]):
            t += Fraction(c * x, d)
        return t % 1

    def __call__(self, n: int) -> mpc:
        t = self.value_fraction(n)
        if t is None:
            return mpc(0)
        return _root_of_unity(t)

    @property
    def parity(self) -> int:
        """kappa with chi(-1) = (-1)^kappa."""
        t = self.value_fraction(-1)
        if t == 0:
            return 0
        if t == Fraction(1, 2):
            return 1
        raise ConsistencyError(f"chi(-1) is not +-1: exponent {t}")

    # -- conductor / primitivity -------------------------------------------

    @property
    def conductor(self) -> int:
        """Smallest modulus inducing chi."""
        if self.q == 1:
            return 1
        primes = [p for p, *_ in _components(self.q)]
        orders = self.orders
        two_part: List[Tuple[int, int]] = []
        cond = 1
        for p, c, d in zip(primes, self.exponents, orders):
            o = d // math.gcd(d, c)
            if p == 2:
                two_part.append((o, d))
                continue
            if o > 1:
                cond *= p ** (1 + _factor(o).get(p, 0))
        if two_part:
            if len(two_part) == 1:  # q has 4 || q: single order-2 component
                cond *= 4 if two_part[0][0] > 1 else 1
            else:  # components on <-1> and <5>
                o_sign, o_five = two_part[0][0], two_part[1][0]
                if o_five > 1:
                    cond *= 4 * o_five
                elif o_sign > 1:
                    cond *= 4
        return cond

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q

    def label(self) -> str:
        return f"chi_{self.q}.{self.index}"


#: entries kept by each precision-keyed table cache below
TABLE_CACHE_SIZE = 1024


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _root_of_unity_cached(num: int, den: int, prec: int) -> mpc:
    with workprec(prec):
        return mpmath.expjpi(mpf(2 * num) / den)


def _root_of_unity(t: Fraction) -> mpc:
    return _root_of_unity_cached(t.numerator, t.denominator, mp.prec)


def characters_mod(q: int) -> List[DirichletCharacter]:
    """The full group of phi(q) characters, in mixed-radix index order."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    _, orders, _ = _unit_group(q)
    return [DirichletCharacter(q, idx)
            for idx in itertools.product(*(range(d) for d in orders))]


def gauss_sum(chi: DirichletCharacter) -> mpc:
    """tau(chi) = sum_(n=1..q) chi(n) exp(2 pi i n / q), exactly assembled.

    Angles are combined as rationals before the single complex embedding,
    so |tau|^2 = q holds to working accuracy for primitive characters.
    """
    q = chi.q
    terms = []
    for n in range(1, q + 1):
        t = chi.value_fraction(n)
        if t is None:
            continue
        terms.append(_root_of_unity((t + Fraction(n, q)) % 1))
    return mpc(mpmath.fsum(t.real for t in terms),
               mpmath.fsum(t.imag for t in terms))


def epsilon_factor(chi: DirichletCharacter) -> mpc:
    """Root number epsilon(chi) = tau(chi) / (i^kappa sqrt(q))."""
    kappa = chi.parity
    denom = mpmath.sqrt(mpf(chi.q))
    tau = gauss_sum(chi)
    return tau / (mpc(0, 1) ** kappa * denom)


# ---------------------------------------------------------------------------
# Theta kernel and coefficients

def _require_analytic(chi: DirichletCharacter):
    if chi.q < 3:
        raise DomainError(
            f"{chi.label()}: the kernel requires modulus >= 3 (the principal "
            "character's L-function is not entire)")
    if not chi.is_primitive:
        raise DomainError(
            f"{chi.label()} is not primitive: conductor {chi.conductor} "
            f"< modulus {chi.q}")


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _chi_split_table(q: int, exponents: Tuple[int, ...], prec: int):
    """Per-residue (re, im) mpf pairs, None on non-units; for hot loops."""
    chi = DirichletCharacter(q, exponents)
    with workprec(prec):
        table = [chi(n) for n in range(q)]
    return tuple(None if v == 0 else (v.real, v.imag) for v in table)


def _theta_series(y: mpf, chi: DirichletCharacter) -> mpc:
    """The direct series for phi(y, chi); at y < 0 only to term roundoff.

    The term magnitude n^kappa exp(-n^2 pi e^(2y)/q + (kappa+1/2) y) decays
    like a Gaussian in n; summation stops when it falls below 2^-(prec+8)
    of the largest magnitude seen (after at least one full period of chi).
    """
    n_terms = 1000000  # give up after this many terms
    q = chi.q
    kappa = chi.parity
    values = _chi_split_table(q, chi.exponents, mp.prec)
    base = mpmath.pi * mpmath.exp(2 * y) / q
    # e^(-n^2 base + shift) by the two-multiplication recurrence
    p = mpmath.exp(-base + (kappa + mpf(1) / 2) * y)
    ratio = mpmath.exp(-2 * base)
    step = mpmath.exp(-3 * base)  # e^(-(2n+1) base) at n = 1
    stop = mpf(2) ** (-(mp.prec + 8))
    s_re = mpf(0)
    s_im = mpf(0)
    peak = mpf(0)
    for n in range(1, n_terms + 1):
        entry = values[n % q]
        if entry is not None:
            c_re, c_im = entry
            mag = n * p if kappa else p
            s_re += c_re * mag
            if c_im:
                s_im += c_im * mag
            if mag > peak:
                peak = mag
            elif n > q and mag < stop * peak:
                return 2 * mpc(s_re, s_im)
        p *= step
        step *= ratio
    raise AccuracyError(
        f"phi(y, chi) did not converge within {n_terms} terms at y = {y}")


def phi_char(y, chi: DirichletCharacter) -> mpc:
    """Theta kernel phi(y, chi) for a primitive chi, q >= 3.

    The direct series at y >= 0.  At y < 0 that series cancels O(e^(-y))
    terms down to a doubly exponentially small value, slowly and only to
    their roundoff, so there the theta functional equation (Davenport,
    Multiplicative Number Theory, ch. 9) gives full relative accuracy:
    phi(y, chi) = i^kappa sqrt(q) / tau(conj chi) * phi(-y, conj chi).
    """
    _require_analytic(chi)
    y = to_mpf(y)
    if y < 0:
        chi_bar = chi.conjugate()
        return _theta_series(-y, chi_bar) / epsilon_factor(chi_bar)
    return _theta_series(y, chi)


_char_kernel_cache: dict = {}


def _char_kernel(chi: DirichletCharacter, prec: int, y_max: mpf):
    """(kernel, base, e') for the pair {chi, conj chi}, cached per precision.

    ``base`` is the pair's lower-index character, so the kernel does not
    depend on which one asked first, and e' = epsilon(conj base), computed
    once, at the nodes' precision.  By :func:`phi_char`, phi(-y, base) =
    t'/e' with t' = phi(y, conj base), so with t = phi(y, base) the node
    y > 0 carries E = t + t'/e' and F = i (t - t'/e'), and y = 0 carries
    (2t, 0) (see :class:`CachedKernelQuadrature`), on [0, y_max'] with
    y_max' >= y_max and the majorant of :func:`_folded_log_majorant`; a
    real base sums one series.  As epsilon(base) e' = 1, conj base has the
    parts e' (E, -F), so it needs no kernel of its own.
    """
    base = min(chi, chi.conjugate(), key=lambda c: c.index)
    found = _char_kernel_cache.get((base, prec))
    if found is None or found[0].b < y_max:
        base_bar = base.conjugate()
        with workprec(prec + _QUAD_GUARD):
            eps_bar = epsilon_factor(base_bar)

        def parts(y):
            t = phi_char(y, base)
            if y == 0:  # E = 2 K(0), F = 0, as phi_char(0, chi) has it
                return 2 * t, mpc(0)
            minus = (t if base_bar == base else phi_char(y, base_bar)) \
                / eps_bar
            diff = t - minus
            return t + minus, mpc(-diff.imag, diff.real)

        found = _char_kernel_cache[(base, prec)] = (CachedKernelQuadrature(
            parts, y_max, _folded_log_majorant(base.q, base.parity)), eps_bar)
    return found[0], base, found[1]


def _folded_log_majorant(q: int, kappa: int):
    """log of a bound on |K(y + it)| + |K(-y + it)| over |t| <= tau, y >= 0.

    For K = phi(., chi) of modulus q and parity kappa: termwise
    |exp(-n^2 pi e^(2(y+it))/q + (kappa+1/2)(y+it))| =
    exp(-n^2 pi e^(2y) cos 2t / q + (kappa+1/2) y) and |chi(n)| <= 1, so
    2 sum n^kappa exp(-n^2 pi e^(2y) cos 2tau / q + (kappa+1/2) y) bounds
    |K(y + it)|.  By the functional equation K(-y + it) is a factor of
    modulus 1 times phi(y - it, conj chi), which has the same bound; hence
    the factor 4.  (The series of moduli itself diverges as y -> -inf.)
    """
    def log_majorant(y: float, tau: float) -> float:
        lead = math.log(4) + (kappa + 0.5) * y
        return log_theta_majorant(
            lambda n: lead + kappa * math.log(n),
            math.pi * math.exp(2 * y) * math.cos(2 * tau) / q)
    return log_majorant


@dataclass(frozen=True)
class CharCoefficients:
    """a_n(chi) with the conjugate-side coefficients and the products b_n.

    ``mu`` is the least index with |a_mu| above the numeric zero floor
    2^-(prec/2) * max|a_n| (true zeros here are exact symmetry zeros, living
    at roundoff level far below genuine coefficients).  ``b[n]`` is
    sum_(j=0..2n) a_(j+mu)(chi) a_(2n-j+mu)(conj chi), defined while
    2n + mu <= N.  One side of the pair is integrated and the other is
    (-1)^n epsilon(conj chi) times it (eq. 3.24), so ``eq_residuals``,
    |a_n(conj chi) - (-1)^n epsilon(conj chi) a_n(chi)|, only measures the
    rounding of that product.  ``b_radii[n]`` bounds the error of b[n]:
    the radius of each a_n, the quadrature's error radius over n! plus
    rounding, carried through the convolution.
    """

    a: Tuple[mpc, ...]
    a_bar: Tuple[mpc, ...]
    mu: int
    b: Tuple[mpc, ...]
    b_radii: Tuple[mpf, ...]
    eq_residuals: Tuple[mpf, ...]


def char_coeffs(chi: DirichletCharacter, N: int) -> CharCoefficients:
    """Coefficients a_0..a_N of chi and of conj chi from the pair's one kernel.

    The kernel of :func:`_char_kernel` gives a_n(base), and its parts
    e' (E, -F) give a_n(conj base) = (-1)^n e' a_n(base).  Radii: a_n(base)
    is rounded twice (to the working precision, then by n!), so its error
    is under r_n + 2u |a_n|, with u = 2^-prec and r_n the quadrature radius
    over n!.  As |e'| = 1 the mirror inherits that error and adds one
    rounding of the product (u |a_n|, each part rounded once) and the error
    of e', far below u at 32 guard bits.  So the term 4u max(|a_n(chi)|,
    |a_n(conj chi)|) of each radius covers the extra product.
    """
    _require_analytic(chi)
    if N < 2:
        raise DomainError("N must be >= 2")
    prec = mp.prec
    kernel, base, eps_mirror = _char_kernel(
        chi, prec, kernel_cutoff(prec, chi.q, chi.parity + 0.5 + N))
    # coefficient of s^n in the e^(isy) expansion is i^n/n! int y^n phi,
    # so the moment integral carries the 1/n! factor; on the folded kernel
    # an odd moment is i times what the quadrature returns
    facs = [mpf(mpmath.factorial(n)) for n in range(N + 1)]
    vals, radii = kernel.moments(range(N + 1))
    a = [mpc(v) * (mpc(0, 1) if n % 2 else 1) / fac
         for n, (v, fac) in enumerate(zip(vals, facs))]
    a_bar = a
    if not base.is_real:
        mirror = [(-1) ** n * eps_mirror * v for n, v in enumerate(a)]
        a, a_bar = (a, mirror) if chi == base else (mirror, a)

    eps_bar = epsilon_factor(chi.conjugate())
    residuals = tuple(abs(a_bar[n] - (-1) ** n * eps_bar * a[n])
                      for n in range(N + 1))

    floor = mpf(2) ** (-(prec // 2)) * max(abs(v) for v in a)
    mu = next((n for n, v in enumerate(a) if abs(v) > floor), None)
    if mu is None:
        raise DomainError(
            f"all coefficients of {chi.label()} are below the zero floor "
            f"up to N = {N}; cannot locate mu")

    u = mpf(2) ** -prec
    # radius of a_n and of a_n(conj chi): see the docstring
    rho = [r / fac + 4 * u * max(abs(v), abs(w))
           for v, w, r, fac in zip(a, a_bar, radii, facs)]
    b: List[mpc] = []
    b_radii: List[mpf] = []
    for n in range((N - mu) // 2 + 1):
        pairs = [(a[j + mu], rho[j + mu], a_bar[2 * n - j + mu],
                  rho[2 * n - j + mu]) for j in range(2 * n + 1)]
        b.append(mpc(mpmath.fsum((x * y).real for x, _, y, _ in pairs),
                     mpmath.fsum((x * y).imag for x, _, y, _ in pairs)))
        b_radii.append(mpmath.fsum(
            abs(x) * ry + abs(y) * rx + rx * ry + 4 * u * abs(x * y)
            for x, rx, y, ry in pairs))
    return CharCoefficients(
        a=tuple(a), a_bar=tuple(a_bar), mu=mu, b=tuple(b),
        b_radii=tuple(b_radii), eq_residuals=residuals)


# ---------------------------------------------------------------------------
# Evaluation on the critical line and zero bracketing

def xi_char_eval(s, chi: DirichletCharacter,
                 target: Optional[mpf] = None, derivative: bool = False):
    """xi(1/2 + is, chi) = int e^(isy) phi(y, chi) dy for real s.

    ``target`` is the absolute quadrature error goal (None: the default).
    With ``derivative``, returns the value and its s-derivative
    i int y e^(isy) phi(y, chi) dy from the same kernel values.  On the
    folded kernel both are integrated by
    :meth:`CachedKernelQuadrature.fourier` with the real multipliers
    (cos sy, sin sy) and (-y sin sy, y cos sy), taken by integer angle
    addition from two ``cos_sin`` calls per trapezoidal level.  For conj
    base (see :func:`_char_kernel`) they are e' xi(1/2 - is, base) and
    its s-derivative.
    """
    _require_analytic(chi)
    prec = mp.prec
    kernel, base, eps_mirror = _char_kernel(
        chi, prec, kernel_cutoff(prec, chi.q, chi.parity + 0.5))
    if chi == base:
        value = kernel.fourier(s, target, derivative).value
        return tuple(map(mpc, value)) if derivative else mpc(value)
    value = kernel.fourier(-to_mpf(s), target, derivative).value
    if derivative:
        return eps_mirror * value[0], -eps_mirror * value[1]
    return eps_mirror * value


def z_char_eval(s, chi: DirichletCharacter,
                target: Optional[mpf] = None, derivative: bool = False):
    """Phase-corrected real factor epsilon(chi)^(-1/2) xi(1/2+is, chi).

    Analytically real for real s; its sign changes are the zero heights of
    the chi factor of f.  The imaginary residue must stay at the level of
    the quadrature target (None: the default) or a ConsistencyError is
    raised.  With ``derivative``, returns (Z(s), Z'(s)); Z' only steers the
    safeguarded Newton steps of zero location, so its real part is taken
    unchecked.
    """
    prec = mp.prec
    if target is None:
        target = default_target(prec)
    phase = mpmath.sqrt(epsilon_factor(chi))
    if derivative:
        value, slope = (v / phase for v in xi_char_eval(s, chi, target, True))
    else:
        value = xi_char_eval(s, chi, target) / phase
    tol = 64 * target + mpf(2) ** (-(prec - 24)) * abs(value)
    if abs(value.imag) > tol:
        raise ConsistencyError(
            f"Z(s, {chi.label()}) has imaginary residue {value.imag}")
    return (value.real, slope.real) if derivative else value.real


#: the zero scan of :func:`first_zero_height` covers [0, SCAN_MAX]
SCAN_MAX = mpf(40)


def first_zero_height(chi: DirichletCharacter) -> ZeroBracket:
    """Bracket of the smallest positive zero height s_1(chi) of f(s, chi).

    The zero lies below SCAN_MAX; s_1 is the bracket's refined root.

    For complex chi the factors xi(., chi) and xi(., conj chi) vanish at
    mirrored heights, so both are scanned and the overall minimum returned.
    Each scan of the signs of Z stops at its first sign change, and the
    second scan ends where the first one's step ends.  Only the lowest step
    is refined, by safeguarded Newton steps on Z and Z' (both factors when
    their first sign changes share the step).
    """
    fine, rough = scan_target(mp.prec), sign_target(mp.prec)
    found = []  # (factor, (lo, hi, Z(lo), Z(hi))) per first sign change
    top = SCAN_MAX
    for c in [chi] if chi.is_real else [chi, chi.conjugate()]:
        cell = next(sign_changes(
            lambda s: z_char_eval(s, c, fine), 0, top,
            rough=lambda s: z_char_eval(s, c, rough)), None)
        if cell is not None:
            found.append((c, cell))
            top = cell[1]
    if not found:
        raise DomainError(
            f"no zero of f(s, {chi.label()}) found below {SCAN_MAX}")
    lowest = found[-1][1][0]
    return min(
        (bisect_sign_change(
            lambda s: z_char_eval(s, c, fine), *cell,
            fdf=lambda s: z_char_eval(s, c, fine, derivative=True))
         for c, cell in found if cell[0] == lowest),
        key=lambda b: b.refined_root)


# ---------------------------------------------------------------------------
# The GRH pipeline

@dataclass(frozen=True)
class GrhPipelineResult:
    character: DirichletCharacter
    coefficients: CharCoefficients
    b_ratios: Tuple[mpf, ...]
    eq331_status: str
    tail: Optional[MomentTail]  # None exactly when the hypothesis fails

    @property
    def verdict(self) -> str:
        if self.tail is None:
            return "hypothesis fails"
        return self.tail.grid.verdict


def grh_moment_pipeline(chi: DirichletCharacter, N: int, L,
                        n_max: int, k_max: int) -> GrhPipelineResult:
    """Full grid check for the moments of f(s, chi).

    ``N`` counts the even-series coefficients: products b_0..b_N are formed
    (requiring a_0..a_(2N+mu)) and the ratios b_n/b_0 are checked for the
    positivity hypothesis; when it holds, s_1(chi) is located and the
    ratios go to :func:`riemann.moment_tail`, which resolves ``L`` and
    certifies the (n_max, k_max) grid.

    The positivity of b_n/b_0 is a hypothesis of the criterion, not a
    consequence: unless every ratio is certified positive against its
    radius, the pipeline halts with verdict "hypothesis fails" instead of
    building a grid.
    """
    if not chi.is_primitive:
        raise DomainError(
            f"{chi.label()} is not primitive: conductor {chi.conductor} "
            f"< modulus {chi.q}")
    coeffs = ratios = bad = None

    def source():
        nonlocal coeffs, ratios, bad
        coeffs = char_coeffs(chi, 2 * N)
        if coeffs.mu > 0:  # deepen so that b_0..b_N stay available
            coeffs = char_coeffs(chi, 2 * N + coeffs.mu)
        tol, u = mpf(2) ** (-(mp.prec - 24)), mpf(2) ** -mp.prec
        ratios, radii = [], []
        b0, rb0 = coeffs.b[0], coeffs.b_radii[0]
        for n, (bn, rbn) in enumerate(zip(coeffs.b[:N + 1], coeffs.b_radii)):
            r = bn / b0
            if abs(r.imag) > tol * (1 + abs(r)):
                raise ConsistencyError(
                    f"b_{n}/b_0 has imaginary residue {r.imag}")
            ratios.append(r.real if n else mpf(1))
            radii.append((rbn + abs(r) * rb0) / (abs(b0) - rb0)
                         + 4 * u * abs(r) if n else mpf(0))
        bad = next((n for n, (r, rad) in enumerate(zip(ratios, radii))
                    if certify_sign(r, radius=rad).sign != POSITIVE), None)
        if bad is not None:
            return None
        series = SeriesPrefix(tuple(ratios), tuple(radii))
        return series, first_zero_height(chi)

    tail = moment_tail(N, L, n_max, k_max, source)
    status = f"fails at n = {bad}" if tail is None else f"holds for n <= {N}"
    return GrhPipelineResult(chi, coeffs, tuple(ratios), status, tail)
