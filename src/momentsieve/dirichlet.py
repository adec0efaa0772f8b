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
from mpmath.libmp import (
    from_int, mpc_add, mpc_div, mpc_sub, mpf_div, mpf_exp, mpf_mul,
    mpf_neg, mpf_pi, mpf_pos, mpf_shift, round_nearest)
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
    to_mpf,
    _raw_to_fixed,
    _to_fixed,
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
        """kappa with chi(-1) = (-1)^kappa, cached."""
        return _parity(self)

    # -- conductor / primitivity -------------------------------------------

    @property
    def conductor(self) -> int:
        """Smallest modulus inducing chi, cached."""
        return _conductor(self)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.q

    def label(self) -> str:
        return f"chi_{self.q}.{self.index}"


#: entries kept by each character-keyed cache below
TABLE_CACHE_SIZE = 1024


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _parity(chi: DirichletCharacter) -> int:
    t = chi.value_fraction(-1)
    if t == 0:
        return 0
    if t == Fraction(1, 2):
        return 1
    raise ConsistencyError(f"chi(-1) is not +-1: exponent {t}")


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _conductor(chi: DirichletCharacter) -> int:
    if chi.q == 1:
        return 1
    primes = [p for p, *_ in _components(chi.q)]
    two_part: List[Tuple[int, int]] = []
    cond = 1
    for p, c, d in zip(primes, chi.exponents, chi.orders):
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
    denom = mpmath.sqrt(mpf(chi.q))
    return gauss_sum(chi) / (mpc(0, 1) ** chi.parity * denom)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _phase(chi: DirichletCharacter, prec: int) -> mpc:
    """epsilon(chi)^(1/2), the phase that :func:`z_char_eval` divides out."""
    with workprec(prec):
        return mpmath.sqrt(epsilon_factor(chi))


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
def _chi_fixed_table(q: int, exponents: Tuple[int, ...], prec: int):
    """Per residue, chi's (re, im) as integers at scale 2^-(prec+16), None
    on non-units; for hot loops.

    Of a pair {chi, conj chi} only the lower-index character's values are
    computed; the other's table is their exact conjugate, so that
    phi(y, conj chi) = conj phi(y, chi) bit for bit (see _char_kernel).
    """
    chi = DirichletCharacter(q, exponents)
    bar = chi.conjugate()
    if bar.index < chi.index:
        return tuple(None if v is None else (v[0], -v[1])
                     for v in _chi_fixed_table(q, bar.exponents, prec))
    bits = prec + 16
    with workprec(prec):
        table = [chi(n) for n in range(q)]
    return tuple(None if v == 0 else
                 (_to_fixed(v.real, bits), _to_fixed(v.imag, bits))
                 for v in table)


#: terms :func:`_theta_series` sums before it gives up
THETA_TERMS = 1000000


def _theta_series(y: mpf, chi: DirichletCharacter) -> mpc:
    """The direct series for phi(y, chi); at y < 0 only to term roundoff.

    With B = pi e^(2y) / q,

        phi(y, chi) = 2 e^((kappa+1/2) y - B)
                      sum_(n>=1) chi(n) n^kappa e^(-(n^2-1) B).

    The sum runs on Python integers at scale 2^-(prec+16), its first term
    chi(1) = 1, with chi(n) from :func:`_chi_fixed_table` and each
    e^(-(n^2-1) B) from the last by the two-multiplication recurrence with
    truncating shifts; the products chi(n) n^kappa e^(-(n^2-1) B) are
    summed exactly and converted to ``mpf`` once, and the floating-point
    factors are taken on raw ``mpmath.libmp`` tuples, each operation
    rounded to prec bits to the nearest as the ``mpf`` expressions
    e^(y/2), pi (e^(2y)) / q and 2 e^((kappa+1/2) y) e^(-B) times the
    sums would round it.  The term magnitude
    decays like a Gaussian in n; summation stops when it falls below
    2^-(prec+8) of the largest magnitude seen (after at least one full
    period of chi); exhausting :data:`THETA_TERMS` first raises
    :class:`AccuracyError`.  The table of conj chi negates the imaginary
    parts exactly, so phi(y, conj chi) = conj phi(y, chi) bit for bit.

    Accuracy: B, from the fourth power of e^(y/2), is off by about
    4 B 2^-prec, so the value loses about log2 B + 2 bits, 10.7 bits at
    q = 5, y = 3.25.
    """
    q = chi.q
    kappa = chi.parity
    prec, rnd = mp.prec, round_nearest
    bits = prec + 16
    values = _chi_fixed_table(q, chi.exponents, prec)
    # e^(2y) and e^((kappa+1/2) y) as powers of one e^(y/2)
    e1 = mpf_exp(mpf_shift(mpf_pos(y._mpf_, prec, rnd), -1), prec, rnd)
    e2 = mpf_mul(e1, e1, prec, rnd)
    base = mpf_div(mpf_mul(mpf_pi(prec, rnd), mpf_mul(e2, e2, prec, rnd),
                           prec, rnd), from_int(q), prec, rnd)
    x = mpf_exp(mpf_neg(base), prec, rnd)
    # e^(-(n^2-1) B) by the recurrence p *= step, step *= x^2 from x^3
    x2 = mpf_mul(x, x)
    p = 1 << bits
    step = _raw_to_fixed(mpf_mul(x2, x, prec, rnd), bits)
    ratio = _raw_to_fixed(mpf_pos(x2, prec, rnd), bits)
    s_re = s_im = peak = 0
    for n in range(1, THETA_TERMS + 1):
        entry = values[n % q]
        if entry is not None:
            c_re, c_im = entry
            mag = n * p if kappa else p
            s_re += c_re * mag
            s_im += c_im * mag
            if mag > peak:
                peak = mag
            elif n > q and mag << (prec + 8) < peak:
                scale = mpf_mul(mpf_shift(
                    mpf_mul(e1, e2, prec, rnd) if kappa else e1, 1), x,
                    prec, rnd)
                return mp.make_mpc(tuple(mpf_mul(mpf_shift(
                    from_int(v, prec, rnd), -2 * bits), scale, prec, rnd)
                    for v in (s_re, s_im)))
        p = p * step >> bits
        step = step * ratio >> bits
    raise AccuracyError(
        f"phi(y, chi) did not converge within {THETA_TERMS} terms at y = {y}")


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
    """(kernel, base, e') for the pair {chi, conj chi}, cached per
    (base, prec, y_max).

    ``base`` is the pair's lower-index character, so the kernel does not
    depend on which one asked first, and e' = epsilon(conj base), computed
    once, at the nodes' precision.  By :func:`phi_char`, phi(-y, base) =
    t'/e' with t' = phi(y, conj base).  For real y every term of the series
    is chi(n) times a positive real, so t' = conj t with t = phi(y, base),
    bit for bit by :func:`_chi_fixed_table`, and each node sums one series.
    The node y > 0 carries E = t + t'/e' and F = i (t - t'/e'), and y = 0
    carries (2t, 0) (see :class:`CachedKernelQuadrature`), on [0, y_max]
    with the majorant of :func:`_folded_log_majorant`; for a real base
    t' = t.  As epsilon(base) e' = 1, conj base has the parts e' (E, -F),
    so it needs no kernel of its own.  No kernel is replaced, so a value
    does not depend on the cutoffs that were requested before it.
    """
    base = min(chi, chi.conjugate(), key=lambda c: c.index)
    found = _char_kernel_cache.get((base, prec, y_max))
    if found is None:
        base_bar, real = base.conjugate(), base.is_real
        with workprec(prec + _QUAD_GUARD):
            eps_bar = epsilon_factor(base_bar)

        def parts(y):
            # t'/e', t + t'/e' and i (t - t'/e') on raw mpmath.libmp
            # tuples, rounded as the mpc expressions would round them
            t = phi_char(y, base)
            if y == 0:  # E = 2 K(0), F = 0, as phi_char(0, chi) has it
                return 2 * t, mpc(0)
            bits, rnd = mp.prec, round_nearest
            t = t._mpc_
            minus = mpc_div(t if real else (t[0], mpf_neg(t[1])),
                            eps_bar._mpc_, bits, rnd)
            diff = mpc_sub(t, minus, bits, rnd)
            return (mp.make_mpc(mpc_add(t, minus, bits, rnd)),
                    mp.make_mpc((mpf_neg(diff[1]), diff[0])))

        found = _char_kernel_cache[(base, prec, y_max)] = (
            CachedKernelQuadrature(
                parts, y_max, _folded_log_majorant(base.q, base.parity)),
            eps_bar)
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
    (-1)^n epsilon(conj chi) times it (eq. 3.24).  ``b_radii[n]`` bounds
    the error of b[n]: the radius of each a_n, the quadrature's error
    radius over n! plus rounding, carried through the convolution.
    """

    a: Tuple[mpc, ...]
    a_bar: Tuple[mpc, ...]
    mu: int
    b: Tuple[mpc, ...]
    b_radii: Tuple[mpf, ...]


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

    floor = mpf(2) ** (-(prec // 2)) * max(abs(v) for v in a)
    mu = next((n for n, v in enumerate(a) if abs(v) > floor), None)
    if mu is None:
        raise DomainError(
            f"all coefficients of {chi.label()} are below the zero floor "
            f"up to N = {N}; cannot locate mu")

    u = mpf(2) ** -prec
    mags, mags_bar = [abs(v) for v in a], [abs(w) for w in a_bar]
    # radius of a_n and of a_n(conj chi): see the docstring
    rho = [r / fac + 4 * u * max(m, m_bar)
           for m, m_bar, r, fac in zip(mags, mags_bar, radii, facs)]
    b: List[mpc] = []
    b_radii: List[mpf] = []
    for n in range((N - mu) // 2 + 1):
        pairs = [(j + mu, 2 * n - j + mu) for j in range(2 * n + 1)]
        prods = [a[i] * a_bar[k] for i, k in pairs]
        b.append(mpc(mpmath.fsum(p.real for p in prods),
                     mpmath.fsum(p.imag for p in prods)))
        b_radii.append(mpmath.fsum(
            mags[i] * rho[k] + mags_bar[k] * rho[i] + rho[i] * rho[k]
            + 4 * u * abs(p) for (i, k), p in zip(pairs, prods)))
    return CharCoefficients(
        a=tuple(a), a_bar=tuple(a_bar), mu=mu, b=tuple(b),
        b_radii=tuple(b_radii))


# ---------------------------------------------------------------------------
# Evaluation on the critical line and zero bracketing

def _eval_kernel(chi: DirichletCharacter, cutoff: Optional[mpf]):
    """:func:`_char_kernel` of chi at the working precision and ``cutoff``
    (None: ``kernel_cutoff(prec, q, kappa + 1/2)``, the integrand's own)."""
    prec = mp.prec
    if cutoff is None:
        cutoff = kernel_cutoff(prec, chi.q, chi.parity + 0.5)
    return _char_kernel(chi, prec, cutoff)


def xi_char_eval(s, chi: DirichletCharacter,
                 target: Optional[mpf] = None, derivative: bool = False,
                 cutoff: Optional[mpf] = None):
    """xi(1/2 + is, chi) = int e^(isy) phi(y, chi) dy for real s.

    ``target`` is the absolute quadrature error goal (None: the default).
    ``cutoff`` is the kernel's y_max (None:
    ``kernel_cutoff(prec, q, kappa + 1/2)``, the integrand's own); a
    pipeline passes its coefficients' cutoff, so that one kernel serves
    the run.  With ``derivative``, returns the value and its s-derivative
    i int y e^(isy) phi(y, chi) dy from the same kernel values.  On the
    folded kernel both are integrated by
    :meth:`CachedKernelQuadrature.fourier` with the real multipliers
    (cos sy, sin sy) and (-y sin sy, y cos sy), taken by integer angle
    addition from one ``cos_sin`` call per evaluation.  For conj base (see
    :func:`_char_kernel`) they are e' xi(1/2 - is, base) and its
    s-derivative.
    """
    _require_analytic(chi)
    kernel, base, eps_mirror = _eval_kernel(chi, cutoff)
    if chi == base:
        value = kernel.fourier(s, target, derivative).value
        return tuple(map(mpc, value)) if derivative else mpc(value)
    value = kernel.fourier(-to_mpf(s), target, derivative).value
    if derivative:
        return eps_mirror * value[0], -eps_mirror * value[1]
    return eps_mirror * value


def z_char_eval(s, chi: DirichletCharacter,
                target: Optional[mpf] = None, derivative: bool = False,
                cutoff: Optional[mpf] = None):
    """Phase-corrected real factor epsilon(chi)^(-1/2) xi(1/2+is, chi).

    Analytically real for real s; its sign changes are the zero heights of
    the chi factor of f.  The imaginary residue must stay at the level of
    the quadrature target (None: the default) or a ConsistencyError is
    raised.  ``cutoff`` is that of :func:`xi_char_eval`.  With
    ``derivative``, returns (Z(s), Z'(s)); Z' only steers the safeguarded
    Newton steps of zero location, so its real part is taken unchecked.
    Zero location calls it only where it needs more than a sign; the
    scan's signs come from :func:`_z_char_sign`.
    """
    prec = mp.prec
    if target is None:
        target = default_target(prec)
    phase = _phase(chi, prec)
    if derivative:
        value, slope = (v / phase for v in xi_char_eval(
            s, chi, target, derivative=True, cutoff=cutoff))
    else:
        value = xi_char_eval(s, chi, target, cutoff=cutoff) / phase
    tol = 64 * target + mpf(2) ** (-(prec - 24)) * abs(value)
    if abs(value.imag) > tol:
        raise ConsistencyError(
            f"Z(s, {chi.label()}) has imaginary residue {value.imag}")
    return (value.real, slope.real) if derivative else value.real


def _z_char_sign(s, chi: DirichletCharacter, cutoff: Optional[mpf]):
    """(Z(s, chi), radius) in floats, for the sign of Z alone.

    The pair's :meth:`CachedKernelQuadrature.fourier_sign` at s, or at -s
    times e' for conj base (see :func:`xi_char_eval`), divided by the
    phase, in complex doubles.  The radius adds to the quadrature's the
    rounding of e' and of the phase (2^-prec, or 2^-53 as doubles,
    relative) and of the two complex operations, rounded outward.  An
    imaginary residue beyond the radius raises :class:`ConsistencyError`,
    as in :func:`z_char_eval`.  ``cutoff`` is that of
    :func:`xi_char_eval`.
    """
    prec = mp.prec
    kernel, base, eps_mirror = _eval_kernel(chi, cutoff)
    if chi == base:
        value, radius = kernel.fourier_sign(s)
    else:
        value, radius = kernel.fourier_sign(-to_mpf(s))
        value *= complex(eps_mirror)
    value /= complex(_phase(chi, prec))
    rel = 2.0 ** (4 - min(prec, 53))
    radius = (radius + abs(value) * rel) * (1 + rel)
    if abs(value.imag) > radius:
        raise ConsistencyError(
            f"Z(s, {chi.label()}) has imaginary residue {value.imag}")
    return value.real, radius


#: the zero scan of :func:`first_zero_height` covers [0, SCAN_MAX]
SCAN_MAX = mpf(40)


def first_zero_height(chi: DirichletCharacter,
                      cutoff: Optional[mpf] = None) -> ZeroBracket:
    """Bracket of the smallest positive zero height s_1(chi) of f(s, chi).

    The zero lies below SCAN_MAX; s_1 is the bracket's refined root.
    Every evaluation takes the kernel cutoff ``cutoff`` (see
    :func:`xi_char_eval`).

    For complex chi the factors xi(., chi) and xi(., conj chi) vanish at
    mirrored heights, so both are scanned and the overall minimum returned.
    Each scan of the signs of Z stops at its first sign change, and the
    second scan ends where the first one's step ends.  A scan point takes
    its sign from :func:`_z_char_sign` (64-bit fixed point, in floats)
    where that certifies it, and from :func:`z_char_eval` at the
    :func:`numkernel.scan_target` elsewhere.  Only the lowest step is
    refined, by safeguarded Newton steps on Z and Z' (both factors when
    their first sign changes share the step).
    """
    fine = scan_target(mp.prec)
    found = []  # (factor, (lo, hi, Z(lo), Z(hi))) per first sign change
    top = SCAN_MAX
    for c in [chi] if chi.is_real else [chi, chi.conjugate()]:
        cell = next(sign_changes(
            lambda s: z_char_eval(s, c, fine, cutoff=cutoff), 0, top,
            rough=lambda s: _z_char_sign(s, c, cutoff)), None)
        if cell is not None:
            found.append((c, cell))
            top = cell[1]
    if not found:
        raise DomainError(
            f"no zero of f(s, {chi.label()}) found below {SCAN_MAX}")
    lowest = found[-1][1][0]
    return min(
        (bisect_sign_change(
            lambda s: z_char_eval(s, c, fine, cutoff=cutoff), *cell,
            fdf=lambda s: z_char_eval(s, c, fine, derivative=True,
                                      cutoff=cutoff))
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
    building a grid.  The zero scan takes the kernel cutoff of the last
    coefficients, so one kernel of the pair serves the run, and the result
    does not depend on what ran before it in the process.
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
        depth = len(coeffs.a) - 1
        return series, first_zero_height(chi, kernel_cutoff(
            mp.prec, chi.q, chi.parity + 0.5 + depth))

    tail = moment_tail(N, L, n_max, k_max, source)
    status = f"fails at n = {bad}" if tail is None else f"holds for n <= {N}"
    return GrhPipelineResult(chi, coeffs, tuple(ratios), status, tail)
