"""Dirichlet characters and the L-function instantiation of the criterion.

Characters modulo q are represented exactly: the unit group (Z/qZ)* is
decomposed into cyclic components (primitive roots for odd prime powers,
{-1} x <5> for 2^k with k >= 3), and a character is the vector of exponents
of its values on the generators.  Values are roots of unity carried as
rational angles, so Gauss sums and orthogonality relations suffer no
premature rounding; the complex embedding happens at evaluation time only.

For a primitive character the completed function has the kernel form

    xi(1/2 + is, chi) = int_(-inf)^(inf) e^(isy) phi(y, chi) dy,
    phi(y, chi) = 2 sum_(n>=1) n^kappa chi(n)
                  exp(-n^2 pi e^(2y) / q + (kappa + 1/2) y),

with kappa the parity of chi.  Moment data comes from the coefficients
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
import sympy

from .moments import (
    MomentSequence,
    PositivityGrid,
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
    bisect_sign_change,  # unused here; perfbench/spans.py wraps it by this name
    certify_sign,
    default_target,
    scan_target,
    sign_change_brackets,
    to_mpf,
)
from .riemann import kernel_cutoff, moment_tail

__all__ = [
    "CharCoefficients",
    "DirichletCharacter",
    "GrhPipelineResult",
    "char_coeffs",
    "characters_mod",
    "f_char_eval",
    "first_zero_height",
    "gauss_sum",
    "grh_moment_pipeline",
    "phi_char",
    "xi_char_eval",
    "z_char_eval",
]


# ---------------------------------------------------------------------------
# Unit group structure

@lru_cache(maxsize=None)
def _unit_group(q: int):
    """Cyclic decomposition of (Z/qZ)*: generators, orders, discrete logs.

    Returns (gens, orders, dlog) where dlog maps each unit to its exponent
    vector.  The 2-part contributes [-1, 5] for 2^k, k >= 3.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    comps: List[Tuple[int, int]] = []  # (generator mod its prime power, order)
    moduli: List[int] = []
    for p, e in sorted(sympy.factorint(q).items()):
        pe = p ** e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                comps.append((3, 2))
                moduli.append(4)
            else:
                comps.append((pe - 1, 2))
                moduli.append(pe)
                comps.append((5, 2 ** (e - 2)))
                moduli.append(pe)
        else:
            comps.append((int(sympy.primitive_root(pe)), pe - pe // p))
            moduli.append(pe)
    # lift each generator to mod q via CRT (1 in the other components)
    gens = []
    for (g, order), pe in zip(comps, moduli):
        if pe == q:
            gens.append(g % q)
        else:
            rest = q // pe
            lifted = int(sympy.ntheory.modular.crt([pe, rest], [g, 1])[0])
            gens.append(lifted % q)
    orders = [order for _, order in comps]
    dlog: Dict[int, Tuple[int, ...]] = {}
    for idx in itertools.product(*(range(d) for d in orders)):
        v = 1 % q
        for g, c in zip(gens, idx):
            v = v * pow(g, c, q) % q
        dlog[v] = idx
    return tuple(gens), tuple(orders), dlog


def _component_primes(q: int) -> List[int]:
    """Prime owning each cyclic component, aligned with _unit_group order."""
    out = []
    for p, e in sorted(sympy.factorint(q).items()):
        if p == 2:
            if e == 1:
                continue
            out.append(2)
            if e >= 3:
                out.append(2)
        else:
            out.append(p)
    return out


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
        primes = _component_primes(self.q)
        orders = self.orders
        two_part: List[Tuple[int, int]] = []
        cond = 1
        for p, c, d in zip(primes, self.exponents, orders):
            o = d // math.gcd(d, c)
            if p == 2:
                two_part.append((o, d))
                continue
            if o > 1:
                cond *= p ** (1 + _valuation(o, p))
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


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _chi_split_table(q: int, exponents: Tuple[int, ...], prec: int):
    """Per-residue (re, im) mpf pairs, None on non-units; for hot loops."""
    chi = DirichletCharacter(q, exponents)
    with workprec(prec):
        table = [chi(n) for n in range(q)]
    return tuple(None if v == 0 else (v.real, v.imag) for v in table)


def phi_char(y, chi: DirichletCharacter) -> mpc:
    """Truncated theta kernel phi(y, chi) for a primitive chi, q >= 3.

    The term magnitude n^kappa exp(-n^2 pi e^(2y)/q + (kappa+1/2) y) decays
    like a Gaussian in n; summation stops when it falls below 2^-(prec+8)
    of the largest magnitude seen (after at least one full period of chi).
    """
    _require_analytic(chi)
    n_terms = 1000000  # give up after this many terms
    y = to_mpf(y)
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


_char_kernel_cache: dict = {}


def _char_kernel(chi: DirichletCharacter, prec: int,
                 y_max: mpf) -> CachedKernelQuadrature:
    """Cached phi(., chi) kernel on [-y_max', y_max'] with y_max' >= y_max."""
    base_key = (chi.q, chi.exponents, prec)
    found = _char_kernel_cache.get(base_key)
    if found is not None and found.b >= y_max:
        return found
    kernel = CachedKernelQuadrature(lambda y: phi_char(y, chi), -y_max, y_max)
    _char_kernel_cache[base_key] = kernel
    return kernel


@dataclass(frozen=True)
class CharCoefficients:
    """a_n(chi) with the conjugate-side coefficients and the products b_n.

    ``mu`` is the least index with |a_mu| above the numeric zero floor
    2^-(prec/2) * max|a_n| (true zeros here are exact symmetry zeros, living
    at roundoff level far below genuine coefficients).  ``b[n]`` is
    sum_(j=0..2n) a_(j+mu)(chi) a_(2n-j+mu)(conj chi), defined while
    2n + mu <= N.  ``eq_residuals`` stores
    |a_n(conj chi) - (-1)^n epsilon(conj chi) a_n(chi)|, which should sit at
    quadrature-error level.  ``quadrature_error[n]`` is the scaled
    difference of the last two quadrature levels of a_n(chi), not an error
    bound: it is exactly 0 when two levels agree to every guard bit.
    ``b_radii[n]`` bounds the error of b[n]: the radius default_target/n!
    of each a_n, plus rounding, carried through the convolution.
    """

    a: Tuple[mpc, ...]
    a_bar: Tuple[mpc, ...]
    mu: int
    b: Tuple[mpc, ...]
    b_radii: Tuple[mpf, ...]
    eq_residuals: Tuple[mpf, ...]
    quadrature_error: Tuple[mpf, ...]
    bits: int


def char_coeffs(chi: DirichletCharacter, N: int) -> CharCoefficients:
    """Coefficients a_0..a_N(chi) and a_n(conj chi) by shared-kernel quadrature."""
    _require_analytic(chi)
    if N < 2:
        raise DomainError("N must be >= 2")
    prec = mp.prec
    y_max = kernel_cutoff(prec, chi.q, chi.parity + 0.5 + N)
    kernel = _char_kernel(chi, prec, y_max)
    chi_bar = chi.conjugate()
    kernel_bar = kernel if chi_bar == chi else _char_kernel(chi_bar, prec, y_max)

    def monomials(kern):
        # coefficient of s^n in the e^(isy) expansion is i^n/n! int y^n phi,
        # so the moment integral carries the 1/n! factor
        vals, errs = [], []
        for n in range(N + 1):
            v, e = kern.integrate(lambda y, n=n: y ** n)
            fac = mpf(mpmath.factorial(n))
            vals.append(mpc(v) / fac)
            errs.append(e / fac)
        return vals, errs

    a, errs = monomials(kernel)
    a_bar, _ = (a, errs) if kernel_bar is kernel else monomials(kernel_bar)

    eps_bar = epsilon_factor(chi_bar)
    residuals = tuple(abs(a_bar[n] - (-1) ** n * eps_bar * a[n])
                      for n in range(N + 1))

    floor = mpf(2) ** (-(prec // 2)) * max(abs(v) for v in a)
    mu = next((n for n, v in enumerate(a) if abs(v) > floor), None)
    if mu is None:
        raise DomainError(
            f"all coefficients of {chi.label()} are below the zero floor "
            f"up to N = {N}; cannot locate mu")

    u = mpf(2) ** -prec
    # radius of a_n and of a_n(conj chi): the target over n!, plus rounding
    rho = [default_target(prec) / mpf(mpmath.factorial(n))
           + 4 * u * max(abs(v), abs(w))
           for n, (v, w) in enumerate(zip(a, a_bar))]
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
        b_radii=tuple(b_radii), eq_residuals=residuals,
        quadrature_error=tuple(errs), bits=prec)


# ---------------------------------------------------------------------------
# Evaluation on the critical line and zero bracketing

def xi_char_eval(s, chi: DirichletCharacter,
                 target: Optional[mpf] = None) -> mpc:
    """xi(1/2 + is, chi) = int e^(isy) phi(y, chi) dy for real s.

    ``target`` is the absolute quadrature error goal (None: the default).
    """
    _require_analytic(chi)
    s = to_mpf(s)
    prec = mp.prec
    kernel = _char_kernel(
        chi, prec, kernel_cutoff(prec, chi.q, chi.parity + 0.5))
    value, _ = kernel.integrate(lambda y: mpmath.expj(s * y), target)
    return mpc(value)


def f_char_eval(s, chi: DirichletCharacter) -> mpc:
    """f(s, chi) = xi(1/2+is, chi) xi(1/2+is, conj chi), the mu = 0 product.

    Real and even in s up to quadrature error.
    """
    s = to_mpf(s)
    left = xi_char_eval(s, chi)
    chi_bar = chi.conjugate()
    right = left if chi_bar == chi else xi_char_eval(s, chi_bar)
    return left * right


def z_char_eval(s, chi: DirichletCharacter,
                target: Optional[mpf] = None) -> mpf:
    """Phase-corrected real factor epsilon(chi)^(-1/2) xi(1/2+is, chi).

    Analytically real for real s; its sign changes are the zero heights of
    the chi factor of f.  The imaginary residue must stay at the level of
    the quadrature target (None: the default) or a ConsistencyError is
    raised.
    """
    prec = mp.prec
    if target is None:
        target = default_target(prec)
    value = xi_char_eval(s, chi, target) / mpmath.sqrt(epsilon_factor(chi))
    tol = 64 * target + mpf(2) ** (-(prec - 24)) * abs(value)
    if abs(value.imag) > tol:
        raise ConsistencyError(
            f"Z(s, {chi.label()}) has imaginary residue {value.imag}")
    return value.real


#: the zero scan of :func:`first_zero_height` covers [0, SCAN_MAX]
SCAN_MAX = mpf(40)


def first_zero_height(chi: DirichletCharacter) -> mpf:
    """Smallest positive zero height s_1(chi) of f(s, chi), below SCAN_MAX.

    For complex chi the factors xi(., chi) and xi(., conj chi) vanish at
    mirrored heights, so both are scanned and the overall minimum returned.
    Each scan stops at its first sign change of Z.
    """
    target = scan_target(mp.prec)
    candidates = []
    for c in [chi] if chi.is_real else [chi, chi.conjugate()]:
        first = next(sign_change_brackets(
            lambda s: z_char_eval(s, c, target), 0, SCAN_MAX), None)
        if first is not None:
            candidates.append(first.refined_root)
    if not candidates:
        raise DomainError(
            f"no zero of f(s, {chi.label()}) found below {SCAN_MAX}")
    return min(candidates)


# ---------------------------------------------------------------------------
# The GRH pipeline

@dataclass(frozen=True)
class GrhPipelineResult:
    character: DirichletCharacter
    coefficients: CharCoefficients
    b_ratios: Tuple[mpf, ...]
    eq331_status: str
    s1: Optional[mpf]
    L: Optional[mpf]
    moments: Optional[MomentSequence]
    grid: Optional[PositivityGrid]
    det_residuals: Tuple[mpf, ...]

    @property
    def verdict(self) -> str:
        if self.grid is None:
            return "hypothesis fails"
        return self.grid.verdict


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
    if tail is None:
        return GrhPipelineResult(
            character=chi, coefficients=coeffs, b_ratios=tuple(ratios),
            eq331_status=f"fails at n = {bad}", s1=None, L=None,
            moments=None, det_residuals=(), grid=None)
    return GrhPipelineResult(
        character=chi, coefficients=coeffs, b_ratios=tuple(ratios),
        eq331_status=f"holds for n <= {N}", **tail._asdict())
