"""Shared helpers: precision discipline and seeded random generators."""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

import mpmath
import pytest
from mpmath import mp, mpf, mpc

from momentsieve import dirichlet
from momentsieve.moments import MomentSequence
from momentsieve.numkernel import (
    CachedKernelQuadrature,
    DomainError,
    _to_fixed,
)
from momentsieve.oracle import ZeroSet, _pair_conjugates, moments_from_zeros
from momentsieve.riemann import kernel_cutoff

DEFAULT_TEST_BITS = 256


@pytest.fixture(autouse=True)
def _default_precision():
    old = mp.prec
    mp.prec = DEFAULT_TEST_BITS
    yield
    mp.prec = old


def close(a, b, tol):
    return abs(mpf(a) - mpf(b)) <= mpf(tol)


def rel_close(a, b, tol):
    a, b = mpf(a), mpf(b)
    scale = max(abs(a), abs(b))
    if scale == 0:
        return True
    return abs(a - b) <= mpf(tol) * scale


def random_real_zeros(rng: random.Random, count, lo=1.5, hi=100.0):
    """Real zeros in [lo, hi], as exact dyadic-friendly mpf values."""
    return [mpf(rng.uniform(lo, hi)) for _ in range(count)]


def random_conjugate_zeros(rng: random.Random, pairs, reals,
                           re_lo=1.5, re_hi=30.0, max_tangent=0.6):
    """A conjugate-closed list: ``reals`` real zeros plus ``pairs`` pairs.

    Imaginary parts stay below ``max_tangent`` times the real part, keeping
    the sets comfortably inside the real-part-dominated class.
    """
    zeros = [mpc(mpf(rng.uniform(re_lo, re_hi))) for _ in range(reals)]
    for _ in range(pairs):
        re = mpf(rng.uniform(re_lo, re_hi))
        im = re * mpf(rng.uniform(0.05, max_tangent))
        zeros.append(mpc(re, im))
        zeros.append(mpc(re, -im))
    rng.shuffle(zeros)
    return zeros


def random_fraction(rng: random.Random, max_num=1000, max_den=1000):
    return Fraction(rng.randint(-max_num, max_num),
                    rng.randint(1, max_den))


def levels_covered_two_levels_up(kernel, targets, degree=None, s=None):
    """Check a quadrature's radius at the level it picks for each target.

    The integral is the moment of ``degree`` or, when ``s`` is given, the
    Fourier integral at ``s``.  The radius must cover |T_l - T_(l+2)|, the
    distance of the level's sum from the sum two levels finer.  Returns
    the set of levels checked.
    """
    levels = set()
    for target in targets:
        if s is None:
            level = kernel._level([(0, degree)], target)
            radius = kernel.moments((degree,), target).radius[0]
            (t_l,), (t_finer,) = (kernel._moment_sums((degree,), lv)[1]
                                  for lv in (level, level + 2))
        else:
            level = kernel._level([(abs(s), 0)], target, fixed=True)
            radius = kernel.fourier(s, target).radius
            (t_l,), (t_finer,) = (kernel._fixed_sums(s, lv, False)[1]
                                  for lv in (level, level + 2))
        assert abs(t_l - t_finer) <= radius, (level, target)
        levels.add(level)
    return levels


def eq_324_residuals(coeffs, chi):
    """|a_n(conj chi) - (-1)^n epsilon(conj chi) a_n(chi)| for each n."""
    eps_bar = dirichlet.epsilon_factor(chi.conjugate())
    return [abs(w - (-1) ** n * eps_bar * v)
            for n, (v, w) in enumerate(zip(coeffs.a, coeffs.a_bar))]


def direct_char_coeffs(chi, N):
    """a_0..a_N(chi) from the direct theta series over the whole interval.

    Unlike ``char_coeffs``, which takes the y < 0 half of the kernel from
    the functional equation, every node here sums the series itself at y
    and -y, so the two paths agree only if the reflection factor is right.
    """
    prec = mp.prec
    y_max = kernel_cutoff(prec, chi.q, chi.parity + 0.5 + N)

    def folded(y):  # the parts E and F at +-y, both from the series
        plus, minus = (dirichlet._theta_series(v, chi) for v in (y, -y))
        return plus + minus, mpc(0, 1) * (plus - minus)

    kernel = CachedKernelQuadrature(
        folded, y_max, dirichlet._folded_log_majorant(chi.q, chi.parity))
    # an odd moment of the folded kernel is i times what moments returns
    return [mpc(v) * (mpc(0, 1) if n % 2 else 1) / mpmath.factorial(n)
            for n, v in enumerate(kernel.moments(range(N + 1)).value)]


def mpf_phi(u):
    """Phi(u) as ``riemann.phi`` sums it, its floating-point factors taken
    by ``mpf`` expressions: the reference for the raw ``mpmath.libmp``
    arithmetic of ``riemann.phi``, which must match it bit for bit."""
    u = abs(mpf(u))
    prec = mp.prec
    bits = prec + 16
    e1 = mpmath.exp(u / 2)
    e2 = e1 * e1
    e4 = e2 * e2
    pi = mpmath.pi
    b = pi * e4
    x = mpmath.exp(-b)
    x2 = mpmath.fmul(x, x, exact=True)
    p, q, ratio = 1 << bits, _to_fixed(x2 * x, bits), _to_fixed(x2, bits)
    b2, three = 2 * _to_fixed(b, bits), 3 << bits
    s = 0
    for n in range(1, 100000):
        n2 = n * n
        term = n2 * (n2 * b2 - three) * p >> bits
        s += term
        if term << (prec + 8) < s:
            return 2 * pi * (e4 * e1) * x * mpmath.ldexp(mpf(s), -bits)
        p = p * q >> bits
        q = q * ratio >> bits


def mpf_theta_series(y, chi):
    """``dirichlet._theta_series`` with its floating-point factors taken by
    ``mpf`` and ``mpc`` expressions: the reference for its raw
    ``mpmath.libmp`` arithmetic, which must match it bit for bit."""
    q, kappa = chi.q, chi.parity
    prec = mp.prec
    bits = prec + 16
    values = dirichlet._chi_fixed_table(q, chi.exponents, prec)
    e1 = mpmath.exp(y / 2)
    e2 = e1 * e1
    base = mpmath.pi * (e2 * e2) / q
    x = mpmath.exp(-base)
    x2 = mpmath.fmul(x, x, exact=True)
    p, step, ratio = 1 << bits, _to_fixed(x2 * x, bits), _to_fixed(x2, bits)
    s_re = s_im = peak = 0
    for n in range(1, 1000000):
        entry = values[n % q]
        if entry is not None:
            c_re, c_im = entry
            mag = n * p if kappa else p
            s_re += c_re * mag
            s_im += c_im * mag
            if mag > peak:
                peak = mag
            elif n > q and mag << (prec + 8) < peak:
                scale = 2 * (e1 * e2 if kappa else e1) * x
                return mpc(*(mpmath.ldexp(mpf(v), -2 * bits)
                             for v in (s_re, s_im))) * scale
        p = p * step >> bits
        step = step * ratio >> bits


def mpc_fold(t, eps_bar, real):
    """The parts (t + t'/e', i (t - t'/e')) of a node y > 0 of the pair
    kernel of ``dirichlet._char_kernel`` by ``mpc`` expressions, with
    t' = t or conj t: the reference for its raw ``mpmath.libmp``
    arithmetic, which must match it bit for bit."""
    minus = (t if real else mpc(t.real, -t.imag)) / eps_bar
    diff = t - minus
    return t + minus, mpc(-diff.imag, diff.real)


@dataclass(frozen=True)
class EvenZeroSet:
    """Zeros +-z_n of an even function, one representative per sign pair.

    Requires Re(z) > 0, Re(z^2) > 1 and bounded imaginary parts; under
    lambda = z^2 this is exactly the admissible situation of the general
    criterion.
    """

    zeros: Tuple[mpc, ...]
    bound_M: mpf

    @classmethod
    def from_zeros(cls, raw: Sequence) -> "EvenZeroSet":
        zeros = _pair_conjugates(raw)  # rejects Re(z) <= 0
        bound = mpf(0)
        for i, z in enumerate(zeros):
            if not (z * z).real > 1:
                raise DomainError(
                    f"even zero at index {i} has Re(z^2) <= 1 ({z})")
            bound = max(bound, abs(z.imag))
        return cls(zeros=zeros, bound_M=bound)

    def squared_zero_set(self) -> ZeroSet:
        return ZeroSet.from_zeros([z * z for z in self.zeros])

    def __len__(self) -> int:
        return len(self.zeros)


def even_moments_from_zeros(zs: EvenZeroSet, M: int) -> MomentSequence:
    """m_k = sum_n z_n^(-(2k+4)), the even-function reduction of the sums
    (g(z) with zeros +-z_n maps to f with lambda_n = z_n^2)."""
    return moments_from_zeros(zs.squared_zero_set(), M)
