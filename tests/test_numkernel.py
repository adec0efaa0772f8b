import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, workprec

from momentsieve import numkernel
from momentsieve.numkernel import (
    AccuracyError,
    CachedKernelQuadrature,
    DomainError,
    PrecisionPolicy,
    SCAN_STEP,
    binomial,
    bisect_sign_change,
    certify_sign,
    comp_sum,
    decimal_str,
    sign_change_brackets,
    to_mpf,
)

from conftest import close


# --- quadrature battery -----------------------------------------------------

def battery():
    """Analytically known integrals that meet the trapezoidal precondition:
    analytic in a strip, negligible at b, and negligible or even at a.
    Infinite ranges are cut where the integrand drops below 2^-256, as the
    kernels are at u_max."""
    sqrt_pi = mpmath.sqrt(mpmath.pi)
    return [
        (lambda x: mpmath.exp(-x * x), (0, 14), sqrt_pi / 2),
        (lambda x: x * x * mpmath.exp(-x * x), (0, 14), sqrt_pi / 4),
        (lambda x: mpmath.exp(-x * x) * mpmath.cos(3 * x), (0, 14),
         sqrt_pi / 2 * mpmath.exp(-mpf(9) / 4)),
        (lambda x: mpmath.exp(-x * x), (-14, 14), sqrt_pi),
        (mpmath.sech, (-200, 200), +mpmath.pi),
        (lambda x: mpmath.sech(x) ** 2, (-100, 100), mpf(2)),
        (lambda x: mpmath.exp(-mpmath.cosh(x)), (-7, 7),
         2 * mpmath.besselk(0, 1)),
    ]


@pytest.mark.parametrize("case", range(7))
def test_trapezoid_battery(case):
    f, (a, b), exact = battery()[case]
    value, err = CachedKernelQuadrature(f, a, b).integrate(lambda x: 1)
    target = numkernel.default_target(mp.prec)
    assert abs(value - exact) <= target
    assert err <= target


def test_phi_kernel_integral_matches_xi_half():
    # independent targets: the completed zeta at the central point,
    # evaluated through library gamma/zeta, and mpmath's own quadrature
    from momentsieve.riemann import kernel_cutoff, phi
    xi_half = mpmath.pi ** (-mpf(1) / 4) * (mpf(1) / 2 - 1) \
        * mpmath.gamma(1 + mpf(1) / 4) * mpmath.zeta(mpf(1) / 2)
    u_max = kernel_cutoff(mp.prec, 1, 4.5)
    reference = mpmath.quad(phi, [0, u_max])
    assert close(reference, xi_half / 2, mpf(10) ** -15)
    assert close(reference, xi_half / 2, mpf(2) ** -(mp.prec - 24))
    value, _ = CachedKernelQuadrature(phi, 0, u_max).integrate(lambda u: 1)
    assert close(value, reference, mpf(2) ** -(mp.prec - 24))


def test_accuracy_failure_carries_best_estimate(monkeypatch):
    # exp(-x) on [0, 1] is neither even at 0 nor negligible at 1, so the
    # trapezoidal rule converges only like h^2 and must not return a value
    kernel = CachedKernelQuadrature(lambda x: mpmath.exp(-x), 0, 1)
    with pytest.raises(AccuracyError) as info:
        kernel.integrate(lambda x: 1)
    assert info.value.best_estimate is not None
    assert abs(info.value.best_estimate - (1 - mpmath.exp(-1))) < mpf(10) ** -8
    assert info.value.error_estimate > 0

    monkeypatch.setattr(numkernel, "MAX_LEVELS", 3)
    kernel = CachedKernelQuadrature(lambda x: mpmath.cos(1000 * x), 0, 1)
    with pytest.raises(AccuracyError) as info:
        kernel.integrate(lambda x: 1, mpf(2) ** -200)
    assert info.value.best_estimate is not None
    assert info.value.error_estimate > 0


def test_interval_validation():
    with pytest.raises(DomainError):
        CachedKernelQuadrature(lambda x: x, 1, 1)
    with pytest.raises(DomainError):
        CachedKernelQuadrature(lambda x: x, 2, 1)


def test_cached_kernel_matches_direct():
    kernel = CachedKernelQuadrature(lambda x: mpmath.exp(-x * x), 0, 14)
    v1, e1 = kernel.integrate(lambda x: x * x)
    exact = mpmath.sqrt(mpmath.pi) / 4
    assert abs(v1 - exact) <= mpf(2) ** -(mp.prec - 24)
    assert e1 <= mpf(2) ** -(mp.prec - 16)


# --- binomials ---------------------------------------------------------------

def test_binomial_values():
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    # frozen from the Pascal recurrence below
    assert binomial(40, 20) == 137846528820


def test_binomial_pascal_recurrence():
    # independent oracle: build Pascal's triangle by addition only
    row = [1]
    for k in range(1, 65):
        row = [1] + [row[j - 1] + row[j] for j in range(1, k)] + [1]
        for j in range(k + 1):
            assert binomial(k, j) == row[j]
        for j in range(1, k):
            assert binomial(k, j) == binomial(k - 1, j - 1) + binomial(k - 1, j)


def test_binomial_domain():
    with pytest.raises(DomainError):
        binomial(3, 4)
    with pytest.raises(DomainError):
        binomial(3, -1)
    with pytest.raises(DomainError):
        binomial(-1, 0)


# --- sign certification -------------------------------------------------------

def test_certify_trivial_signs():
    policy = PrecisionPolicy()
    assert certify_sign(lambda: mpf(1), policy).sign == "positive"
    assert certify_sign(lambda: mpf("-1e-50"), policy).sign == "negative"
    assert certify_sign(lambda: mpf(0), policy).sign == "zero-uncertain"


def test_certify_two_zero_difference():
    # m_0 - m_1 for zeros {2, 3}: sum lambda^-2 (1 - 1/lambda) = 43/216
    expect = Fraction(43, 216)

    def computation():
        m0 = to_mpf(Fraction(1, 4)) + to_mpf(Fraction(1, 9))
        m1 = to_mpf(Fraction(1, 8)) + to_mpf(Fraction(1, 27))
        return m0 - m1

    cert = certify_sign(computation, PrecisionPolicy())
    assert cert.sign == "positive"
    assert close(cert.value, to_mpf(expect), mpf(2) ** -(mp.prec - 8))


def test_certify_never_contradicts_exact_rational_sign():
    """Exact-zero and tiny-signed rational computations must never be
    certified with the wrong sign; exactness checked with Fractions."""
    import random
    rng = random.Random(20250809)
    for _ in range(40):
        parts = [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                          rng.randint(1, 10 ** 4)) for _ in range(6)]
        exact = sum(parts, Fraction(0))
        cases = {
            "raw": (parts, exact),
            # force an exact zero through heavy cancellation
            "zero": (parts + [-exact], Fraction(0)),
            # bury a tiny signed value under the same cancellation
            "tiny": (parts + [-exact, Fraction(1, 2 ** 300)],
                     Fraction(1, 2 ** 300)),
        }
        for parts_i, exact_i in cases.values():
            cert = certify_sign(
                lambda parts_i=parts_i: comp_sum(to_mpf(p) for p in parts_i),
                PrecisionPolicy(bits=128, max_bits=1024))
            if exact_i <= 0:
                assert cert.sign != "positive"
            if exact_i >= 0:
                assert cert.sign != "negative"


def test_certify_escalates_precision():
    # needs more than 128 bits to separate from the cancellation noise
    parts = [Fraction(1, 3), Fraction(1, 7), Fraction(-1, 3), Fraction(-1, 7),
             Fraction(1, 2 ** 200)]
    cert = certify_sign(lambda: comp_sum(to_mpf(p) for p in parts),
                        PrecisionPolicy(bits=64, max_bits=2048))
    assert cert.sign == "positive"
    assert cert.bits_used > 128


def test_policy_validation():
    with pytest.raises(DomainError):
        PrecisionPolicy(bits=0)
    with pytest.raises(DomainError):
        PrecisionPolicy(bits=8192, max_bits=4096)


# --- misc ---------------------------------------------------------------------

def test_decimal_str_roundtrip():
    for value in [mpf(1) / 3, mpf("14.134725"), mpf(2) ** -200, -mpf(97) / 1296]:
        text = decimal_str(value)
        assert abs(mpf(text) - value) <= abs(value) * mpf(2) ** -(mp.prec - 2)


def test_comp_sum_cancellation():
    big = mpf(2) ** 100
    terms = [big, mpf(1), -big, mpf(1)]
    assert comp_sum(terms) == 2


def test_bisect_sign_change():
    b = bisect_sign_change(mpmath.cos, 1, 2, width=mpf(2) ** -100)
    assert b.hi - b.lo <= mpf(2) ** -100
    assert b.lo < mpmath.pi / 2 < b.hi
    assert b.lo < b.refined_root < b.hi
    assert mpmath.cos(b.lo) * mpmath.cos(b.hi) < 0
    with pytest.raises(DomainError):
        bisect_sign_change(mpmath.cos, 0, 1)


def test_bisect_stops_at_exact_zero():
    # both midpoints x = 3/2 evaluate to exactly 0
    with workprec(128):
        width = mpf(2) ** -64
        points = []

        def linear(x):
            points.append(x)
            return x - mpf(3) / 2

        b = bisect_sign_change(linear, 1, 2)
        assert len(points) <= 3
        assert b.refined_root == mpf(3) / 2
        assert b.hi - b.lo == width

        # the exact zero is a double root without a sign change; the sign
        # change itself sits at 11/10, outside the returned bracket
        cubic = lambda x: (x - mpf(3) / 2) ** 2 * (x - mpf(11) / 10)
        b = bisect_sign_change(cubic, 1, 2)
        assert cubic(b.refined_root) == 0
        assert b.lo < mpf(3) / 2 < b.hi
        assert b.hi - b.lo == width


def test_sign_change_brackets_on_cos():
    points = []

    def cos(x):
        points.append(x)
        return mpmath.cos(x)

    first = next(sign_change_brackets(cos, 0, 10))
    assert first.lo < mpmath.pi / 2 < first.hi
    assert max(points) < mpmath.pi / 2 + SCAN_STEP

    points.clear()
    brackets = list(sign_change_brackets(cos, 0, 10))
    assert len(brackets) == 3
    for b, k in zip(brackets, (1, 3, 5)):
        assert b.lo < k * mpmath.pi / 2 < b.hi
        assert b.hi - b.lo <= mpf(2) ** -(mp.prec // 2)
    # bisection midpoints fall strictly between two scan points
    scan = [x for x in points if 2 * x == int(2 * x)]
    assert scan == [k * SCAN_STEP for k in range(21)]
