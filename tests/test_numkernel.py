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
    SCAN_STEP,
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


# --- sign certification -------------------------------------------------------

def test_certify_trivial_signs():
    assert certify_sign(mpf(1), radius=0).sign == "positive"
    assert certify_sign(mpf("-1e-50"), radius=mpf("1e-60")).sign == "negative"
    assert certify_sign(mpf(0), radius=0).sign == "zero-uncertain"
    # a value that is only as large as its radius has no certified sign
    assert certify_sign(mpf("1e-50"), radius=mpf("1e-50")).sign \
        == "zero-uncertain"
    assert certify_sign(-3, radius=3).sign == "zero-uncertain"
    assert certify_sign(-4, radius=3).sign == "negative"
    cert = certify_sign(7, radius=2)
    assert (cert.value, cert.sign, cert.bits_used) == (7, "positive", mp.prec)
    with pytest.raises(DomainError):
        certify_sign(1, radius=-1)
    with pytest.raises(TypeError):
        certify_sign(1, 0)  # the radius is keyword-only


def test_certify_two_zero_difference():
    # m_0 - m_1 for zeros {2, 3}: sum lambda^-2 (1 - 1/lambda) = 43/216,
    # from four rounded terms, each off by at most 2^-prec of itself
    expect = Fraction(43, 216)
    terms = [Fraction(1, 4), Fraction(1, 9), -Fraction(1, 8), -Fraction(1, 27)]
    value = comp_sum(to_mpf(t) for t in terms)
    radius = mpf(2) ** -(mp.prec - 3) * sum(abs(to_mpf(t)) for t in terms)
    cert = certify_sign(value, radius=radius)
    assert cert.sign == "positive"
    assert close(cert.value, to_mpf(expect), mpf(2) ** -(mp.prec - 8))
    # the same difference buried under a radius larger than itself
    assert certify_sign(value, radius=to_mpf(expect) * 2).sign \
        == "zero-uncertain"


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
