import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, mpc, workprec

from momentsieve import numkernel
from momentsieve.numkernel import (
    AccuracyError,
    CachedKernelQuadrature,
    DomainError,
    SCAN_STEP,
    bisect_sign_change,
    certify_sign,
    decimal_str,
    sign_changes,
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


def test_folded_kernel_matches_the_full_interval():
    # K is complex and neither even nor odd; folded onto [0, 16] with the
    # parts E = K(x) + K(-x) and F = i (K(x) - K(-x)), each integrand takes
    # one real multiplier per part, and x^n for odd n is i times its integral
    kernel = lambda x: mpmath.exp(-(x - mpf(3) / 10) ** 2) * mpc(1, x)

    def folded(x):
        plus, minus = kernel(x), kernel(-x)
        return plus + minus, mpc(0, 1) * (plus - minus)

    s, degrees = mpf("1.7"), range(6)

    def full_g(x):
        e = mpmath.expj(s * x)
        return (e, mpc(0, x) * e) + tuple(x ** n for n in degrees)

    def folded_g(x):
        c, sn = mpmath.cos_sin(s * x)
        return ((c, sn), (-x * sn, x * c)) + tuple(
            (0, -x ** n) if n % 2 else (x ** n, 0) for n in degrees)

    want, _ = CachedKernelQuadrature(kernel, -16, 16).integrate(full_g)
    got, errs = CachedKernelQuadrature(folded, 0, 16).integrate(folded_g)
    factors = (1, 1) + tuple(mpc(0, 1) if n % 2 else 1 for n in degrees)
    target = numkernel.default_target(mp.prec)
    assert len(errs) == len(got) == len(want)
    for w, v, f, e in zip(want, got, factors, errs):
        assert abs(w - f * v) <= target
        assert e <= target


def test_tuple_integrand_reports_each_column_difference():
    # the second column is exactly twice the first, so its last level
    # difference is too; a loose target stops while the differences are > 0
    kernel = CachedKernelQuadrature(lambda x: mpmath.exp(-x * x), 0, 14)
    (v1, v2), (e1, e2) = kernel.integrate(lambda x: (x * x, 2 * x * x),
                                          mpf(2) ** -40)
    assert v2 == 2 * v1
    assert 0 < e1 <= mpf(2) ** -40
    assert e2 == 2 * e1


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
    value = mpmath.fsum(to_mpf(t) for t in terms)
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

    first = bisect_sign_change(cos, *next(sign_changes(cos, 0, 10)))
    assert first.lo < mpmath.pi / 2 < first.hi
    assert max(points) < mpmath.pi / 2 + SCAN_STEP

    points.clear()
    brackets = [bisect_sign_change(cos, *cell)
                for cell in sign_changes(cos, 0, 10)]
    assert len(brackets) == 3
    for b, k in zip(brackets, (1, 3, 5)):
        assert b.lo < k * mpmath.pi / 2 < b.hi
        assert b.hi - b.lo <= mpf(2) ** -(mp.prec // 2)
    # bisection midpoints fall strictly between two scan points
    scan = [x for x in points if 2 * x == int(2 * x)]
    assert scan == [k * SCAN_STEP for k in range(21)]


def test_newton_safeguard_keeps_evaluations_in_bracket():
    # from the midpoint 3/2 the raw Newton step of atan(5(x - 11/10)) lands
    # near 0.39, outside [1, 2]; the safeguard must bisect instead
    root = mpf(11) / 10
    f = lambda x: mpmath.atan(5 * (x - root))
    df = lambda x: 5 / (1 + 25 * (x - root) ** 2)
    x0 = mpf(3) / 2
    assert not 1 < x0 - f(x0) / df(x0) < 2
    points = []

    def fdf(x):
        points.append(x)
        return f(x), df(x)

    b = bisect_sign_change(f, 1, 2, fdf=fdf)
    assert all(1 < x < 2 for x in points)
    assert b.hi - b.lo <= mpf(2) ** -(mp.prec // 2)
    assert f(b.lo) * f(b.hi) < 0
    assert b.lo < root < b.hi


def test_newton_on_cos_needs_few_derivatives():
    calls = []

    def fdf(x):
        calls.append(x)
        return mpmath.cos(x), -mpmath.sin(x)

    b = bisect_sign_change(mpmath.cos, 1, 2, fdf=fdf)
    assert len(calls) <= 10
    assert b.hi - b.lo <= mpf(2) ** -(mp.prec // 2)
    assert mpmath.cos(b.lo) * mpmath.cos(b.hi) < 0
    # the bracket closes around the last Newton iterate, which is exact
    # far below the bracket width
    assert abs(b.refined_root - mpmath.pi / 2) <= mpf(2) ** -(mp.prec - 4)


def test_scan_reevaluates_uncertain_rough_signs():
    # the rough value at 1.5 is 0, below the radius: only there does the
    # scan call f, whose sign then exposes the change on [1.5, 2]
    fine = []

    def f(x):
        fine.append(x)
        return mpmath.cos(x)

    rough = lambda x: mpf(0) if x == mpf(3) / 2 else mpmath.cos(x)
    cell = next(sign_changes(f, 0, 10, rough=rough))
    assert fine == [mpf(3) / 2]
    assert cell[:2] == (mpf(3) / 2, 2)
    b = bisect_sign_change(f, *next(sign_changes(f, 0, 10, rough=rough)))
    assert b.lo < mpmath.pi / 2 < b.hi
