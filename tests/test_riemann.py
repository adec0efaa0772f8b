import time

import mpmath
import pytest
from mpmath import mp, mpf, mpc, workprec

from momentsieve.moments import (
    build_grid,
    moments_by_determinant,
    moments_by_recursion,
    normalize,
)
from momentsieve.numkernel import (
    BASE_INTERVALS,
    AccuracyError,
    DomainError,
    ZeroBracket,
    sign_target,
)
from momentsieve.oracle import load_zeros
from momentsieve.riemann import (
    auto_scale,
    bracket_zeros,
    export_brackets,
    moment_tail,
    phi,
    rh_moment_pipeline,
    xi_coefficients,
    xi_eval,
    zero_sum_moment,
    zero_sum_tail_bound,
)

from conftest import (
    EvenZeroSet,
    close,
    even_moments_from_zeros,
    levels_covered_two_levels_up,
)


def xi_completed(w):
    """Independent evaluation of the completed zeta via library gamma/zeta."""
    w = mpc(w)
    return mpmath.pi ** (-w / 2) * (w - 1) * mpmath.gamma(1 + w / 2) \
        * mpmath.zeta(w)


@pytest.fixture(scope="module")
def coeffs12():
    with workprec(256):
        return xi_coefficients(12)


@pytest.fixture(scope="module")
def brackets30():
    with workprec(128):
        return bracket_zeros(30)


# --- Phi ---------------------------------------------------------------------

def test_phi_at_zero():
    # reference: direct high-precision summation of the first 50 terms
    with workprec(400):
        direct = mpf(mpmath.fsum(
            (4 * n ** 4 * mpmath.pi ** 2 - 6 * n ** 2 * mpmath.pi)
            * mpmath.exp(-n * n * mpmath.pi) for n in range(1, 51)))
    value = phi(0)
    assert close(value, direct, mpf(2) ** -240)
    assert close(value, mpf("0.8935"), mpf(10) ** -3)


def test_phi_far_tail_positive_and_tiny():
    value = phi(3)
    assert value > 0
    assert value < mpf(10) ** -500


def test_phi_library_edge_is_immediate():
    # exp(-pi e^(2u)) at u = 1e5 needs a 290k-bit argument reduction
    assert phi(32) > 0
    start = time.monotonic()
    with pytest.raises(DomainError, match="32"):
        phi(mpf(10) ** 5)
    assert time.monotonic() - start < 1


def test_phi_even():
    assert phi(-1) == phi(1)
    assert phi(mpf("-0.25")) == phi(mpf("0.25"))


def test_phi_positive_on_log_grid():
    for i in range(25):
        u = mpf(4) * mpf(10) ** (-mpf(6) * (24 - i) / 24)
        assert phi(u) > 0


def test_phi_term_budget():
    with pytest.raises(AccuracyError):
        phi(0, n_terms=1)
    with pytest.raises(DomainError):
        phi(0, n_terms=0)


# --- coefficients -------------------------------------------------------------

def test_xi_coeff_zero_matches_central_value():
    a0 = xi_coefficients(0).a[0]
    assert close(a0, xi_completed(mpf(1) / 2).real, mpf(10) ** -15)


def test_coefficients_positive_and_decay(coeffs12):
    a = coeffs12.a
    assert all(v > 0 for v in a)
    ratios = [a[n + 1] / a[n] for n in range(len(a) - 1)]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))


def test_coefficients_kernel_node_count(monkeypatch):
    # Phi is the expensive part; a denser quadrature rule would show here
    from momentsieve import riemann
    calls = []

    def counting_phi(u, phi=riemann.phi):
        calls.append(u)
        return phi(u)

    monkeypatch.setattr(riemann, "_kernel_cache", {})
    monkeypatch.setattr(riemann, "phi", counting_phi)
    with workprec(256):
        xi_coefficients(12)
    assert len(calls) <= 129


def test_coefficient_radii_cover_a_double_precision_reference(coeffs12):
    # the radius of each a_n bounds its error: the 512-bit coefficients lie
    # within it
    with workprec(512):
        reference = xi_coefficients(12)
    for n, (v, w, r) in enumerate(zip(coeffs12.a, reference.a,
                                      coeffs12.radii)):
        assert abs(v - w) <= r, n


def test_phi_radius_covers_two_levels_up(monkeypatch):
    # the Phi kernel of the 256-bit N = 12 run: at the level the bound
    # picks for each target, the radius covers the sum two levels finer
    from momentsieve import riemann
    monkeypatch.setattr(riemann, "_kernel_cache", {})
    kernel = riemann._phi_kernel(riemann.kernel_cutoff(256, 1, 28.5), 256)
    s = mpf("14.13")
    targets = [mpf(2) ** -k for k in (20, 60, 100, 160, 240)]
    for integral in ({"degree": 0}, {"degree": 24}, {"s": s}):
        levels = levels_covered_two_levels_up(kernel, targets, **integral)
        assert len(levels) >= 3


def test_xi_command_node_counts(monkeypatch, capsys):
    # a fresh 256-bit xi run builds the Phi kernel to 129 nodes at most,
    # and every sign-scan value stops at 65 nodes: the error bound picks
    # one level fewer than a test on the difference of two levels would.
    # The nodes are counted where the integer angle addition visits them,
    # and each level takes two cos_sin calls, at its first node and step
    from momentsieve import cli, numkernel, riemann
    monkeypatch.setattr(riemann, "_kernel_cache", {})
    phi, xi_eval, cos_sin = riemann.phi, riemann.xi_eval, mpmath.cos_sin
    turns = numkernel.CachedKernelQuadrature._turns
    kernel_values, evaluations, levels, trig = [], [], [], [0]

    def counting_phi(u):
        kernel_values.append(u)
        return phi(u)

    def counting_turns(self, s, lv):
        cs, ss = turns(self, s, lv)
        levels.append((lv, len(cs)))
        return cs, ss

    def counting_cos_sin(x):
        trig[0] += 1
        return cos_sin(x)

    def counting_xi_eval(s, target=None, derivative=False):
        levels.clear()
        trig[0] = 0
        value = xi_eval(s, target, derivative)
        evaluations.append((target, sum(n for _, n in levels),
                            max(lv for lv, _ in levels), trig[0]))
        return value

    monkeypatch.setattr(riemann, "phi", counting_phi)
    monkeypatch.setattr(riemann, "xi_eval", counting_xi_eval)
    monkeypatch.setattr(numkernel.CachedKernelQuadrature, "_turns",
                        counting_turns)
    monkeypatch.setattr(numkernel.mpmath, "cos_sin", counting_cos_sin)
    assert cli.main("xi --N 12 --nmax 4 --kmax 4 --bits 256".split()) == 0
    capsys.readouterr()
    assert len(kernel_values) <= 129
    sign_scan = [n for target, n, _, _ in evaluations
                 if target == sign_target(256)]
    assert len(sign_scan) >= 30
    assert max(sign_scan) <= 65
    for _, nodes, level, calls in evaluations:
        assert nodes == (BASE_INTERVALS << level) + 1
        assert calls <= 2 * (level + 1)


def test_series_vanishes_at_first_zero(coeffs12, brackets30):
    # alternating even series at s_1: the truncation error bounds the value
    s1 = brackets30[0].refined_root
    a = coeffs12.a
    total = mpf(mpmath.fsum((-1) ** n * a[n] * s1 ** (2 * n)
                            for n in range(len(a))))
    tail = a[-1] * s1 ** (2 * (len(a) - 1))
    assert abs(total) <= tail


# --- Xi evaluation -------------------------------------------------------------

def test_xi_eval_matches_completed_zeta():
    for s in (mpf(0), mpf(1), mpf(5)):
        direct = xi_completed(mpf(1) / 2 + mpc(0, 1) * s)
        assert abs(direct.imag) < mpf(2) ** -200
        assert close(xi_eval(s), direct.real, mpf(2) ** -(mp.prec - 32))


def test_xi_eval_even_and_sign_change():
    assert close(xi_eval(3), xi_eval(-3), mpf(2) ** -230)
    assert xi_eval(14) * xi_eval(mpf("14.3")) < 0


def test_xi_derivative_matches_completed_zeta():
    # Xi(s) = xi(1/2 + is) with xi(w) = w(w-1)/2 pi^(-w/2) Gamma(w/2) zeta(w)
    def closed(s):
        w = mpf(1) / 2 + mpc(0, 1) * s
        return w * (w - 1) / 2 * mpmath.pi ** (-w / 2) * mpmath.gamma(w / 2) \
            * mpmath.zeta(w)

    reference = mpmath.diff(closed, 14)
    assert abs(reference.imag) < mpf(2) ** -200
    value, slope = xi_eval(14, derivative=True)
    assert close(value, closed(14).real, mpf(2) ** -(mp.prec - 32))
    assert close(slope, reference.real, mpf(2) ** -(mp.prec - 32))


# --- brackets -------------------------------------------------------------------

def test_bracket_first_zero():
    with workprec(128):
        brackets = bracket_zeros(15)
    assert len(brackets) == 1
    b = brackets[0]
    assert b.lo < mpf("14.1347") < b.hi or close(b.refined_root, "14.1347", 1e-3)
    assert b.hi - b.lo <= mpf(2) ** -64
    assert close(b.refined_root, mpf("14.134725"), mpf(10) ** -5)


def test_bracket_zeros_evaluation_count(monkeypatch):
    # the sign scan takes 33 points on [0, 16]; Newton and its two probes
    # add a handful, where bisection to 2^-128 added 127 (160 in all); the
    # error bound stops the Newton integrals at 129 nodes
    from momentsieve import numkernel, riemann
    quadratures, kernel_values = [], []
    fourier = numkernel.CachedKernelQuadrature.fourier
    phi = riemann.phi

    def counting_fourier(self, s, target=None, derivative=False):
        quadratures.append(target)
        return fourier(self, s, target, derivative)

    def counting_phi(u, phi=phi):
        kernel_values.append(u)
        return phi(u)

    monkeypatch.setattr(riemann, "_kernel_cache", {})
    monkeypatch.setattr(numkernel.CachedKernelQuadrature, "fourier",
                        counting_fourier)
    monkeypatch.setattr(riemann, "phi", counting_phi)
    with workprec(256):
        brackets = bracket_zeros(16)
    assert len(brackets) == 1
    assert len(quadratures) <= 50
    assert len(kernel_values) <= 129


def test_pipeline_first_zero_to_full_precision():
    with workprec(256):
        result = rh_moment_pipeline(12, "auto", 4, 4)
        assert abs(result.tail.s1 - mpmath.zetazero(1).imag) <= mpf(10) ** -70
        assert result.brackets[0].hi - result.brackets[0].lo \
            <= mpf(2) ** -128


def test_bracket_three_zeros_below_thirty(brackets30):
    # zeros below 30 sit near 14.134, 21.022, 25.011
    assert len(brackets30) == 3
    assert close(brackets30[1].refined_root, mpf("21.022"), mpf(5) * 10 ** -3)


def test_bracket_empty_below_five():
    with workprec(96):
        assert bracket_zeros(5) == []


def test_bracket_fixture_export(tmp_path, brackets30):
    path = tmp_path / "xi_zeros.txt"
    export_brackets(brackets30, path)
    loaded = load_zeros(path)
    ezs = EvenZeroSet.from_zeros(loaded)
    assert len(ezs) == 3
    m = even_moments_from_zeros(ezs, 0)
    assert m.m[0] > 0


# --- moment identity -------------------------------------------------------------

def test_moments_match_truncated_zero_sums(coeffs12):
    with workprec(128):
        brackets = bracket_zeros(40)
    series = normalize(coeffs12.a)
    rec = moments_by_recursion(series, 4)
    for k in range(4):
        truncated = zero_sum_moment(brackets, k)
        bound = zero_sum_tail_bound(40, k)
        assert abs(rec.m[k] - truncated) <= bound


def test_tail_bound_behaviour():
    assert zero_sum_tail_bound(40, 0) > zero_sum_tail_bound(80, 0)
    assert zero_sum_tail_bound(40, 1) < zero_sum_tail_bound(40, 0)
    with pytest.raises(DomainError):
        zero_sum_tail_bound(1, 0)


# --- pipeline ----------------------------------------------------------------------

def test_pipeline_small_grid():
    with workprec(160):
        result = rh_moment_pipeline(10, "auto", 3, 3)
        series = normalize(result.coefficients.a, result.coefficients.radii)
        dets = [moments_by_determinant(series, l) for l in range(9)]
    tail = result.tail
    assert close(tail.s1, mpf("14.134725"), mpf(10) ** -5)
    assert close(tail.L, auto_scale(tail.s1), mpf(2) ** -140)
    counts = tail.grid.counts()
    assert counts["negative"] == 0 and counts["zero-uncertain"] == 0
    # determinant cross-check at the promised relative depth
    for l, det in enumerate(dets):
        assert abs(tail.moments.m[l] - det) \
            <= mpf(10) ** -20 * max(1, abs(tail.moments.m[l]))


def test_pipelines_solve_no_determinant(monkeypatch):
    # the determinant path is a test reference: neither pipeline calls it
    from momentsieve import dirichlet, moments, riemann

    def refuse(*args):
        raise AssertionError("moments_by_determinant called")

    for module in (moments, riemann, dirichlet):
        monkeypatch.setattr(module, "moments_by_determinant", refuse)
    with workprec(160):
        xi = rh_moment_pipeline(10, "auto", 3, 3)
        grh = dirichlet.grh_moment_pipeline(
            dirichlet.characters_mod(3)[1], 6, "auto", 2, 2)
    assert xi.tail.grid.verdict.startswith("no violation")
    assert grh.verdict.startswith("no violation")


def test_pipeline_deeper_grid_with_explicit_scale():
    # L = 0.006 > s_1^-2 ~ 0.005005, all cells nonnegative on an 8x8 grid
    with workprec(192):
        result = rh_moment_pipeline(18, mpf("0.006"), 8, 8)
    counts = result.tail.grid.counts()
    assert counts["negative"] == 0 and counts["zero-uncertain"] == 0


def test_low_precision_grid_is_uncertain_not_wrong():
    # 64-bit moments are too rough for the deep cells of this grid; those
    # cells must come out zero-uncertain, and no certified sign may
    # contradict the same grid from 512-bit moments at the same L
    with workprec(64):
        low = rh_moment_pipeline(22, "auto", 2, 18).tail
    assert low.grid.counts()["zero-uncertain"] > 0
    with workprec(512):
        coeffs = xi_coefficients(22)
        high = moments_by_recursion(normalize(coeffs.a, coeffs.radii), 20)
        grid = build_grid(high, low.L, 2, 18)
        for v, w, r in zip(low.moments.m, high.m, low.moments.radii):
            assert abs(v - w) <= r
    for key, cell in low.grid.cells.items():
        if cell.sign != "zero-uncertain":
            assert cell.sign == grid.cells[key].sign, key


def test_pipeline_rejects_bad_scale():
    with workprec(96):
        with pytest.raises(DomainError, match="s_1"):
            rh_moment_pipeline(8, mpf("0.001"), 2, 2)


def test_moment_tail_checks_L_over_the_whole_bracket(coeffs12):
    # s_1 is only known to lie in [14, 14.2]: L must exceed 1/14^2, not
    # just 1/14.1^2 from the refined root
    series = normalize(coeffs12.a, coeffs12.radii)

    def source():
        return series, ZeroBracket(mpf(14), mpf("14.2"), mpf("14.1"))

    L = mpf("0.00507")
    assert 1 / mpf("14.1") ** 2 < L < 1 / mpf(14) ** 2
    with pytest.raises(DomainError, match="s_1"):
        moment_tail(12, L, 2, 2, source)
    tail = moment_tail(12, mpf("0.0052"), 2, 2, source)
    assert tail.L == mpf("0.0052")
    assert tail.s1 == mpf("14.1") and tail.s1_radius == mpf("14.2") - 14
    assert moment_tail(12, "auto", 2, 2, source).L == auto_scale(mpf("14.1"))


def test_moment_tail_checks_grid_arguments_before_the_source():
    # a grid that build_grid would reject costs no quadrature: the source,
    # which computes the coefficients and brackets the zeros, is never
    # called, and the error is build_grid's
    calls = []

    def source():
        calls.append(1)

    for L, n_max, k_max, message in [
            ("auto", -1, 4, "n_max and k_max must be >= 0"),
            (mpf("0.006"), 4, -1, "n_max and k_max must be >= 0"),
            ("-1", 4, 4, "L must be finite and > 0"),
            (0, 4, 4, "L must be finite and > 0"),
            ("inf", 4, 4, "L must be finite and > 0"),
            ("nan", 4, 4, "L must be finite and > 0")]:
        with pytest.raises(DomainError, match=message):
            moment_tail(12, L, n_max, k_max, source)
    assert calls == []


def test_pipeline_rejects_small_N():
    with pytest.raises(DomainError, match="N >= 12"):
        rh_moment_pipeline(8, "auto", 5, 5)
