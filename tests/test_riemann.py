import mpmath
import pytest
from mpmath import mp, mpf, mpc, workprec

from momentsieve.moments import build_grid, moments_by_recursion, normalize
from momentsieve.numkernel import (
    AccuracyError,
    DomainError,
)
from momentsieve.oracle import EvenZeroSet, even_moments_from_zeros, load_zeros
from momentsieve.riemann import (
    auto_scale,
    bracket_zeros,
    export_brackets,
    phi,
    rh_moment_pipeline,
    xi_coefficients,
    xi_eval,
    zero_sum_moment,
    zero_sum_tail_bound,
)

from conftest import close


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
    assert all(e >= 0 for e in coeffs12.quadrature_error)


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
    assert len(calls) <= 257


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


# --- brackets -------------------------------------------------------------------

def test_bracket_first_zero():
    with workprec(128):
        brackets = bracket_zeros(15)
    assert len(brackets) == 1
    b = brackets[0]
    assert b.lo < mpf("14.1347") < b.hi or close(b.refined_root, "14.1347", 1e-3)
    assert b.hi - b.lo <= mpf(2) ** -64
    assert close(b.refined_root, mpf("14.134725"), mpf(10) ** -5)


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
    assert close(result.s1, mpf("14.134725"), mpf(10) ** -5)
    assert close(result.L, auto_scale(result.s1), mpf(2) ** -140)
    counts = result.grid.counts()
    assert counts["negative"] == 0 and counts["zero-uncertain"] == 0
    # determinant cross-check at the promised relative depth
    for l, res in enumerate(result.det_residuals):
        assert res <= mpf(10) ** -20 * max(1, abs(result.moments.m[l]))


def test_pipeline_deeper_grid_with_explicit_scale():
    # L = 0.006 > s_1^-2 ~ 0.005005, all cells nonnegative on an 8x8 grid
    with workprec(192):
        result = rh_moment_pipeline(18, mpf("0.006"), 8, 8)
    counts = result.grid.counts()
    assert counts["negative"] == 0 and counts["zero-uncertain"] == 0


def test_low_precision_grid_is_uncertain_not_wrong():
    # 64-bit moments are too rough for the deep cells of this grid; those
    # cells must come out zero-uncertain, and no certified sign may
    # contradict the same grid from 512-bit moments at the same L
    with workprec(64):
        low = rh_moment_pipeline(22, "auto", 2, 18)
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


def test_pipeline_rejects_small_N():
    with pytest.raises(DomainError, match="N >= 12"):
        rh_moment_pipeline(8, "auto", 5, 5)
