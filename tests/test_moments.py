import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, workprec

from momentsieve.moments import (
    MomentSequence,
    SeriesPrefix,
    build_grid,
    grid_report,
    moments_by_determinant,
    moments_by_recursion,
    normalize,
    recursion_values,
)
from momentsieve.numkernel import (
    NEGATIVE,
    DomainError,
    to_mpf,
)
from momentsieve.oracle import ZeroSet, moments_from_zeros, product_to_series
from momentsieve.riemann import xi_coefficients

from conftest import close, random_real_zeros


def frac(p, q=1):
    return to_mpf(Fraction(p, q))


# --- normalize ----------------------------------------------------------------

def test_normalize_examples():
    assert normalize([2, 1]).coeffs == (mpf(1), mpf("0.5"))
    s = normalize([1, Fraction(5, 6), Fraction(1, 6)])
    assert s.coeffs[0] == 1 and close(s.coeffs[1], frac(5, 6), mpf(2) ** -250)
    assert normalize([-3, -1.5]).coeffs == (mpf(1), mpf("0.5"))


def test_normalize_rejects_bad_input():
    with pytest.raises(DomainError, match="index 0"):
        normalize([0, 1])
    with pytest.raises(DomainError, match="a_2"):
        normalize([1, 2, -1])
    with pytest.raises(DomainError, match="a_1"):
        # interior zero (not trailing) is a sign violation
        normalize([1, 0, 1])
    with pytest.raises(DomainError):
        normalize([])


def test_series_prefix_trailing_zeros_ok():
    s = SeriesPrefix((mpf(1), mpf("0.5"), mpf(0), mpf(0)))
    assert s.degree_bound == 3
    padded = s.padded(6)
    assert len(padded.coeffs) == 7
    assert padded.padded(3) is padded


# --- recursion ------------------------------------------------------------------

def test_recursion_single_zero():
    # f = 1 + z/2 has the lone zero -2, so m_k = 2^-(k+2)
    s = SeriesPrefix((mpf(1), frac(1, 2), mpf(0), mpf(0)))
    seq = moments_by_recursion(s, 1)
    assert close(seq.m[0], frac(1, 4), mpf(2) ** -250)
    assert close(seq.m[1], frac(1, 8), mpf(2) ** -250)


def test_recursion_two_zeros():
    s = normalize([1, Fraction(5, 6), Fraction(1, 6), 0, 0, 0])
    seq = moments_by_recursion(s, 2)
    for got, want in zip(seq.m, [Fraction(13, 36), Fraction(35, 216),
                                 Fraction(97, 1296)]):
        assert close(got, to_mpf(want), mpf(2) ** -248)


def test_recursion_requires_normalized_and_depth():
    s = SeriesPrefix((mpf(2), mpf(1), mpf(0)))
    with pytest.raises(DomainError, match="normalized"):
        moments_by_recursion(s, 0)
    ok = SeriesPrefix((mpf(1), mpf(1), mpf(0)))
    with pytest.raises(DomainError, match="a_3"):
        moments_by_recursion(ok, 1)


def test_recursion_products_are_exact():
    # m_0 = a_1^2 - 2 a_2 = (2^50 + 1)^2 - (2^100 + 2^51) = 1: at 64 bits a
    # rounded a_1^2 loses the 1 and the 2^100-sized terms cancel to 0
    with workprec(64):
        a1 = mpf(2) ** 50 + 1
        s = SeriesPrefix((mpf(1), a1, mpf(2) ** 99 + mpf(2) ** 50, mpf(0)))
        assert moments_by_recursion(s, 0).m[0] == 1


def test_recursion_padding_changes_nothing():
    zeros = [2, 3, Fraction(7, 2), 5]
    series = product_to_series(ZeroSet.from_zeros(zeros))
    runs = [moments_by_recursion(series.padded(P), 30)
            for P in (32, 33, 40, 64)]
    for seq in runs[1:]:
        assert (seq.m, seq.radii) == (runs[0].m, runs[0].radii)
    for k, (v, r) in enumerate(zip(runs[0].m, runs[0].radii)):
        exact = sum(Fraction(1) / Fraction(z) ** (k + 2) for z in zeros)
        assert abs(Fraction(v.man) * Fraction(2) ** v.exp - exact) <= \
            Fraction(r.man) * Fraction(2) ** r.exp


def test_value_pass_equals_recursion_values():
    # a padded polynomial of degree d = 4 < M, the Xi series with nonzero
    # radii, and M = 0: the value pass alone gives the same mpf values
    poly = product_to_series(ZeroSet.from_zeros([2, 3, Fraction(7, 2), 5]))
    with workprec(128):
        coeffs = xi_coefficients(12)
        xi = normalize(coeffs.a, coeffs.radii)
        assert all(r > 0 for r in xi.radii[1:])
        cases = [(poly.padded(22), 20), (xi, 10), (xi, 0), (poly, 0)]
        for series, M in cases:
            values = recursion_values(series, M)
            assert len(values) == M + 1
            assert values == moments_by_recursion(series, M).m
    with pytest.raises(DomainError, match="needs coefficients"):
        recursion_values(poly, 3)


# --- determinant -----------------------------------------------------------------

def test_determinant_examples():
    s = normalize([1, Fraction(5, 6), Fraction(1, 6), 0, 0])
    assert close(moments_by_determinant(s, 0), frac(13, 36), mpf(2) ** -248)
    assert close(moments_by_determinant(s, 1), frac(35, 216), mpf(2) ** -248)


def test_determinant_forced_zero():
    # a_2 = a_1^2 / 2 makes the 1x1 determinant vanish identically
    # (dyadic values so the cancellation is exact in binary)
    s = SeriesPrefix((mpf(1), frac(1, 2), frac(1, 8), mpf(0)))
    assert moments_by_determinant(s, 0) == 0


def test_recursion_determinant_agreement_random():
    rng = random.Random(11)
    for _ in range(25):
        length = rng.randint(4, 12)
        raw = [mpf(1)] + [mpf(rng.uniform(0.01, 2.0)) for _ in range(length)]
        s = SeriesPrefix(tuple(raw))
        depth = min(8, s.degree_bound - 2)
        seq = moments_by_recursion(s, depth)
        for l in range(depth + 1):
            det = moments_by_determinant(s, l)
            assert abs(det - seq.m[l]) <= mpf(2) ** -(mp.prec - 24) \
                * max(1, abs(seq.m[l]))


def test_zero_sum_oracle_random_real_sets():
    rng = random.Random(12)
    for _ in range(10):
        zeros = random_real_zeros(rng, rng.randint(3, 10), 1.5, 50.0)
        zs = ZeroSet.from_zeros(zeros)
        M = 12
        series = product_to_series(zs).padded(M + 2)
        rec = moments_by_recursion(series, M)
        direct = moments_from_zeros(zs, M)
        for a, b in zip(rec.m, direct.m):
            assert abs(a - b) <= mpf(2) ** -(mp.prec - 32) * abs(b)


# --- grid -------------------------------------------------------------------------

def scaled_sequence(m: MomentSequence, L):
    """The pre-scaled sequence mu_n = m_n / L^n."""
    L = to_mpf(L)
    return tuple(v / L ** n for n, v in enumerate(m.m))


def delta_table_cell(m, n, k):
    """Independent oracle: (-1)^k Delta^k m_n from an explicit difference
    table (forward differences, no binomials)."""
    row = list(m)
    for _ in range(k):
        row = [b - a for a, b in zip(row, row[1:])]
    return (-1) ** k * row[n]


def test_grid_two_zero_example():
    zs = ZeroSet.from_zeros([2, 3])
    m = moments_from_zeros(zs, 10)
    grid = build_grid(m, 1, 4, 4)
    cell = grid.cells[(0, 1)]
    assert cell.sign == "positive"
    assert close(cell.value, frac(43, 216), mpf(2) ** -240)
    # the k = 0 row is the moment sequence itself
    for n in range(5):
        assert close(grid.cells[(n, 0)].value, m.m[n], mpf(2) ** -240)
    assert grid.first_violation is None
    assert grid.verdict == "no violation up to (4,4)"


def test_grid_matches_delta_table_random():
    rng = random.Random(13)
    m = MomentSequence(tuple(mpf(rng.uniform(0.1, 2.0)) for _ in range(16)))
    grid = build_grid(m, 1, 6, 6)
    for (n, k), cell in grid.cells.items():
        oracle = delta_table_cell(m.m, n, k)
        assert abs(cell.value - oracle) <= mpf(2) ** -(mp.prec - 20) \
            * max(1, abs(oracle))


def test_grid_scaling_consistency():
    rng = random.Random(14)
    m = MomentSequence(tuple(mpf(rng.uniform(0.1, 2.0)) for _ in range(14)))
    L = mpf("0.37")
    grid = build_grid(m, L, 5, 5)
    mu = scaled_sequence(m, L)
    for (n, k), cell in grid.cells.items():
        oracle = delta_table_cell(mu, n, k)
        assert abs(cell.value - oracle) <= mpf(2) ** -(mp.prec - 20) \
            * max(1, abs(oracle))


def test_positive_zero_soundness():
    rng = random.Random(15)
    for _ in range(5):
        zeros = random_real_zeros(rng, rng.randint(4, 12), 1.2, 40.0)
        zs = ZeroSet.from_zeros(zeros)
        m = moments_from_zeros(zs, 20)
        grid = build_grid(m, 1, 10, 10)
        counts = grid.counts()
        assert counts["negative"] == 0
        assert counts["zero-uncertain"] == 0


def test_grid_detects_wide_angle_violation():
    lam = mpf("3.9") * mpmath.exp(mpmath.mpc(0, mpf("1.25")))
    zs = ZeroSet.from_zeros([lam])
    assert zs.gamma0 > 1 and 0 < zs.beta0 < 1
    m = moments_from_zeros(zs, 45)
    grid = build_grid(m, 1, 5, 40)
    assert grid.first_violation == (0, 0)
    assert grid.cells[(0, 0)].sign == "negative"
    # m_0 = 2 Re(lambda^-2) = 2 cos(2.5)/3.9^2
    expect = 2 * mpmath.cos(mpf(5) / 2) / mpf("15.21")
    assert close(grid.cells[(0, 0)].value, expect, mpf(10) ** -60)


def _scan_summary(grid):
    """(first_violation, min_cell) by a plain scan of the cells in (n, k)
    order; the first of equal values is the least."""
    first = least = None
    for key in sorted(grid.cells):
        cell = grid.cells[key]
        if first is None and cell.sign == NEGATIVE:
            first = key
        if least is None or cell.value < least[2]:
            least = key + (cell.value,)
    return first, least


def test_grid_summary_matches_cell_scan():
    tie = build_grid(MomentSequence((mpf(1),) * 9), 1, 4, 4)
    halves = build_grid(
        MomentSequence(tuple(mpf(2) ** -(n + 2) for n in range(13))), 1, 6, 6)
    pair = build_grid(moments_from_zeros(
        ZeroSet.from_zeros([mpmath.mpc(3, 1.5), 5, 7, 9]), 20), 1, 10, 10)
    for grid in (tie, halves, pair):
        assert (grid.first_violation, grid.min_cell) == _scan_summary(grid)
    # every cell with k >= 1 of the constant sequence is exactly 0
    assert all(tie.cells[(n, k)].value == 0
               for n in range(5) for k in range(1, 5))
    assert tie.min_cell == (0, 1, 0) and tie.first_violation is None
    # cell(n, k) of m_n = 2^-(n+2) is 2^-(n+k+2), with no rounding
    assert all(cell.value == mpf(2) ** -(n + k + 2)
               for (n, k), cell in halves.cells.items())
    assert halves.min_cell == (6, 6, mpf(2) ** -14)
    assert pair.first_violation == (2, 0) and pair.min_cell[:2] == (3, 0)


def test_grid_argument_checks():
    m = MomentSequence((mpf(1), mpf(1), mpf(1)))
    with pytest.raises(DomainError, match="moments up to"):
        build_grid(m, 1, 2, 2)
    for L in (0, "inf"):
        with pytest.raises(DomainError, match="L must be"):
            build_grid(m, L, 1, 1)


def test_grid_report_verdicts():
    zs = ZeroSet.from_zeros([2, 3])
    good = build_grid(moments_from_zeros(zs, 6), 1, 3, 3)
    report = grid_report(good)
    assert report["verdict"].startswith("no violation")
    assert report["cells_negative"] == []
    assert report["first_violation"] is None
    assert report["counts"]["positive"] == 16

    lam = mpf("3.9") * mpmath.exp(mpmath.mpc(0, mpf("1.25")))
    bad = build_grid(moments_from_zeros(ZeroSet.from_zeros([lam]), 6),
                     1, 3, 3)
    report = grid_report(bad)
    assert report["verdict"] == "criterion fails at (0,0)"
    assert report["first_violation"] == [0, 0]
    assert report["cells_negative"]

    # a constant sequence has exactly-zero differences for k >= 1, which can
    # never be sign-certified: the report must say inconclusive
    flat = MomentSequence((mpf(1),) * 6)
    with workprec(64):
        uncertain = build_grid(flat, 1, 2, 2)
    report = grid_report(uncertain)
    assert report["verdict"].startswith("inconclusive")
    assert report["counts"]["zero-uncertain"] > 0


def test_moment_sequence_validation():
    with pytest.raises(Exception):
        MomentSequence((mpf("nan"),))


def test_scaled_sequence_values():
    m = MomentSequence((mpf(1), mpf(2), mpf(4)))
    assert scaled_sequence(m, 2) == (mpf(1), mpf(1), mpf(1))


# --- radii -------------------------------------------------------------------------

def test_grid_never_contradicts_exact_rational_cells():
    """Moments rounded to 128 bits, with that rounding as their radius,
    never certify a cell against the exact Fraction cell."""
    rng = random.Random(20250809)
    L = Fraction(3, 4)
    y = 1 - Fraction(1, 10 ** 12)
    certified = 0
    for _ in range(20):
        nodes = [Fraction(rng.randint(1, 999), 1000) for _ in range(4)]
        weights = [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                            rng.randint(1, 10 ** 4)) for _ in range(4)]
        c = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4))
        raw = [sum(w * x ** n for w, x in zip(weights, nodes))
               for n in range(13)]
        cases = [
            raw,
            # constant: every cell with k >= 1 is exactly 0
            [c] * 13,
            # a tiny signed tail buried under the rounding of c
            [c + Fraction(1, 2 ** 300) * nodes[0] ** n for n in range(13)],
            # mu_n = w y^n with 1 - y = 1e-12: cells w y^n 1e-(12 k) sink
            # below the rounding noise of the moments as k grows
            [weights[0] * (L * y) ** n for n in range(13)],
        ]
        for exact in cases:
            with workprec(128):
                m = MomentSequence(tuple(to_mpf(v) for v in exact))
                m = MomentSequence(m.m, radii=tuple(
                    abs(v) * mpf(2) ** -127 for v in m.m))
                grid = build_grid(m, to_mpf(L), 6, 6)
            mu = [v / L ** n for n, v in enumerate(exact)]
            for (n, k), cell in grid.cells.items():
                truth = delta_table_cell(mu, n, k)
                if truth <= 0:
                    assert cell.sign != "positive", (n, k, truth)
                if truth >= 0:
                    assert cell.sign != "negative", (n, k, truth)
                certified += cell.sign != "zero-uncertain"
    assert certified > 0


def test_moment_radius_beyond_cell_is_uncertain():
    zs = ZeroSet.from_zeros([2, 3])
    m = moments_from_zeros(zs, 10)
    clean = build_grid(m, 1, 4, 4)
    assert clean.counts()["positive"] == 25
    # cell(0, k) = 2^-(k+2) + (2/3)^k / 9 decreases in k; a radius on m_0
    # just above |cell(0, 3)| hides the sign of cell(0, k) for k >= 3 only
    rho = abs(clean.cells[(0, 3)].value) * mpf("1.01")
    bumped = MomentSequence(m.m, radii=(rho,) + m.radii[1:])
    grid = build_grid(bumped, 1, 4, 4)
    for (n, k), cell in grid.cells.items():
        expect = "zero-uncertain" if n == 0 and k >= 3 else "positive"
        assert cell.sign == expect, (n, k)
    assert grid.radii[0] >= rho


def test_recursion_radii_cover_perturbed_coefficients():
    rng = random.Random(16)
    for _ in range(10):
        raw = [mpf(rng.uniform(0.5, 2.0))] + [
            mpf(rng.uniform(0.01, 2.0)) / (n + 1) ** 2 for n in range(10)]
        radii = [abs(c) * mpf(10) ** -rng.randint(10, 40) for c in raw]
        ref = moments_by_recursion(normalize(raw, radii), 8)
        for _ in range(3):
            moved = [c + r * rng.choice((-1, 1)) * mpf(rng.random())
                     for c, r in zip(raw, radii)]
            got = moments_by_recursion(normalize(moved), 8)
            for v, w, r in zip(got.m, ref.m, ref.radii):
                assert abs(v - w) <= r


def test_radius_validation():
    with pytest.raises(DomainError, match="radius"):
        MomentSequence((mpf(1), mpf(2)), radii=(mpf(0),))
    with pytest.raises(DomainError, match="radius"):
        SeriesPrefix((mpf(1), mpf(1)), radii=(mpf(0), mpf(-1)))
    assert SeriesPrefix((mpf(1), mpf(1))).padded(3).radii == (mpf(0),) * 4
