import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, mpc

from momentsieve.moments import build_grid, moments_by_recursion
from momentsieve.numkernel import DomainError, to_mpf
from momentsieve.oracle import (
    EvenZeroSet,
    ZeroSet,
    admissibility,
    even_moments_from_zeros,
    load_zeros,
    logderiv_identity_check,
    moments_from_zeros,
    parse_zeros,
    product_to_series,
    save_zeros,
)

from conftest import close, random_conjugate_zeros, random_real_zeros


def frac(p, q=1):
    return to_mpf(Fraction(p, q))


# --- construction ---------------------------------------------------------------

def test_conjugate_completion():
    zs = ZeroSet.from_zeros([mpc(2, 1)])
    assert len(zs) == 2
    assert zs.zeros[0].imag == -zs.zeros[1].imag
    # already balanced input stays as-is
    assert len(ZeroSet.from_zeros([mpc(2, 1), mpc(2, -1)])) == 2
    with pytest.raises(DomainError, match="conjugate"):
        ZeroSet.from_zeros([mpc(2, 1)], complete=False)


def test_zero_set_rejects_bad_zeros():
    with pytest.raises(DomainError, match="index 0"):
        ZeroSet.from_zeros([0])
    with pytest.raises(DomainError, match="nonpositive real part"):
        ZeroSet.from_zeros([mpc(-1, 3)])


def test_admissibility_examples():
    rep = admissibility([mpc(2, 1)])
    assert rep.accepted
    assert close(rep.beta0, 2 / mpmath.sqrt(5), mpf(2) ** -250)
    assert rep.gamma0 == 2
    assert len(rep.zero_set) == 2

    rep = admissibility([mpf("0.5")])
    assert not rep.accepted
    assert rep.gamma0 == mpf("0.5")
    assert rep.suggested_scale_gt == 2

    rep = admissibility([mpc(-1, 3), mpc(-1, -3)])
    assert not rep.accepted
    assert rep.rejected_index == 0
    assert "nonpositive" in rep.reason


# --- product expansion ------------------------------------------------------------

def test_product_examples():
    assert product_to_series(ZeroSet.from_zeros([])).coeffs == (mpf(1),)

    s = product_to_series(ZeroSet.from_zeros([2, 3]))
    for got, want in zip(s.coeffs, [1, Fraction(5, 6), Fraction(1, 6)]):
        assert close(got, to_mpf(want), mpf(2) ** -250)

    s = product_to_series(ZeroSet.from_zeros([mpc(2, 1)]))
    for got, want in zip(s.coeffs, [1, Fraction(4, 5), Fraction(1, 5)]):
        assert close(got, to_mpf(want), mpf(2) ** -250)


# --- moments -----------------------------------------------------------------------

def test_moments_from_zeros_examples():
    seq = moments_from_zeros(ZeroSet.from_zeros([2]), 2)
    assert [close(v, frac(1, 2 ** (k + 2)), mpf(2) ** -250)
            for k, v in enumerate(seq.m)] == [True] * 3
    assert seq.source == "zero-sum"

    seq = moments_from_zeros(ZeroSet.from_zeros([2, 3]), 1)
    assert close(seq.m[0], frac(13, 36), mpf(2) ** -250)
    assert close(seq.m[1], frac(35, 216), mpf(2) ** -250)

    seq = moments_from_zeros(ZeroSet.from_zeros([mpc(2, 1)]), 0)
    assert close(seq.m[0], frac(6, 25), mpf(2) ** -250)


def test_even_moments_examples():
    seq = even_moments_from_zeros(EvenZeroSet.from_zeros([2]), 1)
    assert close(seq.m[0], frac(1, 16), mpf(2) ** -250)
    assert close(seq.m[1], frac(1, 64), mpf(2) ** -250)

    seq = even_moments_from_zeros(EvenZeroSet.from_zeros([2, 3]), 0)
    assert close(seq.m[0], frac(97, 1296), mpf(2) ** -250)


def test_even_zero_set_gates():
    with pytest.raises(DomainError, match="Re\\(z\\^2\\)"):
        EvenZeroSet.from_zeros([mpc(1, 1)])  # z^2 = 2i, Re = 0
    with pytest.raises(DomainError, match="Re\\(z\\)"):
        EvenZeroSet.from_zeros([mpf(-2)])


def test_even_reduction_matches_squared_zero_set():
    rng = random.Random(21)
    zs = [mpc(mpf(rng.uniform(1.5, 6.0)), mpf(rng.uniform(0.0, 0.8)))
          for _ in range(5)]
    ezs = EvenZeroSet.from_zeros(zs)
    direct = even_moments_from_zeros(ezs, 8)
    via_squares = moments_from_zeros(ezs.squared_zero_set(), 8)
    assert direct.m == via_squares.m


# --- log-derivative identity ----------------------------------------------------

def test_logderiv_examples():
    lhs, rhs = logderiv_identity_check(ZeroSet.from_zeros([2, 3]), 0, 0)
    assert close(lhs, frac(5, 6), mpf(2) ** -240)
    assert close(rhs, frac(5, 6), mpf(2) ** -240)

    lhs, rhs = logderiv_identity_check(ZeroSet.from_zeros([2]), 1, 1)
    assert close(lhs, frac(1, 9), mpf(2) ** -240)
    assert close(rhs, frac(1, 9), mpf(2) ** -240)

    lhs, rhs = logderiv_identity_check(ZeroSet.from_zeros([mpc(2, 1)]), 0, 0)
    assert close(lhs, frac(4, 5), mpf(2) ** -240)
    assert close(rhs, frac(4, 5), mpf(2) ** -240)


def test_logderiv_pairs_agree_to_depth_ten():
    rng = random.Random(22)
    zeros = random_conjugate_zeros(rng, pairs=2, reals=3)
    zs = ZeroSet.from_zeros(zeros)
    for k in range(11):
        lhs, rhs = logderiv_identity_check(zs, mpf("0.3"), k)
        assert abs(lhs - rhs) <= mpf(2) ** -(mp.prec - 24) * max(1, abs(rhs))


# --- round trip -------------------------------------------------------------------

def test_round_trip_recursion_equals_zero_sums():
    rng = random.Random(23)
    for _ in range(8):
        zeros = random_conjugate_zeros(rng, pairs=rng.randint(0, 5),
                                       reals=rng.randint(1, 10))
        zs = ZeroSet.from_zeros(zeros)
        M = 30
        series = product_to_series(zs).padded(M + 2)
        rec = moments_by_recursion(series, M)
        direct = moments_from_zeros(zs, M)
        for k, (a, b) in enumerate(zip(rec.m, direct.m)):
            # scale against the cancellation-free magnitude
            scale = mpf(mpmath.fsum(abs(z) ** (-(k + 2)) for z in zs.zeros))
            assert abs(a - b) <= mpf(2) ** -(mp.prec - 32) * scale


def test_real_sets_above_one_are_grid_nonnegative():
    rng = random.Random(24)
    zeros = random_real_zeros(rng, 8, 1.1, 20.0)
    zs = ZeroSet.from_zeros(zeros)
    grid = build_grid(moments_from_zeros(zs, 16), 1, 8, 8)
    counts = grid.counts()
    assert counts["negative"] == 0 and counts["zero-uncertain"] == 0


# --- fixtures ----------------------------------------------------------------------

def test_parse_zeros_text():
    zeros = parse_zeros("# heading\n2 0\n\n3.5 -1.25  # trailing note\n7\n")
    assert zeros == [mpc(2), mpc("3.5", "-1.25"), mpc(7)]
    with pytest.raises(DomainError, match="line 1"):
        parse_zeros("1 2 3\n")
    with pytest.raises(DomainError, match="line 2"):
        parse_zeros("1 2\nnot-a-number\n")


def test_fixture_round_trip(tmp_path):
    path = tmp_path / "zeros.txt"
    zeros = [mpc(2, 1), mpc(2, -1), mpc("3.25")]
    save_zeros(path, zeros, header="sample fixture")
    loaded = load_zeros(path)
    assert len(loaded) == 3
    zs = ZeroSet.from_zeros(loaded)
    assert len(zs) == 3
    assert zs.gamma0 == 2
