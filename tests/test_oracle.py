import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, mpc

from momentsieve.moments import build_grid, moments_by_recursion
from momentsieve.numkernel import DomainError, to_mpf
from momentsieve.oracle import (
    ZeroSet,
    _real_part_checked,
    admissibility,
    load_zeros,
    moments_from_zeros,
    parse_zeros,
    product_to_series,
    save_zeros,
)

from conftest import (
    EvenZeroSet,
    close,
    even_moments_from_zeros,
    random_conjugate_zeros,
    random_real_zeros,
)


def frac(p, q=1):
    return to_mpf(Fraction(p, q))


# --- construction ---------------------------------------------------------------

def test_conjugate_completion():
    zs = ZeroSet.from_zeros([mpc(2, 1)])
    assert len(zs) == 2
    assert zs.zeros[0].imag == -zs.zeros[1].imag
    # already balanced input stays as-is
    assert len(ZeroSet.from_zeros([mpc(2, 1), mpc(2, -1)])) == 2


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


def test_real_sets_convolve_to_the_complex_values():
    # an all-real set convolves in real arithmetic; the complex
    # convolution, kept here as the reference, gives the same bits
    rng = random.Random(7)
    for count in (1, 5, 20):
        zs = ZeroSet.from_zeros(random_real_zeros(rng, count))
        coeffs = [mpc(1)]
        for z in zs.zeros:
            r = 1 / z
            coeffs = [c + p * r for c, p in zip(coeffs + [0], [0] + coeffs)]
        series = product_to_series(zs)
        assert series.coeffs == tuple(c.real for c in coeffs)
        assert all(c.imag == 0 for c in coeffs)
        u = 8 * (count + 1) * mpf(2) ** -mp.prec
        assert series.radii == tuple(u * c for c in series.coeffs)


# --- moments -----------------------------------------------------------------------

def test_moments_from_zeros_examples():
    seq = moments_from_zeros(ZeroSet.from_zeros([2]), 2)
    assert [close(v, frac(1, 2 ** (k + 2)), mpf(2) ** -250)
            for k, v in enumerate(seq.m)] == [True] * 3

    seq = moments_from_zeros(ZeroSet.from_zeros([2, 3]), 1)
    assert close(seq.m[0], frac(13, 36), mpf(2) ** -250)
    assert close(seq.m[1], frac(35, 216), mpf(2) ** -250)

    seq = moments_from_zeros(ZeroSet.from_zeros([mpc(2, 1)]), 0)
    assert close(seq.m[0], frac(6, 25), mpf(2) ** -250)


def test_moments_from_zeros_real_and_complex_sums_agree():
    # real zeros are summed in real arithmetic; the same zeros entered with
    # a partner pair summed in complex arithmetic give the same moments
    rng = random.Random(9)
    reals = random_real_zeros(rng, 12)
    pair = [mpc(3, 1), mpc(3, -1)]
    only_real = moments_from_zeros(ZeroSet.from_zeros(reals), 20)
    mixed = moments_from_zeros(ZeroSet.from_zeros(reals + pair), 20)
    for k, (a, b, r) in enumerate(zip(only_real.m, mixed.m, mixed.radii)):
        extra = 2 * (mpc(3, 1) ** -(k + 2)).real
        assert isinstance(a, mpf)
        assert abs(a + extra - b) <= r + only_real.radii[k]


def test_even_moments_examples():
    seq = even_moments_from_zeros(EvenZeroSet.from_zeros([2]), 1)
    assert close(seq.m[0], frac(1, 16), mpf(2) ** -250)
    assert close(seq.m[1], frac(1, 64), mpf(2) ** -250)

    seq = even_moments_from_zeros(EvenZeroSet.from_zeros([2, 3]), 0)
    assert close(seq.m[0], frac(97, 1296), mpf(2) ** -250)


def test_even_zero_set_gates():
    with pytest.raises(DomainError, match="Re\\(z\\^2\\)"):
        EvenZeroSet.from_zeros([mpc(1, 1)])  # z^2 = 2i, Re = 0
    with pytest.raises(DomainError, match="nonpositive real part"):
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

# polynomial helpers over real mpf coefficient lists (ascending powers)

def poly_mul(p, q):
    out = [mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_diff(p):
    return [i * c for i, c in enumerate(p)][1:] or [mpf(0)]


def poly_sub(p, q):
    n = max(len(p), len(q))
    p = p + [mpf(0)] * (n - len(p))
    q = q + [mpf(0)] * (n - len(q))
    return [a - b for a, b in zip(p, q)]


def poly_eval(p, x):
    acc = mpf(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def logderiv_identity_check(zs, x, k):
    """Both sides of the log-derivative identity at x >= 0.

    Returns ``(lhs, rhs)`` where lhs is (-1)^k (f'/f)^(k)(x) obtained by
    symbolic quotient-rule differentiation of the expanded polynomial f, and
    rhs is the direct partial-fraction sum k! / (x+lambda)^(k+1).  The two
    are analytically equal; callers assert how close.
    """
    if k < 0:
        raise DomainError("k must be >= 0")
    x = to_mpf(x)
    f = list(product_to_series(zs).coeffs)
    df = poly_diff(f)
    # track (f'/f)^(j) = N_j / f^(j+1)
    num = df
    for j in range(k):
        num = poly_sub(poly_mul(poly_diff(num), f),
                       [(j + 1) * c for c in poly_mul(num, df)])
        while len(num) > 1 and num[-1] == 0:
            num.pop()
    lhs = (-1) ** k * poly_eval(num, x) / poly_eval(f, x) ** (k + 1)
    fact = mpf(mpmath.factorial(k))
    rhs_c = mpmath.fsum(fact / (x + z) ** (k + 1) for z in zs.zeros)
    scale = mpmath.fsum(fact / abs(x + z) ** (k + 1) for z in zs.zeros)
    rhs = _real_part_checked(mpc(rhs_c), scale, "log-derivative sum")
    return lhs, rhs


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
