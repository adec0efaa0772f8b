import dataclasses
import math
import random

import mpmath
import pytest
from mpmath import mp, mpf, mpc, workprec

from momentsieve import dirichlet
from momentsieve.dirichlet import (
    _unit_group,
    char_coeffs,
    characters_mod,
    epsilon_factor,
    first_zero_height,
    gauss_sum,
    grh_moment_pipeline,
    phi_char,
    xi_char_eval,
    z_char_eval,
)
from momentsieve.numkernel import (
    CachedKernelQuadrature,
    DomainError,
    bisect_sign_change,
    scan_target,
    sign_changes,
)

from conftest import close, direct_char_coeffs, levels_covered_two_levels_up


def z_brackets(chi, s_max):
    """Sign-change brackets of Z(s, chi) on [0, s_max]."""
    target = scan_target(mp.prec)
    z = lambda s: z_char_eval(s, chi, target)
    return [bisect_sign_change(z, *cell) for cell in sign_changes(z, 0, s_max)]


def f_char_eval(s, chi):
    """f(s, chi) = xi(1/2+is, chi) xi(1/2+is, conj chi), the mu = 0 product.

    Real and even in s up to quadrature error.
    """
    s = mpf(s)
    left = xi_char_eval(s, chi)
    chi_bar = chi.conjugate()
    right = left if chi_bar == chi else xi_char_eval(s, chi_bar)
    return left * right


def chi_by_values(q, index):
    return characters_mod(q)[index]


@pytest.fixture(scope="module")
def chi3():
    return characters_mod(3)[1]


@pytest.fixture(scope="module")
def chi4():
    return characters_mod(4)[1]


@pytest.fixture(scope="module")
def chi5():
    # order-4 odd character mod 5 (complex values)
    return characters_mod(5)[1]


@pytest.fixture(scope="module")
def coeffs3(chi3):
    with workprec(256):
        return char_coeffs(chi3, 8)


@pytest.fixture(scope="module")
def coeffs4(chi4):
    with workprec(256):
        return char_coeffs(chi4, 8)


@pytest.fixture(scope="module")
def coeffs5(chi5):
    with workprec(256):
        return char_coeffs(chi5, 8)


def hurwitz_xi(s, chi):
    """Independent completed-L evaluation through the Hurwitz zeta."""
    q, kappa = chi.q, chi.parity
    L = mpf(q) ** (-s) * mpmath.fsum(
        chi(a) * mpmath.zeta(s, mpf(a) / q)
        for a in range(1, q + 1) if chi.value_fraction(a) is not None)
    return (mpf(q) / mpmath.pi) ** ((s + kappa) / 2) \
        * mpmath.gamma((s + kappa) / 2) * L


# --- group structure ---------------------------------------------------------

def test_character_counts_and_examples():
    assert len(characters_mod(1)) == 1
    assert len(characters_mod(3)) == 2
    assert len(characters_mod(4)) == 2
    assert len(characters_mod(5)) == 4
    assert len(characters_mod(8)) == 4
    assert len(characters_mod(15)) == 8
    with pytest.raises(DomainError):
        characters_mod(0)


def test_unit_group_enumeration():
    for q in range(1, 41):
        units = {n for n in range(q) if math.gcd(n, q) == 1}
        assert [c.index for c in characters_mod(q)] == list(range(len(units)))
        gens, _, dlog = _unit_group(q)
        assert set(dlog) == units
        for unit, exponents in dlog.items():
            value = 1 % q
            for g, c in zip(gens, exponents):
                value = value * pow(g, c, q) % q
            assert value == unit, (q, unit, exponents)


def multiplicative_order(g, m):
    """Order of the unit g mod m, by repeated multiplication."""
    x, k = g % m, 1
    while x != 1:
        x, k = x * g % m, k + 1
    return k


def test_generators_are_smallest_primitive_roots():
    # expected components from prime powers found by division and orders
    # found by repeated multiplication, independent of the group code
    for q in range(1, 201):
        expected = []  # (p^e, generator mod p^e, order) in increasing p
        n = q
        for p in range(2, q + 1):
            pe = 1
            while n % p == 0:
                n, pe = n // p, pe * p
            if p == 2 and pe == 4:
                expected.append((4, 3, 2))
            elif p == 2 and pe >= 8:
                expected += [(pe, pe - 1, 2), (pe, 5, pe // 4)]
            elif p > 2 and pe > 1:
                phi = pe - pe // p
                root = next(g for g in range(2, pe) if g % p
                            and multiplicative_order(g, pe) == phi)
                expected.append((pe, root, phi))
        gens, orders, _ = _unit_group(q)
        assert len(gens) == len(expected), q
        for g, d, (pe, root, order) in zip(gens, orders, expected):
            assert (g % pe, d) == (root, order), (q, pe)
            assert g % (q // pe) == 1 % (q // pe), (q, pe)


def test_q3_nontrivial(chi3):
    assert chi3(2) == -1
    assert chi3.parity == 1
    assert chi3.is_primitive
    assert chi3.conductor == 3


def test_q4_nontrivial(chi4):
    assert chi4(3) == -1
    assert chi4.parity == 1
    assert chi4.is_primitive


def test_q6_nontrivial_is_induced():
    chi = characters_mod(6)[1]
    assert chi.conductor == 3
    assert not chi.is_primitive


def test_q8_structure():
    chars = characters_mod(8)
    prim = [c for c in chars if c.is_primitive]
    assert len(prim) == 2
    assert all(c.conductor == 8 for c in prim)
    induced = [c for c in chars if c.conductor == 4]
    assert len(induced) == 1


def test_values_multiplicative():
    rng = random.Random(31)
    for q in (5, 7, 9, 12, 16, 21, 40):
        for chi in characters_mod(q):
            for _ in range(8):
                m, n = rng.randrange(1, 4 * q), rng.randrange(1, 4 * q)
                lhs = chi(m * n)
                rhs = chi(m) * chi(n)
                assert abs(lhs - rhs) < mpf(2) ** -240


def test_parity_is_sign_at_minus_one():
    for q in (3, 4, 5, 7, 8, 11, 12):
        for chi in characters_mod(q):
            assert chi(-1) == (-1) ** chi.parity


def test_orthogonality():
    for q in (3, 4, 5, 8, 12, 15):
        chars = characters_mod(q)
        for n in range(2, q):
            if math.gcd(n, q) != 1 or n % q == 1:
                continue
            total = mpc(mpmath.fsum(c(n).real for c in chars),
                        mpmath.fsum(c(n).imag for c in chars))
            assert abs(total) < mpf(2) ** -240


def conductor_oracle(chi):
    """Brute force: smallest d | q with chi trivial on {n = 1 mod d}."""
    q = chi.q
    for d in sorted(k for k in range(1, q + 1) if q % k == 0):
        if all(chi(n) == 1 for n in range(1, q + 1)
               if math.gcd(n, q) == 1 and n % d == 1 % d):
            return d
    return q


def test_conductor_against_brute_force():
    for q in range(1, 31):
        for chi in characters_mod(q):
            assert chi.conductor == conductor_oracle(chi), (q, chi.exponents)


def test_conjugate_character(chi5):
    conj = chi5.conjugate()
    for n in range(1, 5):
        assert abs(conj(n) - mpmath.conj(chi5(n))) < mpf(2) ** -240
    assert chi5.conjugate().conjugate() == chi5


# --- Gauss sums -----------------------------------------------------------------

def test_gauss_sum_examples(chi3, chi4):
    assert abs(gauss_sum(chi3) - mpc(0, 1) * mpmath.sqrt(3)) < mpf(2) ** -240
    assert abs(gauss_sum(chi4) - mpc(0, 2)) < mpf(2) ** -240


def test_gauss_sum_modulus_and_conjugation():
    for q in range(3, 21):
        for chi in characters_mod(q):
            if not chi.is_primitive:
                continue
            tau = gauss_sum(chi)
            assert abs(abs(tau) ** 2 - q) < mpf(2) ** -(mp.prec - 16)
            # tau(conj chi) = chi(-1) conj(tau(chi)); the sign is the parity
            # (for odd chi the unsigned form would fail, e.g. tau(chi_3) is
            # purely imaginary and self-conjugate up to that sign)
            tau_bar = gauss_sum(chi.conjugate())
            want = (-1) ** chi.parity * mpmath.conj(tau)
            assert abs(tau_bar - want) < mpf(2) ** -240


# --- theta kernel ------------------------------------------------------------------

def test_phi_char_value_and_decay(chi3):
    v = phi_char(mpf(0), chi3)
    assert abs(v.imag) < mpf(2) ** -240
    assert abs(v) > mpf("0.1")
    assert abs(phi_char(mpf(5), chi3)) < mpf(10) ** -30


def test_phi_char_functional_equation():
    # phi(y, chi) = [i^kappa sqrt(q) / tau(conj chi)] phi(-y, conj chi)
    for q in (3, 4, 5, 7):
        for chi in characters_mod(q):
            if not chi.is_primitive:
                continue
            chi_bar = chi.conjugate()
            factor = mpc(0, 1) ** chi.parity * mpmath.sqrt(mpf(q)) \
                / gauss_sum(chi_bar)
            # moderate |y|: both sides are of the order of their terms, so a
            # relative check is meaningful
            # the right side sums the direct series at -y < 0, not the
            # reflection that phi_char uses there
            for y in (mpf("0.25"), mpf("0.5"), mpf(1)):
                lhs = phi_char(y, chi)
                rhs = factor * dirichlet._theta_series(-y, chi_bar)
                assert abs(lhs - rhs) <= mpf(2) ** -(mp.prec - 24) * abs(lhs)
            # deeper y: phi(y) is doubly-exponentially small while the
            # negative-side sum cancels O(1) terms down to it, so the honest
            # bound is roundoff relative to the term scale, not to |phi|
            for y in (mpf("1.7"), mpf("2.2")):
                lhs = phi_char(y, chi)
                rhs = factor * dirichlet._theta_series(-y, chi_bar)
                assert abs(lhs - rhs) <= mpf(2) ** -(mp.prec - 28) * (1 + abs(lhs))


def test_phi_char_negative_y_has_full_relative_accuracy():
    # at 256 bits the direct series at y = -3.2 cancels terms of order 0.1
    # down to |phi| ~ 1e-115 and keeps only roundoff (2e-77); summed with
    # 1024 bits it is exact far beyond 256 bits, relative to phi itself
    y = mpf(-16) / 5
    for chi in characters_mod(7):
        if not chi.is_primitive:
            continue
        with workprec(256):
            value = phi_char(y, chi)
        with workprec(1024):
            reference = dirichlet._theta_series(y, chi)
        assert abs(value - reference) <= mpf(2) ** -(256 - 24) * abs(reference)


def test_phi_char_rejects_nonprimitive():
    chi6 = characters_mod(6)[1]
    with pytest.raises(DomainError, match="conductor 3"):
        phi_char(mpf(0), chi6)
    principal = characters_mod(4)[0]
    with pytest.raises(DomainError):
        phi_char(mpf(0), principal)


# --- coefficients ---------------------------------------------------------------

def test_q3_coefficients(coeffs3, chi3):
    assert coeffs3.mu == 0
    # real character: coefficients real, odd indices vanish by symmetry
    floor = mpf(2) ** -(256 // 2) * max(abs(v) for v in coeffs3.a)
    for n, v in enumerate(coeffs3.a):
        assert abs(v.imag) < mpf(2) ** -200
        if n % 2 == 1:
            assert abs(v) <= floor
    assert close(coeffs3.a[0].real, hurwitz_xi(mpf(1) / 2, chi3).real,
                 mpf(10) ** -40)


def test_q4_coefficients(coeffs4, chi4):
    # root number +1 makes the kernel even: mu = 0, odd indices at roundoff
    assert coeffs4.mu == 0
    floor = mpf(2) ** -(256 // 2) * max(abs(v) for v in coeffs4.a)
    for n, v in enumerate(coeffs4.a):
        if n % 2 == 1:
            assert abs(v) <= floor
    assert close(coeffs4.a[0].real, hurwitz_xi(mpf(1) / 2, chi4).real,
                 mpf(10) ** -40)


def assert_matches_direct_series(coeffs, chi, bits):
    """a_n(chi) and a_n(conj chi) against kernels on the direct series.

    The eq-3.24 residuals hold by construction, as char_coeffs takes one
    side of the pair from the other by that relation; this comparison
    does not.
    ``bits`` is the precision the coefficients were computed at.
    Exact symmetry zeros (below the floor) are compared absolutely.
    """
    for values, c in ((coeffs.a, chi), (coeffs.a_bar, chi.conjugate())):
        direct = direct_char_coeffs(c, len(values) - 1)
        floor = mpf(2) ** -(bits // 2) * max(abs(v) for v in direct)
        for n, (v, d) in enumerate(zip(values, direct)):
            tol = mpf(2) ** -(bits - 24) * abs(d) if abs(d) > floor else floor
            assert abs(v - d) <= tol, (c.label(), n)


def test_eq_324_residuals(coeffs3, coeffs4, coeffs5, chi3, chi4, chi5):
    for coeffs, chi in ((coeffs3, chi3), (coeffs4, chi4), (coeffs5, chi5)):
        # the coeffs fixtures are computed at 256 bits
        floor = mpf(2) ** -128 * max(abs(v) for v in coeffs.a)
        for n, res in enumerate(coeffs.eq_residuals):
            if abs(coeffs.a[n]) > floor:
                assert res <= mpf(2) ** -(256 - 24) * abs(coeffs.a[n])
        assert_matches_direct_series(coeffs, chi, 256)


def test_eq_324_residuals_larger_moduli():
    # one primitive character per modulus (complex where one exists; the
    # mod-8 group is elementary abelian, so everything there is real)
    with workprec(192):
        for q in (7, 8, 11):
            cands = [c for c in characters_mod(q)
                     if c.is_primitive and not c.is_principal]
            chi = next((c for c in cands if not c.is_real), cands[0])
            coeffs = char_coeffs(chi, 4)
            floor = mpf(2) ** -96 * max(abs(v) for v in coeffs.a)
            for n, res in enumerate(coeffs.eq_residuals):
                if abs(coeffs.a[n]) > floor:
                    assert res <= mpf(2) ** -(192 - 24) * abs(coeffs.a[n])
            assert_matches_direct_series(coeffs, chi, 192)


def test_b0_identity(coeffs3, coeffs4, coeffs5, chi3, chi4, chi5):
    # b_0 = (-1)^mu tau(conj chi) / (i^kappa sqrt(q)) a_mu^2
    for coeffs, chi in ((coeffs3, chi3), (coeffs4, chi4), (coeffs5, chi5)):
        eps_bar = gauss_sum(chi.conjugate()) \
            / (mpc(0, 1) ** chi.parity * mpmath.sqrt(mpf(chi.q)))
        want = (-1) ** coeffs.mu * eps_bar * coeffs.a[coeffs.mu] ** 2
        assert abs(coeffs.b[0] - want) <= mpf(2) ** -200 * abs(want)


def test_b_second_form(coeffs5, chi5):
    # b_n = (-1)^mu eps(conj chi) sum_j (-1)^j a_(j+mu) a_(2n-j+mu), both
    # sides complex; exercised on a complex character
    eps_bar = epsilon_factor(chi5.conjugate())
    mu = coeffs5.mu
    for n, b in enumerate(coeffs5.b):
        alt = mpmath.fsum(
            (-1) ** j * (coeffs5.a[j + mu] * coeffs5.a[2 * n - j + mu])
            for j in range(2 * n + 1))
        want = (-1) ** mu * eps_bar * alt
        assert abs(b - want) <= mpf(2) ** -200 * max(1, abs(b))


def test_b_ratios_real_for_complex_character(coeffs5):
    b0 = coeffs5.b[0]
    for b in coeffs5.b:
        r = b / b0
        assert abs(r.imag) <= mpf(2) ** -200 * (1 + abs(r))


def test_pair_sums_each_series_once_per_node(monkeypatch):
    # chi and conj chi share one folded kernel: each node y > 0 sums the
    # series of both characters once, and the conjugate's coefficients
    # come from the same integrals
    chi, chi_bar = characters_mod(5)[1], characters_mod(5)[3]
    assert chi.conjugate() == chi_bar
    calls = []
    phi = dirichlet.phi_char

    def counting(y, c):
        calls.append((y, c))
        return phi(y, c)

    kernels = []

    class Kernel(CachedKernelQuadrature):
        def __init__(self, *args):
            kernels.append(self)
            super().__init__(*args)

    monkeypatch.setattr(dirichlet, "_char_kernel_cache", {})
    monkeypatch.setattr(dirichlet, "CachedKernelQuadrature", Kernel)
    monkeypatch.setattr(dirichlet, "phi_char", counting)
    with workprec(128):
        char_coeffs(chi, 12)
        char_coeffs(chi_bar, 12)
    assert len(kernels) == 1
    nodes = {y for y, _ in calls}
    assert calls and all(y >= 0 for y in nodes)
    assert len(calls) <= 2 * len(nodes)
    assert len(set(calls)) == len(calls)


def test_b_radii_cover_a_double_precision_reference(chi5):
    # the coefficients of dirichlet --q 5 --index 1|3 --N 6 --bits 128: the
    # radius of each b_n bounds its error against the 256-bit values; the
    # kernel integrates chi_5.1, and chi_5.3 is its mirror
    for chi in (chi5, chi5.conjugate()):
        with workprec(128):
            coeffs = char_coeffs(chi, 12)
        with workprec(256):
            reference = char_coeffs(chi, 12)
        assert coeffs.mu == reference.mu == 0
        for n, (v, w, r) in enumerate(zip(coeffs.b, reference.b,
                                          coeffs.b_radii)):
            assert abs(v - w) <= r, (chi.label(), n)


def test_char_kernel_radius_covers_two_levels_up(chi5, monkeypatch):
    # the folded chi_5.1 kernel: at the level the bound picks for each
    # target, the radius covers the sum two levels finer
    monkeypatch.setattr(dirichlet, "_char_kernel_cache", {})
    y_max = dirichlet.kernel_cutoff(mp.prec, 5, chi5.parity + 0.5 + 6)
    kernel, base, _ = dirichlet._char_kernel(chi5, mp.prec, y_max)
    assert base == chi5
    s = mpf(7)
    targets = [mpf(2) ** -k for k in (20, 60, 100, 160, 240)]
    for integral in ({"s": s}, {"degree": 6}):
        levels = levels_covered_two_levels_up(kernel, targets, **integral)
        assert len(levels) >= 3


def test_char_coeffs_preconditions(chi3):
    with pytest.raises(DomainError):
        char_coeffs(chi3, 1)
    chi6 = characters_mod(6)[1]
    with pytest.raises(DomainError, match="not primitive"):
        char_coeffs(chi6, 4)


# --- critical-line evaluation -----------------------------------------------------

def test_xi_char_eval_matches_hurwitz(chi3, chi5):
    # chi_5 is complex, so its kernel is not even: a folded kernel with
    # K(y) and K(-y) swapped still matches at s = 0 but not at s = 1;
    # chi_5.3 takes its values from the chi_5.1 kernel at -s
    for chi in (chi3, chi5, chi5.conjugate()):
        for s in (mpf(0), mpf(1)):
            direct = hurwitz_xi(mpf(1) / 2 + mpc(0, 1) * s, chi)
            value = xi_char_eval(s, chi)
            assert abs(value - direct) <= mpf(2) ** -(mp.prec - 40) \
                * max(1, abs(direct))


def test_f_char_even_and_real(chi5):
    with workprec(128):
        plus = f_char_eval(mpf(2), chi5)
        minus = f_char_eval(mpf(-2), chi5)
        assert abs(plus - minus) <= mpf(2) ** -90 * abs(plus)
        assert abs(plus.imag) <= mpf(2) ** -90 * abs(plus)


def test_z_sign_change_on_8_9(chi3):
    with workprec(128):
        assert z_char_eval(8, chi3) * z_char_eval(9, chi3) < 0


def test_z_derivative_matches_central_difference(chi5):
    for chi in (chi5, chi5.conjugate()):
        with workprec(128):
            s, h = mpf(3), mpf(2) ** -40
            value, slope = z_char_eval(s, chi, derivative=True)
            assert value == z_char_eval(s, chi)
            central = (z_char_eval(s + h, chi)
                       - z_char_eval(s - h, chi)) / (2 * h)
            assert close(slope, central, mpf(10) ** -20)
            assert abs(slope) > mpf("0.1")


def test_first_zero_heights(chi3, chi4):
    with workprec(96):
        for chi, height in ((chi3, "8.039737"), (chi4, "6.020949")):
            b = first_zero_height(chi)
            assert close(b.refined_root, mpf(height), mpf(10) ** -4)
            assert b.lo < b.refined_root < b.hi <= b.lo + mpf(2) ** -48


def test_bracket_char_zeros(chi3):
    with workprec(96):
        brackets = z_brackets(chi3, 12)
    assert len(brackets) == 2
    assert close(brackets[0].refined_root, mpf("8.039737"), mpf(10) ** -4)
    assert close(brackets[1].refined_root, mpf("11.249206"), mpf(10) ** -3)


# --- pipeline ----------------------------------------------------------------------

def test_grh_pipeline_q3(chi3):
    with workprec(160):
        result = grh_moment_pipeline(chi3, 6, "auto", 2, 2)
    assert result.eq331_status == "holds for n <= 6"
    assert result.verdict.startswith("no violation")
    counts = result.tail.grid.counts()
    assert counts["negative"] == 0 and counts["zero-uncertain"] == 0
    # n = 0 case of the recursion, stated directly from the ratios
    r = result.b_ratios
    m0 = result.tail.moments.m[0]
    assert close(m0, r[1] ** 2 - 2 * r[2], mpf(2) ** -130)
    # doubled zeros of the squared factor: m_0 = 2 sum t^-4 over heights
    with workprec(96):
        heights = [b.refined_root for b in z_brackets(chi3, 24)]
    truncated = 2 * mpf(mpmath.fsum(t ** -4 for t in heights))
    assert abs(m0 - truncated) < mpf(10) ** -4


def test_grh_pipeline_q5_complex(chi5):
    with workprec(128):
        result = grh_moment_pipeline(chi5, 5, "auto", 1, 1)
    assert result.eq331_status == "holds for n <= 5"
    assert result.verdict.startswith("no violation")
    assert close(result.tail.s1, mpf("4.13290"), mpf(10) ** -3)


def test_grh_ratio_within_its_radius_fails_hypothesis(chi3, monkeypatch):
    # a ratio b_n/b_0 that its radius cannot separate from 0 is no certified
    # positive ratio: the pipeline stops before the grid
    computed = dirichlet.char_coeffs

    def blurred(chi, N):
        coeffs = computed(chi, N)
        radii = list(coeffs.b_radii)
        radii[2] = 2 * abs(coeffs.b[2])
        return dataclasses.replace(coeffs, b_radii=tuple(radii))

    monkeypatch.setattr(dirichlet, "char_coeffs", blurred)
    with workprec(96):
        result = grh_moment_pipeline(chi3, 6, "auto", 2, 2)
    assert result.tail is None
    assert result.eq331_status == "fails at n = 2"
    assert result.verdict == "hypothesis fails"


def test_grh_pipeline_rejects_nonprimitive():
    chi6 = characters_mod(6)[1]
    with pytest.raises(DomainError, match="conductor 3 < modulus 6"):
        grh_moment_pipeline(chi6, 6, "auto", 2, 2)


def test_grh_pipeline_rejects_bad_scale(chi3):
    with workprec(96):
        with pytest.raises(DomainError, match="s_1"):
            grh_moment_pipeline(chi3, 6, mpf("0.001"), 2, 2)


def test_grh_pipeline_rejects_small_N(chi3):
    with pytest.raises(DomainError, match="N >= 6"):
        grh_moment_pipeline(chi3, 5, "auto", 2, 2)
