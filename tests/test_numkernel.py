import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf, mpc, workprec

from momentsieve import numkernel
from momentsieve.numkernel import (
    AccuracyError,
    CachedKernelQuadrature,
    ConsistencyError,
    DomainError,
    MAX_LEVELS,
    SCAN_STEP,
    STRIP,
    bisect_sign_change,
    certify_sign,
    decimal_str,
    sign_changes,
    to_mpf,
)

from conftest import close, levels_covered_two_levels_up


# --- quadrature battery -----------------------------------------------------

def gaussian_majorant(x, t):
    # |exp(-(x + iy)^2)| = exp(y^2 - x^2)
    return t * t - x * x


def battery():
    """Analytically known integrals int_0^inf of even kernels, analytic in
    the strip, with a majorant there: (kernel, log majorant, b, exact).
    Infinite ranges are cut where the kernel drops below 2^-256, as the
    kernels are at u_max.  Case 3 folds the Gaussian centred at 1/2, which
    is not even, onto [0, 14]."""
    sqrt_pi = mpmath.sqrt(mpmath.pi)
    a2 = STRIP ** 2

    def shifted(x):
        plus, minus = (mpmath.exp(-(v - mpf(1) / 2) ** 2) for v in (x, -x))
        return plus + minus, mpc(0, 1) * (plus - minus)

    def shifted_majorant(x, t):
        return t * t + math.log(math.exp(-(x - 0.5) ** 2)
                                + math.exp(-(x + 0.5) ** 2))

    return [
        (lambda x: mpmath.exp(-x * x), gaussian_majorant, 14, sqrt_pi / 2),
        (lambda x: x * x * mpmath.exp(-x * x),
         lambda x, t: math.log(x * x + a2) + t * t - x * x, 14,
         sqrt_pi / 4),
        (lambda x: mpmath.exp(-x * x) * mpmath.cos(3 * x),
         lambda x, t: t * t - x * x + math.log(math.cosh(3 * t)), 14,
         sqrt_pi / 2 * mpmath.exp(-mpf(9) / 4)),
        (shifted, shifted_majorant, 14, sqrt_pi),
        # |cosh(x + iy)|^2 = sinh(x)^2 + cos(y)^2
        (mpmath.sech,
         lambda x, t: -math.log(math.sinh(x) ** 2 + math.cos(t) ** 2) / 2,
         200, mpmath.pi / 2),
        (lambda x: mpmath.sech(x) ** 2,
         lambda x, t: -math.log(math.sinh(x) ** 2 + math.cos(t) ** 2), 100,
         mpf(1)),
        # |exp(-cosh(x + iy))| = exp(-cosh(x) cos(y))
        (lambda x: mpmath.exp(-mpmath.cosh(x)),
         lambda x, t: -math.cosh(x) * math.cos(t), 7, mpmath.besselk(0, 1)),
    ]


@pytest.mark.parametrize("case", range(7))
def test_trapezoid_battery(case):
    f, majorant, b, exact = battery()[case]
    kernel = CachedKernelQuadrature(f, b, majorant)
    (value,), (radius,) = kernel.moments((0,))
    target = numkernel.default_target(mp.prec)
    assert abs(value - exact) <= radius + mpf(2) ** -mp.prec * abs(exact)
    assert radius <= target


@pytest.mark.parametrize("case", range(7))
def test_battery_radius_covers_two_levels_up(case):
    # at the level the bound picks, its radius must cover the distance to
    # the sum two levels finer, at loose and at tight targets
    f, majorant, b, _ = battery()[case]
    kernel = CachedKernelQuadrature(f, b, majorant)
    targets = [mpf(2) ** -k for k in (10, 30, 60, 100)]
    assert len(levels_covered_two_levels_up(kernel, targets, degree=0)) >= 2


def test_phi_kernel_integral_matches_xi_half():
    # independent targets: the completed zeta at the central point,
    # evaluated through library gamma/zeta, and mpmath's own quadrature
    from momentsieve.riemann import _phi_log_majorant, kernel_cutoff, phi
    xi_half = mpmath.pi ** (-mpf(1) / 4) * (mpf(1) / 2 - 1) \
        * mpmath.gamma(1 + mpf(1) / 4) * mpmath.zeta(mpf(1) / 2)
    u_max = kernel_cutoff(mp.prec, 1, 4.5)
    reference = mpmath.quad(phi, [0, u_max])
    assert close(reference, xi_half / 2, mpf(10) ** -15)
    assert close(reference, xi_half / 2, mpf(2) ** -(mp.prec - 24))
    (value,), (radius,) = CachedKernelQuadrature(
        phi, u_max, _phi_log_majorant).moments((0,))
    assert close(value, reference, mpf(2) ** -(mp.prec - 24))
    assert abs(value - xi_half / 2) <= radius + mpf(2) ** -(mp.prec - 24)


def test_unreachable_target_fails_before_any_level(monkeypatch):
    # the tail past b alone exceeds 2^-(20 prec): no level can meet it, and
    # the bound says so before any kernel value is computed
    calls = []

    def gaussian(x):
        calls.append(x)
        return mpmath.exp(-x * x)

    kernel = CachedKernelQuadrature(gaussian, 14, gaussian_majorant)
    target = mpf(2) ** -(20 * mp.prec)
    with pytest.raises(AccuracyError, match=f"up to {MAX_LEVELS}") as info:
        kernel.moments((0,), target)
    assert calls == []
    # the message states the bound, and it misses the target
    assert mpf(str(info.value).rsplit("bound there is ", 1)[1]) > target

    # cos(1000 x) needs a step far below what 3 levels reach
    monkeypatch.setattr(numkernel, "MAX_LEVELS", 3)
    with pytest.raises(AccuracyError, match="up to 3"):
        kernel.fourier(1000)
    assert calls == []


def test_non_finite_kernel_value_is_an_error():
    # a NaN kernel value at the node x = 7 of level 0 must not enter the
    # fixed-point or the exact integer sums as 0
    kernel = CachedKernelQuadrature(
        lambda x: mpf("nan") if x == 7 else mpmath.exp(-x * x), 14,
        gaussian_majorant)
    for call in (lambda: kernel.moments((0,)), lambda: kernel.fourier(1)):
        with pytest.raises(ConsistencyError, match="non-finite"):
            call()


def test_non_even_integrand_is_inconsistent():
    # exp(-(x-1)^2) is not even about 0, so the rule converges only like
    # h^2: the levels differ by far more than their radii allow
    kernel = CachedKernelQuadrature(
        lambda x: mpmath.exp(-(x - 1) ** 2), 14,
        lambda x, t: t * t - (x - 1) ** 2)
    with pytest.raises(ConsistencyError, match="not even"):
        kernel.moments((0,))


def test_interval_validation():
    with pytest.raises(DomainError):
        CachedKernelQuadrature(lambda x: x, 0, gaussian_majorant)
    with pytest.raises(DomainError):
        CachedKernelQuadrature(lambda x: x, -1, gaussian_majorant)
    kernel = CachedKernelQuadrature(
        lambda x: mpmath.exp(-x * x), 14, gaussian_majorant)
    # a one-part kernel is even, so its odd moments vanish by assumption
    with pytest.raises(DomainError, match="odd moments"):
        kernel.moments((0, 1))
    with pytest.raises(DomainError, match="target"):
        kernel.moments((0,), 0)
    # a majorant that does not decay past b cannot bound the dropped nodes
    for log_majorant in (lambda x, t: x, lambda x, t: -(x - 3) ** 2):
        kernel = CachedKernelQuadrature(lambda x: 1, 1, log_majorant)
        with pytest.raises(DomainError, match="majorant does not"):
            kernel.moments((0,), mpf(2) ** -10)


def test_cached_kernel_matches_direct():
    kernel = CachedKernelQuadrature(
        lambda x: mpmath.exp(-x * x), 14, gaussian_majorant)
    (v1,), (r1,) = kernel.moments((2,))
    exact = mpmath.sqrt(mpmath.pi) / 4
    assert abs(v1 - exact) <= mpf(2) ** -(mp.prec - 24)
    assert abs(v1 - exact) <= r1 + mpf(2) ** -mp.prec


def test_folded_kernel_matches_the_full_interval():
    # K is complex and neither even nor odd; folded onto [0, 16] with the
    # parts E = K(x) + K(-x) and F = i (K(x) - K(-x)), e^(isx) and its
    # s-derivative come from fourier, and x^n for odd n is i times its
    # moment
    kernel = lambda x: mpmath.exp(-(x - mpf(3) / 10) ** 2) * mpc(1, x)

    def folded(x):
        plus, minus = kernel(x), kernel(-x)
        return plus + minus, mpc(0, 1) * (plus - minus)

    def majorant(x, t):
        # |1 + i(x + iy)| <= sqrt((1 + t)^2 + x^2), each Gaussian as above
        return t * t + math.log(math.exp(-(x - 0.3) ** 2)
                                + math.exp(-(x + 0.3) ** 2)) \
            + math.log((1 + t) ** 2 + x * x) / 2

    s, degrees = mpf("1.7"), range(6)
    full_g = [lambda x: mpmath.expj(s * x),
              lambda x: mpc(0, x) * mpmath.expj(s * x)] + [
        lambda x, n=n: x ** n for n in degrees]

    quadrature = CachedKernelQuadrature(folded, 16, majorant)
    got, radii = (a + b for a, b in zip(
        quadrature.fourier(s, derivative=True), quadrature.moments(degrees)))
    factors = (1, 1) + tuple(mpc(0, 1) if n % 2 else 1 for n in degrees)
    target = numkernel.default_target(mp.prec)
    assert len(radii) == len(got) == len(full_g)
    for g, v, f, r in zip(full_g, got, factors, radii):
        want = mpmath.quad(lambda x: kernel(x) * g(x), [-16, 0, 16])
        assert abs(want - f * v) <= target
        assert r <= target


def test_high_degree_moments_within_their_radii():
    # int_0^inf x^n exp(-x^2) dx = Gamma((n+1)/2)/2 up to n = 40, where
    # x^n weighs the far nodes by up to 24^40: the moments keep the kernel
    # values' relative accuracy there, which integers at one absolute
    # scale 2^-(prec + guard) would not
    kernel = CachedKernelQuadrature(
        lambda x: mpmath.exp(-x * x), 24, gaussian_majorant)
    degrees = range(0, 41, 2)
    values, radii = kernel.moments(degrees, mpf(2) ** -(mp.prec - 80))
    for n, v, r in zip(degrees, values, radii):
        with workprec(2 * mp.prec):
            exact = mpmath.gamma(mpf(n + 1) / 2) / 2
        assert abs(v - exact) <= r + mpf(2) ** -mp.prec * abs(exact), n


def test_tuple_integrand_reports_each_column_difference():
    # each degree is a column with its own sum and radius, all at the one
    # level where every radius meets the target; a repeated degree repeats
    # its column exactly
    kernel = CachedKernelQuadrature(
        mpmath.sech, 200,
        lambda x, t: -math.log(math.sinh(x) ** 2 + math.cos(t) ** 2) / 2)
    target = mpf(2) ** -40
    (v0, v1, v2), (r0, r1, r2) = kernel.moments((0, 2, 2), target)
    assert (v1, r1) == (v2, r2)
    assert 0 < r1 <= target and 0 < r0 <= target
    assert r0 != r1
    assert (v0, v1) == (kernel.moments((0,), target).value[0],
                        kernel.moments((2,), target).value[0])


def test_zero_multipliers_are_left_out_of_the_sums(monkeypatch):
    # on a folded kernel x^2 reads only the part E and x only F, as
    # char_coeffs's moments do: the part whose multiplier is 0 is never
    # summed, and each summed column, written as exact integers once per
    # call, holds the nodes of the levels up to the one used
    f, majorant, b, _ = battery()[3]
    kernel = CachedKernelQuadrature(f, b, majorant)
    columns = []
    exact = numkernel._exact

    def recording(values):
        columns.append(list(values))
        return exact(values)

    monkeypatch.setattr(numkernel, "_exact", recording)
    for degree, part in ((2, 0), (1, 1)):
        columns.clear()
        kernel.moments((degree,))
        level = kernel._level([(0, degree)], None)
        values = [v for lv in range(level + 1)
                  for v in kernel._levels[lv][part]]
        # E is real here and F = i (K(x) - K(-x)) complex
        assert columns == ([values] if part == 0 else
                           [[v.real for v in values],
                            [v.imag for v in values]])


def phi_series(u, bits):
    """Phi(u) of the riemann module docstring, term by term at ``bits``."""
    with workprec(bits):
        u, pi = mpf(u), mpmath.pi
        g5, g9 = mpmath.exp(5 * u / 2), mpmath.exp(9 * u / 2)
        b = pi * mpmath.exp(2 * u)
        total, n = mpf(0), 1
        while True:
            term = (4 * n ** 4 * pi ** 2 * g9 - 6 * n ** 2 * pi * g5) \
                * mpmath.exp(-n * n * b)
            total += term
            if term < total * mpf(2) ** -bits:
                return total
            n += 1


def theta_series(y, chi, bits):
    """phi(y, chi) of the dirichlet module docstring, term by term at
    ``bits``."""
    with workprec(bits):
        y, kappa = mpf(y), chi.parity
        B = mpmath.pi * mpmath.exp(2 * y) / chi.q
        total, peak, n = mpc(0), mpf(0), 1
        while True:
            mag = n ** kappa * mpmath.exp(-n * n * B + (kappa + 0.5) * y)
            total += chi(n) * mag
            peak = max(peak, mag)
            if n > chi.q and mag < peak * mpf(2) ** -bits:
                return 2 * total
            n += 1


@pytest.mark.parametrize("q, bits", [
    (1, 64), (1, 256), (1, 1024),
    (5, 128), (5, 256), (7, 128), (7, 256), (13, 128), (13, 256)])
def test_kernel_values_carry_the_slack_bits(q, bits):
    # the rounding term 2^-(prec + guard - 16) R_p of the class docstring
    # assumes the kernel values at the nodes lose fewer than 16 of their
    # P = prec + guard bits: every node up to level 4 of the Phi kernel
    # (q = 1) or of chi_q.1's kernel, at the cutoff of 24 Xi or 20
    # Dirichlet coefficients, lies within 2^-(P-14) relative of the series
    # summed term by term at 2P + 64 bits
    from momentsieve import dirichlet, riemann
    P = bits + numkernel._QUAD_GUARD
    if q == 1:
        kernel, reference = riemann.phi, phi_series
        cutoff = riemann.kernel_cutoff(bits, 1, 4.5 + 2 * 24)
    else:
        chi = dirichlet.characters_mod(q)[1]
        kernel = lambda y: dirichlet.phi_char(y, chi)
        reference = lambda y, b: theta_series(y, chi, b)
        cutoff = riemann.kernel_cutoff(bits, q, chi.parity + 0.5 + 20)
    count = numkernel.BASE_INTERVALS << 4
    with workprec(P):
        nodes = [j * (cutoff / count) for j in range(count + 1)]
        values = [kernel(y) for y in nodes]
    for y, value in zip(nodes, values):
        want = reference(y, 2 * P + 64)
        with workprec(2 * P + 64):
            assert abs(value - want) <= mpf(2) ** -(P - 14) * abs(want), y


def fdot_moment_sums(kernel, degrees, level):
    """:meth:`CachedKernelQuadrature._moment_sums` by ``mpmath.fdot``: per
    degree, the levels' weighted kernel values times the integers J^n."""
    with workprec(kernel.prec + numkernel._QUAD_GUARD):
        h, below, sums = kernel._step(level), [], []
        split = sum(len(js) for js, *_ in kernel._fixed[:level])
        for n in degrees:
            terms = [(w, mp.convert((j << (level - lv)) ** n))
                     for lv in range(level + 1)
                     for w, j in zip(kernel._levels[lv][n % 2],
                                     kernel._fixed[lv][0])]
            scale = -h ** (n + 1) if n % 2 else h ** (n + 1)
            below.append(2 * scale * mpmath.fdot(terms[:split]))
            sums.append(scale * mpmath.fdot(terms))
        return below, sums


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_integer_moment_sums_equal_fdot(bits):
    # the exact integer sums, each rounded once, against fdot over the same
    # terms: equal bit for bit and of the same type, for every battery
    # kernel and a complex folded one, even and odd degrees out of order
    # and repeated, at the first levels
    cases = battery()
    with workprec(bits):
        kernels = [CachedKernelQuadrature(f, b, majorant)
                   for f, majorant, b, _ in cases]
        kernels.append(folded_complex_kernel())
    for kernel in kernels:
        kernel._ensure_level(3)
        folded = len(kernel._levels[0]) == 2
        degrees = (5, 0, 2, 1, 2, 9, 30) if folded else (6, 0, 2, 2, 40)
        for level in (1, 2, 3):
            got = kernel._moment_sums(degrees, level)
            want = fdot_moment_sums(kernel, degrees, level)
            assert got == want
            assert [type(v) for column in got for v in column] \
                == [type(v) for column in want for v in column]


def fourier_references(kernel, s, levels):
    """The sums of :meth:`fourier`'s two columns at levels 0..``levels``,
    from one cos_sin per node and one fdot per column on the kernel's own
    weighted values, 64 bits above the fixed point."""
    kernel._ensure_level(levels)
    out = [[0, 0]]
    with workprec(kernel.prec + numkernel._QUAD_GUARD + 64):
        for lv in range(levels + 1):
            h = kernel.b / (numkernel.BASE_INTERVALS << lv)
            terms = ([], [])
            for j, *w in zip(kernel._fixed[lv][0], *kernel._levels[lv]):
                x = j * h
                c, sn = mpmath.cos_sin(s * x)
                terms[0].extend(zip(w, (c, sn)))
                terms[1].extend(zip(w, (-x * sn, x * c)))
            out.append([t / 2 + h * mpmath.fdot(column)
                        for t, column in zip(out[-1], terms)])
    return out[1:]


def folded_complex_kernel():
    """exp(-(x - 3/10)^2) (1 + ix) folded onto [0, 16]: E and F are both
    complex, so the sums carry four integer components."""
    kernel = lambda x: mpmath.exp(-(x - mpf(3) / 10) ** 2) * mpc(1, x)

    def folded(x):
        plus, minus = kernel(x), kernel(-x)
        return plus + minus, mpc(0, 1) * (plus - minus)

    def majorant(x, t):
        return t * t + math.log(math.exp(-(x - 0.3) ** 2)
                                + math.exp(-(x + 0.3) ** 2)) \
            + math.log((1 + t) ** 2 + x * x) / 2

    return CachedKernelQuadrature(folded, 16, majorant)


@pytest.mark.parametrize("bits, levels", [(64, (MAX_LEVELS, 7)),
                                          (256, (7, 7)), (1056, (5, 5))])
def test_fixed_point_sums_within_their_bound(bits, levels):
    # the integer angle-addition sums against cos_sin and fdot on the same
    # nodes, for a one-part and a folded kernel, every level up to
    # ``levels``, with and without the derivative column; at 64 bits the
    # one-part kernel reaches a progression of the longest length
    with workprec(bits):
        kernels = [CachedKernelQuadrature(lambda x: mpmath.exp(-x * x), 14,
                                          gaussian_majorant),
                   folded_complex_kernel()]
        target = numkernel.default_target(bits)
    for kernel, s, top in zip(kernels, (mpf("17.3"), mpf("-2.9")), levels):
        references = fourier_references(kernel, s, top)
        for lv in range(1, top + 1):
            full = kernel.prec + numkernel._QUAD_GUARD
            bounds = [mpmath.exp(kernel._log_fixed_radius(k, k, full))
                      for k in (lv - 1, lv)]
            assert bounds[1] <= target * mpf(2) ** -16
            for derivative in (False, True):
                got = kernel._fixed_sums(s, lv, derivative)
                for sums, want, bound in zip(
                        got, references[lv - 1:lv + 1], bounds):
                    assert len(sums) == 1 + derivative
                    for v, w in zip(sums, want):
                        assert abs(v - w) <= bound, (lv, derivative)


@pytest.mark.parametrize("bits, levels", [(64, (9, 7)), (256, (7, 7)),
                                          (1056, (5, 5))])
def test_sign_width_sums_within_their_bound(bits, levels):
    # fourier_sign's width: turns at F = SIGN_BITS fraction bits against
    # the kernel's one table of integers at 2^-(prec + guard), the exact
    # totals of _fixed_totals at scale 2^-(prec + guard + F) against
    # cos_sin and fdot on the same nodes, for a one-part and a folded
    # kernel, every level up to ``levels``, both columns, within the bound
    # of each level in the sweep of the finer one
    F = numkernel.SIGN_BITS
    with workprec(bits):
        kernels = [CachedKernelQuadrature(lambda x: mpmath.exp(-x * x), 14,
                                          gaussian_majorant),
                   folded_complex_kernel()]
    target = numkernel.sign_target(bits)
    for kernel, s, top in zip(kernels, (mpf("17.3"), mpf("-2.9")), levels):
        references = fourier_references(kernel, s, top)
        exact = kernel.prec + numkernel._QUAD_GUARD + F + 64
        for lv in range(1, top + 1):
            bounds = [mpmath.exp(kernel._log_fixed_radius(k, lv, F))
                      for k in (lv - 1, lv)]
            assert bounds[1] <= target / 16
            totals, _ = kernel._fixed_totals(s, lv, True, F)
            with workprec(exact):
                for columns, want, bound in zip(
                        totals, references[lv - 1:lv + 1], bounds):
                    assert len(columns) == 2
                    for ((re, im), x), w in zip(columns, want):
                        v = mpc(mpmath.ldexp(re, x), mpmath.ldexp(im, x))
                        assert abs(v - w) <= bound, lv


@pytest.mark.parametrize("bits, level", [(64, MAX_LEVELS),
                                         (256, MAX_LEVELS), (1056, 8)])
def test_angle_addition_stays_within_its_lemma(bits, level):
    # node by node, the integers of the one sweep over a level's grid are
    # within 3 (J + 1) of 2^F (cos, sin)(s J h) at its J-th node,
    # F = prec + guard: the lemma behind the fixed-point bound, from the
    # exact start (2^F, 0) to the last node of the longest grid
    with workprec(bits):
        kernel = CachedKernelQuadrature(lambda x: 1, 14, gaussian_majorant)
    fixed = bits + numkernel._QUAD_GUARD
    s = mpf("-23.7")
    h = kernel.b / (numkernel.BASE_INTERVALS << level)
    cs, ss = kernel._turns(s, level, fixed)
    assert len(cs) == len(ss) == (numkernel.BASE_INTERVALS << level) + 1
    assert (cs[0], ss[0]) == (1 << fixed, 0)
    with workprec(fixed + 64):
        for J, (c, sn) in enumerate(zip(cs, ss)):
            wc, ws = mpmath.cos_sin(s * J * h)
            assert abs(c - mpmath.ldexp(wc, fixed)) <= 3 * (J + 1), J
            assert abs(sn - mpmath.ldexp(ws, fixed)) <= 3 * (J + 1), J


def test_fourier_matches_cos_sin_sums():
    # the cos_sin and fdot sums of fourier_references at fourier's level,
    # to the fixed-point bound, with the a-priori radius grown by that
    # bound only
    kernel = folded_complex_kernel()
    s = mpf("1.7")
    columns = [(s, 0), (s, 1)]
    got = kernel.fourier(s, derivative=True)
    full = kernel.prec + numkernel._QUAD_GUARD
    level = kernel._level(columns, None, full)
    want = fourier_references(kernel, s, level)[level]
    r_want = [mpmath.exp(r) for _, r in kernel._log_radii(columns, level)]
    bound = mpmath.exp(kernel._log_fixed_radius(level, level, full))
    for v, w, r, rw in zip(got.value, want, got.radius, r_want):
        assert abs(v - w) <= bound + mpf(2) ** -mp.prec * abs(w)
        assert rw <= r <= rw + 2 * bound
    value, radius = kernel.fourier(s)
    assert (value, radius) == (got.value[0], got.radius[0])


def test_memo_hit_matches_a_fresh_kernel(monkeypatch):
    # a repeated call, after other calls have built finer levels, returns
    # the stored result without summing again, and that result is the
    # first call on a fresh kernel of the same precision and cutoff
    with workprec(128):
        kernel, fresh = folded_complex_kernel(), folded_complex_kernel()
    s, coarse = mpf("1.7"), mpf(2) ** -40
    first = (kernel.fourier(s, coarse, derivative=True),
             kernel.moments((0, 1, 2), coarse), kernel.fourier_sign(s))
    kernel.fourier(s)
    kernel.moments((0, 1, 2))
    for name in ("_fixed_totals", "_moment_sums"):
        monkeypatch.setattr(kernel, name, None)  # a hit sums nothing
    again = (kernel.fourier(s, coarse, derivative=True),
             kernel.moments(range(3), coarse), kernel.fourier_sign(s))
    assert all(a is b for a, b in zip(again, first))
    assert again == (fresh.fourier(s, coarse, derivative=True),
                     fresh.moments((0, 1, 2), coarse), fresh.fourier_sign(s))


def stale_radius_kernels(kind):
    """Two fresh kernels of one definition, with their working precision:
    the 256-bit Phi kernel of the xi runs, or the 128-bit folded kernel of
    chi_5.1's pair at the cutoff of its zero scan."""
    from momentsieve import dirichlet, riemann
    if kind == "phi":
        with workprec(256):
            cutoff = riemann.kernel_cutoff(256, 1, 28.5)
            return [CachedKernelQuadrature(riemann.phi, cutoff,
                                           riemann._phi_log_majorant)
                    for _ in range(2)], 256
    chi = dirichlet.characters_mod(5)[1]
    cutoff = riemann.kernel_cutoff(128, 5, chi.parity + 0.5)
    kernels = []
    for _ in range(2):
        dirichlet._char_kernel_cache.clear()
        with workprec(128):
            kernels.append(dirichlet._char_kernel(chi, 128, cutoff)[0])
    return kernels, 128


@pytest.mark.parametrize("kind", ["phi", "chi5"])
def test_cached_radius_terms_do_not_go_stale(kind, monkeypatch):
    # one kernel takes a sign-scan value (level 3), a value at the default
    # target (a finer level), then a sign-scan value with its derivative
    # (a coarser level again); each result, and every level's radii with
    # the fixed-point bounds of both sweeps, are those of a fresh kernel
    from momentsieve import dirichlet
    monkeypatch.setattr(dirichlet, "_char_kernel_cache", {})
    (kernel, reference), bits = stale_radius_kernels(kind)
    full = bits + numkernel._QUAD_GUARD
    coarse = mpf(2) ** -(bits // 2)  # a target that lands on level 3
    calls = [(mpf("4.5"), coarse, False),
             (mpf("30.25"), None, False),
             (mpf("4.125"), coarse, True)]
    levels = []
    for s, target, derivative in calls:
        got = kernel.fourier(s, target, derivative)
        fresh = stale_radius_kernels(kind)[0][0]
        assert got == fresh.fourier(s, target, derivative), (s, target)
        columns = [(s, 0)] + ([(s, 1)] if derivative else [])
        levels.append(kernel._level(columns, target, full))
    assert levels[0] == 3 and levels[1] > levels[2]
    top = max(levels)
    reference._ensure_level(top)
    columns = [(mpf("4.5"), 0), (mpf("4.5"), 1)]
    # the sweep of each level gives the radii of it and of the level below,
    # so sweeps 1..top + 1 cover every level 1..top in sweeps lv and lv + 1
    for sweep in range(1, top + 2):
        assert kernel._log_radii(columns, sweep, full) \
            == reference._log_radii(columns, sweep, full), sweep


def sign_kernels(bits):
    """The kernels of the zero scans at ``bits``, with their scan ends: Phi
    at xi_eval's own cutoff on [0, 16], and the folded pair kernel of
    chi_5.1 at z_char_eval's on [0, 10]."""
    from momentsieve import dirichlet, riemann
    with workprec(bits):
        phi = CachedKernelQuadrature(
            riemann.phi, riemann.kernel_cutoff(bits, 1, 4.5),
            riemann._phi_log_majorant)
        chi = dirichlet.characters_mod(5)[1]
        dirichlet._char_kernel_cache.clear()
        pair = dirichlet._char_kernel(chi, bits, riemann.kernel_cutoff(
            bits, 5, chi.parity + 0.5))[0]
    return [(phi, 16), (pair, 10)]


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_sign_values_within_their_radii(bits, monkeypatch):
    # at every scan point, the float sign value lies within its radius of
    # the full-precision integral, and the radius within twice the target
    from momentsieve import dirichlet
    monkeypatch.setattr(dirichlet, "_char_kernel_cache", {})
    target = float(numkernel.sign_target(bits))
    for kernel, top in sign_kernels(bits):
        for k in range(2 * top + 1):
            s = mpf(k) / 2
            value, radius = kernel.fourier_sign(s)
            folded = len(kernel._levels[0]) == 2
            assert type(value) is (complex if folded else float)
            with workprec(bits):
                exact = kernel.fourier(s, mpf(2) ** -(bits - 16)).value
            assert abs(value - exact) <= radius, (bits, s)
            assert radius <= 2 * target, (bits, s)


def test_sign_target_stops_at_forty_bits():
    assert numkernel.sign_target(48) == mpf(2) ** -24
    assert numkernel.sign_target(79) == mpf(2) ** -39
    assert numkernel.sign_target(256) == numkernel.sign_target(2048) \
        == mpf(2) ** -40


def sech_kernel(shift):
    """sech(k x), k = 2 pi/3, on [0, 24] with its majorant e^shift times
    too small; its poles at +-0.75 i lie just outside the strip, so the
    strip bound is nearly tight."""
    k = math.pi / 1.5
    return CachedKernelQuadrature(
        lambda x: mpmath.sech(k * x), 24,
        lambda x, t: -math.log(math.sinh(k * x) ** 2
                               + math.cos(k * t) ** 2) / 2 - shift)


def test_sign_path_checks_its_levels():
    # a majorant too small by e^10 makes the levels differ beyond their
    # radii, in the sign path as in the full-precision one
    with workprec(64):
        value, radius = sech_kernel(0).fourier_sign(1)
        # int_0^inf sech(k x) cos x dx = (pi/2k) sech(pi/2k)
        assert abs(value - mpf(3) / 4 / mpmath.cosh(mpf(3) / 4)) <= radius
        for evaluate in ("fourier_sign", "fourier"):
            with pytest.raises(ConsistencyError, match="not even"):
                getattr(sech_kernel(10), evaluate)(1)


def test_memo_keeps_the_newest_results():
    with workprec(64):
        kernel = CachedKernelQuadrature(lambda x: mpmath.exp(-x * x), 14,
                                        gaussian_majorant)
    target = mpf(2) ** -20
    for k in range(2000):
        kernel.fourier(mpf(k) / 256, target)
    assert len(kernel._memo) <= numkernel.MEMO_SIZE == 1024
    assert ("fourier", mpf(1999) / 256, target, False) in kernel._memo
    assert ("fourier", mpf(0), target, False) not in kernel._memo


def test_memo_slots_hold_only_results(monkeypatch):
    # four sign values through three memo slots: the last three are kept,
    # so the second is a hit that sums nothing
    monkeypatch.setattr(numkernel, "MEMO_SIZE", 3)
    with workprec(64):
        kernel = CachedKernelQuadrature(lambda x: mpmath.exp(-x * x), 14,
                                        gaussian_majorant)
    for s in (1, 2, 3, 4):
        kernel.fourier_sign(s)
    totals, calls = kernel._fixed_totals, []

    def counting(*args):
        calls.append(args)
        return totals(*args)

    monkeypatch.setattr(kernel, "_fixed_totals", counting)
    kernel.fourier_sign(2)
    assert calls == []
    assert list(kernel._memo) == [("sign", mpf(s)) for s in (2, 3, 4)]


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


def test_zero_on_a_scan_point_is_bracketed():
    # the scan value at 3/2 is exactly 0: the cell spans it, from the last
    # nonzero value before it, and bisection returns a bracket centred on
    # it; a double zero there has no sign change and yields nothing
    linear = lambda x: x - mpf(3) / 2
    cells = list(sign_changes(linear, 0, 3))
    assert cells == [(1, 2, mpf(-1) / 2, mpf(1) / 2)]
    b = bisect_sign_change(linear, *cells[0])
    assert b.refined_root == mpf(3) / 2
    assert list(sign_changes(lambda x: linear(x) ** 2, 0, 3)) == []


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
    # the rough value at 1.5 has the wrong sign but lies within its
    # radius, and at 2 it is exactly its radius: only there does the scan
    # call f, whose signs then expose the change on [1.5, 2]
    fine = []

    def f(x):
        fine.append(x)
        return mpmath.cos(x)

    def rough(x):
        if x == mpf(3) / 2:
            return -0.01, 0.1
        if x == 2:
            return float(mpmath.cos(x)), abs(float(mpmath.cos(x)))
        return float(mpmath.cos(x)), 1e-3

    cell = next(sign_changes(f, 0, 10, rough=rough))
    assert fine == [mpf(3) / 2, 2]
    assert cell[:2] == (mpf(3) / 2, 2)
    b = bisect_sign_change(f, *next(sign_changes(f, 0, 10, rough=rough)))
    assert b.lo < mpmath.pi / 2 < b.hi


def test_scan_step_that_does_not_advance_is_an_error():
    # at 4 bits 8 + 1/2 rounds back to 8, so the scan would stand still;
    # f gives up after 200 calls, long after the scan must have stopped
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) > 200:
            raise RuntimeError("the scan does not advance")
        return mpf(1)

    with workprec(4):
        with pytest.raises(DomainError, match="does not advance past 8"):
            list(sign_changes(f, 0, 30))
    assert len(calls) == 17  # 0, 0.5, ..., 8
