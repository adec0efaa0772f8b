"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines as they
print.  Criteria marked by number:

1. oracle equivalence of the three moment routes on 100 random real sets
2. necessity direction: all-real sets certify a clean 25x25 grid at L = 1
3. violation detection on the stored wide-angle conjugate pair, stable
   across 256/512 bits
4. Riemann anchors: central value, first-zero bracket, zero-sum moment
5. Xi pipeline N = 14, 5x5 grid, auto scale, 512 bits, under 5 minutes
6. Dirichlet identities (Gauss sums, reflection residuals, q = 4 layout,
   q = 6 conductor)
7. GRH pipelines for q = 3 and q = 4 with clean grids
8. byte-identical CLI reports for identical configurations
"""

import random
import time
from pathlib import Path

import mpmath
from mpmath import mpf, workprec

from momentsieve.cli import main as cli_main
from momentsieve.dirichlet import (
    char_coeffs,
    characters_mod,
    gauss_sum,
    grh_moment_pipeline,
)
from momentsieve.moments import (
    build_grid,
    moments_by_determinant,
    moments_by_recursion,
    normalize,
)
from momentsieve.oracle import (
    ZeroSet,
    load_zeros,
    moments_from_zeros,
    product_to_series,
)
from momentsieve.riemann import (
    bracket_zeros,
    rh_moment_pipeline,
    xi_coefficients,
    xi_eval,
    zero_sum_moment,
    zero_sum_tail_bound,
)

from conftest import direct_char_coeffs, eq_324_residuals

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SETS = 100
K_MAX = 25


def record(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def oracle_sets():
    rng = random.Random(0xC0FFEE)
    sets = []
    for _ in range(SETS):
        count = rng.randint(5, 20)
        sets.append(ZeroSet.from_zeros(
            [mpf(rng.uniform(1.5, 100.0)) for _ in range(count)]))
    return sets


_cache = {}


def shared_sets():
    if "sets" not in _cache:
        with workprec(256):
            _cache["sets"] = oracle_sets()
    return _cache["sets"]


def test_criterion_1_oracle_equivalence():
    """Recursion, determinant and direct zero sums agree to 1e-25."""
    with workprec(256):
        started = time.perf_counter()
        sets = shared_sets()
        worst = mpf(0)
        for zs in sets:
            direct = moments_from_zeros(zs, K_MAX)
            series = product_to_series(zs).padded(K_MAX + 2)
            rec = moments_by_recursion(series, K_MAX)
            for l in range(K_MAX + 1):
                det = moments_by_determinant(series, l)
                scale = abs(direct.m[l])
                worst = max(worst,
                            abs(rec.m[l] - direct.m[l]) / scale,
                            abs(det - direct.m[l]) / scale,
                            abs(det - rec.m[l]) / scale)
        elapsed = time.perf_counter() - started
    ok = worst <= mpf(10) ** -25 and elapsed <= 60
    record("1 oracle-equivalence", ok,
           f"{SETS} sets, worst rel {mpmath.nstr(worst, 3)}, {elapsed:.1f}s")


def test_criterion_2_necessity_direction():
    """All-real admissible sets certify the full 25x25 grid nonnegative."""
    with workprec(256):
        bad_sets = 0
        uncertain = 0
        for zs in shared_sets():
            m = moments_from_zeros(zs, 2 * K_MAX)
            grid = build_grid(m, 1, K_MAX, K_MAX)
            counts = grid.counts()
            uncertain += counts["zero-uncertain"]
            if counts["negative"] or counts["zero-uncertain"]:
                bad_sets += 1
    record("2 necessity-direction", bad_sets == 0 and uncertain == 0,
           f"{SETS} sets x {(K_MAX + 1) ** 2} cells, "
           f"{uncertain} uncertain cells")


def test_criterion_3_violation_detection():
    """The stored wide-angle pair certifies a negative cell, stably."""
    raw = load_zeros(FIXTURES / "wide_pair.zeros")
    found = {}
    for bits in (256, 512):
        with workprec(bits):
            zs = ZeroSet.from_zeros(raw)
            assert zs.gamma0 > 1 and 0 < zs.beta0 < 1  # admissibility gates
            m = moments_from_zeros(zs, 80)
            grid = build_grid(m, 1, 40, 40)
            found[bits] = grid.first_violation
    ok = (found[256] is not None and found[256] == found[512]
          and found[256] == (0, 0))
    record("3 violation-detection", ok,
           f"first violation {found[256]} at 256 bits, {found[512]} at 512")


def test_criterion_4_riemann_anchors():
    """Central value, first zero location, and the zero-sum moment check."""
    with workprec(256):
        xi_half = (mpmath.pi ** (-mpf(1) / 4) * (mpf(1) / 2 - 1)
                   * mpmath.gamma(1 + mpf(1) / 4)
                   * mpmath.zeta(mpf(1) / 2))
        a0_ok = abs(xi_coefficients(0).a[0] - xi_half) <= mpf(10) ** -15
        sign_ok = xi_eval(mpf(14)) * xi_eval(mpf("14.3")) < 0
        coeffs = xi_coefficients(5)
        rec = moments_by_recursion(normalize(coeffs.a), 3)
        m0 = rec.m[0]
    with workprec(96):
        brackets = bracket_zeros(100)
        root_ok = abs(brackets[0].refined_root - mpf("14.1347")) <= mpf(5) * 10 ** -4
        truncated = zero_sum_moment(brackets, 0)
        bound = zero_sum_tail_bound(100, 0)
    sum_ok = abs(m0 - truncated) <= bound
    record("4 riemann-anchors",
           a0_ok and sign_ok and root_ok and sum_ok,
           f"a0 ok={a0_ok}, sign change ok={sign_ok}, root ok={root_ok}, "
           f"{len(brackets)} zeros below 100, |m0-sum|="
           f"{mpmath.nstr(abs(m0 - truncated), 3)} <= {mpmath.nstr(bound, 3)}"
           f"={sum_ok}")


def test_criterion_5_xi_grid_512():
    """N = 14, grid 5x5, auto scale at 512 bits in under five minutes."""
    started = time.perf_counter()
    with workprec(512):
        result = rh_moment_pipeline(14, "auto", 5, 5)
    elapsed = time.perf_counter() - started
    counts = result.tail.grid.counts()
    ok = counts["negative"] == 0 and elapsed <= 300
    record("5 xi-grid-512", ok,
           f"negative={counts['negative']}, uncertain={counts['zero-uncertain']}, "
           f"{elapsed:.0f}s")


def test_criterion_6a_gauss_sum_modulus():
    """|tau(chi)|^2 = q to 1e-30 for every primitive chi with q <= 50."""
    with workprec(256):
        worst = mpf(0)
        checked = 0
        for q in range(1, 51):
            for chi in characters_mod(q):
                if not chi.is_primitive:
                    continue
                checked += 1
                worst = max(worst, abs(abs(gauss_sum(chi)) ** 2 - q))
    record("6a gauss-modulus", worst <= mpf(10) ** -30,
           f"{checked} primitive characters, worst {mpmath.nstr(worst, 3)}")


def test_criterion_6b_reflection_residuals():
    """Coefficient reflection residuals below 1e-20 for q in 3,4,5,7.

    ``char_coeffs`` integrates one character of each pair and takes the
    other's a_n from the reflection itself, so the residuals hold by
    construction; every a_n, of both characters, is therefore also
    compared with a kernel that sums the direct series at every node, and
    that deviation must stay below 1e-20 too.
    """
    with workprec(256):
        worst = deviation = mpf(0)
        for q in (3, 4, 5, 7):
            for chi in characters_mod(q):
                if not chi.is_primitive:
                    continue
                coeffs = char_coeffs(chi, 8)
                worst = max(worst, max(eq_324_residuals(coeffs, chi)))
                deviation = max(deviation, max(
                    abs(v - d) for v, d in
                    zip(coeffs.a, direct_char_coeffs(chi, 8))))
    record("6b reflection-residuals",
           worst <= mpf(10) ** -20 and deviation <= mpf(10) ** -20,
           f"worst residual {mpmath.nstr(worst, 3)}, worst deviation from "
           f"the direct series {mpmath.nstr(deviation, 3)}")


def test_criterion_6c_q4_central_index():
    """Stated target: q = 4 yields mu = 1 with even coefficients at
    roundoff level.

    This is implemented exactly as stated and is expected to fail: the
    computed Gauss sum is tau(chi_4) = 2i, so the reflection factor
    tau(conj chi)/(i^kappa sqrt(q)) equals +1, the kernel phi(y, chi_4) is
    even in y, the odd-index coefficients vanish, and the central
    coefficient a_0 = 0.9807... (the completed central L-value) survives,
    forcing mu = 0.  A factor of -1 (hence mu = 1 and vanishing even
    indices) would require tau(chi_4) = -2i, which contradicts the direct
    two-term sum i - (-i).  The check is kept faithful rather than inverted;
    see the q = 4 tests elsewhere for the verified mu = 0 behaviour.
    """
    with workprec(256):
        chi4 = characters_mod(4)[1]
        coeffs = char_coeffs(chi4, 8)
        floor = mpf(2) ** -128 * max(abs(v) for v in coeffs.a)
        even_small = all(abs(coeffs.a[n]) <= floor
                         for n in range(0, 9, 2))
        ok = coeffs.mu == 1 and even_small
    record("6c q4-central-index", ok,
           f"mu={coeffs.mu}, a0={mpmath.nstr(abs(coeffs.a[0]), 6)}; "
           "tau(chi_4)=2i forces an even kernel and mu=0, so the stated "
           "mu=1 target is unattainable")


def test_criterion_6d_q6_conductor():
    """The nontrivial character mod 6 is flagged nonprimitive, conductor 3."""
    chi = characters_mod(6)[1]
    ok = (not chi.is_primitive) and chi.conductor == 3
    record("6d q6-conductor", ok,
           f"primitive={chi.is_primitive}, conductor={chi.conductor}")


def test_criterion_7_grh_grids():
    """q = 3 and q = 4 pipelines: ratio positivity holds, grids clean."""
    results = {}
    with workprec(256):
        for q in (3, 4):
            chi = characters_mod(q)[1]
            results[q] = grh_moment_pipeline(chi, 10, "auto", 4, 4)
    ok = True
    details = []
    for q, res in results.items():
        counts = res.tail.grid.counts() if res.tail is not None else None
        holds = res.eq331_status.startswith("holds")
        clean = counts is not None and counts["negative"] == 0
        ok = ok and holds and clean
        details.append(f"q={q}: {res.eq331_status}, "
                       f"negative={counts['negative'] if counts else '-'}")
    record("7 grh-grids", ok, "; ".join(details))


def test_criterion_8_determinism(tmp_path, capsys):
    """Identical configurations produce byte-identical reports."""
    outputs = []
    for name in ("one", "two"):
        path = tmp_path / f"{name}.json"
        code = cli_main(["synthetic", str(FIXTURES / "wide_pair.zeros"),
                         "--L", "1", "--nmax", "4", "--kmax", "4",
                         "--bits", "192", "--out", str(path)])
        assert code == 2
        outputs.append(path.read_bytes())
    tables = []
    for name in ("ta", "tb"):
        path = tmp_path / f"{name}.json"
        code = cli_main(["char-table", "--q", "40", "--out", str(path)])
        assert code == 0
        tables.append(path.read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and tables[0] == tables[1]
    record("8 determinism", ok,
           f"synthetic report {len(outputs[0])} bytes, "
           f"char table {len(tables[0])} bytes")
