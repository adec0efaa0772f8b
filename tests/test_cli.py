import json
import os
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf, workprec

from momentsieve.cli import build_parser, main
from momentsieve.riemann import xi_coefficients

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synthetic_two_real_zeros(capsys):
    code, out, _ = run(["synthetic", str(FIXTURES / "real_23.zeros"),
                        "--L", "1", "--nmax", "4", "--kmax", "4",
                        "--bits", "128"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["admissibility"]["accepted"] is True
    assert report["grid"]["verdict"] == "no violation up to (4,4)"
    assert report["grid"]["counts"]["negative"] == 0
    # round trip between the recursion and the direct zero sums
    assert float(report["roundtrip"]["max_rel_residual"]) < 1e-20


def test_synthetic_wide_pair_violates(capsys):
    code, out, _ = run(["synthetic", str(FIXTURES / "wide_pair.zeros"),
                        "--L", "1", "--nmax", "3", "--kmax", "3",
                        "--bits", "128"], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["grid"]["first_violation"] == [0, 0]
    assert report["grid"]["verdict"] == "criterion fails at (0,0)"


def test_synthetic_fixture_parsed_at_bits(capsys):
    code, out, _ = run(["synthetic", str(FIXTURES / "wide_pair.zeros"),
                        "--L", "1"], capsys)
    assert code == 2
    first = json.loads(out)["zeros"][0]
    given = (FIXTURES / "wide_pair.zeros").read_text().splitlines()[3]
    with workprec(256):
        for got, want in zip(first, given.split()):
            assert abs(mpf(got) - mpf(want)) < mpf(10) ** -70


def test_synthetic_near_boundary_needs_bits(tmp_path, capsys):
    # every cell is positive (cell (0,25) is +6.8e-73), but at 256 bits the
    # rounding of the moments hides 52 of them: exit 3, never a violation
    fixture = tmp_path / "near.zeros"
    fixture.write_text("1.0006\n1.0009\n1.0013\n")
    argv = ["synthetic", str(fixture), "--L", "1", "--nmax", "25",
            "--kmax", "25"]
    code, out, _ = run(argv + ["--bits", "256"], capsys)
    counts = json.loads(out)["grid"]["counts"]
    assert code == 3
    assert counts["negative"] == 0 and counts["zero-uncertain"] > 0
    code, out, _ = run(argv + ["--bits", "512"], capsys)
    assert code == 0
    assert json.loads(out)["grid"]["counts"]["positive"] == 26 * 26


def test_synthetic_malformed_fixture(tmp_path, capsys):
    bad = tmp_path / "bad.zeros"
    bad.write_text("not a number\n")
    code, _, err = run(["synthetic", str(bad)], capsys)
    assert code == 1
    assert "error" in err


def test_synthetic_missing_file(capsys):
    code, _, err = run(["synthetic", "/nonexistent/zeros.txt"], capsys)
    assert code == 1


def test_xi_pipeline_auto(capsys):
    code, out, _ = run(["xi", "--N", "10", "--nmax", "3", "--kmax", "3",
                        "--bits", "128"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["grid"]["counts"]["negative"] == 0
    assert abs(float(report["s1"]) - 14.134725) < 1e-4
    assert len(report["coefficients"]) == 11
    assert len(report["brackets"]) >= 1


def test_xi_s1_radius_covers_first_zero(capsys):
    code, out, _ = run(["xi", "--N", "10", "--nmax", "3", "--kmax", "3",
                        "--bits", "256"], capsys)
    assert code == 0
    report = json.loads(out)
    with workprec(288):
        radius = mpf(report["s1_radius"])
        assert 0 < radius <= mpf(2) ** -127
        assert abs(mpf(report["s1"]) - mpmath.zetazero(1).imag) <= radius


def test_xi_rejects_scale_below_constraint(capsys):
    code, _, err = run(["xi", "--N", "10", "--nmax", "3", "--kmax", "3",
                        "--L", "0.001", "--bits", "96"], capsys)
    assert code == 1
    assert "s_1" in err


def test_infinite_scale_is_a_usage_error(capsys):
    # no precision settles a grid at L = inf: a usage error (exit 1), not
    # an uncertain grid (exit 3)
    code, _, err = run(["synthetic", str(FIXTURES / "real_23.zeros"),
                        "--nmax", "2", "--kmax", "2", "--L", "inf"], capsys)
    assert code == 1
    assert "L must be finite" in err


def test_xi_rejects_quad_error_option(capsys):
    # the option once set the quadrature target of every value and zero
    # scan; 1e-3 turned this clean grid into a certified violation
    code, _, err = run(["xi", "--N", "8", "--nmax", "3", "--kmax", "3",
                        "--bits", "128", "--quad-error", "1e-3"], capsys)
    assert code == 1
    assert "unrecognized arguments: --quad-error" in err


@pytest.mark.parametrize("argv", [
    "xi --N 12 --nmax 4 --kmax 4 --bits 256",
    "xi --N 22 --nmax 2 --kmax 18 --bits 64"])
def test_xi_coefficient_radii_cover_a_double_precision_reference(argv,
                                                                 capsys):
    # each reported coefficient lies within its reported radius of a_n
    # computed at twice the bits
    code, out, _ = run(argv.split(), capsys)
    assert code in (0, 3)
    report = json.loads(out)
    bits = report["bits"]
    assert len(report["coefficient_radii"]) == report["N"] + 1
    with workprec(2 * bits):
        reference = xi_coefficients(report["N"]).a
        for n, (a, r, w) in enumerate(zip(report["coefficients"],
                                          report["coefficient_radii"],
                                          reference)):
            assert 0 < mpf(r) and abs(mpf(a) - w) <= mpf(r), n


def test_xi_rejects_small_N(capsys):
    code, _, err = run(["xi", "--N", "6", "--nmax", "4", "--kmax", "4",
                        "--bits", "96"], capsys)
    assert code == 1
    assert "N >= 10" in err


def test_dirichlet_q3(capsys):
    code, out, _ = run(["dirichlet", "--q", "3", "--N", "6",
                        "--nmax", "2", "--kmax", "2", "--bits", "128"],
                       capsys)
    assert code == 0
    report = json.loads(out)
    assert report["q"] == 3 and report["index"] == 1
    assert report["parity"] == 1
    assert report["conductor"] == 3
    assert report["eq331_status"] == "holds for n <= 6"
    assert report["grid"]["counts"]["negative"] == 0
    assert report["mu"] == 0
    assert abs(float(report["s1"]) - 8.039737) < 1e-3
    assert 0 < float(report["s1_radius"]) <= 2.0 ** -64


def test_dirichlet_q4_runs_clean(capsys):
    code, out, _ = run(["dirichlet", "--q", "4", "--N", "6",
                        "--nmax", "2", "--kmax", "2", "--bits", "128"],
                       capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"].startswith("no violation")
    # root number +1 keeps the kernel even, so the center coefficient
    # survives and mu stays 0
    assert report["mu"] == 0


def test_dirichlet_nonprimitive_rejected(capsys):
    code, _, err = run(["dirichlet", "--q", "6", "--index", "1",
                        "--N", "6", "--nmax", "2", "--kmax", "2"], capsys)
    assert code == 1
    assert "conductor 3" in err


def test_char_table(capsys):
    code, out, _ = run(["char-table", "--q", "8"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["characters"]) == 4
    prim = [c for c in report["characters"] if c["primitive"]]
    assert {c["conductor"] for c in prim} == {8}

    code, out, _ = run(["char-table", "--q", "8", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,order,parity,conductor,primitive,tau_re,tau_im"
    assert len(lines) == 5


def test_csv_grid_export(capsys):
    code, out, _ = run(["synthetic", str(FIXTURES / "real_23.zeros"),
                        "--L", "1", "--nmax", "2", "--kmax", "2",
                        "--bits", "96", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,value,sign"
    assert len(lines) == 10
    assert all(line.endswith("positive") for line in lines[1:])


def test_default_bits(capsys):
    code, out, _ = run(["synthetic", str(FIXTURES / "real_23.zeros"),
                        "--L", "1", "--nmax", "2", "--kmax", "2"], capsys)
    assert code == 0
    assert json.loads(out)["bits"] == 256


def test_reports_are_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(["synthetic", str(FIXTURES / "wide_pair.zeros"),
                          "--L", "1", "--nmax", "3", "--kmax", "3",
                          "--bits", "128", "--out", str(out)], capsys)
        assert code == 2
    assert out1.read_bytes() == out2.read_bytes()


def test_usage_error_exit_code(capsys):
    code, _, _ = run(["no-such-command"], capsys)
    assert code == 1
    code, _, _ = run([], capsys)
    assert code == 1
    # below 16 bits the zero scan and the brackets no longer resolve
    for argv in (["xi", "--N", "4", "--nmax", "1", "--kmax", "1",
                  "--bits", "8"],
                 ["dirichlet", "--q", "5", "--index", "1", "--N", "6",
                  "--nmax", "2", "--kmax", "2", "--bits", "2"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "")
        assert "--bits must be at least 16" in err


def test_cached_parser_keeps_calls_apart(tmp_path, capsys):
    # the parser is built once per process; no option of one call may
    # reach the next, so the last run matches a run on a fresh parser
    synthetic = ["synthetic", str(FIXTURES / "real_23.zeros"), "--L", "1",
                 "--nmax", "3", "--kmax", "3"]
    build_parser.cache_clear()
    fresh = run(synthetic, capsys)
    assert fresh[0] == 0 and json.loads(fresh[1])["bits"] == 256
    csv_out, zeros_out = tmp_path / "grid.csv", tmp_path / "xi.zeros"
    code, out, _ = run(synthetic + ["--bits", "96", "--format", "csv",
                                    "--out", str(csv_out)], capsys)
    assert (code, out) == (0, "")
    code, _, _ = run(["xi", "--N", "10", "--nmax", "3", "--kmax", "3",
                      "--bits", "128", "--zeros-out", str(zeros_out)],
                     capsys)
    assert code == 0 and zeros_out.exists()
    written = csv_out.read_bytes(), zeros_out.read_bytes()
    assert run(synthetic, capsys) == fresh
    assert (csv_out.read_bytes(), zeros_out.read_bytes()) == written
    assert build_parser.cache_info().currsize == 1
    assert build_parser() is build_parser()
