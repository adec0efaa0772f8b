"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``.

They need neither momentsieve nor a benchmark run: the generator, the
closed-form checker and the span arithmetic are tested on their own.
"""

import json
import types
from fractions import Fraction

import pytest

import reference
import spans
import workloads


# ---------------------------------------------------------------------------
# generator

def test_generator_is_deterministic_per_seed(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    ops_a = workloads.generate("synthetic-grid", 11, first)
    ops_b = workloads.generate("synthetic-grid", 11, second)
    assert [op.zeros for op in ops_a] == [op.zeros for op in ops_b]
    for a, b in zip(sorted(first.iterdir()), sorted(second.iterdir())):
        assert a.read_text() == b.read_text()
    other = workloads.synthetic_sets(12)
    assert [z for _, z in other] != [op.zeros for op in ops_a]


def test_fixed_workloads_ignore_the_seed(tmp_path):
    for name in ("xi", "dirichlet-sweep"):
        assert workloads.generate(name, 1, tmp_path) == \
            workloads.generate(name, 2, tmp_path)


def test_synthetic_families_follow_their_spec():
    sets = workloads.synthetic_sets(3)
    counts = {}
    for family, zeros in sets:
        counts[family] = counts.get(family, 0) + 1
        reals = [Fraction(re) for re, im in zeros if im == "0"]
        if family == "real":
            assert 5 <= len(zeros) <= 20
            assert all(Fraction(3, 2) <= r <= 100 for r in reals)
        elif family == "near-boundary":
            assert 5 <= len(zeros) <= 20
            assert all(1 < r <= Fraction(1002, 1000) for r in reals)
        else:
            pair = [(Fraction(re), Fraction(im)) for re, im in zeros
                    if im != "0"]
            assert len(pair) == 2 and pair[0][1] == -pair[1][1]
            x, y = pair[0][0], abs(pair[0][1])
            assert Fraction(3, 2) <= x <= 30
            assert Fraction(5, 100) <= y / x <= Fraction(6, 10)
    assert counts == dict(workloads.FAMILY_SIZES)


# ---------------------------------------------------------------------------
# closed-form reference and the synthetic checker

def _exact_complex_cell(zeros, n, k):
    """The cell by exact Gaussian-rational arithmetic (pairs included)."""
    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    total = Fraction(0)
    for re, im in zeros:
        re, im = Fraction(re), Fraction(im)
        norm = re * re + im * im
        w = (re / norm, -im / norm)
        term = mul(w, w)
        for _ in range(n):
            term = mul(term, w)
        step = (1 - w[0], -w[1])
        for _ in range(k):
            term = mul(term, step)
        total += term[0]
    return total


def test_closed_form_matches_exact_rationals():
    zeros = [("2", "0"), ("1.5", "0.9"), ("1.5", "-0.9"), ("7.25", "0")]
    signs = reference.closed_form_signs(zeros, 1, 6, 6, 64)
    for (n, k), s in signs.items():
        exact = _exact_complex_cell(zeros, n, k)
        assert s == (1 if exact > 0 else -1), (n, k)
    assert any(s < 0 for s in signs.values())


def test_three_near_boundary_zeros_are_positive_everywhere():
    zeros = [("1.0006", "0"), ("1.0009", "0"), ("1.0013", "0")]
    signs = reference.closed_form_signs(zeros, 1, 25, 25, 256)
    assert all(s > 0 for s in signs.values())
    assert _exact_complex_cell(zeros, 0, 25) > 0


def _report(n_max, k_max, negatives, uncertain=()):
    """A report and the recorded cell signs of a grid with these cells."""
    keys = [(n, k) for n in range(n_max + 1) for k in range(k_max + 1)]
    cells = "".join("n" if key in negatives else
                    "z" if key in uncertain else "p" for key in keys)
    first = list(min(negatives)) if negatives else None
    if negatives:
        verdict = "criterion fails at ({},{})".format(*first)
    elif uncertain:
        verdict = "inconclusive; escalate precision or shrink grid"
    else:
        verdict = f"no violation up to ({n_max},{k_max})"
    grid = {"n_max": n_max, "k_max": k_max,
            "counts": {"positive": cells.count("p"),
                       "negative": len(negatives),
                       "zero-uncertain": len(uncertain)},
            "cells_negative": [[n, k, "-1e-70"] for n, k in negatives],
            "first_violation": first, "verdict": verdict}
    exit_code = 2 if negatives else (3 if uncertain else 0)
    return json.dumps({"grid": grid}), exit_code, cells


def _op(zeros, family="real", grid=4):
    return workloads.Op(argv=("synthetic",), kind="synthetic", bits=256,
                        n_max=grid, k_max=grid, family=family,
                        zeros=tuple(zeros))


def _check(report, op, signs):
    text, code, cells = report
    return reference.check_synthetic(text, code, op, signs, cells)


def test_checker_accepts_right_signs_and_flags_an_injected_wrong_one():
    zeros = [("2", "0"), ("3", "0")]
    op = _op(zeros)
    signs = reference.closed_form_signs(zeros, 1, 4, 4, 256)
    assert _check(_report(4, 4, []), op, signs).ok

    wrong = _report(4, 4, [(1, 3)])
    check = _check(wrong, op, signs)
    assert not check.ok and check.wrong_sign == 1
    assert not check.known_defect  # a real-family set is not the defect

    check = _check(wrong, _op(zeros, family="near-boundary"), signs)
    assert not check.ok and check.wrong_sign == 1 and check.known_defect


def test_checker_flags_a_negative_cell_certified_positive():
    zeros = [("2", "0"), ("1.5", "0.9"), ("1.5", "-0.9")]
    op = _op(zeros, family="violation")
    signs = reference.closed_form_signs(zeros, 1, 4, 4, 256)
    negatives = sorted(key for key, s in signs.items() if s < 0)
    positives = sorted(key for key, s in signs.items() if s > 0)
    assert negatives and positives
    assert _check(_report(4, 4, negatives), op, signs).ok
    # dropping one negative cell makes it a certified positive ...
    check = _check(_report(4, 4, negatives[1:]), op, signs)
    assert check.wrong_sign == 1 and not check.known_defect
    # ... unless that cell is the uncertain one
    assert _check(_report(4, 4, negatives[1:], [negatives[0]]), op, signs).ok
    # an uncertain positive cell does not excuse it
    check = _check(_report(4, 4, negatives[1:], [positives[0]]), op, signs)
    assert check.wrong_sign == 1 and not check.ok


def test_checker_flags_inconsistent_bookkeeping():
    zeros = [("2", "0"), ("3", "0")]
    op = _op(zeros)
    signs = reference.closed_form_signs(zeros, 1, 4, 4, 256)
    text, _, cells = _report(4, 4, [])
    check = reference.check_synthetic(text, 2, op, signs, cells)
    assert not check.ok and check.wrong_sign == 0
    # the report hides a negative cell the grid certified
    text, code, _ = _report(4, 4, [])
    _, _, cells = _report(4, 4, [(2, 2)])
    check = reference.check_synthetic(text, code, op, signs, cells)
    assert not check.ok and check.wrong_sign == 1
    assert len(check.problems) > 1
    # no recorded grid
    check = reference.check_synthetic(text, code, op, signs, None)
    assert not check.ok


# ---------------------------------------------------------------------------
# spans

def _span(name, start, end, parent, op=0):
    return (name, start, end, parent, op)


def test_self_time_arithmetic_on_a_hand_built_tree():
    tree = [
        _span("cli.main", 0, 100, -1),
        _span("riemann.bracket_zeros", 10, 60, 0),
        _span("riemann.xi_eval", 15, 25, 1),
        _span("riemann.phi", 17, 20, 2),
        _span("riemann.xi_eval", 30, 55, 1),
        _span("moments.build_grid", 70, 90, 0),
        _span("numkernel.certify_sign", 72, 80, 5),
    ]
    assert spans.self_times(tree) == [30, 15, 7, 3, 25, 12, 8]
    summary = spans.summarize(tree)
    assert summary["riemann.xi_eval"]["calls"] == 2
    assert summary["riemann.xi_eval"]["self_s"] == pytest.approx(32e-9)
    assert summary["riemann.xi_eval"]["s"] == pytest.approx(35e-9)
    layers = spans.layer_self(tree)
    assert layers == pytest.approx({"cli": 30e-9, "riemann": 50e-9,
                                    "moments": 12e-9, "numkernel": 8e-9})
    assert sum(layers.values()) == pytest.approx(100e-9)


def test_tracer_wraps_a_shared_function_once_and_nests_spans(tmp_path):
    def certify_sign(computation, policy):
        return types.SimpleNamespace(sign="positive", bits_used=512)

    certify_sign.__module__ = "momentsieve.numkernel"

    def build_grid():
        return [moments.certify_sign(None, types.SimpleNamespace(bits=256))
                for _ in range(3)]

    build_grid.__module__ = "momentsieve.moments"
    moments = types.SimpleNamespace(certify_sign=certify_sign,
                                    build_grid=build_grid)
    tracer = spans.Tracer()
    wrapped = tracer.wrap(certify_sign, spans._certify_note)
    assert tracer.wrap(certify_sign) is wrapped
    moments.certify_sign = wrapped
    moments.build_grid = tracer.wrap(build_grid)
    tracer.op = 4
    moments.build_grid()
    path = tmp_path / "spans.json"
    tracer.dump(path)
    tree, notes = spans.load(path)
    assert [s[0] for s in tree] == ["moments.build_grid"] + \
        ["numkernel.certify_sign"] * 3
    assert [s[3] for s in tree] == [-1, 0, 0, 0]
    assert {s[4] for s in tree} == {4}
    assert spans.certify_counts(notes) == {
        "escalated": 0, "uncertain": 0, "first_pair_frac": 1.0}


def test_certify_counts():
    notes = {0: ("positive", 512, 256), 1: ("negative", 1024, 256),
             2: ("zero-uncertain", 4096, 256), 3: ("positive", 512, 256)}
    assert spans.certify_counts(notes) == {
        "escalated": 2, "uncertain": 1, "first_pair_frac": 0.5}



def test_a_malformed_report_fails_its_op_without_stopping_the_run(tmp_path):
    import run
    checker = run.Checker()
    op = workloads.generate("xi", 1, tmp_path)[0]
    check = checker.check(op, {"raised": None, "report": "{}", "exit": 0})
    assert not check.ok and not check.known_defect
    assert (checker.attempted, checker.failed, checker.unexpected) == (1, 1, 1)
