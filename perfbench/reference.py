"""Output checks against references that do not come from momentsieve.

* ``xi``: the first reported bracket must contain ``mpmath.zetazero(1)``.
* ``dirichlet``: ``s1`` must agree with the lowest zero of
  ``mpmath.dirichlet(1/2 + i t, chi)`` over both signs of ``t`` (the program
  scans chi and its conjugate and reports the lower height).
* ``synthetic``: every certified sign, cell by cell, must match the closed
  form ``cell(n,k) = sum_i lambda_i^-2 (L lambda_i)^-n (1 - 1/(L lambda_i))^k``,
  evaluated from the exact decimal inputs in fixed-point integer arithmetic
  with a proven error bound, at four times the run's bits or more.

Each checker returns a :class:`Check`.  A ``zero-uncertain`` cell is an
honest answer and never fails an operation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import mpmath

EXIT_OK, EXIT_VIOLATION, EXIT_INCONCLUSIVE = 0, 2, 3


@dataclass
class Check:
    ok: bool = True
    problems: List[str] = field(default_factory=list)
    wrong_sign: int = 0
    #: only false-negative cells on a near-boundary set: the recorded defect
    known_defect: bool = False

    def fail(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)


# ---------------------------------------------------------------------------
# Closed-form cell signs

def _fixed(x: Fraction, prec: int) -> int:
    return (x.numerator << prec) // x.denominator


def _mul(a: Tuple[int, int], b: Tuple[int, int], prec: int) -> Tuple[int, int]:
    return ((a[0] * b[0] - a[1] * b[1]) >> prec,
            (a[0] * b[1] + a[1] * b[0]) >> prec)


def _sign_table(zeros, L: Fraction, n_max: int, k_max: int,
                prec: int) -> Dict[Tuple[int, int], int]:
    """Signs of every cell at ``prec`` fractional bits; 0 where unresolved.

    Each zero lambda enters through w = 1/(L lambda) with |w| < 1 and
    |1 - w| < 1 (true whenever L Re(lambda) > 1), so every power in the
    tables has modulus <= 1 and the fixed-point entries carry an absolute
    error of at most ``err`` units of 2^-prec after the truncating products.
    A conjugate pair is summed once with weight 2.
    """
    terms = []
    for re, im in zeros:
        if im < 0:
            continue  # the partner of a listed upper-half zero
        lam2 = re * re + im * im
        w = (_fixed(re / (L * lam2), prec), _fixed(-im / (L * lam2), prec))
        one = 1 << prec
        step = (one - w[0], -w[1])
        start = (_fixed(L * L, prec), 0)  # lambda^-2 = L^2 w^2
        start = _mul(_mul(start, w, prec), w, prec)
        rows = [start]
        for _ in range(n_max):
            rows.append(_mul(rows[-1], w, prec))
        cols = [(one, 0)]
        for _ in range(k_max):
            cols.append(_mul(cols[-1], step, prec))
        terms.append((2 if im > 0 else 1, rows, cols))
    size = max(1, -(-(L * L).numerator // (L * L).denominator))
    signs = {}
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            total = 0
            bound = 0
            err = 4 * (n + k + 8)  # units of 2^-prec per table entry
            for weight, rows, cols in terms:
                p, c = rows[n], cols[k]
                total += weight * (p[0] * c[0] - p[1] * c[1])
                bound += weight * 2 * (2 * err * size + 1)
            # total is scaled by 2^(2 prec); bound by 2^prec
            if abs(total) > (bound << prec):
                signs[(n, k)] = 1 if total > 0 else -1
            else:
                signs[(n, k)] = 0
    return signs


def closed_form_signs(zeros, L, n_max: int, k_max: int,
                      bits: int) -> Dict[Tuple[int, int], int]:
    """Exact signs (+1/-1) of every cell for exact decimal ``zeros``.

    ``zeros`` are (re, im) decimal strings, conjugate partners included.
    The precision starts at max(1024, 4 * bits) fractional bits and doubles
    for cells the error bound cannot resolve.
    """
    exact = [(Fraction(re), Fraction(im)) for re, im in zeros]
    L = Fraction(L)
    for re, _ in exact:
        if not L * re > 1:
            raise ValueError("closed form needs L * Re(lambda) > 1")
    prec = max(1024, 4 * bits)
    signs = _sign_table(exact, L, n_max, k_max, prec)
    while any(s == 0 for s in signs.values()):
        prec *= 2
        if prec > 1 << 16:
            raise ArithmeticError("closed-form sign not resolved")
        finer = _sign_table(exact, L, n_max, k_max, prec)
        signs = {key: finer[key] if s == 0 else s for key, s in signs.items()}
    return signs


# ---------------------------------------------------------------------------
# Report checks

def _load(report_text: str, check: Check) -> Optional[dict]:
    try:
        return json.loads(report_text)
    except ValueError:
        check.fail("report is not JSON")
        return None


def _grid_exit(counts) -> int:
    if counts["negative"]:
        return EXIT_VIOLATION
    if counts["zero-uncertain"]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _check_grid_shape(grid: dict, op, exit_code, check: Check) -> None:
    """Counts, exit code and verdict must agree with the listed cells."""
    counts = grid["counts"]
    cells = (op.n_max + 1) * (op.k_max + 1)
    if sum(counts.values()) != cells:
        check.fail(f"counts {counts} do not add up to {cells} cells")
    if counts["negative"] != len(grid["cells_negative"]):
        check.fail("negative count differs from the listed negative cells")
    if exit_code != _grid_exit(counts):
        check.fail(f"exit code {exit_code} disagrees with counts {counts}")
    if (grid["n_max"], grid["k_max"]) != (op.n_max, op.k_max):
        check.fail("grid shape differs from the command line")


#: one letter per certified sign, as the worker records a grid's cells
SIGN_LETTERS = {"p": "positive", "n": "negative", "z": "zero-uncertain"}


def check_synthetic(report_text: str, exit_code, op, signs,
                    cells: Optional[str]) -> Check:
    """Every certified sign against the closed-form ``signs``.

    ``cells`` holds the certified sign of every cell, one letter of
    :data:`SIGN_LETTERS` per cell in (n, k) order, taken from the grid the
    program built; the report must agree with it.
    """
    check = Check()
    report = _load(report_text, check)
    if report is None:
        return check
    grid = report["grid"]
    _check_grid_shape(grid, op, exit_code, check)
    if cells is None or len(cells) != len(signs):
        check.fail("the certified signs of the grid were not recorded")
        return check
    certified = dict(zip(sorted(signs), cells))
    false_negative = sum(1 for key, c in certified.items()
                         if c == "n" and signs[key] > 0)
    false_positive = sum(1 for key, c in certified.items()
                         if c == "p" and signs[key] < 0)
    check.wrong_sign = false_negative + false_positive
    if check.wrong_sign:
        check.fail(f"{false_negative} cells certified negative and "
                   f"{false_positive} certified positive against the closed "
                   f"form")
    tally = {name: cells.count(letter)
             for letter, name in SIGN_LETTERS.items()}
    if tally != grid["counts"]:
        check.fail(f"counts {grid['counts']} differ from the certified "
                   f"grid {tally}")
    listed = sorted((n, k) for n, k, _ in grid["cells_negative"])
    if listed != [key for key, c in certified.items() if c == "n"]:
        check.fail("listed negative cells differ from the certified grid")
    first = listed[0] if listed else None
    reported = grid["first_violation"]
    if (tuple(reported) if reported else None) != first:
        check.fail(f"first_violation {reported} is not the first listed "
                   f"negative cell {first}")
    if listed:
        expected = "criterion fails at ({},{})".format(*first)
    elif tally["zero-uncertain"]:
        expected = None
    else:
        expected = f"no violation up to ({op.n_max},{op.k_max})"
    if expected is not None and grid["verdict"] != expected:
        check.fail(f"verdict {grid['verdict']!r}, expected {expected!r}")
    check.known_defect = (not check.ok and op.family == "near-boundary"
                          and false_positive == 0
                          and len(check.problems) == 1)
    return check


def xi_first_zero(bits: int) -> mpmath.mpf:
    with mpmath.workprec(bits + 32):
        return +mpmath.zetazero(1).imag


def check_xi(report_text: str, exit_code, op, gamma1) -> Check:
    check = Check()
    report = _load(report_text, check)
    if report is None:
        return check
    grid = report["grid"]
    _check_grid_shape(grid, op, exit_code, check)
    with mpmath.workprec(op.bits + 32):
        lo, hi = (mpmath.mpf(v) for v in report["brackets"][0][:2])
        if not lo < gamma1 < hi:
            check.fail(f"first bracket [{lo}, {hi}] misses zetazero(1)")
        if not mpmath.mpf(report["L"]) * gamma1 ** 2 > 1:
            check.fail("L does not exceed s_1^-2")
    expected = f"no violation up to ({op.n_max},{op.k_max})"
    if grid["verdict"] != expected or grid["counts"]["zero-uncertain"]:
        check.fail(f"verdict {grid['verdict']!r}, expected {expected!r} "
                   f"with no uncertain cell")
    return check


# ---------------------------------------------------------------------------
# Dirichlet L-functions, computed from scratch for a prime modulus

def _primitive_root(q: int) -> int:
    for g in range(2, q):
        if len({pow(g, j, q) for j in range(q - 1)}) == q - 1:
            return g
    raise ValueError(f"no primitive root mod {q}")


def character_values(q: int, index: int) -> List[mpmath.mpc]:
    """chi(0..q-1) for chi(g) = exp(2 pi i index / (q-1)), q prime.

    The labelling of a character and its conjugate may differ from the
    program's, which does not matter: the reference height covers both.
    """
    g = _primitive_root(q)
    values = [mpmath.mpc(0)] * q
    for j in range(q - 1):
        values[pow(g, j, q)] = mpmath.expjpi(mpmath.mpf(2 * index * j) / (q - 1))
    return values


def _z_function(q: int, chi: List[mpmath.mpc]):
    """Real-valued t -> epsilon^(-1/2) xi(1/2 + it, chi) for primitive chi."""
    kappa = 0 if abs(chi[q - 1] - 1) < 0.5 else 1
    tau = mpmath.fsum(chi[n] * mpmath.expjpi(mpmath.mpf(2 * n) / q)
                      for n in range(1, q))
    root = mpmath.sqrt(tau / (mpmath.j ** kappa * mpmath.sqrt(q)))

    def z(t):
        s = mpmath.mpc(0.5, t)
        half = (s + kappa) / 2
        xi = (mpmath.mpf(q) / mpmath.pi) ** half * mpmath.gamma(half) \
            * mpmath.dirichlet(s, chi)
        return (xi / root).real

    return z


#: scan step and ceiling of the first-zero search: for a small modulus the
#: low zeros of L(s, chi) lie below 40 and far more than a step apart, so the
#: first sign change brackets the lowest zero alone
_SCAN_STEP = 0.25
_SCAN_MAX = 40.0


def dirichlet_first_zero(q: int, index: int, bits: int):
    """Lowest |t| > 0 with L(1/2 + it, chi) = 0, refined to ``bits + 32``.

    Walks t upwards on both sides of 0 at double precision until the real
    Z-function changes sign, then refines that zero by the Illinois method.
    """
    with mpmath.workprec(53):
        z = _z_function(q, character_values(q, index))
        t = _SCAN_STEP / 2
        prev = {1: z(t), -1: z(-t)}
        bracket = None
        while bracket is None:
            if t + _SCAN_STEP > _SCAN_MAX:
                raise ValueError(
                    f"no zero of L(s, chi_{q}.{index}) below {_SCAN_MAX}")
            for sign in (1, -1):
                v = z(sign * (t + _SCAN_STEP))
                if bracket is None and prev[sign] * v < 0:
                    bracket = (t, t + _SCAN_STEP, sign)
                prev[sign] = v
            t += _SCAN_STEP
    lo, hi, sign = bracket
    with mpmath.workprec(bits + 32):
        z = _z_function(q, character_values(q, index))
        root = mpmath.findroot(lambda t: z(sign * t), (lo, hi),
                               solver="illinois")
        return +abs(root)


def check_dirichlet(report_text: str, exit_code, op, s1_ref) -> Check:
    check = Check()
    report = _load(report_text, check)
    if report is None:
        return check
    grid = report["grid"]
    if grid is None:
        check.fail("no grid: the coefficient-ratio gate failed")
        return check
    _check_grid_shape(grid, op, exit_code, check)
    with mpmath.workprec(op.bits + 32):
        s1 = mpmath.mpf(report["s1"])
        tol = mpmath.mpf(2) ** (-(op.bits // 2 - 8))
        if abs(s1 - s1_ref) > tol:
            check.fail(f"s1 = {report['s1']} is {mpmath.nstr(abs(s1 - s1_ref), 5)}"
                       f" from the first zero of L(1/2+it, chi)")
        if not mpmath.mpf(report["L"]) * s1_ref ** 2 > 1:
            check.fail("L does not exceed s_1^-2")
    expected = f"no violation up to ({op.n_max},{op.k_max})"
    if grid["verdict"] != expected or grid["counts"]["zero-uncertain"]:
        check.fail(f"verdict {grid['verdict']!r}, expected {expected!r} "
                   f"with no uncertain cell")
    parity = op.index % 2  # chi(-1) = (-1)^index for a prime modulus
    if report["parity"] != parity:
        check.fail(f"parity {report['parity']}, expected {parity}")
    return check
