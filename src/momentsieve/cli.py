"""Command-line front end.

Subcommands wire the pipelines together and emit deterministic reports:
numbers are rendered as full-precision decimal strings (never binary
floats), dictionaries are serialized with sorted keys, so identical
configurations produce byte-identical output.

Exit codes: 0 = no violation on the checked grid, 1 = usage or domain
error, 2 = a certified violation was found, 3 = inconclusive: a cell or a
coefficient ratio lies within its error radius of 0 (rerun with a larger
``--bits``), or the positivity hypothesis on the ratios failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional, Tuple

from mpmath import mpf, workprec

from . import dirichlet, moments, oracle, riemann
from .numkernel import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    decimal_str,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2
EXIT_INCONCLUSIVE = 3

DEFAULT_BITS = 256
#: below this the zero scan's steps and brackets no longer resolve
MIN_BITS = 16


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = _Parser(prog="moment-sieve",
                     description="finite moment-positivity checks for entire "
                                 "functions, the Riemann Xi function, and "
                                 "Dirichlet L-functions")
    common = _Parser(add_help=False)
    common.add_argument("--bits", type=int, default=DEFAULT_BITS,
                        help=f"working precision in bits "
                             f"(default {DEFAULT_BITS}, at least {MIN_BITS})")
    common.add_argument("--nmax", type=int, default=8,
                        help="grid depth in n (default 8)")
    common.add_argument("--kmax", type=int, default=8,
                        help="grid depth in k (default 8)")
    common.add_argument("--L", default="auto",
                        help="scale L (decimal string, or 'auto': "
                             "1.05 s_1^-2, and 1 for synthetic)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (default json)")
    common.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to PATH instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthetic", parents=[common],
                       help="oracle round-trip and grid check for a zero "
                            "fixture file")
    p.add_argument("zeros_file", help="text fixture: one 're im' per line")

    p = sub.add_parser("xi", parents=[common],
                       help="Riemann Xi moment pipeline")
    p.add_argument("--N", type=int, default=12,
                   help="coefficient depth a_0..a_N (default 12)")
    p.add_argument("--zeros-out", default=None, metavar="PATH",
                   help="export bracketed zero heights as an oracle fixture")

    p = sub.add_parser("dirichlet", parents=[common],
                       help="Dirichlet L-function moment pipeline")
    p.add_argument("--q", type=int, required=True, help="modulus")
    p.add_argument("--index", type=int, default=None,
                   help="character index (default: first primitive)")
    p.add_argument("--N", type=int, default=10,
                   help="product-coefficient depth b_0..b_N (default 10)")

    p = sub.add_parser("char-table", parents=[common],
                       help="character table for a modulus")
    p.add_argument("--q", type=int, required=True, help="modulus")

    return parser


# ---------------------------------------------------------------------------
# report helpers

def _emit(report, fmt: str, out: Optional[str], grid) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = _to_csv(report, grid)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _to_csv(report, grid) -> str:
    lines = []
    if grid is not None:
        lines.append("n,k,value,sign")
        for (n, k), cell in sorted(grid.cells.items()):
            lines.append(f"{n},{k},{decimal_str(cell.value, grid.bits)},"
                         f"{cell.sign}")
    elif "characters" in report:
        lines.append("index,order,parity,conductor,primitive,tau_re,tau_im")
        for c in report["characters"]:
            lines.append(",".join(str(c[key]) for key in
                                  ("index", "order", "parity", "conductor",
                                   "primitive", "tau_re", "tau_im")))
    else:
        lines.append("key,value")
        for key in sorted(report):
            lines.append(f"{key},{report[key]}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each runs at the working precision and returns its report
# and the grid it certified (None when it built none)

Report = Tuple[dict, Optional[moments.PositivityGrid]]


def cmd_synthetic(args, bits: int) -> Report:
    raw = oracle.load_zeros(args.zeros_file)
    if not raw:
        raise DomainError(f"{args.zeros_file}: no zeros found")
    admiss = oracle.admissibility(raw)
    if admiss.zero_set is None:
        zs = oracle.ZeroSet.from_zeros(raw)
    else:
        zs = admiss.zero_set
    L = mpf(1) if args.L == "auto" else mpf(args.L)
    M = args.nmax + args.kmax
    m_zero = oracle.moments_from_zeros(zs, M)
    series = oracle.product_to_series(zs).padded(M + 2)
    m_rec = moments.recursion_values(series, M)  # the report reads no radii
    abs_res = [abs(a - b) for a, b in zip(m_zero.m, m_rec)]
    scale = [abs(a) + abs(b) for a, b in zip(m_zero.m, m_rec)]
    max_abs = max(abs_res)
    max_rel = max(r / s if s > 0 else mpf(0)
                  for r, s in zip(abs_res, scale))
    grid = moments.build_grid(m_zero, L, args.nmax, args.kmax)
    report = {
        "command": "synthetic",
        "bits": bits,
        "zeros_file": args.zeros_file,
        "zeros": [[decimal_str(z.real, bits), decimal_str(z.imag, bits)]
                  for z in zs.zeros],
        "admissibility": admiss.to_dict(),
        "roundtrip": {
            "moments_compared": M + 1,
            "max_abs_residual": decimal_str(max_abs, bits),
            "max_rel_residual": decimal_str(max_rel, bits),
        },
        "grid": moments.grid_report(grid),
    }
    return report, grid


def _tail_report(tail: Optional[riemann.MomentTail], bits: int) -> dict:
    """The keys of a pipeline tail; all null when there is none."""
    if tail is None:
        return dict.fromkeys(riemann.MomentTail._fields)
    return {
        "s1": decimal_str(tail.s1, bits),
        "s1_radius": decimal_str(tail.s1_radius, bits),
        "L": decimal_str(tail.L, bits),
        "moments": [decimal_str(v, bits) for v in tail.moments.m],
        "grid": moments.grid_report(tail.grid),
    }


def cmd_xi(args, bits: int) -> Report:
    result = riemann.rh_moment_pipeline(
        args.N, args.L, args.nmax, args.kmax)
    if args.zeros_out:
        riemann.export_brackets(result.brackets, args.zeros_out)
    report = {
        "command": "xi",
        "bits": bits,
        "N": args.N,
        "brackets": [[decimal_str(b.lo, bits), decimal_str(b.hi, bits),
                      decimal_str(b.refined_root, bits)]
                     for b in result.brackets],
        "coefficients": [decimal_str(a, bits)
                         for a in result.coefficients.a],
        "coefficient_radii": [decimal_str(r, bits)
                              for r in result.coefficients.radii],
        **_tail_report(result.tail, bits),
    }
    return report, result.tail.grid


def _pick_character(q: int, index: Optional[int]) -> dirichlet.DirichletCharacter:
    chars = dirichlet.characters_mod(q)
    if index is None:
        for c in chars:
            if c.is_primitive and not c.is_principal:
                return c
        raise DomainError(f"no primitive character exists modulo {q}")
    if not 0 <= index < len(chars):
        raise DomainError(
            f"character index {index} out of range (0..{len(chars) - 1})")
    return chars[index]


def cmd_dirichlet(args, bits: int) -> Report:
    chi = _pick_character(args.q, args.index)
    result = dirichlet.grh_moment_pipeline(
        chi, args.N, args.L, args.nmax, args.kmax)
    tau = dirichlet.gauss_sum(chi)
    coeffs = result.coefficients
    report = {
        "command": "dirichlet",
        "bits": bits,
        "q": chi.q,
        "index": chi.index,
        "parity": chi.parity,
        "conductor": chi.conductor,
        "primitive": chi.is_primitive,
        "order": chi.order,
        "tau": [decimal_str(tau.real, bits), decimal_str(tau.imag, bits)],
        "N": args.N,
        "mu": coeffs.mu,
        "b_ratios": [decimal_str(r, bits) for r in result.b_ratios],
        "eq331_status": result.eq331_status,
        **_tail_report(result.tail, bits),
        "verdict": result.verdict,
    }
    return report, None if result.tail is None else result.tail.grid


def cmd_char_table(args, bits: int) -> Report:
    rows = []
    for c in dirichlet.characters_mod(args.q):
        tau = dirichlet.gauss_sum(c)
        rows.append({
            "index": c.index,
            "exponents": list(c.exponents),
            "order": c.order,
            "parity": c.parity,
            "conductor": c.conductor,
            "primitive": c.is_primitive,
            "tau_re": decimal_str(tau.real, bits),
            "tau_im": decimal_str(tau.imag, bits),
        })
    report = {
        "command": "char-table",
        "bits": bits,
        "q": args.q,
        "characters": rows,
    }
    return report, None


COMMANDS = {
    "synthetic": cmd_synthetic,
    "xi": cmd_xi,
    "dirichlet": cmd_dirichlet,
    "char-table": cmd_char_table,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        bits = args.bits
        if bits < MIN_BITS:
            raise DomainError(f"--bits must be at least {MIN_BITS}")
        with workprec(bits):
            report, grid = COMMANDS[args.command](args, bits)
        _emit(report, args.format, args.out, grid)
    except (DomainError, AccuracyError, ConsistencyError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if grid is None:  # a character table, or a failed positivity hypothesis
        return EXIT_OK if args.command == "char-table" else EXIT_INCONCLUSIVE
    counts = grid.counts()
    if counts["negative"]:
        return EXIT_VIOLATION
    if counts["zero-uncertain"]:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
