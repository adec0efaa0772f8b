"""Moments of polynomials with prescribed zeros, three ways, plus grids.

The cleanest way to see the machinery work is on a finite zero set, where
every quantity has a closed form.  This script builds a few such sets,
computes their moment sequences by zero sums, by the coefficient recursion,
and by the determinant cross-check, and then certifies positivity grids,
including one deliberately inadmissible set that the grid catches.

Run:  python demos/synthetic_walkthrough.py
"""

from fractions import Fraction

import mpmath
from mpmath import mp, mpf, mpc

from momentsieve import (
    ZeroSet,
    admissibility,
    build_grid,
    grid_report,
    moments_by_determinant,
    moments_by_recursion,
    moments_from_zeros,
    product_to_series,
)

mp.prec = 192
show = lambda x, n=12: mpmath.nstr(mpf(x), n)

print("=== the worked two-zero example ===")
zs = ZeroSet.from_zeros([2, 3])
series = product_to_series(zs)
print("f(z) = (1 + z/2)(1 + z/3) expands to", [show(c, 8) for c in series.coeffs])
print("      (exactly [1, 5/6, 1/6] =", [float(Fraction(1)), 5 / 6, 1 / 6], ")")

m_direct = moments_from_zeros(zs, 4)
m_rec = moments_by_recursion(series.padded(6), 4)
print("\nmoments m_k = 2^-(k+2) + 3^-(k+2):")
for k in range(5):
    det = moments_by_determinant(series.padded(6), k)
    print(f"  m_{k}: zero-sum {show(m_direct.m[k])}  recursion "
          f"{show(m_rec.m[k])}  determinant {show(det)}")

grid = build_grid(moments_from_zeros(zs, 12), 1, 6, 6)
print("\n7x7 grid at L = 1:", grid.verdict)
print("smallest cell:", grid.min_cell[:2], "value", show(grid.min_cell[2], 8))

print("\n=== a conjugate pair is completed automatically ===")
report = admissibility([mpc(2, 1)])
print("{2+i} ->", report.reason, " beta0 =", show(report.beta0, 8),
      " gamma0 =", show(report.gamma0, 8))
print("zeros stored:", report.zero_set.zeros)

print("\n=== a zero below the threshold is rejected with advice ===")
report = admissibility([mpf("0.5")])
print("{0.5} -> accepted =", report.accepted)
print("suggested rescale: choose L >", show(report.suggested_scale_gt, 8),
      "and work with f(z/L)")

print("\n=== a wide-angle pair defeats complete monotonicity ===")
lam = mpf("3.9") * mpmath.exp(mpc(0, mpf("1.25")))
zs_bad = ZeroSet.from_zeros([lam])
print("zeros 3.9 e^(+-1.25i): gamma0 =", show(zs_bad.gamma0, 8),
      "> 1 and beta0 =", show(zs_bad.beta0, 8), "in (0,1), so admissible,")
print("but the zeros are far from the real axis and the moments oscillate:")
m_bad = moments_from_zeros(zs_bad, 10)
print("  m_0..m_3 =", [show(v, 6) for v in m_bad.m[:4]])
grid_bad = build_grid(m_bad, 1, 4, 6)
rep = grid_report(grid_bad)
print("verdict:", rep["verdict"], " first violation:", rep["first_violation"])
print("(a certified negative cell is a proof that some zero is off the "
      "negative real axis)")
