"""Dirichlet characters, Gauss sums, and the L-function moment pipeline.

Characters live as exact root-of-unity exponents over the unit-group
decomposition, so Gauss sums and orthogonality are exact up to one final
rounding.  For a primitive character the completed L-function has a theta
kernel phi(y, chi); products of the kernel moments give the even series of
f(s, chi) = xi(1/2+is, chi) xi(1/2+is, conj chi), and the same grid
machinery as for Xi decides complete monotonicity to finite depth.

Run:  python demos/dirichlet_walkthrough.py   (about a minute)
"""

import mpmath
from mpmath import mp, mpf

from momentsieve.dirichlet import (
    char_coeffs,
    characters_mod,
    first_zero_height,
    gauss_sum,
    grh_moment_pipeline,
    phi_char,
    z_char_eval,
)

mp.prec = 128
show = lambda x, n=10: mpmath.nstr(x, n)

print("=== character tables ===")
for q in (3, 4, 6, 8):
    rows = [(c.index, c.order, c.parity, c.conductor, c.is_primitive)
            for c in characters_mod(q)]
    print(f"q = {q}: (index, order, parity, conductor, primitive) = {rows}")
print("note q = 6: the nontrivial character is induced from modulus 3,")
print("so it is excluded from the analytic pipeline.")

print("\n=== Gauss sums ===")
chi3 = characters_mod(3)[1]
chi4 = characters_mod(4)[1]
for chi, q in ((chi3, 3), (chi4, 4)):
    tau = gauss_sum(chi)
    print(f"  tau(chi_{q}) = {show(tau)}   |tau|^2 - q = "
          f"{show(abs(tau) ** 2 - q, 3)}")

print("\n=== the theta kernel ===")
print("phi(0, chi_3)   =", show(phi_char(mpf(0), chi3).real))
print("phi(0.5, chi_3) =", show(phi_char(mpf("0.5"), chi3).real))
print("phi(5, chi_3)   =", show(phi_char(mpf(5), chi3).real, 3),
      " (doubly exponential decay)")

print("\n=== coefficients and the parity layout ===")
coeffs = char_coeffs(chi3, 6)
print("a_0..a_4(chi_3):", [show(abs(a), 6) for a in coeffs.a[:5]])
print("odd indices vanish (the root number is +1, the kernel is even),")
print("so mu =", coeffs.mu, "and b_n/b_0 are the even-series ratios.")

print("\n=== locating the lowest zero ===")
print("Z(8, chi_3) =", show(z_char_eval(8, chi3), 6))
print("Z(9, chi_3) =", show(z_char_eval(9, chi3), 6))
s1 = first_zero_height(chi3).refined_root
print("sign change -> s_1(chi_3) =", show(s1, 12))

print("\n=== the full pipeline, q = 3 and q = 4 ===")
for q in (3, 4):
    chi = characters_mod(q)[1]
    result = grh_moment_pipeline(chi, 6, "auto", 2, 2)
    print(f"q = {q}: ratio positivity {result.eq331_status}; "
          f"s_1 = {show(result.tail.s1, 10)}; {result.verdict}")
    print(f"        m_0..m_2 = "
          f"{[show(v, 6) for v in result.tail.moments.m[:3]]}")
print("(clean grids are what the generalized riemann hypothesis predicts)")
