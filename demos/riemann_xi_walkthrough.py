"""The Riemann Xi function through its positive kernel.

Xi(s) = 2 int_0^inf Phi(u) cos(us) du with a positive, doubly exponentially
decaying kernel Phi.  The even Taylor coefficients a_n are moments of Phi,
the moment sequence m_k = sum s_rho^(-(2k+4)) over the Xi zeros comes out
of the coefficient recursion, and complete monotonicity of the rescaled
sequence is the finite-grid surrogate for all zeros being real.

This is a walkthrough at modest precision (128 bits); the acceptance suite
runs the deeper 512-bit version.

Run:  python demos/riemann_xi_walkthrough.py   (about a minute)
"""

import mpmath
from mpmath import mp, mpf

from momentsieve.riemann import (
    bracket_zeros,
    phi,
    rh_moment_pipeline,
    xi_eval,
    zero_sum_moment,
    zero_sum_tail_bound,
)

mp.prec = 128
show = lambda x, n=12: mpmath.nstr(mpf(x), n)

print("=== the kernel ===")
for u in ("0", "0.5", "1", "2"):
    print(f"  Phi({u}) = {show(phi(mpf(u)), 10)}")
print("Phi is even and positive; beyond u ~ 3 it underflows any fixed")
print("scale gracefully:  Phi(3) =", mpmath.nstr(phi(3), 4))

print("\n=== Xi on the real axis ===")
print("  Xi(0)    =", show(xi_eval(0), 10), " (the central value xi(1/2))")
print("  Xi(14)   =", show(xi_eval(14), 6))
print("  Xi(14.3) =", show(xi_eval(mpf("14.3")), 6))
print("the sign change brackets the first zero.")

print("\n=== bracketing zeros by sign scan + safeguarded Newton ===")
brackets = bracket_zeros(30)
for i, b in enumerate(brackets):
    print(f"  s_{i + 1} = {show(b.refined_root, 14)}")

print("\n=== the moment pipeline ===")
result = rh_moment_pipeline(10, "auto", 3, 3)
print("s_1 =", show(result.s1, 14))
print("L   =", show(result.L, 10), " (1.05 * s_1^-2; anything above s_1^-2 works)")
print("coefficients a_0..a_3:", [show(a, 8) for a in result.coefficients.a[:4]])
print("moments m_0..m_3:     ", [show(v, 8) for v in result.moments.m[:4]])

truncated = zero_sum_moment(brackets, 0)
print("\nm_0 against the truncated zero sum over the brackets above:")
print("  recursion ", show(result.moments.m[0], 10))
print("  sum s^-4  ", show(truncated, 10))
print("  difference", show(abs(result.moments.m[0] - truncated), 4),
      "<= tail bound", show(zero_sum_tail_bound(30, 0), 4))

print("\ngrid verdict:", result.grid.verdict)
print("(no violation: complete monotonicity holds as far as this grid sees,")
print(" which is exactly what the riemann hypothesis predicts at any depth)")
