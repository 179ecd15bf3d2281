"""
Turning points and action integrals
===================================

The spectral problem lives on the energy surface (E - x^2)^2 = nu^2 / x^2.
Squaring away the 1/x gives a monic cubic in y = x^2 whose three roots
are the squared turning points.  Everything downstream (WKB phases,
quantization, resonance positions) is built from contour integrals of
the square root of that cubic, so this demo starts the tour there.
"""

import cmath
import math

from conires.actions import action_I, action_S01, action_S2inf, residue_R, \
    tunnel_T
from conires.model import turning_points

# --- turning points at a generic sub-critical coupling -----------------
# Three real roots appear whenever nu^2 < 4 E^3 / 27; the discriminant
# D3 changes sign exactly at that threshold.
E, nu = 2.0, 0.5
tp = turning_points(E, nu)
print(f"E = {E}, nu = {nu}")
print(f"discriminant D3 = {tp.D3.real:.6f} (> 0: three real roots)")
for j in range(3):
    print(f"  r{j} = {tp.r[j].real:.10f}")

# The ordering 0 < r0 < r1 < sqrt(E) < r2 pins which pair bounds the
# classically forbidden region.
assert tp.r0.real < tp.r1.real < math.sqrt(E) < tp.r2.real

# --- the two actions that drive quantization ---------------------------
# S01 connects the inner pair of turning points (the barrier), S2inf
# runs from the outer turning point to infinity (the escape direction).
s01 = action_S01((E, nu))
s2 = action_S2inf((E, nu))
print(f"\nS01   = {s01.value:.12f}  (est. error {s01.est_error:.1e}, "
      f"{s01.n_evals} evaluations)")
print(f"S2inf = {s2.value:.12f}  (est. error {s2.est_error:.1e})")

# S01 is purely imaginary on the real spectrum side; its size against h
# sets the resonance width later on.
print(f"Re S01 = {s01.value.real:.2e} (imaginary action)")

# --- the dimensionless profile I(mu) and its two-term law --------------
# After scaling E out, both actions reduce to one function of
# mu = nu / E^{3/2}.  For small mu it follows 2/3 + pi mu / 2 up to
# O(mu^2 log mu); the fitted constant stays of order one.
print("\n  mu        I(mu)           two-term law    deficit/mu^2(1+|ln mu|)")
for mu in (1e-1, 1e-2, 1e-3, 1e-4):
    val = action_I(mu).value
    law = 2.0 / 3.0 + math.pi * mu / 2.0
    scale = mu * mu * (1.0 + abs(math.log(mu)))
    print(f"  {mu:7.0e}  {val.real:.10f}  {law:.10f}  "
          f"{abs(val - law) / scale:.3f}")

# --- analytic continuation closes on itself ----------------------------
# Continuing mu around a half turn picks up a computable residue term
# and a tunneling term; the three-piece identity closes to roundoff.
mu = 0.05
lhs = action_I(mu * cmath.exp(1j * math.pi)).value
rhs = action_I(mu).value + residue_R(mu) + tunnel_T(mu).value
print(f"\nmonodromy closure at mu = {mu}: defect {abs(lhs - rhs):.2e}")
