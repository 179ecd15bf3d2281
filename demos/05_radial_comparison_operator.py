"""
The radial comparison operator and its exact scaling law
========================================================

Near the bottom of the spectrum the full problem is governed by a
scalar radial operator with potential r plus centrifugal term.  Its
eigenvalues admit a closed form through the same Bohr-Sommerfeld
machinery, and the substitution r = h^{2/3} s removes h from the
problem entirely: every eigenvalue is an h-free constant times
h^{2/3}.  The oracle uses exactly that: one eigensolve of the scaled
problem, times h^{2/3}.  With u = s^{l+1/2} f it is a symmetric
Jacobi-Galerkin eigenproblem on 6 S^{3/4} basis functions, or
0.4 S sqrt(e_top) + 20 where that is more, S the box and e_top the
scaled window top.  The demo shows the closed form,
the eigensolve oracle, their agreement, and the scaling law that
makes "error decreasing faster than h" impossible for any method.
"""

from conires.ode_oracle import pplus_eigen_oracle
from conires.quantization import pplus_levels

l, h = 1, 0.01

# --- closed form vs eigensolve oracle ----------------------------------
# The lowest closed-form entry (k = 0) sits below the well bottom of
# its own potential and matches nothing; physical eigenvalues pair with
# the predictions one index up.
preds = pplus_levels(h, l, range(0, 4))
window = (0.5 * preds[0], 1.2 * preds[-1])
eigs = pplus_eigen_oracle(l, h, window)
print(f"l = {l}, h = {h}")
print(f"closed form (k = 0..3): {[f'{p:.6f}' for p in preds]}")
print(f"eigensolve oracle:      {[f'{e:.6f}' for e in eigs]}")
print("\n  oracle value   nearest prediction   |delta|")
for ev in eigs[:3]:
    near = min(preds, key=lambda p: abs(p - ev))
    print(f"  {ev:.6f}       {near:.6f}             {abs(ev - near):.2e}")

# --- the h^{2/3} law ----------------------------------------------------
# Halving h multiplies every eigenvalue by exactly 2^{-2/3}; so the
# oracle-vs-formula error also scales by 2^{-2/3} = 0.63, slower than
# h.  Measured:
e1 = pplus_eigen_oracle(l, 0.02, (0.5 * preds[0] * 2 ** (2 / 3),
                                  1.2 * preds[-1] * 2 ** (2 / 3)))[0]
e2 = eigs[0]
print(f"\nlowest eigenvalue at h = 0.02: {e1:.8f}")
print(f"lowest eigenvalue at h = 0.01: {e2:.8f}")
print(f"ratio = {e2 / e1:.6f}, exact 2^(-2/3) = {2 ** (-2.0 / 3.0):.6f}")
p1 = min(pplus_levels(0.02, l, range(0, 4)), key=lambda p: abs(p - e1))
p2 = min(pplus_levels(0.01, l, range(0, 4)), key=lambda p: abs(p - e2))
print(f"error ratio under h-halving: {abs(e2 - p2) / abs(e1 - p1):.6f} "
      "(same 0.63: the error is a fixed multiple of h^{2/3})")
