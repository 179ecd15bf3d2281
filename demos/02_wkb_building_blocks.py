"""
WKB building blocks: phases, amplitudes, connection matrices
============================================================

Between turning points the solutions are exponentials of the action
dressed by an amplitude series in h.  This demo computes the pieces
that the quantization condition is assembled from: the phase across
the inner turning-point pair, the even/odd amplitude pair, the origin
series at the conical point, and
the Gamma-function branching matrix whose unitarity-like identity
|p|^2 - |q|^2 = 1 encodes flux conservation through the crossing.
"""

import math

from conires.actions import action_S01
from conires.model import ModelParams
from conires.wkb import amplitude_recurrence, branching_R, origin_series

P = ModelParams(1.0, 0.1, 0.5)

# --- the phase across the inner turning-point pair ---------------------
# Between r0 and r1 the phase is the action S01, in closed form through
# Carlson's integrals.  For real E it is purely imaginary: the solutions
# oscillate there, and e^{S01/h} is the diagonal of the transfer T1.
s01 = action_S01(P)
print(f"S01 = {s01.value:.10f}   (|S01|/h = {abs(s01.value) / P.h:.6f})")

# --- amplitude corrections shrink with h -------------------------------
# The even part of the amplitude starts at 1; its deviation is the
# first WKB correction and shrinks linearly when h halves at fixed
# physical coupling nu = h nu-tilde.
nu = 0.05
print("\n  h      |w_even - 1|")
prev = None
for h in (0.2, 0.1, 0.05):
    pair = amplitude_recurrence([0.2j, 0.9j], (1.0, h, nu / h), 4, sign=+1)
    dev = abs(pair.w_even - 1.0)
    note = "" if prev is None else f"   ratio {prev / dev:.2f}"
    print(f"  {h:4.2f}   {dev:.6e}{note}")
    prev = dev

# --- the origin series and its factorial envelope ----------------------
# At the conical point the amplitude has a convergent local series; its
# terms sit under an explicit K^n / n! times a geometric factor, so
# truncation error is controlled a priori.
tau = 1.0
x = 1j * nu * tau / 1.0
series = origin_series(P, x, 8)
K = 1.0 + 3.0 * nu * nu * tau * tau
print("\n  n    |term_n|        envelope K^n/n! (tau/(1+tau))^n")
for n in range(0, 9, 2):
    cap = K ** n / math.factorial(n) * (tau / (1.0 + tau)) ** n
    print(f"  {n}    {abs(series.terms[n]):.3e}      {cap:.3e}")

# --- the branching matrix ----------------------------------------------
# Crossing the conical point mixes the two WKB branches through
# Gamma-function coefficients p and q.  The exact identity
# |p|^2 - |q|^2 = 1 holds for every coupling and h; the transition
# ratio |q/p| = e^{-pi x} is the Landau-Zener-type factor.
print("\n  |gamma|^2/2h   | |p|^2-|q|^2 - 1 |   |q/p|")
for kappa in (0.01, 0.1, 1.0, 5.0):
    h = 0.1
    gamma = math.sqrt(2.0 * h * kappa)
    m = branching_R(gamma, h)
    p, q = m.entry(1, 1), m.entry(1, 2)
    print(f"  {kappa:10.2f}     {abs(abs(p)**2 - abs(q)**2 - 1):.2e}"
          f"            {abs(q / p):.4e}")
