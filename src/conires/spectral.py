"""Complex-scaled Chebyshev locator for the zeros of the outgoing Jost
coefficient c+.

Complex scaling (Aguilar-Combes 1971, Balslev-Combes 1971) turns a
resonance into an eigenvalue. On the ray x = e^{-i theta} t the outgoing
solution e^{+i(x^3-3Ex)/3h} grows, so at a zero of c+ the regular
solution is the recessive one and decays like e^{-sin(3 theta) t^3/3h}:
it is an eigenfunction of the rotated problem with u = 0 at the end of a
long enough box. With x = e^{-i theta} s^2, s in [0, S], and
x d/dx = (s/2) d/ds, multiplying hD_x u = A(x)u by x sigma3 gives the
generalized problem

    L u = E M u,  L = i sigma3 h (s/2) d/ds + x^3 + nu sigma1,  M = x.

The regular solution x^{nu_tilde} is a polynomial in s for half-integer
nu_tilde, so Chebyshev collocation in s (Trefethen, Spectral Methods in
MATLAB) resolves it spectrally. The collocation row at s = 0 reads
nu sigma1 u = 0 and enforces regularity by itself; dropping the node
s = S imposes u = 0 there. Under x = h^{1/3} y, E = h^{2/3} e the
problem is h-free, so the box S^2 scales as h^{1/3} and the node count
depends on Lambda = lambda/h only.

locate_zero does not solve the whole pencil. It factors L - sigma M once
at the seed sigma and runs inverse iteration at that fixed shift, which
converges to the eigenvalue nearest sigma at the rate
|E_1 - sigma|/|E_2 - sigma| of the two nearest ones. A seed halfway
between two zeros has a rate near one and raises NoConvergence instead
of sliding to one neighbour as Rayleigh-quotient shifts would.
find_resonance_ode centres the Jost ring on the eigenvalue and solves
c+ at the eigenvalue in the same batch. |c+| there is 2.4e-11, 2.1e-11
and 3.1e-9 of the ring median at |Lambda| ~ 14, 23 and 42, inside the
1e-8 winding certificate, so the eigenvalue is the certified zero;
where it is not, rings re-centred on the Newton points of their Cauchy
sums refine it.
At theta = 0.35 and 0.45 the rotated problem loses precision past
|Lambda| ~ 45, to double-precision non-normality rather than resolution.
That was measured only at those angles and is no limit of the problem,
whose pseudospectra widen with theta: between theta = 0.12 and 0.15 the
spread of the full eigensolve stays at or below 1e-12 up to
Lambda = 74.8. The Jost oracle's floor, between |Lambda| ~ 57 and 67,
is its own.
"""

from __future__ import annotations

import cmath
import importlib
import math

import numpy as np

from .errors import NoConvergence
from .model import _as_params

_THETA = 0.35  # rotation angle of the scaled problem, x = e^{-i theta} s^2
_BOX_EFOLDS = 88.0  # decay of the eigenfunction at the box end s = S
_NODES = 32.0  # ceil(32 sqrt|Lambda|) collocation nodes
_LOCATE_TOL = 1e-12  # last eigenvalue update, relative to |E|


def _cheb(N):
    """Chebyshev points x_j = cos(pi j / N), j = 0..N, and the
    differentiation matrix on them (Trefethen, Spectral Methods in
    MATLAB, cheb.m)."""
    x = np.cos(math.pi * np.arange(N + 1) / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** np.arange(N + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    return D - np.diag(D.sum(axis=1)), x


def _shifted_pencil(sigma, h, nu, N):
    """L - sigma M on the nodes s_1..s_N (s_0 = S dropped), built in one
    Fortran-ordered array that the LU factorization overwrites, and the
    diagonal of M."""
    S = (3.0 * _BOX_EFOLDS * h / math.sin(3.0 * _THETA)) ** (1.0 / 6.0)
    D, xc = _cheb(N)
    s = 0.5 * S * (xc[1:] + 1.0)
    x = cmath.exp(-1j * _THETA) * s * s
    A = np.zeros((2 * N, 2 * N), dtype=complex, order="F")
    upper, lower = A[:N, :N], A[N:, N:]
    np.multiply(D[1:, 1:], (1j * h / S) * s[:, None], out=upper)
    np.negative(upper, out=lower)
    d = x ** 3 - sigma * x
    i = np.arange(N)
    A[i, i] += d
    A[i + N, i + N] += d
    A[i, i + N] = A[i + N, i] = nu
    return A, np.concatenate([x, x])


def _inverse_iteration(A, m, sigma, max_iter):
    """Eigenvalue estimate of the pencil (A + sigma M, M), M = diag(m),
    nearest sigma after at most max_iter solves with one LU factor of A,
    or None when it has not settled to 1e-12 relative."""
    linalg = importlib.import_module("scipy.linalg")
    lu = linalg.lu_factor(A, overwrite_a=True, check_finite=False)
    v = np.full(len(m), 1.0 / math.sqrt(len(m)), dtype=complex)
    E_prev = None
    for _ in range(max_iter):
        w = linalg.lu_solve(lu, m * v, check_finite=False)
        E = sigma + 1.0 / np.vdot(v, w)
        if not cmath.isfinite(E):
            return None
        if E_prev is not None and abs(E - E_prev) <= _LOCATE_TOL * abs(E):
            return complex(E)
        v = w / np.linalg.norm(w)
        E_prev = E
    return None


def locate_zero(params, max_iter):
    """Eigenvalue of the complex-scaled problem nearest params' E, by
    inverse iteration at that fixed shift.

    One LU factor of L - E M serves at most max_iter solves; the
    iteration stops when the eigenvalue estimate moves by less than
    1e-12 of its modulus and returns that estimate. Raises NoConvergence
    otherwise, notably from a seed on the ridge halfway between two
    zeros of c+. The matrices are gone by then: a caller that keeps the
    exception keeps none of them.
    """
    sigma, h, _, nu = _as_params(params, "half-integer")
    N = math.ceil(_NODES * math.sqrt(abs(sigma) ** 1.5 / h))
    E = _inverse_iteration(*_shifted_pencil(sigma, h, nu, N), sigma,
                           max_iter)
    if E is None:
        raise NoConvergence(
            f"inverse iteration at shift E={sigma:.6f} did not settle in "
            f"{max_iter} solves; the seed may sit between two zeros")
    return E
