"""Complex-scaled ultraspherical locator for the zeros of the outgoing
Jost coefficient c+.

Complex scaling (Aguilar-Combes 1971, Balslev-Combes 1971) turns a
resonance into an eigenvalue. On the ray x = e^{-i theta} t the outgoing
solution e^{+i(x^3-3Ex)/3h} grows, so at a zero of c+ the regular
solution is the recessive one and decays like e^{-sin(3 theta) t^3/3h}:
it is an eigenfunction of the rotated problem with u = 0 at the end of a
long enough box. With x = e^{-i theta} s^2, s in [0, S], and
x d/dx = (s/2) d/ds, multiplying hD_x u = A(x)u by x sigma3 gives the
generalized problem

    L u = E M u,  L = i sigma3 h (s/2) d/ds + x^3 + nu sigma1,  M = x.

Its coefficients are polynomials in s, so the ultraspherical method of
Olver and Townsend ("A fast and well-conditioned spectral method",
SIAM Rev. 55, 462 (2013)) makes the pencil banded. Each component is
u = sum_n a_n T_n(t), t = 2s/S - 1, n < N. In t, (s/2) d/ds is
((t + 1)/2) d/dt, x = e^{-i theta} S^2 (t + 1)^2/4 and
x^3 = e^{-3i theta} S^6 (t + 1)^6/64. The derivative takes T_n to
n C(1)_{n-1}, and (t + 1)/2 multiplies C(1) coefficients by
t C_n = (C_{n+1} + C_{n-1})/2. The terms without a derivative multiply
T coefficients by (t + 1)^2 and (t + 1)^6 in closed form, then convert
them to C(1) (S0). Each component keeps its first N - 1 C(1) equations
and closes with u(S) = 0 (T_n(1) = 1). No row is imposed at s = 0: the
regular solution x^{nu_tilde} = e^{-i theta nu_tilde} s^{2 nu_tilde} is a
polynomial in s for half-integer nu_tilde, and the singular x^{-nu_tilde}
has no Chebyshev expansion.

With the two components interleaved, the equation rows form a band of
14 sub- and 14 superdiagonals against a_1, a_2, ..; only the rows
u(S) = 0 are dense. The system is bordered on a_0 of each component:
LAPACK's zgbtrf factors the banded block once, and each solve is one
zgbtrs and a 2 x 2 Schur complement. Bordering on the last coefficient
instead leaves a banded block whose condition number reaches 1e16 from
N = 160; on the first it stays below 1e8 up to N = 250 at
nu_tilde = 1/2 and 3/2. A second closing row u(0) = 0, bordered on
a_0 and a_1, does as well at nu_tilde = 1/2 but not above: at
nu_tilde = 3/2 its banded block's condition number is 6e12 at N = 120.
Under x = h^{1/3} y, E = h^{2/3} e the problem is h-free, so the box S^2
scales as h^{1/3}, and N = ceil(28 sqrt|Lambda|) depends on
Lambda = lambda/h only. With 24 instead of 28 the located zero at
Lambda ~ 9 moves by 2e-11.

locate_zero does not solve the whole pencil. It factors L - sigma M once
at the seed sigma and runs inverse iteration at that fixed shift, which
converges to the eigenvalue nearest sigma at the rate
|E_1 - sigma|/|E_2 - sigma| of the two nearest ones. A seed halfway
between two zeros has a rate near one and raises NoConvergence instead
of sliding to one neighbour as Rayleigh-quotient shifts would.
find_resonance_ode centres the Jost ring on the eigenvalue and solves
c+ at the eigenvalue in the same batch. |c+| there is 5.0e-11, 2.4e-11
and 2.4e-9 of the ring median at |Lambda| ~ 14, 23 and 42, inside the
1e-8 winding certificate, so the eigenvalue is the certified zero;
where it is not, rings re-centred on the Newton points of their Cauchy
sums refine it. The solve runs on LAPACK's band routines and numpy's
einsum, and the located eigenvalue has the same bits at one and two
BLAS threads.
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
_NODES = 28.0  # ceil(28 sqrt|Lambda|) Chebyshev coefficients per component
_LOCATE_TOL = 1e-12  # last eigenvalue update, relative to |E|
_KL = _KU = 14  # sub- and superdiagonals of the banded block

# (1 + t)^k = 2^{-k} [C(2k, k) T_0 + 2 sum_{j=1..k} C(2k, k - j) T_j]
_ONE_PLUS_T_2 = np.array([6.0, 8.0, 2.0]) / 4.0
_ONE_PLUS_T_6 = np.array([924.0, 1584.0, 990.0, 440.0, 132.0, 24.0,
                          2.0]) / 64.0
# offsets d = n - j of the columns n that meet row j, band row order
_OFFSETS = np.arange(8, -7, -1)


def _converted_t(k, j, n):
    """Entries [j, n] of S0 M[T_k] for index arrays j, n >= 0. M[T_k]
    multiplies Chebyshev-T coefficients by T_k, T_k T_n = (T_{k+n} +
    T_|k-n|)/2, and S0 converts the product to C(1) coefficients,
    T_0 = C_0, T_1 = C_1/2, T_n = (C_n - C_{n-2})/2."""
    def times(j):
        return 0.5 * (j == k + n) + 0.5 * (j == np.abs(k - n))

    return np.where(j == 0, 1.0, 0.5) * times(j) - 0.5 * times(j + 2)


def _product_tables():
    """S0 M[T_k] on columns n = 0 .. 9 in rows n - d, d in _OFFSETS,
    for k = 0 .. 6; and on rows j = 0 .. 5 in columns j - 2 .. j + 4,
    for k = 0 .. 2. Entries outside the matrix are zero. Every later
    column repeats column 9, every later row row 5."""
    d, n = _OFFSETS[:, None], np.arange(10)
    columns = np.array([np.where(n >= d, _converted_t(k, n - d, n), 0.0)
                        for k in range(7)])
    j = np.arange(6)[:, None]
    n = j + np.arange(-2, 5)
    rows = np.array([np.where(n >= 0, _converted_t(k, j, n), 0.0)
                     for k in range(3)])
    return columns, rows


_COLUMNS, _ROWS = _product_tables()


def _shifted_operator(sigma, h, nu, N):
    """L - sigma M and M on the Chebyshev-T coefficients a_0 .. a_{N-1}
    of both components, interleaved (a_n of component c at 2n + c).
    Equation row 2j + c (j < N - 1) is the C(1) coefficient j of
    component c's equation. Returns the banded block (equation rows
    against a_1 ..) in LAPACK band storage, the border (the same rows
    against a_0) and the weights of M v, row j on a_{j-2} .. a_{j+4}."""
    S2 = (3.0 * _BOX_EFOLDS * h / math.sin(3.0 * _THETA)) ** (1.0 / 3.0)
    q = cmath.exp(-1j * _THETA) * S2 / 4.0  # x = q (t + 1)^2
    mass = q * _ONE_PLUS_T_2
    f = q ** 3 * _ONE_PLUS_T_6
    f[:3] -= sigma * mass
    scalar = np.einsum("k,kdn->dn", f, _COLUMNS)
    coupling = nu * _COLUMNS[0]
    # (s/2) d/ds = ((t + 1)/2) d/dt takes T_n to n (C_n/4 + C_{n-1}/2 +
    # C_{n-2}/4): offsets d = 2, 1, 0
    deriv = np.outer([0.25, 0.5, 0.25], 1j * h * np.arange(N))
    band = np.zeros((2 * _KL + _KU + 1, 2 * N - 2), dtype=complex,
                    order="F")
    # band[kl + ku + r - b, b] holds entry [r, b]; for row r = 2j + c and
    # column b = 2n + c' - 2 that is band row 30 - 2d + c - c'
    for rows, cols in ((band[14::2, 0::2], scalar), (band[14::2, 1::2],
                       scalar), (band[15::2, 0::2], coupling[:-1]),
                       (band[15::2, 1::2], coupling[1:])):
        rows[:] = cols[:, 9:]
        rows[:, :8] = cols[:, 1:9]
    band[26:31:2, 0::2] += deriv[:, 1:]
    band[26:31:2, 1::2] -= deriv[:, 1:]  # sigma3 = diag(1, -1)
    border = np.zeros((2 * N - 2, 2), dtype=complex)
    rows = -2 * _OFFSETS[8:]  # rows j = -d >= 0 meet a_0
    for c in (0, 1):
        border[rows + c, c] = scalar[8:, 0]
        border[rows + 1 - c, c] = coupling[8:, 0]
    rows = np.einsum("k,kjm->jm", mass, _ROWS)
    weights = np.empty((N - 1, 7), dtype=complex)
    weights[:] = rows[5]
    weights[:5] = rows[:5]
    return band, border, weights


def _bordered_solver(band, border):
    """Solver of the full system, the rows u(S) = 0 first, for
    right-hand sides that vanish on those rows, as M v does: solve(x)
    takes x of shape (2N, 1) with the equation rows' right-hand side in
    x[2:], overwrites x[2:] with the banded block's solve z and returns
    the solution. zgbtrf factors band in place; every product outside
    LAPACK is a sum or an einsum, which numpy computes without BLAS."""
    lapack = importlib.import_module("scipy.linalg.lapack")
    lu, piv, _ = lapack.zgbtrf(band, _KL, _KU, overwrite_ab=True)
    # the solution is x + lift a_0: a_0 itself, and a_1 .. = z - Y a_0
    # with Y the banded block's solve of the border
    lift = np.zeros((len(border) + 2, 2), dtype=complex)
    lift[:2] = np.eye(2)
    lift[2:] = -lapack.zgbtrs(lu, _KL, _KU, border, piv)[0]
    # u(S) = a_0 + sum(a_1 ..) = 0 of each component fixes a_0 through the
    # 2 x 2 Schur complement
    to_head = -np.linalg.inv(np.eye(2) + lift[2:].reshape(-1, 2, 2).sum(
        axis=0))

    def solve(x):
        lapack.zgbtrs(lu, _KL, _KU, x[2:], piv, overwrite_b=True)
        head = np.einsum("ik,k->i", to_head, x[2:].reshape(-1, 2).sum(axis=0))
        return x[:, 0] + np.einsum("bi,i->b", lift, head)

    return solve


def _inverse_iteration(sigma, h, nu, N, max_iter):
    """Eigenvalue estimate of the pencil (L, M) nearest sigma after at
    most max_iter solves with one bordered band LU factor of L - sigma M,
    or None when it has not settled to 1e-12 relative."""
    band, border, weights = _shifted_operator(sigma, h, nu, N)
    solve = _bordered_solver(band, border)
    # the flat start u = (1, 1): a vector of equal coefficients would be
    # orthogonal to every solve, whose coefficients sum to u(S) = 0
    padded = np.zeros((N + 6, 2), dtype=complex)
    v = padded[2:N + 2]
    v[0] = math.sqrt(0.5)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, 7, axis=0)[:N - 1]
    x = np.zeros((2 * N, 1), dtype=complex)
    E_prev = None
    for _ in range(max_iter):
        np.einsum("jck,jk->jc", windows, weights, out=x[2:].reshape(-1, 2))
        w = solve(x)
        E = sigma + 1.0 / np.vdot(v, w)
        if not cmath.isfinite(E):
            return None
        if E_prev is not None and abs(E - E_prev) <= _LOCATE_TOL * abs(E):
            return complex(E)
        np.divide(w.reshape(N, 2), math.sqrt(np.vdot(w, w).real), out=v)
        E_prev = E
    return None


def locate_zero(params, max_iter):
    """Eigenvalue of the complex-scaled problem nearest params' E, by
    inverse iteration at that fixed shift.

    One bordered band LU factor of L - E M serves at most max_iter
    solves; the iteration stops when the eigenvalue estimate moves by
    less than 1e-12 of its modulus and returns that estimate. Raises
    NoConvergence otherwise, notably from a seed on the ridge halfway
    between two zeros of c+. The matrices are gone by then: a caller
    that keeps the exception keeps none of them.
    """
    sigma, h, _, nu = _as_params(params, "half-integer")
    N = math.ceil(_NODES * math.sqrt(abs(sigma) ** 1.5 / h))
    E = _inverse_iteration(sigma, h, nu, N, max_iter)
    if E is None:
        raise NoConvergence(
            f"inverse iteration at shift E={sigma:.6f} did not settle in "
            f"{max_iter} solves; the seed may sit between two zeros")
    return E
