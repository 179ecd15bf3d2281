"""Direct-integration oracle for the reduced two-level system.

Everything here treats hD_x u = A(x)u as an ordinary differential
equation and nothing more: a Frobenius series starts the regular
solution at the origin, Taylor series of the x-multiplied system, whose
coefficients are polynomials, carry it along complex contours, and the
outgoing Jost coefficient c+ is read off on a rotated ray where the
e^{+i(x^3-3Ex)/3h} solution dominates, against that solution's
asymptotic series at infinity. Resonances are zeros of c+: the
complex-scaled eigenproblem of spectral.locate_zero places each one
from its seed without a single Jost evaluation, and the located
eigenvalue is solved for c+ together with a ring of c+ values around
it. It is the certified zero when its |c+| and the ring's noise meet
the certificate and the ring winds once; otherwise the trapezoidal
Cauchy sums of the ring give c+ and its slope, and a new ring is solved
around their Newton point. Every c+ of a zero search comes from such a
ring solve. A separate symmetric Galerkin eigensolve of the h-free
scaled radial problem finds the eigenvalues of the scalar radial
comparison operator.
None of this shares code or expansions with the WKB route, which is the
point: the two routes check each other.

Contour layout for c+: the Frobenius series is summed at
x0 = min(x_mid, h/|E|), x_mid the geometric mean of the two outer
turning-point moduli. Taylor steps carry the solution along the real
axis to x_mid, along one chord to x_mid e^{-i theta}, the start of the
ray arg x = -theta, and out along the ray to R_max and 1.1 R_max.
R_max is the dominance radius, where the recessive mode is down by
40 e-folds on the outgoing one. There the gauged regular solution
v = u e^{-i(x^3-3Ex)/3h} is c+ times the gauged outgoing solution
g ~ (1, 0), up to that recessive remainder, and g is the sum of its
1/x series (_outgoing). So c+ = v_1/g_1 at R_max, and the same quotient
at 1.1 R_max checks it. No solver runs on the ray, and no tail of g is
left in c+.

Every c+ comes from one batched solve over m energies (_jost_batch):
each member runs on the contour of a centre energy with its own E in
the right-hand side. The Frobenius start is one recurrence over the
stack, the whole contour one stack of regular solutions carried by the
same Taylor steps, whose series are summed a block of steps at a time
by recurrences over the block and the stack (_carry), and the
outgoing series one recurrence over the stack. jost_cplus is its
one-member case, on E's own contour; the certification ring is its
17-member case, the 16 ring points and the centre itself, on the
centre's contour. No member is computed more loosely than it would be
alone: a Taylor step is sized on the largest |x^2 - E| of the members
and summed until every member's terms are negligible, and so is the
outgoing series; no step's sum depends on the other steps of its
block.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceFailure,
    NoConvergence,
    NoPlateau,
    SeriesDivergence,
    SpuriousZero,
    StepUnderflow,
    WindowEmpty,
)
from .model import _as_params, _check_h_l, turning_points
from .quadrature import ComplexPath, segment_point_distance
from .quantization import (
    _SLOPE,
    ResonanceRecord,
    _branch_coordinate,
    _E_of_lambda,
    _lambda_of_E,
    lattice_point,
)
from .spectral import locate_zero


def _deferred(module, name, *args, **kwargs):
    return getattr(importlib.import_module(module), name)(*args, **kwargs)


# Nothing here calls solve_ivp or brentq, and no Jost evaluation loads
# scipy.integrate.  Both stay module attributes only because perfbench's
# tracer rebinds them here unconditionally; they resolve on first call.
solve_ivp = functools.partial(_deferred, "scipy.integrate", "solve_ivp")
brentq = functools.partial(_deferred, "scipy.optimize", "brentq")

_ATOL = 1e-14  # c+ floor: the plateau check allows 50 atol max|v(x_s)|
_MAX_STEPS = 100_000  # Taylor-step budget of one contour, checked first
_MAX_TERMS = 200  # term budget of a Taylor step and of _outgoing
_TAYLOR_CUT = 2e-17  # a sum stops at its third successive term below this
_TAYLOR_REACH = 0.4  # Taylor step at most this times |x_c|
_TAYLOR_PHASE = 2.0  # ... and |A| integrated over it at most this times h
_BLOCK = 64  # Taylor steps summed by one recurrence, bounding its memory
_START_TERMS = 40  # Frobenius terms at the inner contour's start
_THETA = 0.5  # angle of the extraction ray arg x = -theta
_DOMINANCE_EFOLDS = 40.0  # decay of the recessive mode where c+ is read
_PLATEAU_REL = 1e-6  # largest gap of the two c+ readings, relative to |c+|
_CERT_RATIO = 1e-8  # certified zero: |c+| below this times the ring median
_RING_POINTS = 16  # certification ring size; sigma reads DFT indices 9 .. 15


@dataclass(frozen=True)
class IntegrationResult:
    """Endpoint of a contour integration of the reduced system.

    u_end is the solution vector (or 2x2 fundamental pair) at the final
    vertex. wronskian_drift is the largest relative deviation of the
    monitored Wronskian from its starting value; the system is
    trace-free, so the exact Wronskian is constant and the drift is a
    pure integration-error meter. steps counts the Taylor steps.
    """

    u_end: np.ndarray
    wronskian_drift: float
    steps: int


@dataclass(frozen=True)
class JostEstimate:
    """Outgoing Jost coefficient with its extraction quality.

    c_plus is read at the extraction radius R_max on the ray
    arg x = -theta; plateau_error is its distance to the same reading at
    1.1 R_max.
    """

    c_plus: complex
    plateau_error: float
    R_max: float
    theta: float


def frobenius_init(params, eps=None, K=20):
    """Start the regular solution u ~ x^nu_tilde (1, -i) at x = eps.

    Returns (u(eps), table) where table[n] holds the vector coefficient
    of x^{n + nu_tilde}. The recurrence follows from matching powers of
    x in x u' = (i/h)(B0 + B1 x + B3 x^3) u with B0 the off-diagonal
    nu block, B1 the -E diagonal and B3 the x^2 diagonal; the
    order-n linear system has determinant n(n + 2 nu_tilde), nonzero
    for every n >= 1 because the index is a positive half-integer, so
    the series is clean (no logarithms, no second-solution mixing).
    This is the one-member case of _frobenius_stack.

    Raises SeriesDivergence when the terms fail to decay at eps.
    """
    E, h, nt, nu = _as_params(params, "half-integer")
    if K < 8:
        raise ValueError(f"series order K must be at least 8, got {K}")
    r0 = abs(turning_points(E, nu).r0)
    eps = 1e-3 * min(1.0, r0) if eps is None else float(eps)
    if not 0.0 < eps <= 1e-2 * r0:
        raise ValueError(
            f"eps={eps} outside (0, {1e-2 * r0:.3e}]; the series start "
            "must sit well inside the innermost turning point")
    u, a = _frobenius_stack(np.array([E]), h, nt, eps, K)
    return u[0], a[0]


def _frobenius_stack(Es, h, nt, eps, K):
    """frobenius_init's series at every energy of Es from one recurrence
    over the stack: u(eps), shape (m, 2), and the coefficient tables,
    shape (m, K + 1, 2). eps and K are not checked here.

    Raises SeriesDivergence when any member's terms fail to decay.
    """
    a = np.zeros((len(Es), K + 1, 2), dtype=complex)
    a[:, 0] = (1.0, -1.0j)
    ih = 1j / h
    ihE = ih * Es
    for n in range(1, K + 1):
        rhs0 = ihE * -a[:, n - 1, 0]
        rhs1 = ihE * a[:, n - 1, 1]
        if n >= 3:
            rhs0 = rhs0 + ih * a[:, n - 3, 0]
            rhs1 = rhs1 + ih * -a[:, n - 3, 1]
        det = n * (n + 2.0 * nt)
        a[:, n, 0] = ((n + nt) * rhs0 + 1j * nt * rhs1) / det
        a[:, n, 1] = (-1j * nt * rhs0 + (n + nt) * rhs1) / det
    powers = eps ** np.arange(K + 1)
    terms = np.abs(a).max(axis=2) * powers
    last = terms[:, -1]
    bad = (last > terms[:, -2]) | (last > 1e-6 * terms.max(axis=1))
    if bad.any():
        j = int(np.argmax(bad))
        raise SeriesDivergence(
            f"series terms fail to decay at eps={eps}: last ratios "
            f"{terms[j, -2]:.3e} -> {terms[j, -1]:.3e}")
    u = (a * powers[:, None]).sum(axis=1) * eps ** nt
    return u, a


def _gram_schmidt(U):
    """Q, R with U = QR for a stack (..., 2, c) of single columns (c = 1)
    or pairs (c = 2) by Gram-Schmidt: Q's first column is U's first over
    its norm, each component rounded relative to itself. Householder QR
    rounds a small component relative to the norm, noise that the ray
    carries into c+ (twentyfold on the h = 0.05 ring)."""
    u = U[..., 0]
    r00 = np.sqrt((u.conj() * u).real.sum(axis=-1))
    q0 = u / r00[..., None]
    Q = np.empty_like(U)
    R = np.zeros(U.shape[:-2] + (U.shape[-1],) * 2, dtype=complex)
    Q[..., 0], R[..., 0, 0] = q0, r00
    if U.shape[-1] == 1:
        if not (r00 > 0.0).all():
            raise StepUnderflow("solution collapsed to zero")
        return Q, R
    w = U[..., 1]
    r01 = (q0.conj() * w).sum(axis=-1)
    w = w - q0 * r01[..., None]
    r11 = np.sqrt((w.conj() * w).real.sum(axis=-1))
    if not (r00 * r11 > 0.0).all():
        raise StepUnderflow("fundamental pair collapsed to rank one")
    Q[..., 1] = w / r11[..., None]
    R[..., 0, 1], R[..., 1, 1] = r01, r11
    return Q, R


def _companion(u):
    """Fundamental pairs (..., 2, 2) of the vectors u, shape (..., 2), and
    the unit vector on the smaller component of each u as second column."""
    comp = np.where(abs(u[..., :1]) >= abs(u[..., 1:]), [0.0, 1.0],
                    [1.0, 0.0])
    return np.stack([u, comp], axis=-1)


def _schedule(segs, Es, h, nu):
    """The Taylor steps along the segments: centres x_c, increments z and,
    for each segment, the index of its last step.

    A step dt from x_c stays within _TAYLOR_REACH |x_c| (the series'
    radius is |x_c|) and keeps a dt + |x_c| dt^2 <= _TAYLOR_PHASE h, a
    the largest |x_c^2 - E| + nu/|x_c| of the energies Es, so no term of
    a sum is much larger than the sum. The rule reads the path, Es, h
    and nu alone, so the whole schedule is known before any series is
    summed. Raises StepUnderflow past _MAX_STEPS steps.
    """
    xcs, zs, ends = [], [], []
    for a, b in segs:
        L = abs(b - a)
        e = (b - a) / L
        t = 0.0
        while t < L:
            xc = a + t * e
            r = abs(xc)
            a_c = float(np.abs(xc * xc - Es).max()) + nu / r
            # the root of a_c dt + r dt^2 = _TAYLOR_PHASE h
            dt = min(_TAYLOR_REACH * r, L - t, 2.0 * _TAYLOR_PHASE * h / (
                a_c + math.sqrt(a_c * a_c + 4.0 * _TAYLOR_PHASE * h * r)))
            t = t + dt if t + dt < L else L
            xcs.append(xc)
            zs.append((b if t == L else a + t * e) - xc)
            if len(xcs) > _MAX_STEPS:
                raise StepUnderflow(
                    f"the path needs more than {_MAX_STEPS} Taylor steps: "
                    f"step {len(xcs)} starts at |x| = {r:.4g} of "
                    f"{abs(segs[-1][1]):.4g}")
        ends.append(len(xcs) - 1)
    return np.array(xcs, dtype=complex), np.array(zs, dtype=complex), ends


def _taylor_sums(xc, z, Es, h, nu, Y):
    """The starts Y, shape (n, m, 2, c), start (k, j) at energy Es[j],
    carried from x_c[k] to x_c[k] + z[k] by the Taylor series of the
    system about x_c[k]: every step of the block in one recurrence.

    In z, (x_c + z)U' = (i/h)[(p0 + p1 z + 3x_c z^2 + z^3) sU + nu sU~]
    with p0 = x_c^3 - E x_c, p1 = 3x_c^2 - E, s = diag(1, -1) on the
    rows of each start and U~ the start with its rows swapped, so
    c_{n+1} = [(i/h)(s(p0 c_n + p1 c_{n-1} + 3x_c c_{n-2} + c_{n-3})
    + nu s c~_n) - n c_n] / (x_c (n + 1)), run on the terms
    d_n = c_n z^n. No column reads another. Each step's sum stops after
    its own three successive terms below _TAYLOR_CUT, which is relative
    to the sum because the starts' columns are orthonormal, and is
    stored there. The stopped steps leave the recurrence together, once
    they are at least half of those in it, which saves copying the
    block's arrays at every stop; no step's sum depends on the other
    steps of its block. The terms are
    added with Kahan's compensation, which keeps the rounding of the
    running sum out of it.
    """
    w = z / xc
    g = (1j / h) * w
    xe, ge = xc[:, None], g[:, None]
    # coefficients of d_n (less n w), d_{n-1}, d_{n-2}, d_{n-3}, d~_n
    # and w, stacked as (6, 2 rows, step, member, column), s applied
    C = np.empty((6, 2, len(xc), len(Es), Y.shape[-1]), dtype=complex)
    for i, c in enumerate((ge * (xe ** 3 - Es * xe),
                           ge * z[:, None] * (3.0 * xe * xe - Es),
                           ge * 3.0 * xe * z[:, None] ** 2,
                           ge * z[:, None] ** 3, ge * nu)):
        C[i, 0] = c[..., None]
        C[i, 1] = -c[..., None]
    C[5] = w[:, None, None]
    # d_n, d_{n-1}, d_{n-2}, d_{n-3} in a ring of four slots
    D = np.zeros((4,) + C.shape[1:], dtype=complex)
    D[0] = np.moveaxis(Y, 2, 0)
    S, comp = D[0].copy(), np.zeros_like(D[0])
    out = np.empty_like(S)
    # the steps in the recurrence, and which of them still run
    live = np.arange(len(xc))
    running = np.ones(len(xc), dtype=bool)
    small = np.zeros(len(xc), dtype=int)
    tmp = np.empty_like(S)
    for n in range(_MAX_TERMS):
        d, new = D[n % 4], D[(n + 1) % 4]  # new holds d_{n-3} until here
        np.multiply(C[3], new, out=new)
        new += np.multiply(C[2], D[(n + 2) % 4], out=tmp)
        new += np.multiply(C[1], D[(n + 3) % 4], out=tmp)
        new += np.multiply(C[0] - n * C[5], d, out=tmp)
        new += np.multiply(C[4], d[::-1], out=tmp)
        new *= 1.0 / (n + 1)
        # compensated summation: comp carries what S + new rounded off
        y = new - comp
        t = S + y
        comp = (t - S) - y
        S = t
        small += 1
        small *= np.abs(new).max(axis=(0, 2, 3)) < _TAYLOR_CUT
        done = running & (small == 3)
        if done.any():
            out[:, live[done]] = S[:, done]
            running &= ~done
            if not running.any():
                return np.moveaxis(out, 0, 2)
            if 2 * np.count_nonzero(running) <= len(live):
                live, small = live[running], small[running]
                C, D, S = C[:, :, running], D[:, :, running], S[:, running]
                comp, tmp = comp[:, running], tmp[:, running]
                running = running[running]
    raise StepUnderflow(
        f"Taylor series at x={xc[live[running][0]]} did not converge in "
        f"{_MAX_TERMS} terms")


def _carry(schedule, Es, h, nu, M):
    """Carry the stack M of m starts, shape (m, 2, c), start j at energy
    Es[j], by the Taylor steps of the schedule (_schedule): c = 2 for
    fundamental pairs, c = 1 for single solutions.

    Each step starts from the columns orthonormalized by _gram_schmidt,
    whose factors are accumulated. The series are summed _BLOCK steps
    at a time, each block by two recurrences over all its steps
    (_taylor_sums), so the Python-level term iterations do not grow with
    the step count. The first runs from identity starts and gives each
    step's propagators P_k, which act on 2-vectors; they predict the
    starts, Qh_{k+1} = GS(P_k Qh_k) from the block's actual first start
    (for one column, P_k qh_k / |P_k qh_k|). The second sums each step
    from its predicted start, S_k, as a single step would from its own,
    on the c columns alone: the recurrence never mixes columns, so a
    solution's carry reads nothing of a companion. The steps are then
    applied in turn with U_k = S_k + P_k (Q_k - Qh_k), exact by
    linearity. The correction is rounded relative to |P_k| |Q_k - Qh_k|,
    far below the rounding of S_k: on the ring at h = 0.2 to 0.05 the
    predicted starts stay within 1e-9 of the actual ones (1e-3 for the
    member at a zero of c+, whose recessive regular solution on the ray
    follows the roundoff). A pair's steps also add |W - W_0| / |W_0| of
    its Wronskian to its drift; a single column has no Wronskian.
    Returns the starts carried to the last vertex, the largest drift
    (None for one column) and the first columns at the end of every
    segment of the schedule, shape (segments, m, 2).
    """
    xc, z, ends = schedule
    pair = M.shape[-1] == 2
    Q, R_acc = _gram_schmidt(M)
    drift = np.zeros(len(Es))
    cols = []
    for k0 in range(0, len(xc), _BLOCK):
        xb, zb = xc[k0:k0 + _BLOCK], z[k0:k0 + _BLOCK]
        P = _taylor_sums(xb, zb, Es, h, nu, np.broadcast_to(
            np.eye(2), (len(xb), len(Es), 2, 2)))
        Qh = np.empty((len(xb),) + Q.shape, dtype=complex)
        Qh[0] = Q
        for k in range(1, len(xb)):
            Qh[k] = _gram_schmidt(P[k - 1] @ Qh[k - 1])[0]
        S = _taylor_sums(xb, zb, Es, h, nu, Qh)
        Qs, Us = np.empty_like(S), np.empty_like(S)
        for k, (S_k, P_k, Qh_k) in enumerate(zip(S, P, Qh)):
            Qs[k] = Q
            Us[k] = U = S_k + P_k @ (Q - Qh_k)
            Q, R = _gram_schmidt(U)
            R_acc = R @ R_acc
            if k0 + k == ends[len(cols)]:
                cols.append(Q[..., 0] * R_acc[:, :1, 0])
        if pair:
            W0 = Qs[..., 0, 0] * Qs[..., 1, 1] - Qs[..., 1, 0] * Qs[..., 0, 1]
            W = Us[..., 0, 0] * Us[..., 1, 1] - Us[..., 1, 0] * Us[..., 0, 1]
            drift = drift + np.sum(np.abs(W - W0) / np.abs(W0), axis=0)
    M = Q @ R_acc
    if not np.all(np.isfinite(M)):
        raise StepUnderflow("solution magnitude left the representable "
                            "range; shorten the path")
    return M, float(drift.max()) if pair else None, np.array(cols)


def integrate_system(params, path, u_start):
    """Integrate hD_x u = Au along a polyline in the complex plane.

    u_start may be a 2-vector or a 2x2 fundamental pair (columns). A
    vector input is silently augmented with an independent companion
    column so the constant-Wronskian property of the trace-free system
    can be monitored; only the original vector is returned. The pair is
    carried by Taylor steps of the x-multiplied system, each summed to
    roundoff: _carry on a stack of one pair, with at most 1e5 steps,
    counted on the schedule before any series is summed.

    The Wronskian meter works step by step: every step starts from the
    orthonormalized pair (the triangular factors are accumulated to
    rebuild the true endpoint), and the determinant at its end is
    compared with the one at its start. Without this, any stretch where
    one solution dominates makes the two products in the determinant
    cancel below roundoff, and the meter would report that cancellation
    noise, e^{2S/h} above machine precision, instead of integration
    error. The reported drift is the accumulated relative deviation over
    all steps.

    Raises StepUnderflow when the step budget is exceeded or the
    solution leaves the representable range; ValueError for paths
    through the origin, where the x-multiplied system is singular, at
    any nu.
    """
    E, h, nt, nu = _as_params(params, "nonnegative")
    if not isinstance(path, ComplexPath):
        path = ComplexPath(tuple(path))
    u0 = np.asarray(u_start, dtype=complex)
    vector_input = u0.shape == (2,)
    if vector_input:
        M = _companion(u0)
    elif u0.shape == (2, 2):
        M = u0.copy()
    else:
        raise ValueError(f"u_start must be a 2-vector or 2x2, got {u0.shape}")
    if M[0, 0] * M[1, 1] - M[1, 0] * M[0, 1] == 0:
        raise ValueError("u_start columns are linearly dependent")

    segs = path.segments()
    if not segs:
        return IntegrationResult(u0 if vector_input else M, 0.0, 0)
    scale = max(abs(v) for v in path.vertices)
    for a, b in segs:
        if segment_point_distance(a, b, [0])[0] < 1e-12 * scale:
            raise ValueError("path passes through the origin")

    Es = np.array([E])
    schedule = _schedule(segs, Es, h, nu)
    M, drift, _ = _carry(schedule, Es, h, nu, M[None])
    u_end = M[0, :, 0] if vector_input else M[0]
    return IntegrationResult(u_end, drift, len(schedule[0]))


class _Contour(NamedTuple):
    theta: float  # angle of the extraction ray arg x = -theta
    x0: float  # Frobenius start on the real axis, min(x_mid, h/|E|)
    x_mid: float  # end of the real segment, |x| of the ray start
    xs: complex  # x_mid e^{-i theta}, where the ray starts
    R_max: float  # extraction radius

    @property
    def ends(self):
        """The two reading points on the ray, at R_max and 1.1 R_max."""
        return self.R_max * cmath.exp(-1j * self.theta) * np.array(
            [1.0, 1.1])


def _contour(E, h, nu, theta, R_max):
    """The contour policy of c+ at energy E: the inner path and the
    extraction radius.

    theta must lie in (0, pi/3) so the outgoing solution grows on the
    ray. At x = R e^{-i theta} the recessive mode is down on the outgoing
    one by (2/h)(sin(3 theta) R^3/3 + R Im(E e^{-i theta})) e-folds. The
    default R_max is the radius where that margin is _DOMINANCE_EFOLDS,
    the largest root of a cubic; a caller's R_max must keep at least that
    margin. Either must clear 1.1 x_mid.
    """
    if not 0.0 < theta < math.pi / 3.0:
        raise ValueError(f"theta must lie in (0, pi/3), got {theta}")
    s3 = math.sin(3.0 * theta)
    tilt = (E * cmath.exp(-1j * theta)).imag
    tp = turning_points(E, nu)
    x_mid = math.sqrt(abs(tp.r1) * abs(tp.r2))
    if R_max is None:
        R_max = float(np.roots([s3 / 3.0, 0.0, tilt,
                                -0.5 * _DOMINANCE_EFOLDS * h]).real.max())
    else:
        R_max = float(R_max)
        margin = (2.0 / h) * (s3 * R_max ** 3 / 3.0 + R_max * tilt)
        if margin < _DOMINANCE_EFOLDS:
            raise ValueError(f"R_max={R_max} leaves dominance margin "
                             f"{margin:.1f} < {_DOMINANCE_EFOLDS:g}")
    if R_max <= 1.1 * x_mid:
        raise ValueError(f"R_max={R_max} does not clear the ray start "
                         f"radius {x_mid:.3f}")
    return _Contour(theta, min(x_mid, h / abs(E)), x_mid,
                    x_mid * cmath.exp(-1j * theta), R_max)


def _outgoing(Es, h, nu, xs):
    """The gauged outgoing solution g = u e^{-i(x^3-3Ex)/3h} at the
    points xs, shape (m, len(xs), 2), one member for each energy of Es,
    from its asymptotic series about the irregular singular point at
    infinity (Olver 1974, ch. 7), g = sum_n (a_n, b_n) x^{-n}.

    Matching powers of x in g' = (i/h)[[0, nu/x], [-nu/x, -2(x^2-E)]] g
    gives a_0 = 1, b_0 = b_1 = b_2 = 0 and, for n >= 3,
    b_n = E b_{n-2} - (ih/2)(n-3) b_{n-3} - (nu/2) a_{n-3} and
    a_n = -i nu b_n/(h n), so g_1 = 1 + i nu^2/(6 h x^3) + ... The
    recurrence runs on the terms (a_n, b_n) x^{-n} themselves. The series
    diverges: its terms fall to about the size of the recessive mode
    before they grow, e^{-40} at the default extraction radius, and the
    sum stops after three successive terms below _TAYLOR_CUT at every
    point and energy (76 to 121 terms on the default ray at h = 0.2 to
    0.03).

    Raises NoPlateau when that takes more than _MAX_TERMS terms, at a
    point too close to the turning points.
    """
    w = 1.0 / np.asarray(xs, dtype=complex)
    Ew2 = np.asarray(Es, dtype=complex)[:, None] * (w * w)
    w3 = w ** 3
    # the terms n - 3 .. n - 1, each (a_n, b_n) x^{-n} stacked as
    # (2, m, len(xs)), and their running sum
    terms = [np.zeros((2,) + Ew2.shape, dtype=complex) for _ in range(3)]
    terms[0][0] = 1.0
    g = terms[0].copy()
    small = 0
    for n in range(3, _MAX_TERMS + 1):
        new = np.empty_like(g)
        new[1] = Ew2 * terms[1][1] - ((0.5j * h * (n - 3)) * terms[0][1]
                                      + (0.5 * nu) * terms[0][0]) * w3
        new[0] = (-1j * nu / (h * n)) * new[1]
        g += new
        terms = terms[1:] + [new]
        small = small + 1 if np.abs(new).max() < _TAYLOR_CUT else 0
        if small == 3:
            return np.moveaxis(g, 0, -1)
    raise NoPlateau(f"outgoing series at |x|={1.0 / np.abs(w).max():.3f} "
                    f"did not converge in {_MAX_TERMS} terms; raise R_max")


def _gauged_vertices(Es, h, nt, nu, c):
    """Gauged regular solutions v = u e^{-i(x^3-3Ex)/3h}, shape (3, m, 2),
    at the ray start c.xs and at the two reading points c.ends, for each
    energy of Es: the regular solutions from one Frobenius recurrence
    over the stack, summed at c.x0 with _START_TERMS terms
    (_frobenius_stack), carried along [x0, x_mid, xs] and out along the
    ray as one stack of single columns by Taylor steps (_carry): c+
    reads the regular solution alone, so no companion rides along.
    The chord from x_mid to xs keeps at least x_mid cos(theta/2) from
    the origin, the system's one singular point.
    """
    u0, _ = _frobenius_stack(Es, h, nt, c.x0, _START_TERMS)
    x = np.append(c.xs, c.ends)
    try:
        schedule = _schedule(ComplexPath((c.x0, c.x_mid, *x)).segments(),
                             Es, h, nu)
    except StepUnderflow as exc:
        raise StepUnderflow(
            f"ray at theta={c.theta:g} to R_max={c.R_max:.4g}: {exc}; "
            "the radius grows without bound as theta nears pi/3") from None
    *_, cols = _carry(schedule, Es, h, nu, u0[..., None])
    gauge = np.exp(-1j * (x[:, None] ** 3 - 3.0 * Es * x[:, None])
                   / (3.0 * h))
    return cols[-3:] * gauge[:, :, None]


def _jost_batch(E_center, Es, h, nt, theta, R_max):
    """JostEstimate of c+ at every energy of Es, from one batched solve.

    All members run on E_center's contour (c+ does not depend on the
    path) with their own E in the right-hand side: one Frobenius
    recurrence and the m regular solutions as one (m, 2, 1) stack
    carried by Taylor steps out to 1.1 R_max (_gauged_vertices). c+ is
    v_1/g_1 at R_max, g the outgoing solution's series (_outgoing); the
    same quotient at 1.1 R_max must agree to 1e-6 |c+| (or 50 atol,
    atol = 1e-14 max|v| at the ray start), or NoPlateau is raised.
    """
    E, h, nt, nu = _as_params((E_center, h, nt), "half-integer")
    c = _contour(E, h, nu, theta, R_max)
    Es = np.asarray(Es, dtype=complex)
    v = _gauged_vertices(Es, h, nt, nu, c)
    q = v[1:, :, 0].T / _outgoing(Es, h, nu, c.ends)[:, :, 0]
    out = []
    for (c_plus, check), v0 in zip(q, v[0]):
        plateau_error = float(abs(c_plus - check))
        if plateau_error > max(_PLATEAU_REL * abs(c_plus),
                               50.0 * _ATOL * np.abs(v0).max()):
            raise NoPlateau(
                f"c+ read at |x|={c.R_max:.3f} and 1.1 times that differ "
                f"by {plateau_error:.3e} against |c+|={abs(c_plus):.3e}; "
                "raise R_max or theta")
        out.append(JostEstimate(complex(c_plus), plateau_error, c.R_max,
                                theta))
    return out


def jost_cplus(params, theta=_THETA, R_max=None, rtol=None):
    """Outgoing Jost coefficient of the regular solution.

    Sums the Frobenius series of u ~ x^nu_tilde (1,-i) at
    x0 = min(x_mid, h/|E|), carries it by Taylor steps along [x0, x_mid],
    a chord down to arg x = -theta and the rotated ray, and reads c+ as
    u_1 e^{-i(x^3-3Ex)/3h} over the outgoing solution's series at R_max,
    checked against the same reading at 1.1 R_max: the one-member case
    of _jost_batch, on E's own contour. theta must lie in (0, pi/3) so
    the outgoing solution grows on the ray; R_max must keep
    (2/h)(sin(3 theta) R^3/3 + R Im(E e^{-i theta})) >= 40 so the
    recessive component is dead at the extraction radius, and defaults
    to the radius where it is 40. rtol is accepted and ignored: every
    Taylor sum runs to roundoff.

    Raises NoPlateau when the two readings differ by more than
    1e-6 |c+| (raise R_max or theta).
    """
    E, h, nt, _ = _as_params(params, "half-integer")
    return _jost_batch(E, [E], h, nt, theta, R_max)[0]


def _jost_ring(E_center, Es, h, nt):
    """c+ at every energy of Es (the certification ring around E_center),
    as an array: the len(Es)-member case of _jost_batch on E_center's
    contour, at jost_cplus's default theta and R_max."""
    return np.array([est.c_plus for est in
                     _jost_batch(E_center, Es, h, nt, _THETA, None)])


def find_resonance_ode(params, max_iter=30):
    """Zero of c+(E) near params' E, the seed, certified by a winding count.

    The seed is expected to come from the lattice or a quantization
    solve. Because a seed can land between two zeros (on a ridge of
    |c+|), the search ladder also tries the two points half a lattice
    spacing away in lambda = E^{3/2}. Each ladder seed first goes to
    spectral.locate_zero, at most max_iter inverse-iteration solves of
    the complex-scaled problem and no Jost evaluation: a ridge seed
    fails there and the ladder moves on. The located E_c centres a ring
    of 16 energies at radius rho = 1e-4 |E_c|, and is itself a
    member of the same batched solve (_jost_ring) on E_c's contour;
    the ring points agree with per-point jost_cplus to about 1.1e-11 of
    the ring median at h = 0.1, the centre to about 3.5e-12. E_c is
    certified when its |c+| and the ring's noise (_ring_certified) are
    both below 1e-8 times the ring median and the ring winds once
    (SpuriousZero when the ring winds otherwise). Otherwise the ring's
    trapezoidal Cauchy sums give c+ and its slope at E_c, and a new ring
    is solved around their Newton point; at most max_iter rings per seed
    (NoConvergence after that, when a centre leaves 0.6 |E| of the
    located eigenvalue, or at once when a ring's noise reaches the
    certificate). No jost_cplus call is made: from h = 0.2 down to
    h = 0.05 (|Lambda| ~ 42) at nu_tilde = 1/2 and 3/2 the first ring
    certifies; at h = 0.045 and 0.04, where the noise is 3e-10 to 2.3e-9
    of the median, the search takes one to seven rings, and at h = 0.035,
    where it reaches 1e-8, a number left to chance: 3 to 20 from 40
    starts next to the zero, 5.5 in the median.
    If every seed fails, the last failure's type is raised with every
    seed's message.
    The record carries the residual |c+|/median(ring), the re-centred
    rings as iterations (0 where the first ring certifies) and the
    seed's k.
    """
    E0_seed, h, nt, _ = _as_params(params, "half-integer")
    lam_seed = _lambda_of_E(E0_seed)
    dlam = 8.0 * _SLOPE * h
    ladder = [E0_seed,
              _E_of_lambda(lam_seed + 0.5 * dlam),
              _E_of_lambda(lam_seed - 0.5 * dlam)]
    # messages only: a kept exception would hold its failed seed's
    # frames alive through a traceback cycle with this frame
    failures = []
    for seed in ladder:
        try:
            E_c = locate_zero((seed, h, nt), max_iter)
            return _ring_certified(E_c, h, nt, max_iter, lam_seed)
        except (NoConvergence, SpuriousZero, NoPlateau,
                StepUnderflow) as exc:
            failures.append((type(exc), f"seed E={seed:.6f}: {exc}"))
    raise failures[-1][0]("; ".join(msg for _, msg in failures))


def _ring_certified(E_start, h, nt, max_iter, lam_seed):
    """Record of the first ring centre, from E_start on, whose |c+| and
    ring noise sigma are both below _CERT_RATIO times its ring's median:
    at most max_iter rings, each one _jost_ring solve, the next centred
    on the Newton point of the ring's Cauchy sums. sigma is the rms of
    np.fft.fft(ring)/16 at indices 9 .. 15, whose Taylor content
    a_k rho^k (k = j mod 16, so k >= 9) lies below 1e-24 of the median:
    evaluation noise alone. SpuriousZero when the certified centre's
    ring does not wind once; NoConvergence when a ring's sigma reaches
    the certificate, a centre leaves |E - E_start| <= 0.6 |E_start|, or
    max_iter rings fail."""
    roots = np.exp(2j * math.pi * np.arange(_RING_POINTS) / _RING_POINTS)
    E_c = E_start
    for rings in range(max_iter):
        if abs(E_c - E_start) > 0.6 * abs(E_start):
            raise NoConvergence(
                f"Newton step left the search region: E={E_c:.6f}")
        rho = 1e-4 * abs(E_c)
        # the centre rides along as the last member, on its own contour
        ring = _jost_ring(E_c, np.append(E_c + rho * roots, E_c), h, nt)
        ring, c = ring[:-1], complex(ring[-1])
        med = float(np.median(np.abs(ring)))
        high = np.abs(np.fft.fft(ring)[9:]) / _RING_POINTS
        sigma = math.sqrt(float(np.mean(high ** 2)))
        if sigma >= _CERT_RATIO * med:
            raise NoConvergence(
                f"ring noise sigma = {sigma / med:.1e} x ring median at "
                f"E={E_c:.8f} reaches the certificate {_CERT_RATIO:.1e}: "
                "c+ is below the floor of the Jost solve")
        if abs(c) < _CERT_RATIO * med:
            break
        # trapezoidal Cauchy sums: c+(E_c) and c+'(E_c)
        slope = complex(np.mean(ring * roots.conj())) / rho
        E_c = E_c - complex(np.mean(ring)) / slope
    else:
        raise NoConvergence(
            f"no ring centre with |c+| below {_CERT_RATIO:.1e} x ring "
            f"median after {max_iter} rings from E={E_start:.8f}")
    winding = _winding(ring)
    if winding != 1:
        raise SpuriousZero(
            f"ring winding {winding} != 1 around E={E_c:.8f}")
    lam = _lambda_of_E(E_c)
    k = round(_branch_coordinate(lam_seed.real, nt, h))
    try:
        lam_lat = lattice_point(k, nt, h)
    except ValueError:
        lam_lat = lam
    return ResonanceRecord(k=k, nu_tilde=nt, lambda_lat=lam_lat, lam=lam,
                           E=E_c, method="ode-oracle",
                           residual=abs(c) / med, iterations=rings)


def _winding(ring):
    """Winding number of the closed polygon through the values of ring
    around the origin."""
    ph = np.angle(ring)
    dph = np.diff(np.concatenate([ph, ph[:1]]))
    return round(float(((dph + math.pi) % (2.0 * math.pi)
                        - math.pi).sum() / (2.0 * math.pi)))


def _jacobi_recurrence(a, b, n):
    """Diagonal (orders 0..n-1) and off-diagonal (1..n-1) of the
    Jacobi matrix of the polynomials orthonormal for the weight
    (1 - x)^a (1 + x)^b on [-1, 1], a + b > 0."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + a + b
    diag = (b * b - a * a) / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b)
                  / (s * s * (s + 1.0) * (s - 1.0)))
    return diag, off


def _scaled_radial_levels(l, S, Ns):
    """Eigenvalues e of -u'' + ((l^2-1/4)/s^2 + s)u = e u on [0, S]
    with u(S) = 0, by Rayleigh-Ritz on N basis functions, one array of
    them for each N of the sequence Ns.

    u = s^{l+1/2} f turns the problem into
    -(s^{2l+1} f')' + s^{2l+2} f = e s^{2l+1} f with f entire: the
    singular solution s^{-2l} is outside every polynomial space, so the
    regular one is kept without a condition at s = 0.  On
    s = S(1 + x)/2, f is expanded in phi_n = (1 - x) p_n(x),
    n = 0..N-1, which vanish at s = S, with p_n orthonormal for the
    weight (1 - x)^2 (1 + x)^{2l+1}.  The mass matrix is then I, and the
    levels are the eigenvalues of the symmetric (4/S^2) A + (S/2) B,
    A_mn = int (1 + x)^{2l+1} phi_m' phi_n' and
    B_mn = int (1 + x)^{2l+2} phi_m phi_n.  Both integrands are
    polynomials of degree at most 2N + 1 times (1 + x)^{2l+1}, so the
    (N + 2)-point Gauss-Jacobi (0, 2l+1) rule gives them exactly.

    Its nodes x_k are the eigenvalues of the Jacobi matrix
    (Golub-Welsch).  Its weights are the Christoffel function
    w_k = 1/sum_n q_n(x_k)^2 of the orthonormal (0, 2l+1) polynomials
    q_n, not the squared first components of the eigenvectors, which
    have no relative accuracy where the weights are tiny, at the nodes
    near x = -1 for large l; there the p_n are huge, so w_k p_m p_n
    would be wrong at O(1).  Both families start each node at
    ((1 + x_k)/2)^{l+1}, about the inverse of the polynomials' growth
    there, which keeps them in range up to l of a few hundred; the
    factor cancels in sqrt(w_k) p_n = p_n / |q(x_k)|, and a node where
    it underflows carries nothing.

    One three-term recurrence pass serves every N: over the union of
    their node sets it advances the q_n and the p_n as two rows of one
    array, carries the x-derivative for the p_n alone, and runs the last
    two orders of the q_n as a tail, max(Ns) + 1 iterations in all.
    Each node sees the arithmetic of a recurrence of its own, so every
    level has the bits of a solve at that N alone.  Every product is an
    einsum, which rounds alike at every BLAS thread count.
    """
    b = 2.0 * l + 1.0
    top = max(Ns)
    diag, off = _jacobi_recurrence(0.0, b, top + 2)
    diag2, off2 = _jacobi_recurrence(2.0, b, top)
    xs = [np.linalg.eigvalsh(np.diag(diag[:n + 2])
                             + np.diag(off[:n + 1], -1)) for n in Ns]
    x = np.concatenate(xs)
    # V[n, 0] = q_n and V[n, 1] = p_n at every node; the coefficients of
    # step k are column pairs, c the previous order's off-diagonal
    V = np.zeros((top + 2, 2, x.size))
    dP = np.zeros((top, x.size))
    V[0] = np.concatenate([(0.5 * (1.0 + xn)) ** (l + 1.0) for xn in xs])
    cq = np.concatenate([[0.0], off])
    d = np.stack([diag[:top - 1], diag2[:top - 1]], axis=1)[:, :, None]
    o = np.stack([off[:top - 1], off2], axis=1)[:, :, None]
    c = np.stack([cq[:top - 1], np.concatenate([[0.0], off2[:-1]])],
                 axis=1)[:, :, None]
    for k in range(top - 1):
        t = x - d[k]
        V[k + 1] = (t * V[k] - c[k] * V[k - 1]) / o[k]
        dP[k + 1] = (V[k, 1] + t[1] * dP[k] - c[k, 1] * dP[k - 1]) / o[k, 1]
    for k in range(top - 1, top + 1):
        V[k + 1, 0] = ((x - diag[k]) * V[k, 0] - cq[k] * V[k - 1, 0]) / off[k]
    levels = []
    end = 0
    for n, xn in zip(Ns, xs):
        cols = slice(end, end + n + 2)
        end = cols.stop
        Q = V[:n + 2, 0, cols]
        P = V[:n, 1, cols]
        # sqrt(w_k) over p_0 = q_0 = 1, times the square root of the
        # ratio (b + 2)(b + 3)/8 of the two weights' masses, which that
        # scaling leaves out
        q = np.sqrt(np.einsum("nk,nk->k", Q, Q))
        r = np.divide(math.sqrt((b + 2.0) * (b + 3.0) / 8.0), q,
                      out=np.zeros_like(q), where=q > 0.0)
        dphi = ((1.0 - xn) * dP[:n, cols] - P) * r
        phi = (1.0 - xn) * P * (r * np.sqrt(1.0 + xn))
        H = ((4.0 / (S * S)) * np.einsum("mk,nk->mn", dphi, dphi)
             + (0.5 * S) * np.einsum("mk,nk->mn", phi, phi))
        levels.append(np.linalg.eigvalsh(H))
    return levels


def pplus_eigen_oracle(l, h, E_window):
    """Eigenvalues of the radial comparison operator inside E_window.

    -h^2(u'' + (1/4 - l^2)/r^2 u) + (r - E)u = 0 on the half-line
    becomes h-free under r = h^{2/3} s, E = h^{2/3} e, so every level is
    e h^{2/3} with e an eigenvalue of the scaled problem, found by one
    symmetric Jacobi-Galerkin eigensolve (_scaled_radial_levels).  The
    box [0, S] ends 25 units past the scaled window top e_top, where
    every level in the window has decayed by more than e^{-80}.  The
    levels below e_top oscillate with wavenumber up to sqrt(e_top)
    across the box; 1e-12 relative needs 34, 46, 71, 107 and 169 basis
    functions at e_top = 3, 7.7, 15, 25 and 40 (measured, l = 1 to 5),
    about 0.4 S sqrt(e_top) + 15.  The solve takes N = 6 S^{3/4} of
    them, or 0.4 S sqrt(e_top) + 20 where that is more (from
    e_top = 25), and is repeated on a third more; the two must agree on
    the count and to 1e-10 relative, or ConvergenceFailure is raised.
    Both solves come from one call, whose one recurrence pass runs
    over both node sets: 112 iterations at N = 83 and 111 (the
    pplus --h 0.01 --l 1 window), about 4.4 ms for the pair on a 2-core
    Xeon at one BLAS thread.  The levels have the same bytes at 1 and 2
    BLAS threads up to e_top = 25 (N = 160 in the repeat); at
    e_top = 30 (N = 188) LAPACK's symmetric eigensolver rounds them
    differently.

    Raises WindowEmpty when no eigenvalue lies in the window.
    """
    h, l = _check_h_l(h, l)
    a, b = float(E_window[0]), float(E_window[1])
    if not 0.0 < a < b:
        raise ValueError(f"E_window must satisfy 0 < a < b, got ({a}, {b})")
    h23 = h ** (2.0 / 3.0)
    e_top = b / h23
    S = e_top + 25.0
    N = max(math.ceil(6.0 * S ** 0.75),
            math.ceil(0.4 * S * math.sqrt(e_top)) + 20)
    Ns = (N, math.ceil(4.0 * N / 3.0))
    levels = []
    for e in _scaled_radial_levels(l, S, Ns):
        E = e * h23
        levels.append(E[(E >= a) & (E <= b)])
    coarse, fine = levels
    if len(coarse) != len(fine) or np.any(
            np.abs(coarse - fine) > 1e-10 * fine):
        raise ConvergenceFailure(
            f"radial eigensolves at N = {Ns} disagree in [{a}, {b}] at "
            f"l={l}, h={h}: {len(coarse)} vs {len(fine)} levels")
    if len(fine) == 0:
        raise WindowEmpty(
            f"no eigenvalue of the l={l} radial problem in "
            f"[{a}, {b}] at h={h}")
    return [float(E) for E in fine]
