"""Direct-integration oracle for the reduced two-level system.

Everything here treats hD_x u = A(x)u as an ordinary differential
equation and nothing more: a Frobenius series starts the regular
solution at the origin, an adaptive integrator carries it along complex
contours, and the outgoing Jost coefficient c+ is read off on a rotated
ray where the e^{+i(x^3-3Ex)/3h} solution dominates. Resonances are
located as zeros of c+ by secant iteration, certified by an
argument-principle winding count on a surrounding circle. A separate
Chebyshev eigensolve of the h-free scaled radial problem finds the
eigenvalues of the scalar radial comparison operator. None of this
shares code or expansions with the WKB route, which is the point: the
two routes check each other.

Contour layout for c+: a real segment from eps to x_mid (the geometric
mean of the two outer turning-point moduli), a circular arc down to the
ray arg x = -theta, then the ray out to R_max. On the ray the
integration runs in the gauged variable v = u e^{-i(x^3-3Ex)/3h}, which
keeps the dominant component O(1) and turns the recessive one into a
decaying mode. The realified system goes to explicit DOP853 up to the
dominance radius, where the recessive mode is down by 40 e-folds and
still oscillating, and to implicit Radau from there on, where that mode
is dead and would otherwise throttle the step size. The quotient v_1
converges to c+ with a relative tail nu^2/(6 h t^3), so the default
R_max is chosen to push that tail below the plateau tolerance across
the sampled final decade.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import math
from dataclasses import dataclass

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
from .quadrature import ComplexPath
from .quantization import (
    ResonanceRecord,
    _branch_coordinate,
    _E_of_lambda,
    lattice_point,
)


def _deferred(module, name, *args, **kwargs):
    return getattr(importlib.import_module(module), name)(*args, **kwargs)


# scipy.integrate loads on the first ODE solve, not on import: the
# package, the CLI on its Bohr-Sommerfeld path and the radial eigensolve
# never need it.  solve_ivp stays a module attribute because perfbench's
# tracer rebinds it here; nothing calls brentq, which is kept only
# because that tracer wraps it unconditionally.
solve_ivp = functools.partial(_deferred, "scipy.integrate", "solve_ivp")
brentq = functools.partial(_deferred, "scipy.optimize", "brentq")


def _coeff_matrix(x, E, nu):
    return np.array([[x * x - E, nu / x], [-nu / x, E - x * x]],
                    dtype=complex)


@dataclass(frozen=True)
class IntegrationResult:
    """Endpoint of a contour integration of the reduced system.

    u_end is the solution vector (or 2x2 fundamental pair) at the final
    vertex. wronskian_drift is the largest relative deviation of the
    monitored Wronskian from its starting value; the system is
    trace-free, so the exact Wronskian is constant and the drift is a
    pure integration-error meter. steps counts accepted solver steps.
    """

    u_end: np.ndarray
    wronskian_drift: float
    steps: int
    path: ComplexPath


@dataclass(frozen=True)
class JostEstimate:
    """Outgoing Jost coefficient with its extraction quality.

    plateau_error is the largest deviation of the quotient
    u_1 e^{-i(x^3-3Ex)/3h} from its value at R_max over the sampled
    final decade of the ray.
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

    Raises SeriesDivergence when the terms fail to decay at eps.
    """
    E, h, nt, nu = _as_params(params, "half-integer")
    if K < 8:
        raise ValueError(f"series order K must be at least 8, got {K}")
    tp = turning_points(E, nu)
    r0 = abs(tp.r0)
    if eps is None:
        eps = 1e-3 * min(1.0, r0)
    eps = float(eps)
    if not 0.0 < eps <= 1e-2 * r0:
        raise ValueError(
            f"eps={eps} outside (0, {1e-2 * r0:.3e}]; the series start "
            "must sit well inside the innermost turning point")
    a = np.zeros((K + 1, 2), dtype=complex)
    a[0] = (1.0, -1.0j)
    ih = 1j / h
    for n in range(1, K + 1):
        rhs = ih * E * np.array([-a[n - 1][0], a[n - 1][1]])
        if n >= 3:
            rhs = rhs + ih * np.array([a[n - 3][0], -a[n - 3][1]])
        det = n * (n + 2.0 * nt)
        a[n, 0] = ((n + nt) * rhs[0] + 1j * nt * rhs[1]) / det
        a[n, 1] = (-1j * nt * rhs[0] + (n + nt) * rhs[1]) / det
    terms = np.abs(a).max(axis=1) * eps ** np.arange(K + 1)
    if terms[-1] > terms[-2] or terms[-1] > 1e-6 * terms.max():
        raise SeriesDivergence(
            f"series terms fail to decay at eps={eps}: last ratios "
            f"{terms[-2]:.3e} -> {terms[-1]:.3e}")
    u = (a * (eps ** np.arange(K + 1))[:, None]).sum(axis=0) * eps ** nt
    return u, a


def _segment_rejects_origin(a, b):
    """Distance from the origin to segment [a, b], for the path check."""
    d = b - a
    L2 = (d * d.conjugate()).real
    if L2 == 0.0:
        return abs(a)
    t = max(0.0, min(1.0, -((a * d.conjugate()).real) / L2))
    return abs(a + t * d)


def _phase_qr(M):
    """QR factorization with the diagonal of R made real positive."""
    Q, R = np.linalg.qr(M)
    d = np.diag(R)
    if np.any(np.abs(d) == 0.0):
        raise StepUnderflow("fundamental pair collapsed to rank one")
    ph = d / np.abs(d)
    return Q * ph[None, :], R / ph[:, None]


def integrate_system(params, path, u_start, rtol=1e-11, atol=None,
                     max_steps=2_000_000):
    """Integrate hD_x u = Au along a polyline in the complex plane.

    u_start may be a 2-vector or a 2x2 fundamental pair (columns). A
    vector input is silently augmented with an independent companion
    column so the constant-Wronskian property of the trace-free system
    can be monitored; only the original vector is returned. The ODE is
    solved in the real arclength parameter of each segment, du/dt =
    e (i/h) A(x) u with e the unit segment direction.

    The Wronskian meter works on renormalized chunks: whenever the
    solution amplitude moves by six e-folds, the pair is
    orthonormalized (the triangular factors are accumulated to rebuild
    the true endpoint) and the determinant is watched over the next
    chunk from a fresh O(1) start. Without this, any stretch where one
    solution dominates makes the two products in the determinant cancel
    below roundoff, and the meter would report that cancellation noise,
    e^{2S/h} above machine precision, instead of integration error.
    The reported drift is the accumulated relative deviation over all
    chunks.

    Raises StepUnderflow when the solver gives up, the accepted-step
    budget is exceeded, or the solution leaves the representable range;
    ValueError for paths through the origin.
    """
    E, h, nt, nu = _as_params(params, "nonnegative")
    if not isinstance(path, ComplexPath):
        path = ComplexPath(tuple(path))
    u0 = np.asarray(u_start, dtype=complex)
    vector_input = u0.shape == (2,)
    if vector_input:
        comp = np.array([0.0, 1.0]) if abs(u0[0]) >= abs(u0[1]) \
            else np.array([1.0, 0.0])
        M = np.column_stack([u0, comp]).astype(complex)
    elif u0.shape == (2, 2):
        M = u0.copy()
    else:
        raise ValueError(f"u_start must be a 2-vector or 2x2, got {u0.shape}")
    if M[0, 0] * M[1, 1] - M[1, 0] * M[0, 1] == 0:
        raise ValueError("u_start columns are linearly dependent")

    segs = path.segments()
    if not segs:
        return IntegrationResult(u0 if vector_input else M, 0.0, 0, path)
    scale = max(abs(v) for v in path.vertices)
    for a, b in segs:
        if nu != 0.0 and _segment_rejects_origin(a, b) < 1e-12 * scale:
            raise ValueError("path passes through the origin")

    Q, R_acc = _phase_qr(M)
    y = Q.reshape(4)
    drift = 0.0
    steps = 0
    for a, b in segs:
        L = abs(b - a)
        e = (b - a) / L

        def f(t, yy):
            x = a + t * e
            return (e * (1j / h)) * (_coeff_matrix(x, E, nu)
                                     @ yy.reshape(2, 2)).reshape(4)

        t_here = 0.0
        for _ in range(100_000):
            base = math.log(float(np.abs(y).sum()))

            def moved(t, yy, base=base):
                return math.log(float(np.abs(yy).sum())) - base

            def grew(t, yy):
                return moved(t, yy) - 6.0

            def shrank(t, yy):
                return moved(t, yy) + 6.0

            grew.terminal = True
            grew.direction = 1
            shrank.terminal = True
            shrank.direction = -1
            sol = solve_ivp(f, (t_here, L), y, method="DOP853", rtol=rtol,
                            atol=(atol if atol is not None else 1e-14),
                            events=(grew, shrank))
            if not sol.success:
                raise StepUnderflow(
                    f"integration stalled on segment {a} -> {b}: "
                    f"{sol.message}; shorten the path or stay in the "
                    "h >= 0.05 regime")
            steps += len(sol.t) - 1
            if steps > max_steps:
                raise StepUnderflow(
                    f"accepted-step budget {max_steps} exceeded; shorten "
                    "the path or stay in the h >= 0.05 regime")
            W = sol.y[0] * sol.y[3] - sol.y[1] * sol.y[2]
            drift += float(np.max(np.abs(W - W[0])) / abs(W[0]))
            y = sol.y[:, -1]
            t_prev, t_here = t_here, float(sol.t[-1])
            Q, R = _phase_qr(y.reshape(2, 2))
            R_acc = R @ R_acc
            if not np.all(np.isfinite(R_acc)):
                raise StepUnderflow(
                    "solution magnitude left the representable range; "
                    "shorten the path")
            y = Q.reshape(4)
            if sol.status == 0:
                break
            if t_here <= t_prev:
                raise StepUnderflow(
                    f"no progress at arclength {t_here} on segment "
                    f"{a} -> {b}")
        else:
            raise StepUnderflow(f"renormalization budget exceeded on "
                                f"segment {a} -> {b}")
    M = y.reshape(2, 2) @ R_acc
    if not np.all(np.isfinite(M)):
        raise StepUnderflow("solution magnitude left the representable "
                            "range; shorten the path")
    u_end = M[:, 0] if vector_input else M
    return IntegrationResult(u_end, drift, steps, path)


def _gauged_ray(E, h, nu, theta, t0, t_switch, t1, v0, t_eval, rtol):
    """Integrate v' = e^{-i th}(i/h)(A - (x^2-E)I)v along x = t e^{-i th}.

    The realified system runs in two stages with one right-hand side
    and one analytic Jacobian. On [t0, t_switch] the recessive
    component still oscillates at frequency ~ 2 t^2 cos(3 th)/h and has
    barely decayed: the problem is not stiff there, accuracy sets the
    step, and explicit DOP853 crosses it in at most a few hundred steps
    where Radau would spend most of its work. t_switch is the dominance radius, where the
    recessive mode is down by 40 e-folds; beyond it the decay rate
    ~ 2 t^2 sin(3 th)/h throttles any explicit method, while the
    remaining dynamics is the slow 1/t^3 relaxation of the quotient, so
    implicit Radau IIA takes over and strides to t1. LSODA's automatic
    switching is not a substitute: near a zero of c+ its endpoint error
    is ~1e-8 of |c+| on the certification ring even at rtol 1e-13, the
    size of the certificate itself. Returns v_1 at t_eval and the absolute
    tolerance used.
    """
    w = cmath.exp(-1j * theta)
    g = (1j / h) * w

    def rhs(t, y):
        v1 = y[0] + 1j * y[2]
        v2 = y[1] + 1j * y[3]
        x = t * w
        om = nu / x
        d1 = g * om * v2
        d2 = g * (-om * v1 - 2.0 * (x * x - E) * v2)
        return np.array([d1.real, d2.real, d1.imag, d2.imag])

    def jac(t, y):
        x = t * w
        om = nu / x
        J = np.array([[0.0, g * om], [-g * om, -2.0 * g * (x * x - E)]])
        return np.block([[J.real, -J.imag], [J.imag, J.real]])

    y0 = np.array([v0[0].real, v0[1].real, v0[0].imag, v0[1].imag])
    atol = 1e-14 * max(float(np.max(np.abs(v0))), 1e-290)
    sol = solve_ivp(rhs, (t0, t_switch), y0, method="DOP853", rtol=rtol,
                    atol=atol)
    if sol.success:
        sol = solve_ivp(rhs, (t_switch, t1), sol.y[:, -1], method="Radau",
                        jac=jac, rtol=rtol, atol=atol, t_eval=t_eval)
    if not sol.success:
        raise StepUnderflow(f"ray integration stalled: {sol.message}")
    return sol.y[0] + 1j * sol.y[2], atol


def jost_cplus(params, theta=0.5, R_max=None, eps=None, K=20, rtol=1e-11):
    """Outgoing Jost coefficient of the regular solution.

    Starts u ~ x^nu_tilde (1,-i) at eps, carries it along
    [eps, x_mid], an arc down to arg x = -theta, and the rotated ray,
    then reads c+ as the plateau of u_1 e^{-i(x^3-3Ex)/3h} over the
    final decade. theta must lie in (0, pi/3) so the outgoing solution
    grows on the ray; R_max must keep sin(3 theta) R^3/(3h) >= 40 so
    the recessive component is dead at the extraction radius.

    Raises NoPlateau when the sampled quotient does not stabilize
    (raise R_max or theta).
    """
    E, h, nt, nu = _as_params(params, "half-integer")
    if not 0.0 < theta < math.pi / 3.0:
        raise ValueError(f"theta must lie in (0, pi/3), got {theta}")
    s3 = math.sin(3.0 * theta)
    tp = turning_points(E, nu)
    x_mid = math.sqrt(abs(tp.r1) * abs(tp.r2))
    R_dom = (120.0 * h / s3) ** (1.0 / 3.0)
    if R_max is None:
        R_plateau = (3.4e8 * nt * nt * h) ** (1.0 / 3.0)
        R_max = max(R_dom, R_plateau, 12.0 * x_mid)
    R_max = float(R_max)
    if s3 * R_max ** 3 / (3.0 * h) < 40.0:
        raise ValueError(
            f"R_max={R_max} leaves dominance margin "
            f"{s3 * R_max ** 3 / (3.0 * h):.1f} < 40")
    if R_max <= 1.1 * x_mid:
        raise ValueError(f"R_max={R_max} does not clear the arc radius "
                         f"{x_mid:.3f}")

    u_eps, _ = frobenius_init((E, h, nt), eps=eps, K=K)
    eps_used = (1e-3 * min(1.0, abs(tp.r0))) if eps is None else float(eps)
    arc = [x_mid * cmath.exp(-1j * theta * s)
           for s in np.linspace(0.0, 1.0, 33)]
    inner = integrate_system((E, h, nt), [eps_used, x_mid] + arc[1:],
                             u_eps, rtol=rtol)
    xs = x_mid * cmath.exp(-1j * theta)
    gauge = cmath.exp(-1j * (xs ** 3 - 3.0 * E * xs) / (3.0 * h))
    v0 = inner.u_end * gauge

    lo = max(R_max / 10.0, 1.02 * x_mid)
    t_eval = np.geomspace(lo, R_max, 33)
    # the switch stays inside [x_mid, lo] so every plateau sample comes
    # from the Radau stage; the ray runs at a tenth of the contour
    # tolerance because at h = 0.05 the secant otherwise stalls on the
    # c+ noise floor just above the 1e-8 certificate
    t_switch = min(max(R_dom, x_mid), lo)
    q, atol_used = _gauged_ray(E, h, nu, theta, x_mid, t_switch, R_max, v0,
                               t_eval, 0.1 * min(rtol, 1e-10))
    c_plus = complex(q[-1])
    plateau_error = float(np.max(np.abs(q - c_plus)))
    if plateau_error > max(1e-6 * abs(c_plus), 50.0 * atol_used):
        raise NoPlateau(
            f"quotient varies by {plateau_error:.3e} against "
            f"|c+|={abs(c_plus):.3e} over [{lo:.1f}, {R_max:.1f}]; "
            "raise R_max or theta")
    return JostEstimate(c_plus, plateau_error, R_max, theta)


def find_resonance_ode(params, E_seed, tol_rel=1e-8, max_iter=30,
                       theta=0.5, ring_points=16):
    """Zero of c+(E) near E_seed, certified by a winding count.

    Secant iteration on the full complex Jost coefficient; the seed is
    expected to come from the lattice or a quantization solve. Because
    a seed can land between two zeros (on a ridge of |c+|), the search
    ladder also tries the two points half a lattice spacing away in
    lambda = E^{3/2}. The secant iterate with the smallest |c+| is the
    candidate, and convergence demands its |c+| below tol_rel times the
    median |c+| on a ring around it; SpuriousZero reports a ring
    winding number different from one. The returned record carries
    residual = |c+|/median(ring) and the seed's lattice index k.
    """
    E0_seed = complex(E_seed)
    _, h, nt, _ = _as_params(params, "half-integer")
    lam_seed = cmath.exp(1.5 * cmath.log(E0_seed))
    dlam = 1.5 * math.pi * h
    ladder = [E0_seed,
              _E_of_lambda(lam_seed + 0.5 * dlam),
              _E_of_lambda(lam_seed - 0.5 * dlam)]
    last_error = None
    for seed in ladder:
        try:
            return _secant_certified(seed, h, nt, tol_rel, max_iter, theta,
                                     ring_points, lam_seed)
        except (NoConvergence, SpuriousZero, NoPlateau,
                StepUnderflow) as exc:
            last_error = exc
    raise last_error


def _secant_certified(E_start, h, nt, tol_rel, max_iter, theta,
                      ring_points, lam_seed):
    def c_of(E):
        return jost_cplus((E, h, nt), theta=theta).c_plus

    E0 = E_start
    E1 = E_start * (1.0 + 1e-4 * (0.7 - 0.7j))
    c0, c1 = c_of(E0), c_of(E1)
    c_scale = max(abs(c0), abs(c1))
    # at the noise floor of the ray the secant can step off its best
    # point, so the ring is centred on the best point evaluated
    best = min((E0, c0), (E1, c1), key=lambda ec: abs(ec[1]))
    evals = 2
    step = abs(E1 - E0)
    for _ in range(max_iter):
        denom = c1 - c0
        if denom == 0:
            break
        dE = -c1 * (E1 - E0) / denom
        E0, c0 = E1, c1
        E1 = E1 + dE
        if abs(E1 - E_start) > 0.6 * abs(E_start):
            raise NoConvergence(
                f"secant left the search region: E={E1:.6f}")
        c1 = c_of(E1)
        evals += 1
        if abs(c1) < abs(best[1]):
            best = (E1, c1)
        step = abs(dE)
        if step < 1e-12 * abs(E1) or abs(c1) < 1e-13 * c_scale:
            break
    E1, c1 = best
    rho = max(1e-4 * abs(E1), 100.0 * step)
    ring = np.array([c_of(E1 + rho * cmath.exp(2j * math.pi * j
                                               / ring_points))
                     for j in range(ring_points)])
    med = float(np.median(np.abs(ring)))
    if not abs(c1) < tol_rel * med:
        raise NoConvergence(
            f"|c+|={abs(c1):.3e} not below {tol_rel:.1e} x ring median "
            f"{med:.3e} after {evals} evaluations")
    ph = np.angle(ring)
    dph = np.diff(np.concatenate([ph, ph[:1]]))
    winding = round(float(((dph + math.pi) % (2.0 * math.pi)
                           - math.pi).sum() / (2.0 * math.pi)))
    if winding != 1:
        raise SpuriousZero(
            f"ring winding {winding} != 1 around E={E1:.8f}")
    lam = cmath.exp(1.5 * cmath.log(E1))
    k = round(_branch_coordinate(lam_seed.real, nt, h))
    try:
        lam_lat = lattice_point(k, nt, h)
    except ValueError:
        lam_lat = lam
    return ResonanceRecord(k=k, nu_tilde=nt, lambda_lat=lam_lat, lam=lam,
                           E=E1, method="ode-oracle",
                           residual=abs(c1) / med, iterations=evals)


def _cheb(N):
    """Chebyshev points x_j = cos(pi j / N), j = 0..N, and the
    differentiation matrix on them (Trefethen, Spectral Methods in
    MATLAB, cheb.m)."""
    x = np.cos(math.pi * np.arange(N + 1) / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** np.arange(N + 1)
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    return D - np.diag(D.sum(axis=1)), x


def _scaled_radial_levels(l, S, N):
    """Real eigenvalues e of -u'' + ((l^2-1/4)/s^2 + s)u = e u on [0, S]
    with u(S) = 0, by Chebyshev collocation of degree N.

    In t = sqrt(s) the problem reads
    -t^2 u_tt + t u_t + (4 l^2 - 1 + 4 t^6) u = 4 e t^4 u, whose regular
    solution t^{2l+1} is a polynomial.  Dropping the collocation row and
    column at t = 0 keeps that solution and discards the singular
    t^{1-2l} one; dropping them at t = sqrt(S) imposes u(S) = 0.  The
    weight 4 t^4 is positive on the interior nodes, so the generalized
    problem reduces to a plain eigenvalue problem.
    """
    D, x = _cheb(N)
    T = math.sqrt(S)
    t = 0.5 * T * (x[1:-1] + 1.0)
    D1 = (2.0 / T) * D
    D2 = (D1 @ D1)[1:-1, 1:-1]
    A = (-(t * t)[:, None] * D2 + t[:, None] * D1[1:-1, 1:-1]
         + np.diag(4.0 * l * l - 1.0 + 4.0 * t ** 6))
    ev = np.linalg.eigvals(A / (4.0 * t ** 4)[:, None])
    return np.sort(ev[ev.imag == 0.0].real)


def pplus_eigen_oracle(l, h, E_window):
    """Eigenvalues of the radial comparison operator inside E_window.

    -h^2(u'' + (1/4 - l^2)/r^2 u) + (r - E)u = 0 on the half-line
    becomes h-free under r = h^{2/3} s, E = h^{2/3} e, so every level is
    e h^{2/3} with e an eigenvalue of the scaled problem, found by one
    Chebyshev eigensolve (_scaled_radial_levels).  The box [0, S] ends
    25 units past the scaled window top, where every level in the
    window has decayed by more than e^{-80}, and the degree
    N = 12 S^{3/4} resolves those levels to about 1e-13.  The solve is
    repeated at a third more nodes; the two must agree on the count
    and to 1e-10 relative, or ConvergenceFailure is raised.

    Raises WindowEmpty when no eigenvalue lies in the window.
    """
    h, l = _check_h_l(h, l)
    a, b = float(E_window[0]), float(E_window[1])
    if not 0.0 < a < b:
        raise ValueError(f"E_window must satisfy 0 < a < b, got ({a}, {b})")
    h23 = h ** (2.0 / 3.0)
    S = b / h23 + 25.0
    N = math.ceil(12.0 * S ** 0.75)
    Ns = (N, math.ceil(4.0 * N / 3.0))
    levels = []
    for n in Ns:
        E = _scaled_radial_levels(l, S, n) * h23
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
