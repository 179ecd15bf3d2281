"""Exact WKB machinery for the two-level conical-intersection model.

Amplitude series along admissible paths, the amplitude series at the
singular origin, the connection objects linking the origin,
turning-point, and infinity regions (c0, T1, T2, T3), the branching
matrix R(p, q), and the Wronskian and assembly helpers.

Solutions of h D_x u = A(x) u take the form

    u_pm(x) = e^{pm z(x)/h} * M_pm(H(x)) @ (w_even, w_odd)

where z is the phase integral of sqrt(g_plus g_minus), H = (g_minus /
g_plus)^{1/4} is the quarter power normalized by H(0) = 1, and
M_pm = assembly_matrix(H, pm) carries a 1/sqrt(2) normalization chosen so
that the two-solution Wronskian identities take the clean forms

    W(u_+(.; x0, xa), u_-(.; x0, yb)) = +2i w_even_+(yb)
    W(u_+(.; x0, xa), u_+(.; x0, yb)) = -2i e^{+2 z(yb)/h} w_odd_+(yb)

with no extra factor (the unnormalized product form gives twice these
values; the normalization cancels from every transfer-matrix ratio).
The module assembles no solution, so no test checks these identities;
the phases that enter the connection objects are the closed-form actions
of the actions module.

The amplitude corrections w_1 .. w_N obey a triangular system of linear
first-order equations driven by d log H.  Rather than nesting quadratures,
this module integrates that system directly along the path with a
high-order Runge-Kutta method, which keeps the exponential kernels in
their stable direction on admissible paths and yields every order in a
single sweep; the sweep carries z along the path with sqrt(g_plus g_minus)
on the branch that model.SymbolBranch tracks.  The same engine, seeded
with the known power-law behavior at the Fuchs singularity, produces the
series at the origin.

scipy.integrate (the sweeps) and scipy.special (loggamma, the one use
of scipy.special in the package) load inside the functions that call
them, so importing this module, or the package, loads numpy only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .actions import action_S01, action_S2inf
from .errors import (
    ConvergenceFailure,
    MonotonicityViolation,
    QuadratureFailure,
    TurningPointProximity,
)
from .model import SymbolBranch, _as_E_nu, _as_params, _check_h, turning_points
from .quadrature import ComplexPath, segment_point_distance

__all__ = [
    "AmplitudePair",
    "TransferMatrix",
    "amplitude_recurrence",
    "assembly_matrix",
    "branching_R",
    "connection_c0",
    "dlog_H",
    "origin_series",
    "transfer_T1",
    "transfer_T2",
    "transfer_T3",
    "wronskian",
]

_RTOL = 1e-11  # rtol of the amplitude ODE sweeps (atol is 1e-2 of it)
_MONO_SAMPLES = 64  # admissibility samples of sign * Re z per path segment
_SEED_SCALE = 1e-3  # origin-series start s = eps as a fraction of its scale
_C0_ORDER = 6  # origin-series order behind connection_c0's estimate


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class AmplitudePair:
    """Partial sums of the even and odd amplitude series at a path endpoint.

    terms holds the per-order endpoint values (w_0, w_1, ..., w_N); w_even
    sums the even entries, w_odd the odd ones.
    """

    w_even: complex
    w_odd: complex
    terms: tuple


@dataclass(frozen=True)
class TransferMatrix:
    """A 2x2 connection matrix (T1, T2, T3 or R) with its exact
    log-domain data.

    For the diagonal ones (T1, T3) the entries can overflow as e^{S/h};
    log_diag then stores the exact logarithms of the two diagonal
    entries, and det() works from those, so downstream algebra can stay
    in log form.
    """

    entries: tuple
    log_diag: tuple | None = None

    def entry(self, i, j):
        """Entry in 1-based (row, column) indexing."""
        return self.entries[i - 1][j - 1]

    def det(self):
        (a, b), (c, d) = self.entries
        if self.log_diag is not None and b == 0 and c == 0:
            return cmath.exp(self.log_diag[0] + self.log_diag[1])
        return a * d - b * c


# ---------------------------------------------------------------------------
# small helpers


def _exp_guard(w):
    """exp for log-domain magnitudes that may exceed the double range."""
    w = complex(w)
    if w.real > 709.0:
        return cmath.rect(math.inf, w.imag)
    return cmath.exp(w)


def _specials(tp):
    r0, r1, r2 = tp.r
    return np.asarray([r0, r1, r2, -r0, -r1, -r2, 0.0], dtype=complex)


def dlog_H(x, params):
    """Logarithmic derivative of the symbol quarter power, d/dx log H.

    H^4 = g_minus / g_plus, so the result is an exact rational function of
    x and needs no branch tracking.  Vectorized over x; poles sit at the
    six turning points +-r_i (and the apparent 1/x terms cancel at 0).
    """
    E, nu = _as_E_nu(params)
    x = np.asarray(x, dtype=complex)
    gp = nu / x - E + x * x
    gm = nu / x + E - x * x
    dgp = -nu / (x * x) + 2.0 * x
    dgm = -nu / (x * x) - 2.0 * x
    out = 0.25 * (dgm / gm - dgp / gp)
    if out.ndim == 0:
        return complex(out)
    return out


# ---------------------------------------------------------------------------
# amplitude recurrence along admissible paths


def _branch_states_along(tp, path):
    """Branch states anchored at each segment start, continued canonically
    from the origin to path.start and then along the path itself."""
    state = SymbolBranch(tp, path.start)
    states = []
    for a, c in path.segments():
        if state.at != a:
            state.advance(a)
        states.append(state.clone())
        state.advance(c)
    return states


def _amplitude_pair(y):
    """AmplitudePair at a sweep state y = (z, w_1, .., w_N), with w_0 = 1;
    y = 0 gives the base values."""
    terms = (1.0 + 0.0j,) + tuple(complex(v) for v in y[1:])
    return AmplitudePair(sum(terms[0::2], 0.0j), sum(terms[1::2], 0.0j),
                         terms)


def _triangular_sweep(coeffs, t_span, y0, sign, h, where, check=None):
    """One DOP853 sweep of y = (z, w_1, .., w_N) over t_span in the
    triangular system of amplitude_recurrence, coeffs(t) = (dz/dt,
    d log H/dt); check sees the dense solution before a failure raises."""
    from scipy.integrate import solve_ivp

    N = len(y0) - 1
    rate = 2.0 / h

    def rhs(t, yv):
        zr, phv = coeffs(t)
        dy = np.empty_like(yv)
        dy[0] = zr
        prev = 1.0 + 0.0j
        for n in range(1, N + 1):
            if n % 2 == 1:
                dy[n] = -sign * rate * zr * yv[n] + phv * prev
            else:
                dy[n] = phv * prev
            prev = yv[n]
        return dy

    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=_RTOL,
                    atol=1e-2 * _RTOL, dense_output=check is not None)
    if check is not None:
        check(sol)
    if not sol.success:
        raise QuadratureFailure(
            f"amplitude integration failed on {where}: {sol.message}"
        )
    return sol


def amplitude_recurrence(path, params, N, sign=1):
    """Amplitude corrections w_1 .. w_N along an admissible path.

    The corrections satisfy the triangular linear system

        d w_odd / dz  = -sign * (2/h) w_odd + (H'/H) w_prev
        d w_even / dz =                       (H'/H) w_prev

    which is integrated in the path parameter in one sweep; the base values
    are w_0 = 1 and w_n(path.start) = 0 for n >= 1.  The path must keep
    clear of all turning points and of the origin, and sign * Re z must
    increase along it (checked at _MONO_SAMPLES points per segment of the
    sweep's own z); otherwise the exponential kernel would grow unstably.
    """
    p = _as_params(params)
    E, nu, h = p.E, p.nu, p.h
    sign = int(sign)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    N = int(N)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if not isinstance(path, ComplexPath):
        path = ComplexPath(tuple(path))
    segs = path.segments()
    if not segs:
        return _amplitude_pair(np.zeros(N + 1, dtype=complex))

    tp = turning_points(E, nu)
    specials = _specials(tp)
    scale = max(1.0, abs(tp.r2))
    d_clear = 1e-3 * scale
    for a, c in segs:
        dist = segment_point_distance(a, c, specials)
        if float(np.min(dist)) < d_clear:
            j = int(np.argmin(dist))
            raise TurningPointProximity(
                f"amplitude path comes within {float(dist[j]):.2e} of "
                f"{specials[j]:.6g}; the recurrence needs a turning-point-"
                f"free region"
            )

    samples = np.linspace(0.0, 1.0, _MONO_SAMPLES + 1)[1:]
    re = [0.0]

    def admissible(sol):
        # sign * Re z may not decrease between samples
        re.extend(sign * sol.sol(samples[samples <= sol.t[-1]])[0].real)
        drops = np.diff(re)
        if drops.size and drops.min() < -1e-9 * (1.0 + max(re) - min(re)):
            k = int(np.argmin(drops))
            raise MonotonicityViolation(
                f"sign*Re z decreases by {-drops[k]:.3e} near sample {k} "
                f"(of {len(re)}); the path is not admissible for "
                f"sign={sign:+d}"
            )

    y = np.zeros(N + 1, dtype=complex)
    for (a, c), S in zip(segs, _branch_states_along(tp, path)):
        dx = c - a

        def coeffs(t, S=S, dx=dx, a=a):
            xnode = a + t * dx
            return (complex(S.sqrt_gg_at([xnode])[0]) * dx,
                    complex(dlog_H(xnode, (E, nu))) * dx)

        sol = _triangular_sweep(coeffs, (0.0, 1.0), y, sign, h,
                                f"segment {a:.4g} -> {c:.4g}", admissible)
        y = sol.y[:, -1].copy()
    return _amplitude_pair(y)


# ---------------------------------------------------------------------------
# amplitude series at the singular origin


def origin_series(params, x_on_imag_axis, N):
    """Amplitude series of the recessive solution at the origin, evaluated
    at a point x = iR on the positive imaginary axis.

    On that axis the phase rate sqrt(nu^2 + s^2 (E + s^2)^2) / s is real
    and the exponential kernel of the odd steps stays below one, so the
    recursion is integrated directly as in amplitude_recurrence.  The base
    point is the origin itself: the integration starts at a small s = eps
    with the power-law seed w_1(eps) = phi(eps) eps / (1 + 2 nu_tilde)
    (relative error O(eps^2)) that the Fuchs exponent dictates, and zeros
    for the higher orders.

    Raises ConvergenceFailure when the same-parity terms are still growing
    at order N, which happens once h tau^2 is too large for the factorial
    decay to have set in.
    """
    p = _as_params(params)
    E, nu, h, nt = p.E, p.nu, p.h, p.nu_tilde
    x = complex(x_on_imag_axis)
    N = int(N)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if x == 0:
        return _amplitude_pair(np.zeros(N + 1, dtype=complex))
    if not (x.imag > 0.0) or abs(x.real) > 1e-12 * abs(x):
        raise ValueError(
            f"evaluation point must lie on the positive imaginary axis, "
            f"got {x}"
        )
    R = x.imag

    def radicand(s):
        return nu * nu + s * s * (E + s * s) ** 2

    # the rate never vanishes on the axis for E near the positive reals;
    # guard against a stray complex E bringing a zero close
    sgrid = np.linspace(0.0, R, 65)
    if float(np.min(np.abs(radicand(sgrid)))) < (1e-6 * max(1.0, abs(E))) ** 2:
        raise TurningPointProximity(
            "the phase rate nearly vanishes on the imaginary axis for "
            f"E={E}; the origin series is not defined there"
        )

    def phi(s):
        return 1j * dlog_H(1j * s, (E, nu))

    def coeffs(s):
        return cmath.sqrt(radicand(s)) / s, complex(phi(s))

    eps = _SEED_SCALE * min(R, abs(nu) / max(abs(E), 1.0))
    y0 = np.zeros(N + 1, dtype=complex)
    if N >= 1:
        y0[1] = complex(phi(eps)) * eps / (1.0 + 2.0 * nt)
    sol = _triangular_sweep(coeffs, (eps, R), y0, 1, h,
                            f"({eps:.2e}, {R:.4g})")
    pair = _amplitude_pair(sol.y[:, -1])
    terms = pair.terms
    if N >= 3 and abs(terms[N]) > abs(terms[N - 2]) and \
            abs(terms[N]) > 1e-13 * (1.0 + abs(pair.w_even)):
        raise ConvergenceFailure(
            f"origin series still growing at order {N}: |w_{N}| = "
            f"{abs(terms[N]):.3e} > |w_{N - 2}| = {abs(terms[N - 2]):.3e}"
        )
    return pair


def connection_c0(params, with_estimate=False):
    """Leading coefficients (c0_plus, c0_minus) = (1, -i) of the recessive
    origin solution on the exact WKB basis, with the overall normalization
    fixed to 1 (the common factor cancels from the resonance condition).

    With with_estimate=True the pair comes with a proxy for the neglected
    o(1): the odd/even amplitude ratio of the origin series at the
    matching scale i sqrt(nu) |E|^{-1/4}, halfway (geometrically) between
    the origin region and the turning-point scale.  The even series
    saturates at an h-stable constant that the free normalization absorbs;
    the odd admixture is what shifts the coefficient ratio off -i, and it
    vanishes as h decreases.
    """
    p = _as_params(params)
    pair = (1.0 + 0.0j, -1.0j)
    if not with_estimate:
        return pair
    x_match = 1j * math.sqrt(p.nu) * abs(p.E) ** -0.25
    ap = origin_series(p, x_match, _C0_ORDER)
    est = abs(ap.w_odd) / max(abs(ap.w_even), 1e-300)
    return pair, est


# ---------------------------------------------------------------------------
# transfer matrices


def transfer_T1(params):
    """Diagonal transfer across the inner turning-point pair:
    diag(e^{S01/h}, e^{-S01/h}), determinant exactly one (S01 closed-form)."""
    p = _as_params(params)
    s01 = action_S01((p.E, p.nu))
    l11 = s01.value / p.h
    entries = ((_exp_guard(l11), 0.0 + 0.0j),
               (0.0 + 0.0j, _exp_guard(-l11)))
    return TransferMatrix(entries, log_diag=(l11, -l11))


def _log_minus_t(E, h, nt):
    """log(-t) = log(sqrt(pi h/2) nu_tilde) - (3/4) log E - i pi/4 of the T2
    entry t and its E-derivative; quantization._A_and_dE adds 2 S01/h."""
    return (math.log(math.sqrt(0.5 * math.pi * h) * nt)
            - 0.75 * cmath.log(E)
            - 0.25j * math.pi), -0.75 / E


def transfer_T2(params):
    """Turning-point transfer at sqrt(E) in the leading semiclassical order.

    t(E, h) = -sqrt(pi h / 2) nu_tilde E^{-3/4} e^{-i pi/4}  (+ O(h log h))
    s(E, h) = -i                                             (+ O(h))

    The second row is the analytic continuation of (-conj(s), -conj(t));
    for real E the matrix has the exact sign structure
    ((t, s), (-conj(s), -conj(t))).  The leading-order coupling at the
    crossing is gamma = nu_tilde E^{-3/4} h / sqrt(2), the argument
    branching_R takes with this h.
    """
    p = _as_params(params)
    E, h, nt = p.E, p.h, p.nu_tilde
    t = -cmath.exp(_log_minus_t(E, h, nt)[0])
    return TransferMatrix(((t, -1.0j), (-1.0j, -1.0j * t)))


def transfer_T3(params):
    """Transfer from the outer turning point to the outgoing region:
    2 e^{-i pi/4} diag(e^{S2inf/h}, e^{-S2inf/h}) with the exponentially
    small off-diagonal entries set to zero."""
    p = _as_params(params)
    s2 = action_S2inf((p.E, p.nu))
    c = math.log(2.0) - 0.25j * math.pi
    l11 = c + s2.value / p.h
    l22 = c - s2.value / p.h
    entries = ((_exp_guard(l11), 0.0 + 0.0j),
               (0.0 + 0.0j, _exp_guard(l22)))
    return TransferMatrix(entries, log_diag=(l11, l22))


def branching_R(gamma, h):
    """Branching matrix ((p, q), (-q, -p)) of the microlocal normal form.

    With x = |gamma|^2 / (2h),

        p = h^{1/2 - i x} Gamma(1 - i x) e^{+pi x / 2} / (i gamma sqrt(pi))
        q = the same with e^{-pi x / 2},

    computed through complex log-Gamma.  The exact identities
    |p|^2 - |q|^2 = 1, p conj(q) = conj(p) q and p/q = e^{pi x} hold.
    """
    from scipy.special import loggamma

    g = complex(gamma)
    if g == 0:
        raise ValueError("gamma must be nonzero")
    h = _check_h(h)
    xpar = abs(g) ** 2 / (2.0 * h)
    logc = ((0.5 - 1j * xpar) * math.log(h)
            + loggamma(1.0 - 1j * xpar)
            - cmath.log(1j * g * math.sqrt(math.pi)))
    log_p = logc + 0.5 * math.pi * xpar
    log_q = logc - 0.5 * math.pi * xpar
    pv = _exp_guard(log_p)
    qv = _exp_guard(log_q)
    return TransferMatrix(((pv, qv), (-qv, -pv)))


# ---------------------------------------------------------------------------
# Wronskian and solution assembly


def wronskian(u, v):
    """W(u, v) = u1 v2 - u2 v1 for two C^2-valued vectors."""
    return u[0] * v[1] - u[1] * v[0]


def assembly_matrix(H, sign):
    """The 2x2 matrix that turns (w_even, w_odd) into a solution vector,
    including the 1/sqrt(2) normalization of the module docstring."""
    H = complex(H)
    a = 1.0 / H
    b = 1j * H if int(sign) > 0 else -1j * H
    c = 2.0 ** -0.5
    return c * np.array([[a - b, a + b], [-a - b, -a + b]], dtype=complex)
