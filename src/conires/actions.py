"""Action integrals of the reduced model and their scaled comparators.

The five objects computed here:

    S01(E, nu)  action between the inner turning points r0 and r1,
                S01 = int sqrt(nu^2 - r^2 (E - r^2)^2) / r dr
                    = int_{x0}^{x1} sqrt(-(y-x0)(y-x1)(y-x2)) / (2y) dy,
    S2inf       regularized action from r2 to infinity,
    S12         barrier action of the scalar comparison operator,
    I(mu)       scaled version of S01: S01 = i E^{3/2} I(nu E^{-3/2}),
    I+(mu)      scaled version of S12,

together with the residue R(mu) = -pi mu, the tunneling integral T(mu), and
the derivative dS01/dE used by the quantization Newton steps.

S01 and dS01/dE are complete elliptic integrals between two roots of the
cubic and are evaluated in closed form through Carlson's symmetric
integrals R_F, R_D, R_J (Carlson, Numer. Algorithms 10 (1995); DLMF
19.29), both from one root solve (action_S01_pair).  The other actions
integrate along contours by adaptive quadrature (quadrature module).

Branches: for real E > 0 and small nu, S01 and S12 are purely imaginary with
positive imaginary part, I and I+ are real positive near 2/3.  All square
roots are continued from those normalizations.  I(mu) for complex mu is
reached by rotating arg(mu) stepwise from the positive real axis while the
integration contour deforms with the cubic roots; one root winds around the
pole of the weight at y = 0, which is what produces the monodromy
I(e^{i pi} mu) = I(mu) + R(mu) + T(mu).

Contour normalization at the origin: the centrifugal pole at r = 0 carries
residue nu (branch anchored positive there), and the action contours wrap
half-way around it, so each of S01 and S12 exceeds its plain
segment-between-turning-points value by the exact half-residue i pi nu
(respectively i pi h sqrt(l^2 - 1/4)); in scaled form I and I+ gain +pi mu.
That term is E-independent and is added in closed form.  It is what turns
the naive endpoint expansion 2/3 - (pi/2) mu into the correct
2/3 + (pi/2) mu and makes the monodromy identity come out with
R(mu) = -pi mu.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np
from scipy.special import elliprd, elliprf, elliprj

from .errors import (
    BranchAmbiguity,
    NoRealTurningPoints,
    TurningPointProximity,
)
from .model import _as_E_nu, _cardano_any, _check_h_l, _match, cubic_roots
from .quadrature import (
    adaptive_segment,
    polyline_sqrt_ref,
    segment_point_distance,
    sqrt_cubic_polyline,
    sqrt_cubic_segment,
)

__all__ = [
    "ActionValue",
    "MU_CRITICAL",
    "action_I",
    "action_Iplus",
    "action_S01",
    "action_S01_dE",
    "action_S01_pair",
    "action_S12",
    "action_S2inf",
    "residue_R",
    "tunnel_T",
]

# coupling strength at which the two relevant cubic roots collide
MU_CRITICAL = math.sqrt(4.0 / 27.0)

_ARC_RADIUS = 0.2  # unwinding radius around the weight pole at y = 0

# relative roundoff bound of the closed-form S01 and dS01/dE, applied to
# the moduli of the terms they sum
_ROUNDOFF = 16.0 * 2.0 ** -52


class ActionValue(NamedTuple):
    value: complex
    est_error: float
    n_evals: int


def _labeled_roots(E, nu):
    cr = cubic_roots(E, nu)
    if cr.degenerate:
        raise TurningPointProximity(
            f"turning points degenerate at E={E}, nu={nu}"
        )
    return cr.roots


def _imag_ref(E):
    """Branch reference i E^{3/2}/|E^{3/2}|: the direction of S01 and of the
    sqrt along its contour, valid for Re E > 0."""
    w = 1j * cmath.exp(1.5 * cmath.log(E))
    return w / abs(w)


def _sqrt_cubic_auto(ra, rb, rc, *, sign, weight, branch_ref, tol, power=1):
    """Straight segment between the roots ra, rb, with automatic midpoint
    deflection away from rc when rc comes too close to the segment."""
    gap = abs(rb - ra)
    prox = 0.05 * gap
    if float(segment_point_distance(ra, rb, [rc])[0]) >= prox:
        return sqrt_cubic_segment(ra, rb, rc, sign=sign, weight=weight,
                                  branch_ref=branch_ref, tol=tol, power=power)
    mid = 0.5 * (ra + rb)
    unit = (rb - ra) / gap
    normal = 1j * unit
    side = -1.0 if ((rc - mid) * np.conj(normal)).real >= 0.0 else 1.0
    via = mid + side * normal * max(4.0 * prox, 0.2 * gap)
    return sqrt_cubic_polyline(ra, rb, rc, [via], sign=sign, weight=weight,
                               branch_ref=branch_ref, tol=tol, power=power)


def action_S01_pair(params):
    """S01 and dS01/dE at the same (E, nu) from one root solve, as a pair
    of ActionValue.

    With P(y) = nu^2 - y (E - y)^2 = -(y-x0)(y-x1)(y-x2), the substitution
    y = x1 + d/(1+u), d = x0 - x1, maps the straight segment from x0 to x1
    onto u in [0, inf) and turns the moments M0 = int dy/sqrt(P),
    M1 = int y dy/sqrt(P) and N = int dy/(y sqrt(P)) into Carlson
    integrals with c = (x0-x2)/(x1-x2), p = x0/x1, s = sqrt(x1-x2):

        M0 = 2 R_F(0,1,c)/s,
        M1 = x1 M0 + (2/3) d R_D(0,c,1)/s,
        N  = [2 R_F(0,1,c) + (2/3)(1-p) R_J(0,1,c,p)] / (s x1).

    Since P/(2y) = -(y-E)^2/2 + nu^2/(2y) and int P'/sqrt(P) = 0 between
    roots eliminates the second moment,

        dS01/dE = (M1 - E M0)/2,
        S01     = (E/3)(M1 - E M0) + (nu^2/2) N + i pi nu,

    on the branch of sqrt(P), continuous along the segment, whose value
    at the midpoint has a nonnegative projection on _imag_ref(E).
    Anchoring at x1 rather than x0 keeps p = x0/x1 small; p = x1/x0 loses
    about a digit at small nu.

    est_error is a roundoff bound and n_evals counts the Carlson-function
    evaluations behind each value.  Raises BranchAmbiguity when a Carlson
    value is not finite: scipy's R_J returns nan for some p off the
    principal domain.
    """
    E, nu = _as_E_nu(params)
    x0, x1, x2 = _labeled_roots(E, nu)
    d = x0 - x1
    c = (x0 - x2) / (x1 - x2)
    if c.imag == 0.0 and c.real <= 0.0:
        raise TurningPointProximity(
            f"turning point x2 lies on the segment [x0, x1] at E={E}, nu={nu}"
        )
    p = x0 / x1
    s = cmath.sqrt(x1 - x2)
    rf = complex(elliprf(0.0, 1.0, c))
    rd = complex(elliprd(0.0, c, 1.0))
    rj = complex(elliprj(0.0, 1.0, c, p))
    if not all(map(cmath.isfinite, (rf, rd, rj))):
        raise BranchAmbiguity(
            f"Carlson integrals not finite (R_F={rf}, R_D={rd}, R_J={rj}) "
            f"at E={E}, nu={nu}"
        )
    m0 = 2.0 * rf / s
    m1 = x1 * m0 + (2.0 / 3.0) * d * rd / s
    n = (2.0 * rf + (2.0 / 3.0) * (1.0 - p) * rj) / (s * x1)
    # sqrt(P) at the segment midpoint, up to a positive factor
    mid = -d * s * cmath.sqrt(1.0 + c)
    sigma = 1.0 if (mid * _imag_ref(E).conjugate()).real >= 0.0 else -1.0
    half_nu2 = 0.5 * nu * nu
    m_scale = abs(m1) + abs(E * m0)
    dS = ActionValue(sigma * 0.5 * (m1 - E * m0),
                     _ROUNDOFF * 0.5 * m_scale, 2)
    S = ActionValue(
        sigma * ((E / 3.0) * (m1 - E * m0) + half_nu2 * n)
        + 1j * math.pi * nu,
        _ROUNDOFF * (abs(E) * m_scale / 3.0 + half_nu2 * abs(n)), 3)
    return S, dS


def action_S01(params, tol=1e-10):
    """Action integral between the turning points r0 and r1.

    For real E > 0 with subcritical nu the value is purely imaginary with
    positive imaginary part; complex E is handled by continuation of the
    turning points and of the square-root branch.  Closed form through
    Carlson integrals, see action_S01_pair.  tol is an absolute accuracy
    bound; the closed form meets it at roundoff level (est_error) and
    nothing adapts to it.
    """
    return action_S01_pair(params)[0]


def action_S01_dE(params, tol=1e-10):
    """Derivative of S01 with respect to E at fixed nu.

    Differentiating under the integral (endpoint terms vanish at the simple
    roots) gives dS01/dE = int (y - E) / (2 sqrt(nu^2 - y(E-y)^2)) dy on the
    same contour and branch as S01.  The half-residue term of S01 is
    E-independent and drops out.  Closed form, see action_S01_pair; tol
    as in action_S01.
    """
    return action_S01_pair(params)[1]


def _traced_unit_roots(mu_abs, phis):
    """Labeled roots of y^3 - 2y^2 + y - m^2 for m = mu_abs e^{i phi} along
    the phase schedule phis (phis[0] must be 0).  Nearest-neighbor tracking
    with step halving."""
    cur = list(cubic_roots(1.0, mu_abs).roots)
    out = [tuple(cur)]
    for k in range(1, len(phis)):
        lo, hi = phis[k - 1], phis[k]
        t, dt = lo, hi - lo
        while t < hi:
            advanced = False
            while abs(dt) > 1e-9:
                tn = min(hi, t + dt)
                m = mu_abs * cmath.exp(1j * tn)
                cand = _cardano_any(1.0 + 0.0j, m)
                matched, max_move = _match(cur, cand)
                seps = [abs(cur[0] - cur[1]), abs(cur[0] - cur[2]),
                        abs(cur[1] - cur[2])]
                if max_move <= 0.4 * min(seps):
                    cur, t = matched, tn
                    advanced = True
                    break
                dt /= 2.0
            if not advanced:
                raise TurningPointProximity(
                    "cubic roots collide during phase continuation of mu"
                )
        out.append(tuple(cur))
    return out


def _mono_contour(phi, mu_abs):
    """Interior vertices of the I(mu) continuation contour at phase phi, plus
    the index of the on-axis reference vertex (the arc end at angle 0)."""
    delta = max(2.0 * mu_abs, 0.02)
    c_end = 1.0 - mu_abs * math.cos(phi) - 1j * delta
    via = [_ARC_RADIUS * cmath.exp(2j * phi)]
    if phi > 0.0:
        n_arc = max(1, int(math.ceil(2.0 * phi / 0.3)))
        for ang in np.linspace(2.0 * phi, 0.0, n_arc + 1)[1:]:
            via.append(_ARC_RADIUS * cmath.exp(1j * ang))
    ref_index = len(via) - 1
    via.append(c_end)
    return via, ref_index


def action_I(mu, tol=1e-10):
    """Scaled action I(mu) = int_{y0}^{y1} sqrt(y(1-y)^2 - mu^2)/(2y) dy,
    real positive near 2/3 for small positive mu and continued in arg(mu)
    from there.  I(0) = 2/3 exactly.
    """
    mu = complex(mu)
    if mu == 0:
        return ActionValue(2.0 / 3.0 + 0.0j, 0.0, 0)
    if abs(mu) >= MU_CRITICAL:
        raise NoRealTurningPoints(
            f"|mu| = {abs(mu):.4f} at or beyond the critical value "
            f"{MU_CRITICAL:.4f}"
        )
    phi = cmath.phase(mu)
    if phi < 0.0:
        r = action_I(np.conj(mu), tol)
        return ActionValue(np.conj(r.value), r.est_error, r.n_evals)
    mu_abs = abs(mu)
    if phi <= 0.35 * math.pi:
        n = max(1, int(math.ceil(phi / 0.1)))
        roots = _traced_unit_roots(mu_abs, np.linspace(0.0, phi, n + 1))[-1]
        y0, y1, y2 = roots
        res = _sqrt_cubic_auto(y0, y1, y2, sign=1, weight=lambda y: 0.5 / y,
                               branch_ref=1.0, tol=tol)
        return ActionValue(res.value + math.pi * mu, res.est_error,
                           res.n_evals)

    # large rotation: step the phase, dragging the contour with the roots
    # and chaining the sqrt branch through the on-axis reference vertex
    n = max(4, int(math.ceil(phi / 0.1)))
    phis = np.linspace(0.0, phi, n + 1)
    traced = _traced_unit_roots(mu_abs, phis)
    anchor = 1.0 + 0.0j
    evals = 0
    for k, ph in enumerate(phis):
        y0, y1, y2 = traced[k]
        via, ref_index = _mono_contour(float(ph), mu_abs)
        if k < len(phis) - 1:
            ref_val = polyline_sqrt_ref(y0, y1, y2, via, sign=1,
                                        ref_index=ref_index)
            dot = (ref_val * np.conj(anchor)).real
            anchor = ref_val if dot >= 0.0 else -ref_val
        else:
            res = sqrt_cubic_polyline(y0, y1, y2, via, sign=1,
                                      weight=lambda y: 0.5 / y,
                                      branch_ref=anchor, ref_index=ref_index,
                                      tol=tol)
            evals += res.n_evals
            return ActionValue(res.value + math.pi * mu, res.est_error,
                               evals)


def residue_R(mu):
    """Residue contribution -pi mu of the weight pole at y = 0 (closed
    form)."""
    return -math.pi * complex(mu)


def tunnel_T(mu, tol=1e-10):
    """Tunneling integral between y1(mu) and y2(mu); equals
    (i pi mu^2 / 4)(1 + O(mu^2)) for small mu."""
    mu = complex(mu)
    if abs(mu) >= MU_CRITICAL:
        raise NoRealTurningPoints(
            f"|mu| = {abs(mu):.4f} at or beyond the critical value "
            f"{MU_CRITICAL:.4f}"
        )
    phi = cmath.phase(mu)
    n = max(1, int(math.ceil(abs(phi) / 0.1)))
    y0, y1, y2 = _traced_unit_roots(abs(mu), np.linspace(0.0, phi, n + 1))[-1]
    res = _sqrt_cubic_auto(y1, y2, y0, sign=1, weight=lambda y: 0.5 / y,
                           branch_ref=1.0j, tol=tol)
    return ActionValue(res.value, res.est_error, res.n_evals)


def action_S2inf(params, tol=1e-10, route="compactified"):
    """Regularized action from r2 to infinity.

    The integrand sqrt(nu^2 - x^2(E - x^2)^2)/x - i(x^2 - E) is rewritten
    exactly as -i nu^2 / (x (sqrt(A^2 - nu^2) + A)) with A = x(x^2 - E),
    which is stable for large x and makes the absolute convergence explicit
    (decay ~ nu^2/x^4); the boundary term i/3 (r2^3 - 3 E r2) is added in
    closed form.  Routes: "compactified" maps x = r2/(1 - w^2) onto w in
    [0, 1]; "truncated" integrates x = r2 + s^2 up to a tail cutoff and
    folds the tail bound into est_error.
    """
    E, nu = _as_E_nu(params)
    x0, x1, x2 = _labeled_roots(E, nu) if nu != 0 else (0.0, E, E)
    r2 = np.sqrt(complex(x2))
    reg = (1j / 3.0) * (r2 ** 3 - 3.0 * E * r2)
    if nu == 0.0:
        return ActionValue(reg, 0.0, 0)
    nu2 = nu * nu

    def f(x):
        A = x * (x * x - E)
        return -1j * nu2 / (x * (np.sqrt(A * A - nu2) + A))

    if route == "compactified":
        def g(w):
            w = np.real(w)
            x = r2 / (1.0 - w * w)
            return f(x) * 2.0 * r2 * w / (1.0 - w * w) ** 2

        val, err, n = adaptive_segment(g, 0.0, 1.0, tol)
    elif route == "truncated":
        big = max(10.0, 4.0 * abs(r2), (nu2 / tol) ** (1.0 / 3.0))
        s_max = math.sqrt(big - r2.real) if big > r2.real else 1.0

        def g(s):
            s = np.real(s)
            x = r2 + s * s
            return f(x) * 2.0 * s

        val, err, n = adaptive_segment(g, 0.0, s_max, tol)
        err += nu2 / (6.0 * big ** 3)  # tail bound from |f| <= nu^2/(2 x^4)
    else:
        raise ValueError(f"unknown route {route!r}")
    return ActionValue(val + reg, err, n)


def _s12_cubic_roots(E, h, l):
    """Real-sorted roots of r^3 - E r^2 + h^2 (l^2 - 1/4), polished by
    Newton."""
    c0 = h * h * (l * l - 0.25)
    roots = np.roots([1.0, -E, 0.0, c0])
    roots = np.sort_complex(roots)
    out = []
    for r in roots:
        for _ in range(2):
            d = 3.0 * r * r - 2.0 * E * r
            if abs(d) < 1e-12:
                break
            r = r - (r ** 3 - E * r * r + c0) / d
        out.append(r)
    return sorted(out, key=lambda z: z.real)


def action_S12(E, h, l, tol=1e-10):
    """Barrier action int_{alpha1}^{alpha2} sqrt(r - E + h^2(l^2-1/4)/r^2) dr
    of the scalar comparison operator; purely imaginary with positive
    imaginary part.  Requires three distinct real turning points."""
    h, l = _check_h_l(h, l)
    E = float(E)
    if not E > 0:
        raise ValueError(f"E must be positive, got {E}")
    mu = h * math.sqrt(l * l - 0.25) * E ** -1.5
    if mu >= MU_CRITICAL:
        raise NoRealTurningPoints(
            f"mu = {mu:.4f} >= {MU_CRITICAL:.4f}: the cubic has a single "
            "real root; no barrier exists"
        )
    a0, a1, a2 = _s12_cubic_roots(E, h, l)
    if max(abs(a0.imag), abs(a1.imag), abs(a2.imag)) > 1e-8:
        raise NoRealTurningPoints("turning points failed to come out real")
    res = sqrt_cubic_segment(a1.real, a2.real, a0.real, sign=1,
                             weight=lambda y: 1.0 / y, branch_ref=1.0j,
                             tol=tol)
    half_res = 1j * math.pi * h * math.sqrt(l * l - 0.25)
    return ActionValue(res.value + half_res, res.est_error, res.n_evals)


def action_Iplus(mu, tol=1e-10):
    """Scaled barrier action I+(mu): S12 = i E^{3/2} I+(mu) with
    mu = h sqrt(l^2 - 1/4) E^{-3/2}.  I+(0) = 2/3 exactly."""
    mu = complex(mu)
    if mu == 0:
        return ActionValue(2.0 / 3.0 + 0.0j, 0.0, 0)
    if abs(mu) >= MU_CRITICAL:
        raise NoRealTurningPoints(
            f"|mu| = {abs(mu):.4f} at or beyond the critical value "
            f"{MU_CRITICAL:.4f}"
        )
    roots = np.roots([1.0, -1.0, 0.0, mu * mu])
    b0, b1, b2 = sorted(roots, key=lambda z: z.real)
    res = sqrt_cubic_segment(b1, b2, b0, sign=-1, weight=lambda y: 1.0 / y,
                             branch_ref=1.0, tol=tol)
    return ActionValue(res.value + math.pi * mu, res.est_error, res.n_evals)
