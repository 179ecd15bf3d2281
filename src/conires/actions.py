"""Action integrals of the reduced model and their scaled comparators.

The five objects computed here:

    S01(E, nu)  action between the inner turning points r0 and r1,
                S01 = int sqrt(nu^2 - r^2 (E - r^2)^2) / r dr
                    = int_{x0}^{x1} sqrt(-(y-x0)(y-x1)(y-x2)) / (2y) dy,
    S2inf       regularized action from r2 to infinity,
    S12         barrier action of the scalar comparison operator,
    I(mu)       scaled version of S01: S01 = i E^{3/2} I(nu E^{-3/2}),
    I+(mu)      scaled version of S12, which is computed from it,

together with the residue R(mu) = -pi mu, the tunneling integral T(mu), and
the derivative dS01/dE used by the quantization Newton steps.

Every action is closed form.  Each is an elliptic integral of a sqrt(cubic)
between two of its roots (to infinity for S2inf), reduced to Carlson's
symmetric integrals R_F, R_D, R_J (Carlson, Numer. Algorithms 10 (1995);
DLMF 19.29) by one kernel, _segment, which returns the moments
int dy/sqrt(P), int y dy/sqrt(P) and int dy/(y sqrt(P)) of a straight
segment between two roots.  The three Carlson integrals come from one
arithmetic-geometric mean in complex arithmetic (_agm_carlson), and no
scipy module is imported.  The values are exact to roundoff, and each
est_error is a roundoff bound, so there is no tolerance to set.

Branches: for real E > 0 and small nu, S01 and S12 are purely imaginary with
positive imaginary part, I and I+ are real positive near 2/3.  All square
roots are continued from those normalizations.  I(mu) for complex mu is
the continuation in arg(mu) from the positive real axis, with the roots
labelled in closed form and the straight segment between them following
them; one root winds around the pole of the weight at y = 0 and crosses
the segment on the way, which is what produces the monodromy
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

from .errors import (
    BranchAmbiguity,
    NoRealTurningPoints,
    TurningPointProximity,
)
from .model import (
    _as_E_nu,
    _cardano_any,
    _check_h_l,
    _label,
    _polish,
    _trig_w,
    cubic_roots,
)

__all__ = [
    "ActionValue",
    "MU_CRITICAL",
    "action_I",
    "action_Iplus",
    "action_S01",
    "action_S01_pair",
    "action_S12",
    "action_S2inf",
    "residue_R",
    "tunnel_T",
]

# coupling strength at which the two relevant cubic roots collide
MU_CRITICAL = math.sqrt(4.0 / 27.0)

# relative roundoff bound of the closed-form actions, applied to the moduli
# of the terms they sum
_ROUNDOFF = 16.0 * 2.0 ** -52


class ActionValue(NamedTuple):
    value: complex
    est_error: float
    n_evals: int


def _labeled_roots(E, nu):
    """Non-degenerate labeled roots at (E, nu) (model.cubic_roots)."""
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


def _same_side(value, ref):
    """+1 when value has a nonnegative projection on ref, else -1."""
    return 1.0 if (value * ref.conjugate()).real >= 0.0 else -1.0


# The AGM stops one level after |a_n - g_n| <= _AGM_TOL |a_n|, where
# |a - g| is below _AGM_TOL^2 |a| / 8 and a g = M^2 to roundoff;
# _AGM_STEPS bounds the loop for arguments that overflow it (at most 6
# levels serve |c| from 1e-3 to 1e6, and 8 serve |c| up to 1e16).
_AGM_TOL = 2.0 ** -20
_AGM_STEPS = 40


def _in_domain(y, z, p):
    """Whether R_J(0, y, z, p) is taken from _agm_carlson: p in the open
    right half-plane and y, z nonzero in the closed one, where the AGM
    sum is the continuation of R_J from positive arguments.  This is
    where scipy's elliprj is finite, measured over 4e5 random (1, c, p)
    and (y, z, p) and on the lines Re c = 0 and Re p = 0.  scipy also
    takes real positive y, z (or a conjugate pair) with any p off zero,
    the principal value at real negative p included.  Real c = (a-r)/(b-r)
    needs the three roots on one line, which the actions meet at real E
    or real mu, where p > 0, so that set is left out."""
    return (p.real > 0.0 and y.real >= 0.0 and z.real >= 0.0
            and y != 0 and z != 0)


def _agm_carlson(y, z, p):
    """(R_F(0,y,z), R_D(0,y,z), R_J(0,y,z,p)) from one arithmetic-geometric
    mean (DLMF 19.8(i), 19.22(i)).

    a_0 = sqrt(y), g_0 = sqrt(z), a_{n+1} = (a_n + g_n)/2 and
    g_{n+1} = +-sqrt(a_n g_n), the sign giving |a - g| <= |a + g|, tend to
    M, and R_F = pi/(2M).  R_D = -6 dR_F/dz = (3 R_F/(M g_0)) dM/dg_0,
    with the derivatives of a_n and g_n carried along the same steps: for
    positive arguments every term is positive, so nothing cancels, as
    z -> y or at large |y/z| alike (the c_n sum of DLMF 19.8(i) subtracts
    from 1/2 a sum near 1/2 at large |y/z|, and loses 4e-14 at
    |y/z| = 4.5e15).

    R_J is Bartky's sum (DLMF 19.22(i)) R_J = (3 pi/(4 M p)) sum Q_n,
    Q_0 = 1, Q_{n+1} = Q_n eps_n/2, eps_n = (P_n - a_n g_n)/w_n,
    w_n = P_n + a_n g_n, with P_0 = p and P_{n+1} = w_n^2/(4 P_n).  Once
    a_n g_n = M^2, sqrt(P_n) follows Heron's iteration for M and the tail
    closes: sum_{k>=n} Q_k/Q_n = 2u/(u + 1), u = sqrt(P_n)/M, Re u > 0.
    At small |p| the sum is O(sqrt|p|) from terms of order one, so it is
    not summed as it stands.  The pair S_n = sum_{k>=n} Q_k/Q_n and
    D_n = 2 - S_n obeys

        S_n = (P_n (2 + S_{n+1}) + a_n g_n D_{n+1}) / (2 w_n),
        D_n = (P_n D_{n+1} + a_n g_n (2 + S_{n+1})) / (2 w_n),

    so S_0 = fs S_N + fd D_N + 2 fc, with S_N = 2u/(u + 1),
    D_N = 2/(u + 1) and (fs, fd, 2 fc) the first row of the product of
    these affine maps,
    accumulated forward along the AGM.  For positive arguments every
    term is positive, and no difference of like terms is ever formed.
    R_J holds where _in_domain does, R_F and R_D off (-inf, 0]; the
    three are within 2e-15 of mpmath there (tests/test_actions.py).
    Returns three nans when the AGM does not converge (overflowed
    arguments)."""
    sqrt, tol = cmath.sqrt, _AGM_TOL
    a = sqrt(y)
    g = g0 = sqrt(z)
    da, dg = 0.0, 1.0
    P = p
    fs, fd, fc = 1.0, 0.0, 0.0
    for _ in range(_AGM_STEPS):
        G = a * g
        w = P + G
        half_w = 0.5 / w
        fs, fd = (fs * P + fd * G) * half_w, (fs * G + fd * P) * half_w
        fc += fs
        P = 0.25 * w * w / P
        a_next = 0.5 * (a + g)
        g_next = sqrt(G)
        if (g_next * a_next.conjugate()).real < 0.0:
            g_next = -g_next
        da, dg = 0.5 * (da + dg), 0.5 * (da * g + a * dg) / g_next
        done = abs(a - g) <= tol * abs(a)
        a, g = a_next, g_next
        if done:
            break
    else:
        return (cmath.nan,) * 3
    M = 0.5 * (a + g)
    u = sqrt(P / (M * M))
    S = 2.0 * ((fs * u + fd) / (u + 1.0) + fc)
    rf = 0.5 * math.pi / M
    return rf, 1.5 * rf * (da + dg) / (M * g0), 1.5 * rf * S / p


def _rc1(e):
    """R_C(1, 1 + e) = arctan(sqrt(e))/sqrt(e), by its Taylor series near
    e = 0."""
    if abs(e) < 1e-3:
        return 1.0 - e / 3.0 + e * e / 5.0 - e ** 3 / 7.0 + e ** 4 / 9.0
    r = cmath.sqrt(e)
    return cmath.atan(r) / r


def _rj(x, y, z, p):
    """R_J(x, y, z, p) by Carlson's duplication algorithm in complex
    arithmetic (Carlson 1995, Algorithm 3; DLMF 19.36.2), run until the
    fifth-order series of the remainder is at roundoff.  The actions take
    it only off _in_domain, where _agm_carlson's R_J does not hold: I, T
    and I+ across the cut that their continuation crosses, and S2inf."""
    args = [complex(v) for v in (x, y, z, p)]
    a0 = (args[0] + args[1] + args[2] + 2.0 * args[3]) / 5.0
    delta = (args[3] - args[0]) * (args[3] - args[1]) * (args[3] - args[2])
    q = (0.25 * 2.0 ** -52) ** (-1.0 / 6.0) * max(abs(a0 - v) for v in args)
    a, f, tail = a0, 1.0, 0.0
    while f * q >= abs(a):
        sx, sy, sz, sp = map(cmath.sqrt, args)
        lam = sx * sy + sy * sz + sz * sx
        d = (sp + sx) * (sp + sy) * (sp + sz)
        tail += f / d * _rc1(delta * f ** 3 / (d * d))
        args = [(v + lam) / 4.0 for v in args]
        a = (a + lam) / 4.0
        f /= 4.0
    X, Y, Z = ((a0 - complex(v)) * f / a for v in (x, y, z))
    P = -0.5 * (X + Y + Z)
    e2 = X * Y + X * Z + Y * Z - 3.0 * P * P
    e3 = X * Y * Z + 2.0 * e2 * P + 4.0 * P ** 3
    e4 = (2.0 * X * Y * Z + e2 * P + 3.0 * P ** 3) * P
    e5 = X * Y * Z * P * P
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return f * a ** -1.5 * series + 6.0 * tail


def _at(where):
    """"E=..., nu=..." from where = ((name, value), ...), formatted only
    for an error message."""
    return ", ".join(f"{name}={value}" for name, value in where)


def _check_finite(rf, rd, rj, where):
    """BranchAmbiguity unless the three Carlson values are finite (they
    are not where the arguments overflow)."""
    if not all(map(cmath.isfinite, (rf, rd, rj))):
        raise BranchAmbiguity(
            f"Carlson integrals not finite (R_F={rf}, R_D={rd}, R_J={rj}) "
            f"at {_at(where)}"
        )


def _segment(a, b, r, where, continued):
    """Carlson moments of the straight segment from the root a to the root
    b of P(y) = -(y-a)(y-b)(y-r), whose third root is r.

    The substitution y = b + d/(1+u), d = a - b, maps the segment onto
    u in [0, inf) and turns the moments M0 = int dy/sqrt(P),
    M1 = int y dy/sqrt(P) and N = int dy/(y sqrt(P)) into Carlson
    integrals with c = (a-r)/(b-r), p = a/b, s = sqrt(b-r):

        M0 = 2 R_F(0,1,c)/s,
        M1 = b M0 + (2/3) d R_D(0,c,1)/s,
        N  = [2 R_F(0,1,c) + (2/3)(1-p) R_J(0,1,c,p)] / (s b),

    on the branch of sqrt(P), continuous along the segment, that is a
    positive multiple of -d s sqrt(u + c) at each u; the fourth value
    returned, mid = -d s sqrt(1 + c), is its direction at the midpoint
    u = 1.  Anchoring at b keeps p small when |a| << |b|.

    All three come from one AGM pass (_agm_carlson) where (c, p) is in
    _in_domain: Re c >= 0 and Re p > 0.  Off it, R_J(0,1,c,p)
    is Carlson's duplication value (_rj) when continued is true (I, T and
    I+, whose continuation fixes the side of the cut), and otherwise
    BranchAmbiguity is raised, naming the rule, c and p.  Raises
    TurningPointProximity where r lies on the segment (c real and <= 0),
    and BranchAmbiguity when a Carlson value is not finite; where, a
    tuple of (name, value) pairs, names the point in the message.
    """
    d = a - b
    c = complex((a - r) / (b - r))
    if c.imag == 0.0 and c.real <= 0.0:
        raise TurningPointProximity(
            f"a turning point lies on the integration segment at "
            f"{_at(where)}"
        )
    p = complex(a / b)
    s = cmath.sqrt(b - r)
    if _in_domain(1.0, c, p):
        rf, rd, rjv = _agm_carlson(c, 1.0, p)
    elif continued:
        rf, rd, _ = _agm_carlson(c, 1.0, 1.0)
        rjv = _rj(0.0, 1.0, c, p)
    else:
        raise BranchAmbiguity(
            f"R_J(0,1,c,p) off its principal domain (Re c >= 0 and "
            f"Re p > 0), with no continuation to choose a side of its "
            f"cut: c={c}, p={p} at {_at(where)}"
        )
    _check_finite(rf, rd, rjv, where)
    m0 = 2.0 * rf / s
    m1 = b * m0 + (2.0 / 3.0) * d * rd / s
    n = (2.0 * rf + (2.0 / 3.0) * (1.0 - p) * rjv) / (s * b)
    return m0, m1, n, -d * s * cmath.sqrt(1.0 + c)


def action_S01_pair(params):
    """S01 and dS01/dE at the same (E, nu) from one root solve, as a pair
    of ActionValue.

    With P(y) = nu^2 - y (E - y)^2 = -(y-x0)(y-x1)(y-x2), the moments
    M0, M1, N of the straight segment from x0 to x1 (_segment) give,
    since P/(2y) = -(y-E)^2/2 + nu^2/(2y) and int P'/sqrt(P) = 0 between
    roots eliminates the second moment,

        dS01/dE = (M1 - E M0)/2,
        S01     = (E/3)(M1 - E M0) + (nu^2/2) N + i pi nu,

    on the branch of sqrt(P), continuous along the segment, whose value
    at the midpoint has a nonnegative projection on _imag_ref(E).
    Anchoring at x1 rather than x0 keeps p = x0/x1 small; p = x1/x0 loses
    about a digit at small nu.

    est_error is a roundoff bound and n_evals counts the Carlson
    integrals behind each value (R_F, R_D and R_J, all from one AGM pass
    of _segment).  Raises BranchAmbiguity where c = (x0-x2)/(x1-x2) and
    p = x0/x1 leave _in_domain (Re c >= 0 and Re p > 0), the set where
    scipy's R_J is finite: there such a p may sit on either side of
    R_J's cut, with no continuation to choose one.
    For real E > 0 with mu = nu E^{-3/2} at or beyond
    the critical coupling there are no real turning points, and
    NoRealTurningPoints is raised as by action_I (TurningPointProximity
    where the roots are degenerate, as at the critical coupling itself).
    """
    E, nu = _as_E_nu(params)
    roots = _labeled_roots(E, nu)
    if E.imag == 0.0 and E.real > 0.0:
        _subcritical(nu * E.real ** -1.5)
    return _s01_pair(E, nu, roots)


def _s01_pair(E, nu, roots):
    """action_S01_pair at complex E and float nu from the labeled roots."""
    m0, m1, n, mid = _segment(*roots, (("E", E), ("nu", nu)), False)
    sigma = _same_side(mid, _imag_ref(E))
    half_nu2 = 0.5 * nu * nu
    m_scale = abs(m1) + abs(E * m0)
    dS = ActionValue(sigma * 0.5 * (m1 - E * m0),
                     _ROUNDOFF * 0.5 * m_scale, 2)
    S = ActionValue(
        sigma * ((E / 3.0) * (m1 - E * m0) + half_nu2 * n)
        + 1j * math.pi * nu,
        _ROUNDOFF * (abs(E) * m_scale / 3.0 + half_nu2 * abs(n)), 3)
    return S, dS


def action_S01(params):
    """Action integral between the turning points r0 and r1.

    For real E > 0 with subcritical nu the value is purely imaginary with
    positive imaginary part; complex E is handled by continuation of the
    turning points and of the square-root branch.  Closed form through
    Carlson integrals, see action_S01_pair: accurate to roundoff, with
    est_error a roundoff bound, so there is no tolerance to set.
    """
    return action_S01_pair(params)[0]


def _subcritical(mu):
    """complex(mu), refused at or beyond the critical coupling."""
    mu = complex(mu)
    if abs(mu) >= MU_CRITICAL:
        raise NoRealTurningPoints(
            f"|mu| = {abs(mu):.4f} at or beyond the critical value "
            f"{MU_CRITICAL:.4f}"
        )
    return mu


def _unit_w(mu):
    """The trigonometric roots of w^3 - w + mu = 0 (model._trig_w at
    theta = arccos(-(3 sqrt 3/2) mu), model._label at E = 1), in the
    labels of y0, y1, y2 = w_k^2."""
    return _trig_w(cmath.acos(-1.5 * math.sqrt(3.0) * mu))


def _unit_roots(mu):
    """Labeled roots of y^3 - 2y^2 + y - mu^2, arg mu in [0, pi], in the
    labels of the continuation from arg mu = 0 (model._label), polished
    at mu.

    Near the double root y = 1, Cardano's y1 and y2 are off by about
    3e-9 at |mu| ~ 6e-9, and the polish skips them as near-double; for
    1e-12 < |mu| < 5e-5 they are taken from the trigonometric form
    (_unit_w) instead, which resolves their separation 2|mu| to roundoff.
    Below that window the trigonometric pair loses its separation, and
    Cardano's is kept."""
    mu_abs, phi = abs(mu), cmath.phase(mu)
    if phi > 0.0:
        m = mu_abs * cmath.exp(1j * phi)
        roots = _label(1.0 + 0.0j, m, _cardano_any(1.0 + 0.0j, m))
    else:
        roots = cubic_roots(1.0, mu_abs).roots
    y0, y1, y2 = _polish(roots, 1.0, mu)
    if 1e-12 < mu_abs < 5e-5:
        _, w1, w2 = _unit_w(mu)
        y1, y2 = w1 * w1, w2 * w2
    return y0, y1, y2


def _unit_action(mu, seg, sign):
    """int sqrt(P)/(2y) dy at E = 1, nu = mu from _segment's moments on
    the branch sign * (the moments' branch), with its roundoff bound."""
    m0, m1, n, _ = seg
    half_mu2 = 0.5 * mu * mu
    value = sign * ((m1 - m0) / 3.0 + half_mu2 * n)
    scale = (abs(m1) + abs(m0)) / 3.0 + abs(half_mu2 * n)
    return value, _ROUNDOFF * scale


def action_I(mu):
    """Scaled action I(mu) = int_{y0}^{y1} sqrt(y(1-y)^2 - mu^2)/(2y) dy
    + pi mu, real positive near 2/3 for small positive mu and continued in
    arg(mu) from there.  I(0) = 2/3 exactly.

    The roots carry the labels of the continuation in arg mu from the
    positive axis, given in closed form at mu (_unit_roots), and the
    integral is the closed form of the straight segment from y0 to y1
    (_segment) with two corrections:

    - Branch.  The sqrt is the one whose germ at y0 has a nonnegative
      projection on i, its direction at mu > 0.  The continued germ stays
      within 46 degrees of i over 0 <= arg mu <= pi and |mu| < MU_CRITICAL
      (measured on a 30 x 40 grid), so this is the continued branch.  y2
      lies below the segment (Im c < 0) for 0 < arg mu < pi and lands on
      it at arg mu = pi; there it is placed below, the side the
      continuation arrives from.
    - Pole.  Each signed crossing of the weight pole y = 0 through the
      segment, where p = y0/y1 passes the negative real axis as arg mu
      turns from 0, moves the segment integral by the residue pi mu,
      which the continued contour does not cross: the term pi mu becomes
      pi mu (1 - k) after k crossings, counted in closed form.

    Where mu^2 underflows (|mu| below ~1e-162) the value is the series
    2/3 + (pi/2) mu, exact to double precision there.  est_error is a
    roundoff bound.
    """
    mu = _subcritical(mu)
    if mu == 0:
        return ActionValue(2.0 / 3.0 + 0.0j, 0.0, 0)
    if cmath.phase(mu) < 0.0:
        r = action_I(mu.conjugate())
        return ActionValue(r.value.conjugate(), r.est_error, r.n_evals)
    y0, y1, y2 = _unit_roots(mu)
    if y0 == 0.0:
        # mu^2 underflowed (|mu| below ~1e-162): R_J(0, 1, c, y0/y1)
        # diverges, and I = 2/3 + (pi/2) mu + O(mu^2 log mu) is exact
        return ActionValue(2.0 / 3.0 + 0.5 * math.pi * mu, _ROUNDOFF, 0)
    c = (y0 - y2) / (y1 - y2)
    if c.real < 0.0 and c.imag >= 0.0:
        # y2 on or, by roundoff, above the segment: it lies below it
        c = complex(c.real, -max(c.imag, _ROUNDOFF * abs(c)))
        y2 = (y0 - c * y1) / (1.0 - c)
    germ = (y1 - y0) * cmath.sqrt(y1 - y2) * cmath.sqrt(c)
    value, err = _unit_action(mu, _segment(y0, y1, y2, (("mu", mu),), True),
                              _same_side(germ, 1j))
    # p = y0/y1 has the continuous argument 2 arg(w0/w1) in the labelled
    # trigonometric roots (_unit_w); each 2 pi it gains over its
    # principal value is one crossing
    w0, w1, _ = _unit_w(mu)
    crossings = round((2.0 * cmath.phase(w0 / w1) - cmath.phase(y0 / y1))
                      / (2.0 * math.pi))
    pole = math.pi * mu * (1 - crossings)
    return ActionValue(-1j * value + pole, err + _ROUNDOFF * abs(pole), 3)


def residue_R(mu):
    """Residue contribution -pi mu of the weight pole at y = 0 (closed
    form)."""
    return -math.pi * complex(mu)


def tunnel_T(mu):
    """Tunneling integral int_{y1}^{y2} sqrt(y(1-y)^2 - mu^2)/(2y) dy, on
    the branch whose value at the midpoint of the straight segment has a
    nonnegative projection on i; equals (i pi mu^2 / 4)(1 + O(mu^2)) for
    small mu.  Closed form (_segment) with the roots of action_I at mu;
    T is imaginary on the positive axis, so arg mu < 0 is reached by
    T(conj mu) = -conj T(mu).  est_error is a roundoff bound."""
    mu = _subcritical(mu)
    if cmath.phase(mu) < 0.0:
        r = tunnel_T(mu.conjugate())
        return ActionValue(-r.value.conjugate(), r.est_error, r.n_evals)
    y0, y1, y2 = _unit_roots(mu)
    seg = _segment(y1, y2, y0, (("mu", mu),), True)
    *_, mid = seg
    value, err = _unit_action(mu, seg, _same_side(mid, 1.0))
    return ActionValue(1j * value, err, 3)


def action_S2inf(params):
    """Regularized action from r2 to infinity,

        S2inf = int_{r2}^{inf} [sqrt(nu^2 - x^2(E - x^2)^2)/x - i(x^2 - E)] dx
                + (i/3)(r2^3 - 3 E r2),

    the sqrt continued from i x^3 at infinity.  In y = x^2 = x2 + t, with
    a = x2 - x0, b = x2 - x1, R(t) = sqrt(t (t+a)(t+b)) and the integrand
    rewritten by (y-E)^2 = (1/3) d(R^2)/dy - (2/3) E (y - E),

        S2inf = -(iE/3) ((x2 - E) J0 + K1) - (i nu^2/2) Jn
                + (2i/3)(r2^3 - 3 E r2),

    where J0 = int dt/R = 2 R_F(0,a,b), Jn = int dt/((t + x2) R)
    = (2/3) R_J(0,a,b,x2), and K1 = lim (int_0^T t dt/R - 2 sqrt(T))
    = -a [2 R_F(0,a,b) + (2/3)(b - a) R_D(0,b,a)].  The path y = x2 + t
    replaces the ray arg y = arg x2 of the x-integral; the two agree while
    no root and no y = 0 lies between them, which holds for Re E > 0 and
    small Im E.  est_error is a roundoff bound.
    """
    E, nu = _as_E_nu(params)
    x0, x1, x2 = _labeled_roots(E, nu) if nu != 0 else (0.0, E, E)
    r2 = np.sqrt(complex(x2))
    reg = (1j / 3.0) * (r2 ** 3 - 3.0 * E * r2)
    if nu == 0.0:
        return ActionValue(reg, 0.0, 0)
    a, b = x2 - x0, x2 - x1
    if _in_domain(b, a, x2):
        rf, rd, rj = _agm_carlson(b, a, x2)
    else:
        rf, rd, _ = _agm_carlson(b, a, 1.0)
        rj = _rj(0.0, a, b, x2)
    _check_finite(rf, rd, rj, (("E", E), ("nu", nu)))
    j0 = 2.0 * rf
    k1 = -a * (2.0 * rf + (2.0 / 3.0) * (b - a) * rd)
    tail = (-1j * E / 3.0) * ((x2 - E) * j0 + k1)
    pole = (-0.5j * nu * nu) * (2.0 / 3.0) * rj
    err = _ROUNDOFF * (abs(E) * (abs((x2 - E) * j0) + abs(k1)) / 3.0
                       + abs(pole) + 2.0 * abs(reg))
    return ActionValue(tail + pole + 2.0 * reg, err, 3)


def action_S12(E, h, l):
    """Barrier action int_{alpha1}^{alpha2} sqrt(r - E + h^2(l^2-1/4)/r^2) dr
    of the scalar comparison operator; purely imaginary with positive
    imaginary part.  Requires three distinct real turning points.

    Computed as S12 = i E^{3/2} I+(mu) with mu = h sqrt(l^2 - 1/4)
    E^{-3/2} (action_Iplus).  est_error is a roundoff bound."""
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
    ip = action_Iplus(mu)
    scale = E ** 1.5
    return ActionValue(1j * scale * ip.value, scale * ip.est_error, ip.n_evals)


def action_Iplus(mu):
    """Scaled barrier action I+(mu): S12 = i E^{3/2} I+(mu) with
    mu = h sqrt(l^2 - 1/4) E^{-3/2}.  I+(0) = 2/3 exactly.

    I+ = int_{b1}^{b2} sqrt(-(y-b0)(y-b1)(y-b2))/y dy + pi mu over the
    roots of y^3 - y^2 + mu^2, on the branch whose midpoint value has a
    nonnegative real part.  With P = -(y-b0)(y-b1)(y-b2), the integrand is
    sqrt(P)/y and int P/(y sqrt(P)) = M1/3 - mu^2 N in the moments of
    _segment (int P'/sqrt(P) = 0 removes the second moment).  est_error
    is a roundoff bound."""
    mu = _subcritical(mu)
    if mu == 0:
        return ActionValue(2.0 / 3.0 + 0.0j, 0.0, 0)
    roots = np.roots([1.0, -1.0, 0.0, mu * mu])
    b0, b1, b2 = sorted(roots, key=lambda z: z.real)
    _, m1, n, mid = _segment(complex(b1), complex(b2), complex(b0),
                             (("mu", mu),), True)
    mu2 = mu * mu
    value = _same_side(mid, 1.0) * (m1 / 3.0 - mu2 * n)
    err = _ROUNDOFF * (abs(m1) / 3.0 + abs(mu2 * n) + math.pi * abs(mu))
    return ActionValue(value + math.pi * mu, err, 3)
