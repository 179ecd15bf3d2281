"""Model parameters, the turning-point cubic, and the branch-tracked symbol
functions.

The reduced one-dimensional model is the 2x2 system h D_x u = A(x) u with

    A(x) = [[x^2 - E, nu/x], [-nu/x, E - x^2]],

whose semiclassical symbol factors through

    g_plus(x)  = nu/x - E + x^2,      g_minus(x) = nu/x + E - x^2,
    g_plus * g_minus = (nu^2 - x^2 (E - x^2)^2) / x^2,

and the quarter-power ratio H(x) = (g_minus/g_plus)^(1/4) normalized by
H(0) = 1.  Turning points are the zeros of g_plus * g_minus: with y = x^2 they
solve the cubic y^3 - 2 E y^2 + E^2 y - nu^2 = 0, whose labeled roots
(x0 -> 0 and x1, x2 -> E as nu -> 0) come from Cardano's formula.

Branch convention (the one every downstream phase and transfer matrix relies
on): continuous-argument tracking of the six linear factors of
N(x) = nu + E x - x^3 and D(x) = nu - E x + x^3, anchored by H(0) = 1 and, for
sqrt(g+ g-), by positivity on (0, r0).  The canonical normalization path runs
along the real axis and passes below r0, above r1, and below r2; that is the
unique choice producing H in e^{-i pi/4} R+ on (r0, r1), H in e^{+i pi/4} R+
beyond r2, and sqrt(g+ g-) in i R+ on both of those intervals.
"""

from __future__ import annotations

import cmath
import copy
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TurningPointProximity
from .quadrature import ComplexPath, segment_point_distance

__all__ = [
    "CubicRoots",
    "ModelParams",
    "SymbolBranch",
    "SymbolValue",
    "TurningPoints",
    "cubic_roots",
    "default_symbol_path",
    "discriminant",
    "symbol_at",
    "turning_points",
]

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))  # primitive cube root of unity
_POLISH_STEPS = 2  # guarded Newton steps per cubic root
_PROX_REL = 1e-6  # symbol_at's proximity tolerance, relative to |sqrt(E)|
_FACTOR_GUARD = 1e-12  # least path-to-turning-point distance, per 1 + length


@dataclass(frozen=True)
class ModelParams:
    """Parameter quadruple (E, h, nu_tilde, nu) with nu = nu_tilde * h.

    nu_tilde must be a positive half-integer 1/2, 3/2, 5/2, ... (the angular
    index of the fiber operator; negative values are reduced away by symmetry).
    Pass nu only to assert it; it is always recomputed as nu_tilde * h.
    """

    E: complex
    h: float
    nu_tilde: float
    nu: float = None

    def __post_init__(self):
        object.__setattr__(self, "E", complex(self.E))
        _check_h_nt(self.h, self.nu_tilde, "half-integer")
        product = self.nu_tilde * self.h
        if self.nu is not None and self.nu != product:
            raise ValueError(
                f"nu must equal nu_tilde * h = {product!r}, got {self.nu!r}"
            )
        object.__setattr__(self, "nu", product)


class _Params(NamedTuple):
    """Validated (E, h, nu_tilde, nu = nu_tilde * h) without ModelParams'
    half-integer pin on nu_tilde."""

    E: complex
    h: float
    nu_tilde: float
    nu: float


def _as_E_nu(params):
    """(E, nu) from ModelParams or a plain (E, nu) pair."""
    if isinstance(params, ModelParams):
        return params.E, params.nu
    E, nu = params
    return complex(E), float(nu)


def _check_h(h):
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h}")
    return h


def _check_h_nt(h, nu_tilde, rule="positive"):
    """Float (h, nu_tilde) with h positive and finite and nu_tilde obeying
    rule: "positive" (finite, > 0; the lattice and the WKB machinery are
    generic in nu_tilde, and studies at fixed nu = nu_tilde * h need
    off-lattice values), "half-integer" (1/2, 3/2, ..., the index the
    Frobenius start needs) or "nonnegative" (finite, >= 0, enough for
    the plain path integrator)."""
    h, nt = _check_h(h), float(nu_tilde)
    if rule == "half-integer":
        if not (nt > 0.0 and math.isfinite(nt)
                and abs(2.0 * nt - round(2.0 * nt)) < 1e-12
                and round(2.0 * nt) % 2 == 1):
            raise ValueError(
                f"nu_tilde must be a positive half-integer, got {nt}")
    elif rule == "nonnegative":
        if not (nt >= 0.0 and math.isfinite(nt)):
            raise ValueError(f"nu_tilde must be nonnegative, got {nt}")
    elif not (nt > 0.0 and math.isfinite(nt)):
        raise ValueError(f"nu_tilde must be positive and finite, got {nt}")
    return h, nt


def _check_h_l(h, l):
    """Float h, positive and finite, and int l >= 1, the angular index of
    the scalar radial comparison operator.  Bools and non-integral
    numbers are rejected rather than truncated."""
    if isinstance(l, bool) or not isinstance(l, numbers.Integral) or l < 1:
        raise ValueError(f"l must be an integer >= 1, got {l!r}")
    return _check_h(h), int(l)


def _as_params(params, rule="positive"):
    """_Params from ModelParams, _Params or a loose (E, h, nu_tilde)
    triple, with nu_tilde checked by rule (see _check_h_nt)."""
    if isinstance(params, (ModelParams, _Params)):
        E, h, nt = params.E, params.h, params.nu_tilde
    else:
        E, h, nt = params
    E = complex(E)
    h, nt = _check_h_nt(h, nt, rule)
    return _Params(E, h, nt, nt * h)


def discriminant(E, nu):
    """Discriminant nu^2 (4 E^3 - 27 nu^2) of the turning-point cubic.

    For real E its sign decides reality: all three cubic roots are real if and
    only if the discriminant is >= 0.
    """
    E = complex(E)
    n2 = float(nu) ** 2
    return n2 * (4.0 * E ** 3 - 27.0 * n2)


def _degenerate(E, nu):
    """True when the discriminant is below 1e-12 max(1, |E|)^6: the labels
    of a (near-)double root are not defined."""
    return abs(discriminant(E, nu)) <= 1e-12 * max(1.0, abs(E)) ** 6


def _cubic(x, E, nu):
    return x ** 3 - 2.0 * E * x ** 2 + E ** 2 * x - nu ** 2


def _cubic_d(x, E):
    return 3.0 * x ** 2 - 4.0 * E * x + E ** 2


def _polish(roots, E, nu):
    """Guarded Newton polish, then restoration of the exact root sum.

    Newton steps skip roots whose derivative collapses (near-double roots,
    where polishing only injects evaluation noise).  Afterwards the root with
    the smallest |P'| is recomputed from x0+x1+x2 = 2E: that root tolerates
    the largest position shift at negligible residual cost, and the sum
    identity then holds to a few ulp instead of drifting with the polish.
    """
    out = []
    scale = max(1.0, abs(E)) ** 2
    for x in roots:
        for _ in range(_POLISH_STEPS):
            d = _cubic_d(x, E)
            if abs(d) < 1e-8 * scale:
                break
            step = _cubic(x, E, nu) / d
            if abs(step) > 0.1 * max(1.0, abs(x)):
                break
            x = x - step
        out.append(x)
    j = min(range(3), key=lambda i: abs(_cubic_d(out[i], E)))
    others = sum(out[i] for i in range(3) if i != j)
    out[j] = 2.0 * E - others
    return out


def _cbrt_candidates(c):
    base = abs(c) ** (1.0 / 3.0) * np.exp(1j * np.angle(c) / 3.0)
    return (base, base * _OMEGA, base * np.conj(_OMEGA))


def _cardano_core(E, nu):
    """Cardano data for x^3 - 2E x^2 + E^2 x - nu^2 in depressed form
    u^3 + p u + q with x = u + 2E/3.  Returns (p, q, c1) where c1 = -q/2 + sq
    is computed cancellation-free (c1 * c2 = -p^3/27)."""
    E = complex(E)
    p = -E * E / 3.0
    q = 2.0 * E ** 3 / 27.0 - nu * nu
    delta = q * q / 4.0 + p ** 3 / 27.0  # equals -D3/108
    sq = np.sqrt(complex(delta))
    c1 = -q / 2.0 + sq
    c2 = -q / 2.0 - sq
    if abs(c1) < abs(c2):
        # avoid cancellation: recover the small branch from the product
        c1 = (-p ** 3 / 27.0) / c2 if c2 != 0 else c1
    return p, q, c1


def _cardano_labeled(E, nu):
    """Labeled roots for (near-)real E: S+ is the cube root of -q/2 + sq that
    lies closest to -E/3; then x0 = 2E/3 + S+ + S- is the root tending to 0
    and x1, x2 tend to E as nu -> 0."""
    p, q, c1 = _cardano_core(E, nu)
    target = -E / 3.0
    s_plus = min(_cbrt_candidates(c1), key=lambda s: abs(s - target))
    if s_plus == 0:
        return [2.0 * E / 3.0] * 3
    s_minus = -p / (3.0 * s_plus)
    shift = 2.0 * E / 3.0
    ssum = s_plus + s_minus
    sdif = 1j * (math.sqrt(3.0) / 2.0) * (s_plus - s_minus)
    x0 = shift + ssum
    x1 = shift - ssum / 2.0 + sdif
    x2 = shift - ssum / 2.0 - sdif
    return [x0, x1, x2]


def _cardano_any(E, nu):
    """Unlabeled root set (the corrector of the continuation)."""
    p, q, c1 = _cardano_core(E, nu)
    s = _cbrt_candidates(c1)[0]
    if s == 0:
        return [2.0 * E / 3.0] * 3
    t = -p / (3.0 * s)
    shift = 2.0 * E / 3.0
    return [
        shift + s + t,
        shift + s * _OMEGA + t * np.conj(_OMEGA),
        shift + s * np.conj(_OMEGA) + t * _OMEGA,
    ]


_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _match(prev, cand):
    """Permutation of cand minimizing total displacement from prev."""
    best = min(_PERMS, key=lambda perm: sum(
        abs(prev[i] - cand[perm[i]]) for i in range(3)))
    return [cand[best[i]] for i in range(3)]


def _separation(roots):
    """Smallest distance between two of the three roots."""
    return min(abs(roots[0] - roots[1]), abs(roots[0] - roots[2]),
               abs(roots[1] - roots[2]))


def _near_match(pred, cand):
    """cand in the order of pred when every candidate lies within 0.4 times
    pred's smallest separation of a predicted root, no two of them near
    the same one; else None.  Those discs are disjoint, and the order is
    then the unique permutation minimizing total displacement from pred:
    any other one pairs at least two candidates with roots more than 0.6
    separations away."""
    radius = 0.4 * _separation(pred)
    out = [None, None, None]
    for c in cand:
        for i in range(3):
            if abs(c - pred[i]) <= radius:
                if out[i] is not None:
                    return None
                out[i] = c
                break
        else:
            return None
    return out


def _velocities(roots, E, nu, dE, dnu):
    """dx/dt = (2 nu dnu/dt - 2 x (E - x) dE/dt) / P'(x) of each root x,
    from P(x) = 0 differentiated along a path in (E, nu); None when P'
    vanishes at a root."""
    derivs = [_cubic_d(x, E) for x in roots]
    if not all(derivs):
        return None
    return [(2.0 * nu * dnu - 2.0 * x * (E - x) * dE) / d
            for x, d in zip(roots, derivs)]


def _track_roots(cur, point, rate, min_dt=1e-6):
    """Carry the labeled roots cur of the cubic at point(0) to point(1)
    by predictor-corrector continuation along a path in (E, nu).

    point(t) gives (E, nu) on the path (exactly the end point at t = 1),
    rate(t) the derivatives (dE/dt, dnu/dt); nu may be complex.  A step
    of length dt moves each root along its velocity (_velocities) and
    takes the Cardano roots at the step end in the order of the predicted
    roots they lie near (_near_match).  It is accepted when, besides,
    the change dt |v_end - v_start| of every root's predicted move stays
    within the same 0.4 of the smallest predicted separation: that is
    twice the Euler error estimate, and it keeps a long step from taking
    one root's continuation for another's when the prediction itself is
    off by a separation.  A rejected step halves, an accepted
    one doubles the next, up to the whole path.  Returns (Cardano's roots
    at point(1), True); or, when the step falls below min_dt (the roots
    nearly collide on the way) or P' vanishes at a root, (those roots
    matched to the last accepted ones, False).
    """
    t, dt = 0.0, 1.0
    vel = _velocities(cur, *point(0.0), *rate(0.0))
    while t < 1.0 and vel is not None:
        while dt >= min_dt:
            tn = min(1.0, t + dt)
            step = tn - t
            pred = [x + v * step for x, v in zip(cur, vel)]
            matched = _near_match(pred, _cardano_any(*point(tn)))
            if matched is not None:
                vel_end = _velocities(matched, *point(tn), *rate(tn))
                bound = 0.4 * _separation(pred)
                if vel_end is not None and all(
                        step * abs(a - b) <= bound
                        for a, b in zip(vel, vel_end)):
                    cur, vel, t = matched, vel_end, tn
                    dt = min(2.0 * dt, 1.0)
                    break
            dt /= 2.0
        else:
            break
    if t == 1.0:
        return cur, True
    return _match(cur, _cardano_any(*point(1.0))), False


def _continue_roots(cur, E_from, E, nu):
    """Roots of the cubic at E in the labels of cur, the labeled roots at
    E_from, continued along the straight segment from E_from to E
    (_track_roots)."""
    dE = E - E_from
    return _track_roots(
        cur, lambda t: (E if t == 1.0 else E_from + t * dE, nu),
        lambda t: (dE, 0.0))


class CubicRoots:
    """Labeled roots (x0, x1, x2) of the turning-point cubic.

    degenerate is a flag, not an error: it is set when the discriminant is
    below tolerance (or no real-E continuation anchor exists) and the labels
    fall back to modulus ordering.
    """

    __slots__ = ("roots", "degenerate")

    def __init__(self, roots, degenerate):
        self.roots = tuple(complex(r) for r in roots)
        self.degenerate = bool(degenerate)

    def __iter__(self):
        return iter(self.roots)

    def __getitem__(self, i):
        return self.roots[i]

    def __repr__(self):
        return f"CubicRoots(roots={self.roots!r}, degenerate={self.degenerate})"


def cubic_roots(E, nu):
    """Labeled roots of x^3 - 2 E x^2 + E^2 x - nu^2.

    For real E the Cardano labeling applies directly; for complex E with
    Re E > 0 the labels are carried from Re E by analytic continuation
    along the straight segment in E (_continue_roots).  Each step is a
    predictor move of every root along dx/dE = -2 x (E - x) / P'(x) and
    a Cardano solve at the step end, whose roots are taken in the order
    of the predicted roots they lie within 0.4 smallest separations of
    (one candidate per root), and the step halves when that or the
    consistency of the predicted move fails.  Newton iterates reach the
    same labels from the previous iterate instead (_cubic_roots_from),
    when both lie below the real axis with Re E on the same side of the
    real branch point (27 nu^2 / 4)^{1/3}.  Residuals are polished to
    <= 1e-12 * max(1, |E|^3) by guarded Newton steps.  Raises ValueError
    for a non-finite E.
    """
    E = complex(E)
    if not cmath.isfinite(E):
        raise ValueError(f"E must be finite, got {E}")
    nu = float(nu)
    if _degenerate(E, nu):
        roots = sorted(_cardano_any(E, nu), key=abs)
        return CubicRoots(_polish(roots, E, nu), True)

    if E.imag == 0.0:
        return CubicRoots(_polish(_cardano_labeled(E, nu), E, nu), False)

    if E.real <= 0.0:
        # no real-axis anchor for the asymptotic labels; report by modulus
        roots = sorted(_cardano_any(E, nu), key=abs)
        return CubicRoots(_polish(roots, E, nu), True)

    anchor = complex(E.real)
    roots, ok = _continue_roots(_cardano_labeled(anchor, nu), anchor, E, nu)
    return CubicRoots(_polish(roots, E, nu), not ok)


def _cubic_roots_from(prev, E, nu):
    """cubic_roots(E, nu), with the labels continued from prev = (E_prev,
    labeled roots at E_prev; None for no previous roots) when E_prev and
    E both lie below the real axis, with Re E > 0 on the same side of the
    real branch point E_c = (27 nu^2 / 4)^{1/3}.  Then the segment from
    E_prev to E, the vertical ones from both to the real axis and the
    real axis between them enclose no root collision, and the labels are
    those of the continuation from the real axis.  Otherwise, or when
    the continuation meets a near collision, the roots come from
    cubic_roots itself.
    """
    if prev is not None:
        E_prev, cur = prev
        E, nu = complex(E), float(nu)
        e_c = (6.75 * nu * nu) ** (1.0 / 3.0)
        if (cmath.isfinite(E) and E_prev.imag < 0.0 and E.imag < 0.0
                and E_prev.real > 0.0 and E.real > 0.0
                and (E_prev.real - e_c) * (E.real - e_c) > 0.0
                and not _degenerate(E, nu)):
            roots, ok = _continue_roots(cur, E_prev, E, nu)
            if ok:
                return CubicRoots(_polish(roots, E, nu), False)
    return cubic_roots(E, nu)


@dataclass(frozen=True)
class TurningPoints:
    """Turning points r_j (right-half-plane square roots of the cubic roots
    x_j) together with the cubic data."""

    x_roots: tuple
    r: tuple
    D3: complex
    degenerate: bool

    @property
    def r0(self):
        return self.r[0]

    @property
    def r1(self):
        return self.r[1]

    @property
    def r2(self):
        return self.r[2]


def turning_points(E, nu):
    """Turning points of the reduced model: r_j = sqrt(x_j) with Re r_j >= 0,
    ordered by the cubic labels (so 0 < r0 < r1 < sqrt(E) < r2 for real E > 0
    with nu^2 < 4 E^3 / 27)."""
    cr = cubic_roots(E, nu)
    r = tuple(np.sqrt(complex(x)) for x in cr.roots)
    return TurningPoints(tuple(cr.roots), r, discriminant(E, nu), cr.degenerate)


@dataclass(frozen=True)
class SymbolValue:
    """Symbol data at one point: g_plus, g_minus and the branch-tracked
    quarter power H."""

    g_plus: complex
    g_minus: complex
    H: complex


class SymbolBranch:
    """Continuous-branch state for H = (N/D)^{1/4} and sqrt(g+ g-), anchored
    at x = 0 with H(0) = 1 and sqrt(g+ g-) = sqrt(P)/x, i.e. the branch of
    sqrt(P) positive on (0, r0), where P(x) = nu^2 - x^2 (E - x^2)^2.

    Factor layout: P(x)  = -(x-r0)(x-r1)(x+r2)(x-r2)(x+r0)(x+r1)
                   H^4   = N/D with N = -(x-r2)(x+r0)(x+r1),
                                    D =  (x-r0)(x-r1)(x+r2).
    The state is the current point and one continuous argument per factor
    point, which serves both products.  Along a straight segment that does
    not pass through a point p, the continuous change of arg(x - p) equals
    the principal argument of (x_end - p)/(x_start - p): a straight segment
    subtends an angle below pi from any point off it.  The 2 pi ambiguity
    of each product is pinned once, at x = 0, where both products are
    positive.  SymbolBranch(tp, to) carries the branch from 0 to `to`
    along default_symbol_path.
    """

    _EXP_P = np.ones(6)
    _EXP_H4 = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])

    __slots__ = ("points", "at", "args", "off_P", "off_H4")

    def __init__(self, tp: TurningPoints, to=0.0 + 0.0j):
        r0, r1, r2 = tp.r
        if min(abs(r0), abs(r1), abs(r2)) < 1e-13 or tp.degenerate:
            raise TurningPointProximity(
                "symbol branch undefined for (near-)degenerate turning points"
            )
        self.points = np.asarray((r0, r1, -r2, r2, -r0, -r1), dtype=complex)
        self.at = 0.0 + 0.0j
        self.args = np.angle(self.at - self.points)
        self.off_P = self._anchor_offset(self._EXP_P)
        self.off_H4 = self._anchor_offset(self._EXP_H4)
        self.advance_along(default_symbol_path(tp, to).vertices[1:])

    @staticmethod
    def _arg(args, exponents):
        """Continuous argument of -prod (x - p_j)^(e_j) from the factor
        arguments, before the 2 pi offset."""
        return args @ exponents + np.angle(-1.0 + 0.0j)

    def _anchor_offset(self, exponents):
        """2 pi multiple that makes the product's argument zero at x = 0;
        raises unless the product is positive real there."""
        raw = float(self._arg(self.args, exponents))
        m = round(raw / (2.0 * math.pi))
        if abs(raw - 2.0 * math.pi * m) > 1e-6:
            raise ValueError(
                f"anchor argument mismatch: product argument {raw:.6f} is not "
                "0 modulo 2 pi"
            )
        return -2.0 * math.pi * m

    def clone(self):
        """Independent copy; advance rebinds args rather than mutating it."""
        return copy.copy(self)

    def advance(self, to):
        """Move the current point along the straight segment to `to`."""
        to = complex(to)
        if to == self.at:
            return self
        dist = segment_point_distance(self.at, to, self.points)
        if np.min(dist) < _FACTOR_GUARD * (1.0 + abs(to - self.at)):
            raise ValueError(
                "path segment passes through (or touches) a turning point; "
                "reroute the path"
            )
        self.args = self.args + np.angle((to - self.points) / (self.at - self.points))
        self.at = to
        return self

    def advance_along(self, vertices):
        for v in vertices:
            self.advance(v)
        return self

    def _power(self, nodes, exponents, offset, frac):
        """(-prod (x - p_j)^(e_j))^frac on the tracked branch at nodes on a
        straight segment starting at the current point."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
        diffs = nodes[:, None] - self.points[None, :]
        args = self.args[None, :] + np.angle(diffs / (self.at - self.points)[None, :])
        log_abs = np.log(np.abs(diffs)) @ exponents
        arg_tot = self._arg(args, exponents) + offset
        return np.exp(frac * log_abs) * np.exp(1j * frac * arg_tot)

    def H_at(self, nodes):
        """H at nodes on a straight segment starting at the current point."""
        return self._power(nodes, self._EXP_H4, self.off_H4, 0.25)

    def sqrt_gg_at(self, nodes):
        """sqrt(g+ g-) = sqrt(P)/x at nodes on a straight segment starting at
        the current point (x = 0 excluded by the caller)."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
        return self._power(nodes, self._EXP_P, self.off_P, 0.5) / nodes


# dodge sides of the canonical normalization path: below r0, above r1,
# below r2; mirrored for the reflected points.
_DODGE_SIDES = (-1.0, +1.0, -1.0, +1.0, -1.0, +1.0)  # r0, r1, r2, -r0, -r1, -r2


def default_symbol_path(tp: TurningPoints, x, start=0.0 + 0.0j):
    """Canonical branch-normalization path from `start` (usually 0) to x.

    Travels along the real axis to Re x, dodging every turning point whose
    abscissa is crossed and that sits within its dodge radius of the axis
    (sides: below r0, above r1, below r2), then rises straight to x.
    """
    x = complex(x)
    start = complex(start)
    r0, r1, r2 = tp.r
    specials = [r0, r1, r2, -r0, -r1, -r2]
    a, b = start.real, x.real
    direction = 1.0 if b >= a else -1.0
    dodges = []
    for p, side in zip(specials, _DODGE_SIDES):
        others = [q for q in specials + [0.0 + 0.0j] if q is not p]
        rho = 0.3 * min(abs(p - q) for q in others)
        rho = min(rho, 0.2 * max(abs(x - start), 1e-3))
        if rho <= 0.0:
            continue
        lo, hi = min(a, b), max(a, b)
        if lo - rho < p.real < hi + rho and abs(p.imag) < rho:
            dodges.append((p.real, p + 1j * side * rho))
    dodges.sort(key=lambda t: direction * t[0])
    verts = [start] + [v for _, v in dodges]
    if x.imag != 0.0 and abs(x.real - verts[-1].real) > 1e-14:
        verts.append(complex(x.real))
    verts.append(x)
    # drop consecutive duplicates
    out = [verts[0]]
    for v in verts[1:]:
        if v != out[-1]:
            out.append(v)
    if len(out) == 1:
        out.append(x)
    return ComplexPath(tuple(out))


def symbol_at(x, params: ModelParams):
    """Symbol values g+, g-, H at x with the branch continued from H(0) = 1
    along the canonical normalization path.  Raises TurningPointProximity
    when |g+ g-| falls below tol^2 with tol = 1e-6 |sqrt(E)|, ValueError
    within tol of x = 0.
    """
    x = complex(x)
    E, nu = params.E, params.nu
    tol = _PROX_REL * abs(np.sqrt(complex(E)))
    if abs(x) <= tol:
        raise ValueError("symbol_at: x is at (or too close to) the pole x = 0")
    gg = (nu ** 2 - x ** 2 * (E - x ** 2) ** 2) / x ** 2
    if abs(gg) < tol ** 2:
        raise TurningPointProximity(
            f"|g+ g-| = {abs(gg):.3e} below tolerance {tol ** 2:.3e} at x = {x}"
        )
    h_val = complex(SymbolBranch(turning_points(E, nu), x).H_at([x])[0])
    return SymbolValue(nu / x - E + x * x, nu / x + E - x * x, h_val)
