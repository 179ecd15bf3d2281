"""Model parameters, the turning-point cubic, and the branch-tracked symbol
function sqrt(g_plus g_minus).

The reduced one-dimensional model is the 2x2 system h D_x u = A(x) u with

    A(x) = [[x^2 - E, nu/x], [-nu/x, E - x^2]],

whose semiclassical symbol factors through

    g_plus(x)  = nu/x - E + x^2,      g_minus(x) = nu/x + E - x^2,
    g_plus * g_minus = (nu^2 - x^2 (E - x^2)^2) / x^2.

Turning points are the zeros of g_plus * g_minus: with y = x^2 they
solve the cubic y^3 - 2 E y^2 + E^2 y - nu^2 = 0, whose roots come from
Cardano's formula.  Their labels (x0 -> 0 and x1, x2 -> E as nu -> 0) are
Cardano's own on the real axis and, for complex E, those of the
continuation from the real axis, which the trigonometric form of the
roots gives in closed form (_label).

Branch convention (the one the amplitude sweeps of wkb rely on):
continuous-argument tracking of the six linear factors of
P(x) = nu^2 - x^2 (E - x^2)^2, anchored by positivity of sqrt(P) on
(0, r0), with sqrt(g+ g-) = sqrt(P)/x.  The canonical normalization path
runs along the real axis and passes below r0, above r1, and below r2,
which puts sqrt(g+ g-) in i R+ on (r0, r1) and beyond r2.
"""

from __future__ import annotations

import cmath
import copy
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import TurningPointProximity
from .quadrature import ComplexPath, segment_point_distance

__all__ = [
    "CubicRoots",
    "ModelParams",
    "SymbolBranch",
    "TurningPoints",
    "cubic_roots",
    "default_symbol_path",
    "discriminant",
    "turning_points",
]

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))  # primitive cube root of unity
_POLISH_STEPS = 2  # guarded Newton steps per cubic root
_FACTOR_GUARD = 1e-12  # least path-to-turning-point distance, per 1 + length


@dataclass(frozen=True)
class ModelParams:
    """Parameter quadruple (E, h, nu_tilde, nu) with nu = nu_tilde * h.

    nu_tilde must be a positive half-integer 1/2, 3/2, 5/2, ... (the angular
    index of the fiber operator; negative values are reduced away by symmetry).
    nu is not passed: it is computed as nu_tilde * h.
    """

    E: complex
    h: float
    nu_tilde: float
    nu: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "E", complex(self.E))
        _check_h_nt(self.h, self.nu_tilde, "half-integer")
        object.__setattr__(self, "nu", self.nu_tilde * self.h)


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
    of a (near-)double root are not defined.  Past |E| ~ 2.4e51 that
    scale overflows, past nu ~ 1.3e154 the discriminant's nu^2, and
    Cardano's data with them: TurningPointProximity reports the turning
    points as degenerate there.  Below that, the 27 nu^4 term overflows
    to inf without raising past nu ~ 5e76, and a non-finite discriminant
    is reported the same way."""
    term = "|E|^6"
    try:
        scale = max(1.0, abs(E)) ** 6
        term = "nu^2"
        d3 = discriminant(E, nu)
        term = "the discriminant"
        if not cmath.isfinite(d3):
            raise OverflowError
    except OverflowError:
        raise TurningPointProximity(
            f"turning points degenerate at E={E}, nu={nu}: {term} leaves "
            "the floating-point range") from None
    return abs(d3) <= 1e-12 * scale


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
    """Unlabeled root set, the values that _label puts in order."""
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


def _trig_w(theta):
    """The trigonometric roots w_k = (2/sqrt 3) cos((theta - 2 pi k)/3) of
    w^3 - w + mu = 0, theta = arccos(-(3 sqrt 3/2) mu), for k = 1, 0, 2:
    the order of the labels x0, x1, x2 (see _label)."""
    return [2.0 / math.sqrt(3.0) * cmath.cos((theta - 2.0 * math.pi * k) / 3.0)
            for k in (1, 0, 2)]


def _label(E, nu, candidates):
    """candidates, Cardano's three roots at (E, nu), in the labels
    (x0, x1, x2) of the continuation from the real axis.

    With y = E w^2 the cubic becomes w^3 - w + mu = 0, mu = nu E^{-3/2}
    (principal branch), whose roots w_k = (2/sqrt 3) cos((theta - 2 pi k)/3),
    theta = arccos(-(3 sqrt 3/2) mu), are analytic in mu for |mu| below
    the critical coupling sqrt(4/27); k = 1, 0, 2 give x0, x1, x2 as
    E w_k^2.  For Re E > 0 theta is analytic in E off the real segment
    (0, E_c], E_c = (27 nu^2/4)^{1/3}, where mu lies on the cut of arccos
    and the real-axis labels are the limit from below; above the real
    axis with Re E < E_c the continuation from there is 2 pi - theta.
    Each label takes the candidate nearest to its closed form, so the
    values stay Cardano's.  nu may be complex at real E (the complex
    coupling of actions.action_I).
    """
    theta = cmath.acos(-1.5 * math.sqrt(3.0) * nu * E ** -1.5)
    if E.imag > 0.0 and E.real < (6.75 * nu * nu) ** (1.0 / 3.0):
        theta = 2.0 * math.pi - theta
    return [min(candidates, key=lambda x: abs(x - E * w * w))
            for w in _trig_w(theta)]


class CubicRoots:
    """Labeled roots (x0, x1, x2) of the turning-point cubic.

    degenerate is a flag, not an error: it is set when the discriminant is
    below tolerance, or off the real axis when Re E <= 0 (no real-axis
    anchor for the labels) or |mu| = nu |E|^{-3/2} exceeds 1e150 (E
    negligible next to the roots), and the labels fall back to modulus
    ordering.
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
    Re E > 0 the roots are Cardano's in the labels of the analytic
    continuation from Re E along the straight segment in E, which
    _label gives in closed form.  Residuals are polished to
    <= 1e-12 * max(1, |E|^3) by guarded Newton steps.  Raises ValueError
    for a non-finite E, and TurningPointProximity past |E| ~ 2.4e51 or
    nu ~ 1.3e154 (_degenerate).
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

    if E.real <= 0.0 or abs(E) ** 3 * 1e300 < nu * nu:
        # no real-axis anchor for the asymptotic labels, or |mu| =
        # nu |E|^{-3/2} above 1e150, where _label would overflow; report
        # by modulus
        roots = sorted(_cardano_any(E, nu), key=abs)
        return CubicRoots(_polish(roots, E, nu), True)

    return CubicRoots(_polish(_label(E, nu, _cardano_any(E, nu)), E, nu),
                      False)


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


class SymbolBranch:
    """Continuous-branch state for sqrt(g+ g-) = sqrt(P)/x, anchored at
    x = 0 on the branch of sqrt(P) positive on (0, r0), where
    P(x) = nu^2 - x^2 (E - x^2)^2.

    Factor layout: P(x) = -(x-r0)(x-r1)(x+r2)(x-r2)(x+r0)(x+r1).
    The state is the current point and one continuous argument per factor
    point.  Along a straight segment that does not pass through a point p,
    the continuous change of arg(x - p) equals the principal argument of
    (x_end - p)/(x_start - p): a straight segment subtends an angle below
    pi from any point off it.  The 2 pi ambiguity of the product is pinned
    once, at x = 0, where P = nu^2 is positive.  SymbolBranch(tp, to)
    carries the branch from 0 to `to` along default_symbol_path.
    """

    _EXP_P = np.ones(6)  # summed by a dot product, whose order the pins hold

    __slots__ = ("points", "at", "args", "off_P")

    def __init__(self, tp: TurningPoints, to=0.0 + 0.0j):
        r0, r1, r2 = tp.r
        if min(abs(r0), abs(r1), abs(r2)) < 1e-13 or tp.degenerate:
            raise TurningPointProximity(
                "symbol branch undefined for (near-)degenerate turning points"
            )
        self.points = np.asarray((r0, r1, -r2, r2, -r0, -r1), dtype=complex)
        self.at = 0.0 + 0.0j
        self.args = np.angle(self.at - self.points)
        self.off_P = self._anchor_offset()
        self.advance_along(default_symbol_path(tp, to).vertices[1:])

    def _arg(self, args):
        """Continuous argument of P = -prod (x - p_j) from the factor
        arguments, before the 2 pi offset."""
        return args @ self._EXP_P + np.angle(-1.0 + 0.0j)

    def _anchor_offset(self):
        """2 pi multiple that makes the argument of P zero at x = 0;
        raises unless P is positive real there."""
        raw = float(self._arg(self.args))
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

    def sqrt_gg_at(self, nodes):
        """sqrt(g+ g-) = sqrt(P)/x at nodes on a straight segment starting at
        the current point (x = 0 excluded by the caller)."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
        diffs = nodes[:, None] - self.points[None, :]
        args = self.args[None, :] + np.angle(diffs / (self.at - self.points)[None, :])
        log_abs = np.log(np.abs(diffs)) @ self._EXP_P
        arg_tot = self._arg(args) + self.off_P
        return np.exp(0.5 * log_abs) * np.exp(0.5j * arg_tot) / nodes


# dodge sides of the canonical normalization path: below r0, above r1,
# below r2; mirrored for the reflected points.
_DODGE_SIDES = (-1.0, +1.0, -1.0, +1.0, -1.0, +1.0)  # r0, r1, r2, -r0, -r1, -r2


def default_symbol_path(tp: TurningPoints, x):
    """Canonical branch-normalization path from the origin to x.

    Travels along the real axis to Re x, dodging every turning point whose
    abscissa is crossed and that sits within its dodge radius of the axis
    (sides: below r0, above r1, below r2), then rises straight to x.
    """
    x = complex(x)
    r0, r1, r2 = tp.r
    specials = [r0, r1, r2, -r0, -r1, -r2]
    a, b = 0.0, x.real
    direction = 1.0 if b >= a else -1.0
    dodges = []
    for p, side in zip(specials, _DODGE_SIDES):
        others = [q for q in specials + [0.0 + 0.0j] if q is not p]
        rho = 0.3 * min(abs(p - q) for q in others)
        rho = min(rho, 0.2 * max(abs(x), 1e-3))
        if rho <= 0.0:
            continue
        lo, hi = min(a, b), max(a, b)
        if lo - rho < p.real < hi + rho and abs(p.imag) < rho:
            dodges.append((p.real, p + 1j * side * rho))
    dodges.sort(key=lambda t: direction * t[0])
    verts = [0.0 + 0.0j] + [v for _, v in dodges]
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
