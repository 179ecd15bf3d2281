"""Model parameters, the turning-point cubic, energy surfaces, and the
branch-tracked symbol functions.

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
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TurningPointProximity
from .quadrature import ComplexPath, FactorArgs, segment_point_distance

__all__ = [
    "CubicRoots",
    "ModelParams",
    "SymbolBranch",
    "SymbolValue",
    "TurningPoints",
    "cubic_roots",
    "default_symbol_path",
    "discriminant",
    "energy_surface_rho2",
    "symbol_at",
    "turning_points",
]

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))  # primitive cube root of unity


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
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"h must be positive and finite, got {self.h}")
        twice = 2.0 * self.nu_tilde
        m = round(twice)
        if abs(twice - m) > 1e-9 or m < 1 or m % 2 == 0:
            raise ValueError(
                f"nu_tilde must be a positive half-integer (1/2, 3/2, ...), "
                f"got {self.nu_tilde}"
            )
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
        if not (nt > 0.0 and abs(2.0 * nt - round(2.0 * nt)) < 1e-12
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


def _cubic(x, E, nu):
    return x ** 3 - 2.0 * E * x ** 2 + E ** 2 * x - nu ** 2


def _cubic_d(x, E):
    return 3.0 * x ** 2 - 4.0 * E * x + E ** 2


def _polish(roots, E, nu, steps=2):
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
        for _ in range(steps):
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
    """Unlabeled root set (used as the continuation stepper)."""
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
    """Permutation of cand minimizing total displacement from prev.
    Returns (matched, max_move)."""
    best, best_cost = None, math.inf
    for perm in _PERMS:
        cost = sum(abs(prev[i] - cand[perm[i]]) for i in range(3))
        if cost < best_cost:
            best_cost, best = cost, perm
    matched = [cand[best[i]] for i in range(3)]
    max_move = max(abs(prev[i] - matched[i]) for i in range(3))
    return matched, max_move


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
    Re E > 0 the labels are carried from Re E by analytic continuation along
    the straight segment in E (nearest-neighbor matching with step halving).
    Residuals are polished to <= 1e-12 * max(1, |E|^3) by guarded Newton steps.
    Raises ValueError for a non-finite E.
    """
    E = complex(E)
    if not cmath.isfinite(E):
        raise ValueError(f"E must be finite, got {E}")
    nu = float(nu)
    d3 = discriminant(E, nu)
    deg_tol = 1e-12 * max(1.0, abs(E)) ** 6
    if abs(d3) <= deg_tol:
        roots = sorted(_cardano_any(E, nu), key=abs)
        return CubicRoots(_polish(roots, E, nu), True)

    if E.imag == 0.0:
        return CubicRoots(_polish(_cardano_labeled(E, nu), E, nu), False)

    if E.real <= 0.0:
        # no real-axis anchor for the asymptotic labels; report by modulus
        roots = sorted(_cardano_any(E, nu), key=abs)
        return CubicRoots(_polish(roots, E, nu), True)

    # continuation in E from the real axis
    cur = _cardano_labeled(complex(E.real), nu)
    t, dt = 0.0, 1.0
    while t < 1.0:
        step_ok = False
        while dt >= 1e-6:
            tn = min(1.0, t + dt)
            cand = _cardano_any(complex(E.real, tn * E.imag), nu)
            matched, max_move = _match(cur, cand)
            seps = [abs(cur[0] - cur[1]), abs(cur[0] - cur[2]), abs(cur[1] - cur[2])]
            if max_move <= 0.4 * min(seps):
                cur, t = matched, tn
                step_ok = True
                dt = min(2.0 * dt, 1.0)
                break
            dt /= 2.0
        if not step_ok:
            # roots nearly collide along the continuation path
            cur, _ = _match(cur, _cardano_any(E, nu))
            return CubicRoots(_polish(cur, E, nu), True)
    return CubicRoots(_polish(cur, E, nu), False)


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


def energy_surface_rho2(E, nu, r):
    """Radial energy-surface function rho^2(r) = (E - r^2)^2 - nu^2 / r^2.

    Vanishes exactly at the (real) turning points; rejects r <= 0.
    """
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"r must be positive, got {r}")
    return (float(E) - r * r) ** 2 - float(nu) ** 2 / (r * r)


@dataclass(frozen=True)
class SymbolValue:
    """Symbol data at one point: g_plus, g_minus, the branch-tracked quarter
    power H, and the accumulated continuous argument of H^4."""

    g_plus: complex
    g_minus: complex
    H: complex
    branch_phase: float


class SymbolBranch:
    """Continuous-branch state for H = (N/D)^{1/4} and sqrt(g+ g-), anchored
    at x = 0 with H(0) = 1 and sqrt(g+ g-) = +nu / x * x ... i.e. the branch
    of sqrt(P) positive on (0, r0), where P(x) = nu^2 - x^2 (E - x^2)^2.

    Factor layout: P(x)  = -(x-r0)(x-r1)(x+r2)(x-r2)(x+r0)(x+r1)
                   H^4   = N/D with N = -(x-r2)(x+r0)(x+r1),
                                    D =  (x-r0)(x-r1)(x+r2).
    One argument vector serves both products.
    """

    _EXP_P = np.ones(6)
    _EXP_H4 = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    _CONST = -1.0 + 0.0j

    def __init__(self, tp: TurningPoints, start=0.0 + 0.0j):
        r0, r1, r2 = tp.r
        if min(abs(r0), abs(r1), abs(r2)) < 1e-13 or tp.degenerate:
            raise TurningPointProximity(
                "symbol branch undefined for (near-)degenerate turning points"
            )
        self.tp = tp
        self.fa = FactorArgs((r0, r1, -r2, r2, -r0, -r1), start)
        self.off_P = self.fa.offset_for(self._EXP_P, self._CONST, 0.0)
        self.off_H4 = self.fa.offset_for(self._EXP_H4, self._CONST, 0.0)

    @property
    def at(self):
        return self.fa.at

    def clone(self):
        c = SymbolBranch.__new__(SymbolBranch)
        c.tp = self.tp
        c.fa = self.fa.clone()
        c.off_P = self.off_P
        c.off_H4 = self.off_H4
        return c

    def advance(self, to):
        self.fa.advance(to)
        return self

    def advance_along(self, vertices):
        self.fa.advance_along(vertices)
        return self

    def H_at(self, nodes):
        """H at nodes on a straight segment starting at the current point."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
        return self.fa.eval_product(nodes, self._EXP_H4, self._CONST,
                                    self.off_H4, 0.25)

    def H4_arg_at(self, node):
        """Continuous argument of H^4 at one such node."""
        _, args = self.fa.node_args(np.asarray([complex(node)]))
        return float(args[0] @ self._EXP_H4 + np.angle(self._CONST) + self.off_H4)

    def sqrt_gg_at(self, nodes):
        """sqrt(g+ g-) = sqrt(P)/x at nodes on a straight segment starting at
        the current point (x = 0 excluded by the caller)."""
        nodes = np.atleast_1d(np.asarray(nodes, dtype=complex))
        sp = self.fa.eval_product(nodes, self._EXP_P, self._CONST,
                                  self.off_P, 0.5)
        return sp / nodes


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


def symbol_at(x, params: ModelParams, branch_state: SymbolBranch = None,
              path: ComplexPath = None, prox_tol=None, return_state=False):
    """Symbol values g+, g-, H at x with the branch continued from H(0) = 1.

    With no branch_state the canonical normalization path from 0 is used
    (or `path`, which must then start at 0).  With a branch_state the branch
    is continued from its current point, along `path` if given, else along
    the straight segment.  Raises TurningPointProximity when |g+ g-| falls
    below tol^2 (tol defaults to 1e-6 * |sqrt(E)|), ValueError at x = 0.
    """
    x = complex(x)
    E, nu = params.E, params.nu
    tol = prox_tol if prox_tol is not None else 1e-6 * abs(np.sqrt(complex(E)))
    if abs(x) <= tol:
        raise ValueError("symbol_at: x is at (or too close to) the pole x = 0")
    gg = (nu ** 2 - x ** 2 * (E - x ** 2) ** 2) / x ** 2
    if abs(gg) < tol ** 2:
        raise TurningPointProximity(
            f"|g+ g-| = {abs(gg):.3e} below tolerance {tol ** 2:.3e} at x = {x}"
        )
    tp = turning_points(E, nu)
    if branch_state is None:
        state = SymbolBranch(tp)
        use_path = path if path is not None else default_symbol_path(tp, x)
        if abs(use_path.start - state.at) > 1e-12:
            raise ValueError("path must start at the anchor x = 0")
    else:
        state = branch_state.clone()
        use_path = path if path is not None else ComplexPath((state.at, x))
        if abs(use_path.start - state.at) > 1e-12:
            raise ValueError("path must start at the branch state's point")
    if abs(use_path.end - x) > 1e-12:
        raise ValueError("path must end at x")
    state.advance_along(use_path.vertices[1:])
    h_val = complex(state.H_at([x])[0])
    phase = state.H4_arg_at(x)
    g_plus = nu / x - E + x * x
    g_minus = nu / x + E - x * x
    val = SymbolValue(g_plus, g_minus, h_val, phase)
    if return_state:
        return val, state
    return val
