"""Adaptive complex-contour quadrature and continuous-branch bookkeeping.

Everything in this module is geometry-free infrastructure: straight-segment
Gauss-Legendre panels with recursive bisection, a dedicated rule for integrals
of sqrt(cubic) * weight between two roots of the cubic (the shape every action
integral in this package reduces to), and a small class that carries continuous
arguments of linear factors along piecewise-straight paths so that fractional
powers of rational functions can be evaluated on a single consistent branch.

Branch convention used throughout: along a straight segment that does not pass
through a point p, the continuous change of arg(z - p) equals the principal
argument of the ratio (z_end - p)/(z_start - p).  This is exact because a
straight segment subtends an angle of less than pi when viewed from any point
not on the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "ComplexPath",
    "FactorArgs",
    "SqrtCubicResult",
    "adaptive_path",
    "adaptive_segment",
    "polyline_sqrt_ref",
    "segment_point_distance",
    "sqrt_cubic_polyline",
    "sqrt_cubic_segment",
]

# Gauss-Legendre node/weight pairs for the embedded 24/48 panel rule.
_X24, _W24 = np.polynomial.legendre.leggauss(24)
_X48, _W48 = np.polynomial.legendre.leggauss(48)

_MAX_DEPTH = 44  # bisection depth limit of adaptive_segment
_AMBIGUOUS_DOT = 0.02  # sign refused below this |cos| to branch_ref
_FACTOR_GUARD = 1e-12  # least path-to-factor-point distance, per 1 + length


@dataclass(frozen=True)
class ComplexPath:
    """Piecewise-straight contour in the complex plane.

    vertices: ordered contour vertices (at least two).
    """

    vertices: tuple

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
        object.__setattr__(self, "vertices", verts)

    def segments(self):
        """List of (start, end) pairs, zero-length segments dropped."""
        out = []
        for a, b in zip(self.vertices[:-1], self.vertices[1:]):
            if a != b:
                out.append((a, b))
        return out

    @property
    def start(self):
        return self.vertices[0]

    @property
    def end(self):
        return self.vertices[-1]

    def length(self):
        return sum(abs(b - a) for a, b in self.segments())

    def sample(self, per_segment=64):
        """Uniform sample points on every segment (endpoints included once)."""
        pts = [self.vertices[0]]
        for a, b in self.segments():
            t = np.linspace(0.0, 1.0, per_segment + 1)[1:]
            pts.extend(a + t * (b - a))
        return np.asarray(pts, dtype=complex)


def segment_point_distance(a, b, points):
    """Distance from each of `points` to the straight segment [a, b]."""
    a = complex(a)
    b = complex(b)
    p = np.asarray(points, dtype=complex)
    d = b - a
    ll = abs(d) ** 2
    if ll == 0.0:
        return np.abs(p - a)
    t = np.clip(((p - a) * np.conj(d)).real / ll, 0.0, 1.0)
    return np.abs(a + t * d - p)


def adaptive_segment(f, a, b, tol, *, max_evals=6_000_000):
    """Integrate the vectorized callable f along the straight segment [a, b].

    Embedded 24/48-point Gauss-Legendre panels, bisected until the panel error
    estimate |I48 - I24| falls below the panel's share of `tol` (absolute).
    Returns (value, est_error, n_evals).
    """
    value = 0.0 + 0.0j
    err_total = 0.0
    evals = 0
    stack = [(complex(a), complex(b), float(tol), 0)]
    while stack:
        a0, b0, tl, depth = stack.pop()
        mid = 0.5 * (a0 + b0)
        half = 0.5 * (b0 - a0)
        f24 = np.asarray(f(mid + half * _X24))
        f48 = np.asarray(f(mid + half * _X48))
        i24 = half * np.sum(_W24 * f24)
        i48 = half * np.sum(_W48 * f48)
        err = abs(i48 - i24)
        evals += 72
        if evals > max_evals:
            raise QuadratureFailure(
                f"evaluation budget exceeded ({evals} > {max_evals}) before "
                f"reaching tolerance {tol:g}"
            )
        if err <= tl or err <= 2.0 ** -48 * abs(i48):
            # second clause: panel error at the roundoff floor of its own
            # magnitude; further splitting cannot improve it
            value += i48
            err_total += err
        elif depth >= _MAX_DEPTH:
            raise QuadratureFailure(
                f"max bisection depth {_MAX_DEPTH} reached with panel error "
                f"{err:.3e} > {tl:.3e}"
            )
        else:
            stack.append((a0, mid, 0.5 * tl, depth + 1))
            stack.append((mid, b0, 0.5 * tl, depth + 1))
    return value, err_total, evals


def adaptive_path(f, path, tol):
    """Integrate f along a ComplexPath (or vertex sequence), sharing `tol`
    across segments in proportion to their length."""
    if not isinstance(path, ComplexPath):
        path = ComplexPath(tuple(path))
    segs = path.segments()
    if not segs:
        return 0.0 + 0.0j, 0.0, 0
    total_len = sum(abs(b - a) for a, b in segs)
    value = 0.0 + 0.0j
    err = 0.0
    evals = 0
    for a, b in segs:
        share = tol * abs(b - a) / total_len
        v, e, n = adaptive_segment(f, a, b, share)
        value += v
        err += e
        evals += n
    return value, err, evals


class SqrtCubicResult(NamedTuple):
    value: complex
    est_error: float
    n_evals: int
    sqrt_mid: complex  # value of the chosen sqrt branch at the segment midpoint


def sqrt_cubic_segment(ra, rb, rc, *, sign, weight, branch_ref, tol,
                       power=1):
    """Integral of  (sign*(y-ra)*(y-rb)*(y-rc))**(power/2) * weight(y)  dy
    along the straight segment from ra to rb.

    ra, rb are roots of the cubic under the square root (so the integrand has
    square-root endpoint behavior there); rc is the third root and must stay
    off the segment.  `power` is +1 (integrand has sqrt in the numerator) or
    -1 (sqrt in the denominator).

    The square root is taken continuous along the segment; the global sign of
    the branch is fixed by `branch_ref`: of the two continuous branches, the
    one whose midpoint value v satisfies Re(v * conj(branch_ref)) >= 0 is
    used (QuadratureFailure when branch_ref is too near orthogonal to v).
    Returns the midpoint branch value so that continuation chains can
    feed it back in as the next reference.

    Implementation: with y(t) = ra + (rb-ra) t the radicand factors as
    t(1-t) G(t) with G linear and nonvanishing; the substitution
    t = (1 - cos(theta))/2 turns sqrt(t(1-t)) into sin(theta)/2 and removes
    both endpoint singularities, after which the panels above converge
    spectrally.
    """
    ra = complex(ra)
    rb = complex(rb)
    rc = complex(rc)
    if power not in (1, -1):
        raise ValueError("power must be +1 or -1")
    d = rb - ra
    if d == 0:
        raise QuadratureFailure("degenerate segment: ra == rb")
    # G(t) = -sign * d^2 * (y(t) - rc) = beta * (t - t_root)
    beta = -sign * d ** 3
    t_root = (rc - ra) / d
    # distance from t_root to the real interval [0, 1]
    re, im = t_root.real, t_root.imag
    dx = 0.0 if 0.0 <= re <= 1.0 else min(abs(re), abs(re - 1.0))
    if math.hypot(dx, im) < 1e-9:
        raise QuadratureFailure(
            "third cubic root lies on the integration segment "
            "(near-degenerate turning points)"
        )
    arg_beta = np.angle(beta)

    def cont_sqrt_g(t):
        # continuous branch of sqrt(G(t)) for real t in [0, 1]
        gt = beta * (t - t_root)
        return np.sqrt(np.abs(gt)) * np.exp(0.5j * (arg_beta + np.angle(t - t_root)))

    sq_mid = 0.5 * complex(cont_sqrt_g(np.asarray([0.5]))[0])
    ref = complex(branch_ref)
    dot = (sq_mid * np.conj(ref)).real
    if abs(dot) < _AMBIGUOUS_DOT * abs(sq_mid) * abs(ref):
        raise QuadratureFailure(
            "branch reference nearly orthogonal to the sqrt midpoint value; "
            "cannot pin the branch sign reliably"
        )
    sigma = 1.0 if dot >= 0.0 else -1.0
    sqrt_mid = sigma * sq_mid

    if power == 1:
        def f_theta(theta):
            th = np.real(theta)
            t = np.sin(0.5 * th) ** 2  # = (1 - cos th)/2 without cancellation
            y = ra + d * t
            return 0.25 * np.sin(th) ** 2 * (sigma * cont_sqrt_g(t)) * weight(y) * d
    else:
        def f_theta(theta):
            th = np.real(theta)
            t = np.sin(0.5 * th) ** 2
            y = ra + d * t
            return weight(y) * d / (sigma * cont_sqrt_g(t))

    value, err, evals = adaptive_segment(f_theta, 0.0, math.pi, tol)
    return SqrtCubicResult(value, err, evals, sqrt_mid)


def _snap_pm1(c, what):
    """Snap a branch-matching constant (exactly +-1 in exact arithmetic) to
    the nearest sign, rejecting anything that is not close."""
    if abs(c - 1.0) < abs(c + 1.0):
        snapped, err = 1.0, abs(c - 1.0)
    else:
        snapped, err = -1.0, abs(c + 1.0)
    if err > 1e-6:
        raise QuadratureFailure(
            f"branch matching constant at {what} is {c:.6f}, not close "
            "to +-1; polyline may pass too near a cubic root"
        )
    return snapped


def polyline_sqrt_ref(ra, rb, rc, via, *, sign, ref_index=0):
    """Continued value of sqrt(sign (y-ra)(y-rb)(y-rc)) at via[ref_index]
    along the polyline ra -> via[...] -> rb, with the same deterministic
    branch chaining as sqrt_cubic_polyline but no quadrature.

    Used by continuation drivers that only need to track the branch between
    contour updates (the value itself is exact, not integrated).
    """
    ra = complex(ra)
    rb = complex(rb)
    rc = complex(rc)
    via = [complex(v) for v in via]
    if not via:
        raise ValueError("polyline needs at least one interior vertex")
    csign = complex(sign)
    d1 = via[0] - ra
    fa1 = FactorArgs((rb, rc), ra)
    v_end = np.sqrt(d1) * complex(
        fa1.eval_product(np.asarray([via[0]]), (1.0, 1.0), csign, 0.0, 0.5)[0])
    if ref_index == 0:
        return v_end
    fa3 = FactorArgs((ra, rb, rc), via[0])

    def p3(y):
        return complex(fa3.eval_product(np.asarray([y]), (1.0, 1.0, 1.0),
                                        csign, 0.0, 0.5)[0])

    c_mid = _snap_pm1(v_end / p3(via[0]), "the first interior vertex")
    for i in range(1, ref_index + 1):
        fa3.advance(via[i])
    return c_mid * p3(via[ref_index])


def sqrt_cubic_polyline(ra, rb, rc, via, *, sign, weight, branch_ref,
                        ref_index=0, tol, power=1):
    """Like sqrt_cubic_segment, but along the polyline ra -> via[0] -> ...
    -> via[-1] -> rb instead of the straight segment.

    The first and last legs absorb the endpoint square-root singularities by
    the substitutions y = ra + (via[0]-ra) t^2 and y = rb + (via[-1]-rb) t^2;
    interior legs use plain panels.  The square-root branch is continuous
    along the whole polyline (factor arguments carried leg to leg, with the
    unimodular matching constants snapped to +-1 and checked).  The global
    sign is pinned by branch_ref against the continued value at
    via[ref_index]; that value is returned as sqrt_mid so continuation chains
    can feed it forward.
    """
    ra = complex(ra)
    rb = complex(rb)
    rc = complex(rc)
    via = [complex(v) for v in via]
    if power not in (1, -1):
        raise ValueError("power must be +1 or -1")
    if not (0 <= ref_index < len(via)):
        raise ValueError("ref_index must index into via")
    csign = complex(sign)
    n_legs = len(via) + 1
    leg_tol = float(tol) / n_legs
    snap_pm1 = _snap_pm1

    value = 0.0 + 0.0j
    err_total = 0.0
    evals = 0
    ref_val = None

    # leg 1: ra -> via[0], y = ra + d1 t^2
    d1 = via[0] - ra
    sq_d1 = np.sqrt(d1)
    fa1 = FactorArgs((rb, rc), ra)

    def u1(y):
        return fa1.eval_product(y, (1.0, 1.0), csign, 0.0, 0.5)

    if power == 1:
        def f1(t):
            t = np.real(t)
            y = ra + d1 * t * t
            return 2.0 * d1 * sq_d1 * t * t * u1(y) * weight(y)
    else:
        def f1(t):
            t = np.real(t)
            y = ra + d1 * t * t
            return (2.0 * d1 / sq_d1) * weight(y) / u1(y)

    v, e, n = adaptive_segment(f1, 0.0, 1.0, leg_tol)
    value += v
    err_total += e
    evals += n
    v_end = sq_d1 * complex(u1(np.asarray([via[0]]))[0])  # sqrt value at via[0]
    if ref_index == 0:
        ref_val = v_end

    # interior legs with all three factors tracked
    fa3 = FactorArgs((ra, rb, rc), via[0])

    def p3(fa, y):
        return fa.eval_product(y, (1.0, 1.0, 1.0), csign, 0.0, 0.5)

    c_mid = snap_pm1(v_end / complex(p3(fa3, np.asarray([via[0]]))[0]),
                     "the first interior vertex")
    for i in range(len(via) - 1):
        a0, b0 = via[i], via[i + 1]
        leg_fa = fa3.clone()
        if power == 1:
            def fmid(y, _fa=leg_fa):
                return c_mid * p3(_fa, y) * weight(y)
        else:
            def fmid(y, _fa=leg_fa):
                return weight(y) / (c_mid * p3(_fa, y))
        v, e, n = adaptive_segment(fmid, a0, b0, leg_tol)
        value += v
        err_total += e
        evals += n
        fa3.advance(b0)
        if ref_index == i + 1:
            ref_val = c_mid * complex(p3(fa3, np.asarray([b0]))[0])

    # final leg: via[-1] -> rb, y = rb + df t^2, t from 1 down to 0
    df = via[-1] - rb
    sq_df = np.sqrt(df)
    fa_f = FactorArgs((ra, rc), via[-1])

    def uf(y):
        return fa_f.eval_product(y, (1.0, 1.0), csign, 0.0, 0.5)

    v_mid_end = c_mid * complex(p3(fa3, np.asarray([via[-1]]))[0])
    c_f = snap_pm1(v_mid_end / (sq_df * complex(uf(np.asarray([via[-1]]))[0])),
                   "the last interior vertex")

    if power == 1:
        def ff(t):
            t = np.real(t)
            y = rb + df * t * t
            return -2.0 * c_f * df * sq_df * t * t * uf(y) * weight(y)
    else:
        def ff(t):
            t = np.real(t)
            y = rb + df * t * t
            return -(2.0 * df / (c_f * sq_df)) * weight(y) / uf(y)

    v, e, n = adaptive_segment(ff, 0.0, 1.0, leg_tol)
    value += v
    err_total += e
    evals += n

    ref = complex(branch_ref)
    dot = (ref_val * np.conj(ref)).real
    if abs(dot) < _AMBIGUOUS_DOT * abs(ref_val) * abs(ref):
        raise QuadratureFailure(
            "branch reference nearly orthogonal to the continued sqrt value "
            "at the reference vertex; cannot pin the branch sign"
        )
    sigma = 1.0 if dot >= 0.0 else -1.0
    return SqrtCubicResult(sigma * value, err_total, evals, sigma * ref_val)


class FactorArgs:
    """Continuous arguments of the linear factors (x - p_j) along a path.

    The state is the current point and one continuous argument per factor.
    Advancing along a straight segment adds the principal argument of the
    endpoint ratio per factor (exact off the factor points, see module
    docstring).  Fractional powers of products C * prod (x - p_j)^(e_j) are
    then evaluated with `eval_product`, where the integer 2-pi ambiguity is
    pinned once per product by `offset_for`.
    """

    __slots__ = ("points", "at", "args")

    def __init__(self, points, start):
        self.points = np.asarray(points, dtype=complex)
        self.at = complex(start)
        diffs = self.at - self.points
        if np.any(np.abs(diffs) == 0.0):
            raise ValueError("start point coincides with a factor point")
        self.args = np.angle(diffs)

    def clone(self):
        c = FactorArgs.__new__(FactorArgs)
        c.points = self.points
        c.at = self.at
        c.args = self.args.copy()
        return c

    def advance(self, to):
        """Move the current point along the straight segment to `to`."""
        to = complex(to)
        if to == self.at:
            return self
        dist = segment_point_distance(self.at, to, self.points)
        scale = 1.0 + abs(to - self.at)
        if np.min(dist) < _FACTOR_GUARD * scale:
            raise ValueError(
                "path segment passes through (or touches) a factor point; "
                "reroute the path"
            )
        self.args = self.args + np.angle((to - self.points) / (self.at - self.points))
        self.at = to
        return self

    def advance_along(self, vertices):
        for v in vertices:
            self.advance(v)
        return self

    def node_args(self, nodes):
        """Continuous factor arguments at nodes lying on a straight segment
        that starts at the current point.  Returns (diffs, args) with shape
        (n_nodes, n_factors)."""
        nodes = np.asarray(nodes, dtype=complex)
        diffs = nodes[:, None] - self.points[None, :]
        args = self.args[None, :] + np.angle(diffs / (self.at - self.points)[None, :])
        return diffs, args

    def total_arg(self, exponents, const):
        """Continuous argument of C * prod (at - p_j)^(e_j) at the current
        point, before any 2-pi normalization."""
        e = np.asarray(exponents, dtype=float)
        return float(np.angle(const) + np.dot(e, self.args))

    def offset_for(self, exponents, const):
        """2-pi multiple that makes the product argument zero at the current
        point.  The product value must genuinely be positive real here;
        otherwise this raises."""
        raw = self.total_arg(exponents, const)
        m = round(raw / (2.0 * math.pi))
        resid = raw - 2.0 * math.pi * m
        if abs(resid) > 1e-6:
            raise ValueError(
                f"anchor argument mismatch: product argument {raw:.6f} is not "
                "0 modulo 2 pi"
            )
        return -2.0 * math.pi * m

    def eval_product(self, nodes, exponents, const, offset, frac):
        """Evaluate  (C * prod (x - p_j)^(e_j))^frac  on a consistent branch at
        nodes lying on a straight segment that starts at the current point."""
        e = np.asarray(exponents, dtype=float)
        diffs, args = self.node_args(nodes)
        log_abs = np.log(np.abs(diffs)) @ e + math.log(abs(const))
        arg_tot = args @ e + np.angle(const) + offset
        return np.exp(frac * log_abs) * np.exp(1j * frac * arg_tot)
