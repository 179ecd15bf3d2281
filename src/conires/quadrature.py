"""Adaptive complex-contour quadrature and continuous-branch bookkeeping.

Everything in this module is geometry-free infrastructure: straight-segment
Gauss-Legendre panels with recursive bisection, and a small class that carries
continuous arguments of linear factors along piecewise-straight paths so that
fractional powers of rational functions can be evaluated on a single
consistent branch.  (The action integrals are closed form; see actions.)

Branch convention used throughout: along a straight segment that does not pass
through a point p, the continuous change of arg(z - p) equals the principal
argument of the ratio (z_end - p)/(z_start - p).  This is exact because a
straight segment subtends an angle of less than pi when viewed from any point
not on the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "ComplexPath",
    "FactorArgs",
    "adaptive_segment",
    "segment_point_distance",
]

# Gauss-Legendre node/weight pairs for the embedded 24/48 panel rule.
_X24, _W24 = np.polynomial.legendre.leggauss(24)
_X48, _W48 = np.polynomial.legendre.leggauss(48)

_MAX_DEPTH = 44  # bisection depth limit of adaptive_segment
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
