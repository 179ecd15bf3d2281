"""Adaptive complex-contour quadrature.

Everything in this module is geometry-free infrastructure: piecewise-straight
contours, segment-to-point distances, and straight-segment Gauss-Legendre
panels with recursive bisection.  (The action integrals are closed form; see
actions.  The continuous branch that phase integrands need is carried by
model.SymbolBranch.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "ComplexPath",
    "adaptive_segment",
    "segment_point_distance",
]

# Gauss-Legendre node/weight pairs for the embedded 24/48 panel rule.
_X24, _W24 = np.polynomial.legendre.leggauss(24)
_X48, _W48 = np.polynomial.legendre.leggauss(48)

_MAX_DEPTH = 44  # bisection depth limit of adaptive_segment


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
