"""Complex-contour geometry: piecewise-straight contours and
segment-to-point distances.

This module integrates nothing.  The action integrals are closed form
(see actions), the amplitude sweeps of wkb use scipy's ODE solvers,
ode_oracle sums Taylor series along its whole Jost contour and reads c+
from an asymptotic series, and the continuous branch of the symbol
along a path is carried by model.SymbolBranch.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import np

__all__ = [
    "ComplexPath",
    "segment_point_distance",
]


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
