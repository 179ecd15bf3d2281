"""Tests for the contour helpers."""

import numpy as np
import pytest

from conires.quadrature import ComplexPath, segment_point_distance


class TestComplexPath:
    def test_requires_two_vertices(self):
        with pytest.raises(ValueError):
            ComplexPath((1.0,))

    def test_segments_drop_zero_length(self):
        p = ComplexPath((0.0, 0.0, 1.0))
        assert p.segments() == [(0.0 + 0.0j, 1.0 + 0.0j)]


def test_segment_point_distance():
    d = segment_point_distance(0.0, 2.0, [1.0 + 1.0j, -1.0, 3.0 + 0.0j])
    assert np.allclose(d, [1.0, 1.0, 1.0])
