"""Tests for the adaptive quadrature core and contour helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conires.errors import QuadratureFailure
from conires.quadrature import (
    ComplexPath,
    adaptive_segment,
    segment_point_distance,
)


class TestAdaptiveSegment:
    def test_exponential(self):
        val, err, n = adaptive_segment(np.exp, 0.0, 1.0, 1e-13)
        assert abs(val - (math.e - 1.0)) < 1e-13
        assert err <= 1e-13
        assert n >= 72

    def test_complex_segment(self):
        # entire integrand, path independent: int z^2 dz = z^3/3
        a, b = 0.0, 1.0 + 1.0j
        val, _, _ = adaptive_segment(lambda z: z * z, a, b, 1e-13)
        assert abs(val - b ** 3 / 3.0) < 1e-13

    def test_oscillatory(self):
        # int_0^10 cos(20 x) dx = sin(200)/20
        val, _, _ = adaptive_segment(lambda x: np.cos(20.0 * np.real(x)), 0.0,
                                     10.0, 1e-12)
        assert abs(val - math.sin(200.0) / 20.0) < 1e-11

    def test_budget_failure(self):
        f = lambda z: 1.0 / (z - (0.5 + 1e-13j))
        with pytest.raises(QuadratureFailure):
            adaptive_segment(f, 0.0, 1.0, 1e-13, max_evals=2000)

    def test_error_estimate_honest(self):
        val, err, _ = adaptive_segment(lambda z: np.sin(z), 0.0, 2.0, 1e-10)
        exact = 1.0 - math.cos(2.0)
        assert abs(val - exact) <= max(10.0 * err, 1e-13)

    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=7, deadline=None)
    def test_polynomial_exact(self, k):
        # GL panels integrate monomials exactly well below tolerance
        val, _, _ = adaptive_segment(lambda z: z ** k, 0.0, 1.0 + 0.5j, 1e-13)
        exact = (1.0 + 0.5j) ** (k + 1) / (k + 1)
        assert abs(val - exact) < 1e-12


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
