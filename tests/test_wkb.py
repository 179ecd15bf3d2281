"""Tests for the exact WKB layer: amplitude recurrences along paths and
at the origin, connection objects, transfer matrices, the branching
matrix, and the Wronskian and assembly helpers.

Reference routes used below are independent of the module under test where
that matters: first and second amplitude orders are recomputed with nested
scipy quadrature of the integral recursion written out from scratch on the
imaginary axis, d log H against a finite difference of the written-out
symbol ratio, the transfer diagonals against the closed-form actions of
conires.actions, and the branching matrix against closed identities of the
Gamma function.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conires.actions import action_S01, action_S2inf
from conires.errors import MonotonicityViolation, TurningPointProximity
from conires.model import ModelParams, turning_points
from conires.wkb import (
    amplitude_recurrence,
    assembly_matrix,
    branching_R,
    connection_c0,
    dlog_H,
    origin_series,
    transfer_T1,
    transfer_T2,
    transfer_T3,
    wronskian,
)

P_MAIN = ModelParams(1.0, 0.1, 0.5)
P_WIDE = ModelParams(1.3, 0.08, 2.5)


# ----------------------------------------------------------------------
# independent integrand forms on the imaginary axis x = i s, s > 0,
# written out from the eigenvalue branches rather than reusing dlog_H
# ----------------------------------------------------------------------

def _gp(s, E, nu):
    return -1j * nu / s - E - s * s


def _gm(s, E, nu):
    return -1j * nu / s + E + s * s


def _dgp(s, E, nu):
    return nu / s ** 2 + 2j * s


def _dgm(s, E, nu):
    return nu / s ** 2 - 2j * s


def _phi_axis(s, E, nu):
    """(d/dx) log H at x = i s times dx/ds = i."""
    gp, gm = _gp(s, E, nu), _gm(s, E, nu)
    return 0.25j * (_dgm(s, E, nu) / gm - _dgp(s, E, nu) / gp)


def _zprime_axis(s, E, nu):
    """dz/ds along x = i s; real and positive."""
    return math.sqrt(nu * nu + s * s * (E + s * s) ** 2) / s


class TestDlogH:
    def test_matches_finite_difference_of_log_H(self):
        # H^4 = g_minus / g_plus, so d log H is a quarter of the central
        # difference of log(g_minus / g_plus), taken as the log of the
        # ratio of its two stencil values (near 1, so no branch to track)
        p = P_WIDE
        E, nu = p.E, p.nu
        d = 1e-6

        def ratio(x):
            return (nu / x + E - x * x) / (nu / x - E + x * x)

        for x in (0.7 + 0.2j, 1.9, 0.4j, -0.3 + 0.8j):
            fd = 0.25 * cmath.log(ratio(x + d) / ratio(x - d)) / (2 * d)
            assert abs(dlog_H(x, p) - fd) <= 1e-7

    def test_even_function_of_x(self):
        p = P_MAIN
        for x in (0.5 + 0.3j, 1.7 - 0.4j, 0.25j, 2.0):
            a, b = dlog_H(x, p), dlog_H(-x, p)
            assert abs(a - b) <= 1e-13 * max(1.0, abs(a))

    def test_matches_axis_form(self):
        tp = P_MAIN
        E, nu = 1.0, tp.h * tp.nu_tilde
        for s in (0.2, 0.55, 1.3):
            got = dlog_H(1j * s, tp) * 1j
            assert abs(got - _phi_axis(s, E, nu)) <= 1e-12 * max(1.0, abs(got))

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.3 + 0.1j, 0.9j, 1.5])
        vec = dlog_H(xs, P_MAIN)
        for x, v in zip(xs, vec):
            assert v == dlog_H(complex(x), P_MAIN)


class TestAmplitudeRecurrence:
    def test_order_zero_is_trivial(self):
        pair = amplitude_recurrence([0.2j, 0.9j], P_MAIN, 0)
        assert pair.w_even == 1 and pair.w_odd == 0

    def test_w1_matches_independent_quadrature(self):
        # First odd order on the imaginary axis, recomputed from the
        # integral form  w1(y) = int_base^y exp((2/h)(z(t)-z(y))) dlogH dt
        # with scratch-built integrands and scipy.quad.
        p = P_MAIN
        E, nu, h = 1.0, p.h * p.nu_tilde, p.h
        s0, s1 = 0.2, 0.9

        def z_of(s):
            return quad(lambda t: _zprime_axis(t, E, nu), s0, s)[0]

        z1 = z_of(s1)
        ref = quad(
            lambda s: cmath.exp((2 / h) * (z_of(s) - z1)) * _phi_axis(s, E, nu),
            s0, s1, complex_func=True, limit=200,
        )[0]
        pair = amplitude_recurrence([0.2j, 0.9j], p, 1, sign=+1)
        assert abs(pair.terms[1] - ref) <= 5e-9

    def test_w2_matches_independent_nested_quadrature(self):
        p = P_MAIN
        E, nu, h = 1.0, p.h * p.nu_tilde, p.h
        s0, s1 = 0.2, 0.9

        def z_of(s):
            return quad(lambda t: _zprime_axis(t, E, nu), s0, s)[0]

        def w1(s_up):
            zu = z_of(s_up)
            return quad(
                lambda s: cmath.exp((2 / h) * (z_of(s) - zu)) * _phi_axis(s, E, nu),
                s0, s_up, complex_func=True, limit=200,
            )[0]

        ref = quad(
            lambda s: _phi_axis(s, E, nu) * w1(s),
            s0, s1, complex_func=True, limit=100, epsabs=1e-10,
        )[0]
        pair = amplitude_recurrence([0.2j, 0.9j], p, 2, sign=+1)
        assert abs(pair.terms[2] - ref) <= 1e-8

    def test_minus_sign_runs_downward(self):
        pair = amplitude_recurrence([0.9j, 0.2j], P_MAIN, 2, sign=-1)
        assert abs(pair.w_even - 1) < 0.2
        assert pair.w_odd != 0

    def test_first_orders_halve_with_h_at_fixed_coupling(self):
        # Keeping the physical coupling nu fixed while halving h requires
        # leaving the half-integer lattice of nu_tilde = nu / h, so the
        # loose (E, h, nu_tilde) parameter form is used here.
        nu = 0.05
        path = [0.2j, 0.9j]
        vals = []
        for h in (0.2, 0.1, 0.05):
            pair = amplitude_recurrence(path, (1.0, h, nu / h), 2, sign=+1)
            vals.append((abs(pair.terms[1]), abs(pair.terms[2])))
        for k in range(2):
            r_odd = vals[k][0] / vals[k + 1][0]
            r_even = vals[k][1] / vals[k + 1][1]
            assert 1.6 <= r_odd <= 2.4
            assert 1.6 <= r_even <= 2.4

    def test_wrong_direction_raises(self):
        with pytest.raises(MonotonicityViolation):
            amplitude_recurrence([0.9j, 0.2j], P_MAIN, 2, sign=+1)
        with pytest.raises(MonotonicityViolation):
            amplitude_recurrence([0.2j, 0.9j], P_MAIN, 2, sign=-1)

    def test_turning_point_proximity_raises(self):
        p = P_MAIN
        r0 = turning_points(p.E, p.h * p.nu_tilde).r[0]
        with pytest.raises(TurningPointProximity):
            amplitude_recurrence([r0 - 0.1, r0 + 0.1], p, 2, sign=+1)


class TestOriginSeries:
    def test_at_zero_is_trivial(self):
        pair = origin_series(P_MAIN, 0.0, 4)
        assert pair.w_even == 1 and pair.w_odd == 0

    @pytest.mark.parametrize("params", [P_MAIN, P_WIDE])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_order_bound(self, params, tau):
        E = params.E.real
        nu = params.h * params.nu_tilde
        x = 1j * nu * tau / E
        pair = origin_series(params, x, 12)
        K = 1.0 + 3.0 * nu * nu * tau * tau / E ** 3
        ratio = tau / (1.0 + tau)
        for n in range(13):
            cap = K ** n / math.factorial(n) * ratio ** n
            assert abs(pair.terms[n]) <= cap * (1 + 1e-9)

    def test_odd_part_decays_at_fixed_point(self):
        # At a fixed x on the axis the odd orders vanish with h while the
        # even orders saturate at an h-stable value that the free overall
        # normalization absorbs; only the odd decay is a sharp statement.
        x = 0.3j
        odds = []
        for h in (0.2, 0.1, 0.05):
            pair = origin_series((1.0, h, 0.5), x, 6)
            odds.append(abs(pair.w_odd))
        assert odds[0] > odds[1] > odds[2]
        assert odds[2] < 0.3 * odds[0]

    def test_off_axis_point_rejected(self):
        with pytest.raises(ValueError):
            origin_series(P_MAIN, 0.3, 4)
        with pytest.raises(ValueError):
            origin_series(P_MAIN, -0.3j, 4)

    def test_axis_turning_point_guard(self):
        # E = -s*^2 + i nu / s* puts a zero of nu^2 + s^2(E + s^2)^2 at
        # s* = 1/2 on the positive imaginary axis, inside the span to x = i.
        with pytest.raises(TurningPointProximity):
            origin_series((-0.25 + 0.1j, 0.1, 0.5), 1.0j, 4)

    # The divergence guard (same-parity growth of successive orders) is
    # defensive: across physical parameter ranges the factorial decay of
    # the bound above always wins by n = 12, so no input is known that
    # triggers it, and no raising test is possible without mocking.


class TestConnectionC0:
    def test_leading_pair(self):
        pair = connection_c0(P_MAIN)
        assert pair == (1 + 0j, -1j)

    def test_estimate_decreases_with_h(self):
        ests = []
        for h in (0.2, 0.1, 0.05):
            _, est = connection_c0(ModelParams(1.0, h, 0.5), with_estimate=True)
            ests.append(est)
        assert ests[0] > ests[1] > ests[2] > 0


class TestTransferT1:
    def test_det_is_exactly_one(self):
        assert transfer_T1(P_MAIN).det() == 1 + 0j

    def test_unimodular_entries_for_real_energy(self):
        m = transfer_T1(P_WIDE)
        assert abs(abs(m.entry(1, 1)) - 1) <= 1e-12
        assert abs(abs(m.entry(2, 2)) - 1) <= 1e-12
        assert m.entry(1, 2) == 0 and m.entry(2, 1) == 0

    def test_diagonal_is_exp_of_action_over_h(self):
        p = P_MAIN
        nu = p.h * p.nu_tilde
        s01 = action_S01((p.E, nu)).value
        want = cmath.exp(s01 / p.h)
        assert abs(transfer_T1(p).entry(1, 1) - want) <= 1e-9


class TestTransferT2:
    def test_reference_magnitude(self):
        # |t| = sqrt(pi h / 2) nu_t E^(-3/4) at E=1, nu_t=1/2, h=0.01.
        t = transfer_T2(ModelParams(1.0, 0.01, 0.5)).entry(1, 1)
        assert abs(abs(t) - 0.06266570686577501) <= 1e-13
        assert abs(cmath.phase(t) - 0.75 * math.pi) <= 1e-13

    def test_antidiagonal_is_minus_i(self):
        m = transfer_T2(P_WIDE)
        assert m.entry(1, 2) == -1j and m.entry(2, 1) == -1j

    def test_sign_structure_for_real_energy(self):
        m = transfer_T2(P_WIDE)
        t = m.entry(1, 1)
        assert abs(m.entry(2, 2) - (-t.conjugate())) <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(h=st.floats(min_value=1e-4, max_value=0.5))
    def test_sqrt_h_scaling(self, h):
        t1 = abs(transfer_T2((1.0, h, 0.5)).entry(1, 1))
        t2 = abs(transfer_T2((1.0, h / 4, 0.5)).entry(1, 1))
        assert abs(t2 / t1 - 0.5) <= 1e-12


class TestTransferT3:
    def test_offdiagonal_exactly_zero(self):
        m = transfer_T3(P_MAIN)
        assert m.entry(1, 2) == 0 and m.entry(2, 1) == 0

    def test_log_diagonal_identity(self):
        p = P_WIDE
        nu = p.h * p.nu_tilde
        s2 = action_S2inf((p.E, nu)).value
        m = transfer_T3(p)
        c = math.log(2) - 0.25j * math.pi
        assert abs(m.log_diag[0] - s2 / p.h - c) <= 1e-10
        assert abs(m.log_diag[1] + s2 / p.h - c) <= 1e-10

    def test_det_is_minus_four_i(self):
        assert abs(transfer_T3(P_MAIN).det() - (-4j)) <= 1e-13


class TestBranchingR:
    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(min_value=1e-3, max_value=10.0))
    def test_hyperbolic_identity(self, x):
        h = 0.1
        gamma = math.sqrt(2 * h * x)
        m = branching_R(gamma, h)
        p, q = m.entry(1, 1), m.entry(1, 2)
        assert abs(abs(p) ** 2 - abs(q) ** 2 - 1) <= 1e-12

    def test_ratio_and_phase_alignment(self):
        h = 0.07
        for x in (1e-3, 0.1, 1.0, 10.0):
            gamma = math.sqrt(2 * h * x)
            m = branching_R(gamma, h)
            p, q = m.entry(1, 1), m.entry(1, 2)
            r = p / q
            assert abs(r - math.exp(math.pi * x)) <= 1e-12 * math.exp(math.pi * x)
            assert abs((p * q.conjugate()).imag) <= 1e-12 * abs(p * q.conjugate())

    def test_small_coupling_limit(self):
        h = 0.1
        gamma = math.sqrt(2 * h * 1e-8)
        q = branching_R(gamma, h).entry(1, 2)
        want = math.sqrt(h) / (abs(gamma) * math.sqrt(math.pi))
        assert abs(abs(q) / want - 1) <= 1e-6

    def test_antisymmetric_block_structure(self):
        m = branching_R(0.3, 0.1)
        assert m.entry(2, 2) == -m.entry(1, 1)
        assert m.entry(2, 1) == -m.entry(1, 2)

    def test_complex_gamma_keeps_identity(self):
        m = branching_R(0.2 + 0.1j, 0.05)
        p, q = m.entry(1, 1), m.entry(1, 2)
        assert abs(abs(p) ** 2 - abs(q) ** 2 - 1) <= 1e-12

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            branching_R(0.0, 0.1)
        with pytest.raises(ValueError):
            branching_R(0.3, 0.0)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_non_finite_h_rejected(self, h):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            branching_R(0.3, h)


class TestSolutionsAndWronskians:
    def test_wronskian_bilinear_antisymmetry(self):
        u, v = (1 + 2j, 3j), (0.5, -1 + 1j)
        assert wronskian(u, v) == -wronskian(v, u)
        assert wronskian(u, u) == 0

    def test_assembly_determinant(self):
        for H in (0.8 + 0.1j, 1.0, 2.3 - 0.4j):
            for sign in (+1, -1):
                d = np.linalg.det(np.asarray(assembly_matrix(H, sign)))
                assert abs(d - sign * 2j) <= 1e-12
