"""Tests for the action integrals: reference values, cross identities,
asymptotics, monodromy, and error reporting.

Reference literals were computed independently with mpmath tanh-sinh
quadrature at 30 working digits (sorted polyroots of the relevant cubic,
quadrature between turning points, plus the closed-form half-residue of the
weight pole at the origin where applicable).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conires.actions import (
    MU_CRITICAL,
    _imag_ref,
    _labeled_roots,
    action_I,
    action_Iplus,
    action_S01,
    action_S01_dE,
    action_S01_pair,
    action_S12,
    action_S2inf,
    residue_R,
    tunnel_T,
)
from conires.errors import (
    BranchAmbiguity,
    NoRealTurningPoints,
    TurningPointProximity,
)
from conires.model import ModelParams
from conires.quadrature import sqrt_cubic_polyline

# mpmath oracle values (30 digits, rounded to 17 significant figures)
S01_REF = {
    (1.3, 0.2): 1.2846588464854053j,
    (2.0, 0.45): 2.5484277299818794j,
    (1.0, 0.01): 0.68224500304643892j,
}
DS01_REF = {(1.3, 0.2): 1.1531508089096345j}
I_REF = {0.1: 0.81648697060599267, 0.02: 0.69763329144416276}
IPLUS_REF = {0.05: 0.74296747700665767}
T_REF = {0.1: 0.0079422745106873991j}
# Sweep roots at h = 0.004134, where x1 and x2 nearly coalesce: 34-digit
# mpmath tanh-sinh along the straight segment from x0 to x1 (roots from
# polyroots), independent of the Carlson reduction.  (E, nu): (S01, dS01/dE)
H_SWEEP = 0.004134
S01_SWEEP_REF = {
    (1.0005659957183286 - 0.00663735923702353j, 0.5 * H_SWEEP): (
        0.0066393106879620315 + 0.67046135195090178j,
        0.0033175856355301796 + 1.0002976772073820j),
    (1.0006930842822155 - 0.0033110750901631787j, 2.5 * H_SWEEP): (
        0.0033127737957039155 + 0.68345385015529678j,
        0.0016537858962882550 + 1.0005139461097903j),
    (2.5120656298355017 - 0.0029903594502958286j, 2.5 * H_SWEEP): (
        0.0047396359335772761 + 2.6705207707418698j,
        0.00094330201413803539 + 1.5849721653256646j),
}
S2INF_REF = {
    (2.0, 0.5): -1.9017565064682918j,
    (1.0, 0.3): -0.67634542714080991j,
}
S12_REF = {
    (1.0, 0.01, 1): 0.68017024666605148j,
    (2.0, 0.05, 2): 2.0344301191712804j,
}


def _sub_nu(E, frac):
    """A coupling nu with mu = nu E^{-3/2} at the given fraction of the
    critical value."""
    return frac * MU_CRITICAL * E ** 1.5


class TestActionS01:
    def test_reference_values(self):
        for (E, nu), want in S01_REF.items():
            got = action_S01((E, nu))
            assert abs(got.value - want) <= 1e-10
            assert got.est_error <= 1e-9

    def test_purely_imaginary_positive_for_real_E(self):
        for E, frac in [(0.5, 0.1), (1.0, 0.5), (2.5, 0.9), (4.0, 0.03)]:
            v = action_S01((E, _sub_nu(E, frac))).value
            assert abs(v.real) <= 1e-9
            assert v.imag > 0

    @settings(max_examples=25, deadline=None)
    @given(
        E=st.floats(min_value=0.5, max_value=4.0),
        frac=st.floats(min_value=0.02, max_value=0.9),
    )
    def test_scaling_identity_with_I(self, E, frac):
        nu = _sub_nu(E, frac)
        s01 = action_S01((E, nu)).value
        i_val = action_I(nu * E ** -1.5).value
        assert abs(s01 - 1j * E ** 1.5 * i_val) <= 1e-9 * max(1.0, E ** 1.5)

    def test_modelparams_input_matches_tuple(self):
        p = ModelParams(E=1.3, h=0.01, nu_tilde=2.5)
        a = action_S01(p).value
        b = action_S01((1.3, 0.025)).value
        assert a == b

    def test_complex_E_is_analytic_continuation(self):
        # first-order Taylor step off the real axis
        base = action_S01((1.3, 0.2)).value
        slope = action_S01_dE((1.3, 0.2)).value
        step = 0.02j
        moved = action_S01((1.3 + step, 0.2)).value
        # remainder is second order; |d2 S01/dE2| is about 0.4 here
        assert abs(moved - base - slope * step) <= 1.0 * abs(step) ** 2

    def test_degenerate_turning_points_raise(self):
        nu_crit = math.sqrt(4.0 / 27.0)  # double root of the cubic at E = 1
        with pytest.raises(TurningPointProximity):
            action_S01((1.0, nu_crit))


class TestActionS01dE:
    def test_reference_value(self):
        got = action_S01_dE((1.3, 0.2)).value
        assert abs(got - DS01_REF[(1.3, 0.2)]) <= 1e-10

    def test_matches_finite_differences(self):
        for E, nu in [(2.0, 0.45), (0.9 + 0.1j, 0.15)]:
            d = action_S01_dE((E, nu)).value
            eps = 1e-5
            fd = (action_S01((E + eps, nu)).value
                  - action_S01((E - eps, nu)).value) / (2 * eps)
            assert abs(d - fd) <= 1e-8


class TestClosedForm:
    """The Carlson-integral S01 and dS01/dE at production h."""

    def test_sweep_reference_values(self):
        for (E, nu), (s_want, d_want) in S01_SWEEP_REF.items():
            s01, ds01 = action_S01_pair((E, nu))
            assert abs(s01.value - s_want) <= 1e-14
            assert abs(ds01.value - d_want) <= 1e-14
            # the reported roundoff bounds cover the actual error
            assert abs(s01.value - s_want) <= s01.est_error
            assert abs(ds01.value - d_want) <= ds01.est_error

    @pytest.mark.parametrize("lam, nt", [
        (1.3 - 0.009j, 0.5), (2.2 - 0.004j, 1.5), (3.7 - 0.012j, 2.5),
        (1.05 - 0.002j, 2.5)])
    def test_matches_deflected_polyline_quadrature(self, lam, nt):
        # the quadrature route the sweep used before the closed form: the
        # polyline through a midpoint pushed away from x2
        E = cmath.exp((2.0 / 3.0) * cmath.log(lam))
        nu = nt * 0.005
        x0, x1, x2 = _labeled_roots(E, nu)
        mid = 0.5 * (x0 + x1)
        normal = 1j * (x1 - x0)
        side = -1.0 if ((x2 - mid) * np.conj(normal)).real >= 0.0 else 1.0
        via = [mid + side * 0.2 * normal]
        quad_s = sqrt_cubic_polyline(
            x0, x1, x2, via, sign=-1, weight=lambda y: 0.5 / y,
            branch_ref=_imag_ref(E), tol=1e-14).value + 1j * math.pi * nu
        quad_d = sqrt_cubic_polyline(
            x0, x1, x2, via, sign=-1, weight=lambda y: 0.5 * (y - E),
            branch_ref=_imag_ref(E), tol=1e-14, power=-1).value
        s01, ds01 = action_S01_pair((E, nu))
        assert abs(s01.value - quad_s) <= 5e-14
        assert abs(ds01.value - quad_d) <= 5e-14

    def test_carlson_nan_is_branch_ambiguity(self):
        # p = x0/x1 = -1.03+0.53i here, where scipy's R_J returns nan
        with pytest.raises(BranchAmbiguity):
            action_S01_pair((0.4325114077600092 + 0.033128669051091936j,
                             0.25))

    def test_pair_is_bit_identical_to_wrappers(self):
        for E, nu in [(1.3, 0.2), (0.9 + 0.1j, 0.15),
                      *S01_SWEEP_REF.keys()]:
            s01, ds01 = action_S01_pair((E, nu))
            assert action_S01((E, nu)) == s01
            assert action_S01_dE((E, nu)) == ds01


class TestActionI:
    def test_zero_coupling_exact(self):
        got = action_I(0.0)
        assert got.value == 2.0 / 3.0
        assert got.est_error == 0.0
        assert got.n_evals == 0

    def test_reference_values(self):
        for mu, want in I_REF.items():
            got = action_I(mu).value
            assert abs(got - want) <= 1e-10

    def test_two_term_asymptote(self):
        # I(mu) = 2/3 + (pi/2) mu + O(mu^2 (1 + |ln mu|)), constant below 10
        for mu in (1e-1, 1e-2, 1e-3, 1e-4):
            err = abs(action_I(mu).value - 2.0 / 3.0 - math.pi * mu / 2.0)
            assert err <= 10.0 * mu * mu * (1.0 + abs(math.log(mu)))

    def test_critical_and_supercritical_raise(self):
        for mu in (MU_CRITICAL, 0.5, 1.0):
            with pytest.raises(NoRealTurningPoints):
                action_I(mu)

    def test_conjugation_symmetry(self):
        m = 0.05 * cmath.exp(0.3j * math.pi)
        a = action_I(m).value
        b = action_I(np.conj(m)).value
        assert abs(a - np.conj(b)) <= 1e-12

    def test_monodromy_identity(self):
        # I(e^{i pi} mu) = I(mu) + R(mu) + T(mu)
        for mu in (0.02, 0.05, 0.1):
            lhs = action_I(mu * cmath.exp(1j * math.pi)).value
            rhs = (action_I(mu).value + residue_R(mu)
                   + tunnel_T(mu).value)
            assert abs(lhs - rhs) <= 1e-8

    def test_quarter_turn_continuation_consistency(self):
        # the sub-critical-phase direct route and a value reached through the
        # conjugate of the three-quarter turn must describe the same function
        mu_abs = 0.04
        q = action_I(mu_abs * cmath.exp(0.25j * math.pi)).value
        # reflect: I(conj m) = conj I(m), so a fresh conjugate evaluation
        # closes the loop through independent contours
        qc = action_I(mu_abs * cmath.exp(-0.25j * math.pi)).value
        assert abs(q - np.conj(qc)) <= 1e-12


class TestResidueAndTunnel:
    def test_residue_closed_form(self):
        assert residue_R(0.3) == -math.pi * 0.3
        m = 0.1 + 0.05j
        assert residue_R(m) == -math.pi * m

    def test_tunnel_reference(self):
        got = tunnel_T(0.1).value
        assert abs(got - T_REF[0.1]) <= 1e-10

    def test_tunnel_small_mu_law(self):
        for mu in (0.05, 0.02):
            t = tunnel_T(mu).value
            ratio = t / (1j * math.pi * mu * mu / 4.0)
            assert abs(ratio - 1.0) <= 0.01

    def test_tunnel_supercritical_raises(self):
        with pytest.raises(NoRealTurningPoints):
            tunnel_T(0.9)


class TestActionS2inf:
    def test_reference_values(self):
        for (E, nu), want in S2INF_REF.items():
            got = action_S2inf((E, nu))
            assert abs(got.value - want) <= 1e-10

    def test_routes_agree_within_reported_errors(self):
        for E, nu in [(1.0, 0.3), (2.0, 0.5), (1.5, 0.05)]:
            a = action_S2inf((E, nu), route="compactified")
            b = action_S2inf((E, nu), route="truncated")
            assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-12

    def test_zero_coupling_closed_form(self):
        for E in (0.5, 1.0, 2.0):
            got = action_S2inf((E, 0.0))
            want = -(2.0 / 3.0) * 1j * E ** 1.5
            assert abs(got.value - want) <= 1e-14
            assert got.n_evals == 0

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError):
            action_S2inf((1.0, 0.3), route="laplace")


class TestActionS12AndIplus:
    def test_s12_reference_values(self):
        for (E, h, l), want in S12_REF.items():
            got = action_S12(E, h, l)
            assert abs(got.value - want) <= 1e-10

    def test_s12_scaling_identity_with_iplus(self):
        for E, h, l in [(1.0, 0.01, 1), (2.0, 0.05, 2), (1.5, 0.02, 3)]:
            s12 = action_S12(E, h, l).value
            mu = h * math.sqrt(l * l - 0.25) * E ** -1.5
            ip = action_Iplus(mu).value
            assert abs(s12 - 1j * E ** 1.5 * ip) <= 1e-12 * max(1.0, E ** 1.5)

    def test_iplus_zero_and_reference(self):
        assert action_Iplus(0.0).value == 2.0 / 3.0
        got = action_Iplus(0.05).value
        assert abs(got - IPLUS_REF[0.05]) <= 1e-10

    def test_iplus_two_term_asymptote(self):
        for mu in (1e-1, 1e-2, 1e-3, 1e-4):
            err = abs(action_Iplus(mu).value - 2.0 / 3.0
                      - math.pi * mu / 2.0)
            assert err <= 10.0 * mu * mu * (1.0 + abs(math.log(mu)))

    def test_s12_validation(self):
        with pytest.raises(ValueError):
            action_S12(1.0, 0.01, 0)
        with pytest.raises(ValueError):
            action_S12(-1.0, 0.01, 1)
        with pytest.raises(ValueError):
            action_S12(1.0, 0.0, 1)
        with pytest.raises(NoRealTurningPoints):
            action_S12(0.1, 0.05, 2)  # barrier gone: single real root

    def test_s12_rejects_nan_h(self):
        # numpy's LinAlgError is a ValueError too, so match the message
        with pytest.raises(ValueError, match="h must be positive"):
            action_S12(0.2, math.nan, 1)


class TestErrorReporting:
    """Tightening the tolerance moves the value by no more than the sum of
    the reported error estimates."""

    def test_s01(self):
        a = action_S01((1.7, 0.35), tol=1e-8)
        b = action_S01((1.7, 0.35), tol=2.5e-9)
        assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-14

    def test_i_rotated(self):
        m = 0.06 * cmath.exp(0.8j * math.pi)
        a = action_I(m, tol=1e-8)
        b = action_I(m, tol=2.5e-9)
        assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-14

    def test_s2inf_truncated(self):
        a = action_S2inf((1.2, 0.4), tol=1e-8, route="truncated")
        b = action_S2inf((1.2, 0.4), tol=2.5e-9, route="truncated")
        assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-14

    def test_s12(self):
        a = action_S12(1.4, 0.03, 2, tol=1e-8)
        b = action_S12(1.4, 0.03, 2, tol=2.5e-9)
        assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-14

    def test_evals_are_counted(self):
        got = action_S01((1.3, 0.2))
        assert got.n_evals > 0
