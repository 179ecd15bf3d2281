"""Tests for the action integrals: reference values, cross identities,
asymptotics, monodromy, and error reporting.

Reference literals were computed independently with mpmath tanh-sinh
quadrature at 30 or more working digits (sorted polyroots of the relevant
cubic, quadrature between turning points, plus the closed-form half-residue
of the weight pole at the origin where applicable), never through Carlson's
integrals.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conires.actions import (
    MU_CRITICAL,
    action_I,
    action_Iplus,
    action_S01,
    action_S01_pair,
    action_S12,
    action_S2inf,
    residue_R,
    tunnel_T,
    _agm_carlson,
    _in_domain,
    _segment,
)
from conires.errors import (
    BranchAmbiguity,
    NoRealTurningPoints,
    TurningPointProximity,
)
from conires.model import ModelParams

# mpmath oracle values (30 digits, rounded to 17 significant figures)
S01_REF = {
    (1.3, 0.2): 1.2846588464854053j,
    (2.0, 0.45): 2.5484277299818794j,
    (1.0, 0.01): 0.68224500304643892j,
}
DS01_REF = {(1.3, 0.2): 1.1531508089096345j}
I_REF = {0.1: 0.81648697060599267, 0.02: 0.69763329144416276}
# I(mu) far from the positive axis: 34-digit mpmath tanh-sinh along the
# continued contour of the phase rotation (the polyline that wraps the
# weight pole, with the sqrt continued along it), the overall sign fixed
# by the continuation.  Keys (|mu|, arg mu); mu = |mu| * cmath.exp(1j arg).
# Arguments 1.14 and 1.43 at |mu| = 0.3 lie in the band where the pole
# crosses the straight segment: p = y0/y1 has Re p < 0 there, off the
# AGM kernel's domain, and R_J comes from the duplication algorithm.
I_PHASE_REF = {
    (0.1, 0.5 * math.pi): 0.673819991666318675756974910947
    + 0.153194481539612162802259098678j,
    (0.1, 0.8 * math.pi): 0.543418846549608221662192579686
    + 0.101096411420902789096633147775j,
    (0.1, math.pi - 1e-9): 0.502327705263079438501875597338
    + 0.00794227467986884367730328782855j,
    (0.3, 0.5 * math.pi): 0.705199515799136690971506094364
    + 0.438734766738563291439462172754j,
    (0.3, 0.8 * math.pi): 0.330657398669827135049258692291
    + 0.328147559001339285475640239657j,
    (0.3, math.pi - 1e-9): 0.152974052017397073369312127062
    + 0.0802294896226899571945472118587j,
    (0.3, 1.14): 0.87235339743304929322470972743
    + 0.382660032930124582109769398674j,
    (0.3, 1.43): 0.762296063465025527948091415542
    + 0.42758218919632348827054346019j,
    (0.06, 0.8 * math.pi): 0.591638508333499827198422255886
    + 0.0589983276922965293166222764833j,
}
IPLUS_REF = {0.05: 0.74296747700665767}
T_REF = {0.1: 0.0079422745106873991j}
# Sweep roots at h = 0.004134, where x1 and x2 nearly coalesce: 34-digit
# mpmath tanh-sinh along the straight segment from x0 to x1 (roots from
# polyroots), independent of the Carlson reduction.  The last four keys are
# E = lam^{2/3}, nu = 0.005 nu_tilde at DEFLECTED_POINTS, with 34-digit
# tanh-sinh along the polyline from x0 through the segment midpoint pushed
# 0.2 |x1 - x0| away from x2 to x1.  (E, nu): (S01, dS01/dE)
H_SWEEP = 0.004134
DEFLECTED_POINTS = [(1.3 - 0.009j, 0.5), (2.2 - 0.004j, 1.5),
                    (3.7 - 0.012j, 2.5), (1.05 - 0.002j, 2.5)]
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
    (1.1911447684583378 - 0.0054975424448373954j, 0.0025): (
        0.0060000485372439553 + 0.87058544469692722j,
        0.0025184852148847945 + 1.0914075235560113j),
    (1.6915387329403992 - 0.0020503487241352145j, 0.0075): (
        0.0026667278086329897 + 1.4784076197803267j,
        0.00078815669603246373 + 1.3006217447442439j),
    (2.392222974478548 - 0.0051723639236818325j, 0.0125): (
        0.0080001804444824302 + 2.4862354275791798j,
        0.0016719165226215321 + 1.5467170673132363j),
    (1.033061970598241 - 0.0013118238431900292j, 0.0125): (
        0.0013336176291961112 + 0.71944853756937745j,
        0.00064474517504854912 + 1.0166134838068576j),
}
S2INF_REF = {
    (2.0, 0.5): -1.9017565064682918j,
    (1.0, 0.3): -0.67634542714080991j,
    # 34-digit mpmath tanh-sinh of the x-integral along the ray
    # arg x = arg r2, as the closed form's path y = x2 + t is not
    (1.5, 0.05): -1.2255122045769738j,
    (1.5 - 0.1j, 0.05): -0.12245212512364304 - 1.2234692368728043j,
    (2.2 - 0.01j, 0.05): -0.014830007819766417 - 2.1759374048686723j,
    (1.2, 0.4): -0.88923403549037924j,
}
S12_REF = {
    (1.0, 0.01, 1): 0.68017024666605148j,
    (2.0, 0.05, 2): 2.0344301191712804j,
    (1.4, 0.03, 2): 1.1935861778460475331j,
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
        slope = action_S01_pair((1.3, 0.2))[1].value
        step = 0.02j
        moved = action_S01((1.3 + step, 0.2)).value
        # remainder is second order; |d2 S01/dE2| is about 0.4 here
        assert abs(moved - base - slope * step) <= 1.0 * abs(step) ** 2

    def test_degenerate_turning_points_raise(self):
        nu_crit = math.sqrt(4.0 / 27.0)  # double root of the cubic at E = 1
        with pytest.raises(TurningPointProximity):
            action_S01((1.0, nu_crit))

    @pytest.mark.parametrize("E, nu", [(1.0, 0.5), (2.0, 1.2), (0.5, 0.2)])
    def test_supercritical_real_energy_refused(self, E, nu):
        # mu = nu E^{-3/2} beyond the critical coupling: no real turning
        # points, refused as by action_I rather than continued
        with pytest.raises(NoRealTurningPoints):
            action_S01_pair((E, nu))
        with pytest.raises(NoRealTurningPoints):
            action_I(nu * E ** -1.5)


class TestActionS01dE:
    """dS01/dE, the second member of action_S01_pair, which every
    quantization Newton step uses."""

    def test_reference_value(self):
        got = action_S01_pair((1.3, 0.2))[1].value
        assert abs(got - DS01_REF[(1.3, 0.2)]) <= 1e-10

    def test_matches_finite_differences(self):
        for E, nu in [(2.0, 0.45), (0.9 + 0.1j, 0.15)]:
            d = action_S01_pair((E, nu))[1].value
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

    @pytest.mark.parametrize("lam, nt", DEFLECTED_POINTS)
    def test_matches_deflected_polyline_quadrature(self, lam, nt):
        # the route the sweep used before the closed form, as literals
        E = cmath.exp((2.0 / 3.0) * cmath.log(lam))
        nu = nt * 0.005
        s_want, d_want = S01_SWEEP_REF[(E, nu)]
        s01, ds01 = action_S01_pair((E, nu))
        assert abs(s01.value - s_want) <= 5e-14
        assert abs(ds01.value - d_want) <= 5e-14

    def test_carlson_nan_is_branch_ambiguity(self):
        # p = x0/x1 = -1.028+0.529i here, off R_J's principal domain (where
        # scipy's R_J is nan): refused, and the message names the rule
        with pytest.raises(BranchAmbiguity, match=r"Re c >= 0 and Re p > 0"
                           r".*c=\(.*\), p=\(-1\.027"):
            action_S01_pair((0.4325114077600092 + 0.033128669051091936j,
                             0.25))

    def test_pair_is_bit_identical_to_wrappers(self):
        for E, nu in [(1.3, 0.2), (0.9 + 0.1j, 0.15),
                      *S01_SWEEP_REF.keys()]:
            s01, _ = action_S01_pair((E, nu))
            assert action_S01((E, nu)) == s01


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

    def test_large_phase_reference_values(self):
        for (mu_abs, phi), want in I_PHASE_REF.items():
            got = action_I(mu_abs * cmath.exp(1j * phi)).value
            assert abs(got - want) <= 1e-10

    def test_tiny_phase_is_continuous(self):
        # a phase of a few ulp leaves the value on the axis
        for mu in (0.1, 0.3):
            on_axis = action_I(mu).value
            for phi in (4.4e-16, -4.4e-16):
                m = mu * cmath.exp(1j * phi)
                assert abs(action_I(m).value - on_axis) <= 1e-14
                assert abs(tunnel_T(m).value - tunnel_T(mu).value) <= 1e-14

    def test_two_term_asymptote(self):
        # I(mu) = 2/3 + (pi/2) mu + O(mu^2 (1 + |ln mu|)), constant below 10
        for mu in (1e-1, 1e-2, 1e-3, 1e-4):
            err = abs(action_I(mu).value - 2.0 / 3.0 - math.pi * mu / 2.0)
            assert err <= 10.0 * mu * mu * (1.0 + abs(math.log(mu)))

    @pytest.mark.parametrize("mu_abs", [1e-12, 1e-11, 1e-10, 1e-9, 5e-9,
                                        6.3e-9, 1e-8, 1.3e-8])
    def test_small_coupling_at_every_phase(self, mu_abs):
        # the pole term follows the continuation at every arg mu: at small
        # |mu|, I is 2/3 + (pi/2) mu and never one residue pi mu off; at
        # 5e-9 to 1.3e-8 Cardano's pair near the double root y = 1 was
        # off by 3e-9 and I by up to 17 |mu| (measured 1.2e-6 |mu| with
        # the trigonometric pair)
        for phi in np.linspace(0.0, math.pi, 37):
            mu = mu_abs * cmath.exp(1j * phi)
            err = abs(action_I(mu).value - 2.0 / 3.0 - math.pi * mu / 2.0)
            assert err <= 0.01 * math.pi * mu_abs, phi

    def test_underflowing_coupling(self):
        # mu^2 underflows below |mu| ~ 1e-162: the two-term asymptote is
        # exact there; just above, the closed form keeps its value
        assert action_I(1.4e-160 * (1 + 1j)).value == complex(
            0.6666666666666666, 2.220446049250313e-16)
        for mu in (1e-200 * (1 + 1j), 1e-200, -1e-200j, 1e-300j):
            got = action_I(mu)
            assert got.value == 2.0 / 3.0 + math.pi * mu / 2.0
            assert got.est_error > 0.0

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

    @pytest.mark.parametrize("m", [1e-5 * cmath.exp(1j * math.pi),
                                   1e-4 * cmath.exp(1j * math.pi),
                                   0.37 * cmath.exp(1j * math.pi),
                                   complex(-0.1, 0.0), complex(-0.3, 0.0)])
    def test_monodromy_to_roundoff(self, m):
        # small coupling, where the continued roots need their Newton
        # polish; near the critical coupling, where y0 is far from the
        # origin; and arg mu = pi exactly, where y2 sits on the segment
        mu = abs(m)
        rhs = action_I(mu).value + residue_R(mu) + tunnel_T(mu).value
        assert abs(action_I(m).value - rhs) <= 1e-14

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
        # off the positive axis on both sides: T(conj mu) = -conj T(mu)
        for mu in (0.05, 0.02, 0.05 * cmath.exp(0.4j),
                   0.05 * cmath.exp(-0.4j)):
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

    def test_zero_coupling_closed_form(self):
        for E in (0.5, 1.0, 2.0):
            got = action_S2inf((E, 0.0))
            want = -(2.0 / 3.0) * 1j * E ** 1.5
            assert abs(got.value - want) <= 1e-14
            assert got.n_evals == 0


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


def _reference_cases():
    cases = [(f"I({mu})", lambda mu=mu: action_I(mu), want)
             for mu, want in I_REF.items()]
    cases += [(f"I({mu_abs}e^{phi:.4f}i)",
               lambda m=mu_abs * cmath.exp(1j * phi): action_I(m), want)
              for (mu_abs, phi), want in I_PHASE_REF.items()]
    cases += [(f"T({mu})", lambda mu=mu: tunnel_T(mu), want)
              for mu, want in T_REF.items()]
    cases += [(f"Iplus({mu})", lambda mu=mu: action_Iplus(mu), want)
              for mu, want in IPLUS_REF.items()]
    cases += [(f"S12{key}", lambda key=key: action_S12(*key), want)
              for key, want in S12_REF.items()]
    cases += [(f"S2inf{key}", lambda key=key: action_S2inf(key), want)
              for key, want in S2INF_REF.items()]
    return [pytest.param(fn, want, id=name) for name, fn, want in cases]


class TestErrorReporting:
    """The reported est_error, a roundoff bound of the closed forms,
    covers the actual error."""

    @pytest.mark.parametrize("action, want", _reference_cases())
    def test_est_error_bounds_reference(self, action, want):
        got = action()
        assert abs(got.value - want) <= got.est_error

    def test_evals_are_counted(self):
        got = action_S01((1.3, 0.2))
        assert got.n_evals > 0


def _kernel_grid():
    """Seeded (y, z, p) for _agm_carlson: (c, 1, p) with |c| from 1e-3 to
    1e6 and |p| from 1e-9 to 1e2 in the right half-plane, c within 1e-8
    to 1e-1 of 1, and S2inf-like (y, z, p) = (x2-x1, x2-x0, x2)."""
    rng = np.random.default_rng(20261020)

    def rhp(lo, hi, n):
        return [complex(10.0 ** m * cmath.exp(1j * t)) for m, t in zip(
            rng.uniform(lo, hi, n), rng.uniform(-1.55, 1.55, n))]

    grid = [(c, 1.0, p) for c, p in zip(rhp(-3, 6, 60), rhp(-9, 2, 60))]
    grid += [(1.0 + d, 1.0, p) for d, p in zip(
        [10.0 ** m * cmath.exp(1j * t) for m, t in zip(
            rng.uniform(-8, -1, 30), rng.uniform(-math.pi, math.pi, 30))],
        rhp(-9, 2, 30))]
    grid += [(c, 1.0, p) for c, p in zip(rhp(1.6, 2.9, 30), rhp(-9, -4, 30))]
    grid += list(zip(rhp(-3, 1, 30), rhp(-3, 1, 30), rhp(-1, 1, 30)))
    return grid


class TestCarlsonKernel:
    """_agm_carlson against mpmath, and its domain against scipy's."""

    def test_against_mpmath(self):
        import mpmath

        worst = [0.0, 0.0, 0.0]
        with mpmath.workdps(30):
            for y, z, p in _kernel_grid():
                got = _agm_carlson(y, z, p)
                want = (mpmath.elliprf(0, y, z), mpmath.elliprd(0, y, z),
                        mpmath.elliprj(0, y, z, p))
                for i, (g, w) in enumerate(zip(got, want)):
                    w = complex(w)
                    worst[i] = max(worst[i], abs(g - w) / abs(w))
        # measured: R_F 3.7e-16, R_D 9.8e-16, R_J 1.3e-15 (at |c| = 2200,
        # |p| = 1.2e-5); the plain forward sum of Bartky's Q_n, with the
        # same closed tail, reads R_J 1.2e-11 (84 of the 150 points above
        # 2e-15)
        assert worst[0] <= 1e-15
        assert worst[1] <= 2e-15
        assert worst[2] <= 2e-15

    def test_domain_is_scipys_finite_set(self):
        from scipy import special

        rng = np.random.default_rng(7)
        n = 4000

        def anywhere(k):
            return (10.0 ** rng.uniform(-3, 3, k)
                    * np.exp(1j * rng.uniform(-math.pi, math.pi, k)))

        def imaginary(k):
            return 1j * 10.0 ** rng.uniform(-3, 3, k) * rng.choice([-1, 1], k)

        # the whole plane and the lines Re c = 0 and Re p = 0; scipy also
        # takes real positive c with Re p <= 0, which no action reaches
        # (_in_domain) and which is not sampled
        samples = [(anywhere(n), anywhere(n)), (imaginary(n), anywhere(n)),
                   (anywhere(n), imaginary(n))]
        for c, p in samples:
            finite = np.isfinite(special.elliprj(0.0, 1.0, c, p))
            ours = np.array([_in_domain(1.0, complex(ci), complex(pi))
                             for ci, pi in zip(c, p)])
            assert np.array_equal(ours, finite)

    def test_s01_refuses_exactly_off_scipys_set(self):
        # the refusal of S01's segment over random roots, against scipy's
        # R_J at the c and p that the segment forms
        from scipy import special

        rng = np.random.default_rng(11)
        refused = 0
        for _ in range(2000):
            a, b, r = (complex(v) for v in
                       rng.normal(size=3) + 1j * rng.normal(size=3))
            c = complex((a - r) / (b - r))
            p = complex(a / b)
            finite = np.isfinite(special.elliprj(0.0, 1.0, c, p))
            try:
                _segment(a, b, r, (("E", 1.0),), False)
            except BranchAmbiguity as exc:
                refused += 1
                assert not finite
                assert "Re c >= 0 and Re p > 0" in str(exc)
                assert f"c={c}, p={p}" in str(exc)
            else:
                assert finite
        assert 500 < refused < 1900
