"""Tests for the direct-integration oracle.

Reference values here come from closed forms (diagonal constant-ν̃-free
evolution, exact h^{2/3} scaling of the radial problem), from an
independent shooting computation of the scaled radial eigenvalues
(h-free form of the equation, endpoint sign bisection) whose results
are frozen as literals, and from a finite-difference solve of the same
scaled problem run in the test; c+ references come from an all-Radau
gauged ray at rtol 1e-13. The half-spacing offset between the Jost zeros
and the quantization route is asserted as measured fact: with the
A-matrix, the x^{ν̃}(1,-i) Frobenius seed, and the outgoing-coefficient
convention used throughout this package, the zeros of c⁺ sit half a
lattice spacing from the Bohr-Sommerfeld roots, |Δλ|/h → 3π/4.
"""

import cmath
import math

import numpy as np
import pytest

from conires import ode_oracle
from conires.errors import (
    ConvergenceFailure,
    NoConvergence,
    NoPlateau,
    WindowEmpty,
)
from conires.model import turning_points
from conires.ode_oracle import (
    frobenius_init,
    find_resonance_ode,
    integrate_system,
    jost_cplus,
    pplus_eigen_oracle,
)
from conires.quantization import (
    Band,
    lattice_point,
    pplus_levels,
    resonance_set,
    solve_resonance,
)

P_DESK = (2.0 ** (2.0 / 3.0), 0.1, 0.5)

# The ODE zeros that find_resonance_ode reaches from the BS seeds of
# acceptance criterion 5, (h, k) = (0.2, 2), (0.1, 4), (0.05, 8). Each
# seed sits on a ridge between two zeros, so a solver change can hop to
# the neighbour and still pass every other check.  At h = 0.05 the
# secant's last iterate can sit above the certificate while an earlier
# one is below it; the search rings the best evaluated point, which
# reaches the upper neighbour from this seed.
LAM_ODE = {0.2: complex(2.7084132879886424, -0.266666586365009),
           0.1: complex(2.296713902883714, -0.15290658806028087),
           0.05: complex(2.0908961950236815, -0.08761487040461918)}


@pytest.fixture(scope="module")
def bs_root():
    return solve_resonance(4, 0.5, 0.1)


@pytest.fixture(scope="module")
def ode_root(bs_root):
    return find_resonance_ode((bs_root.E, 0.1, 0.5), bs_root.E)


class TestFrobeniusInit:
    def test_leading_behavior(self):
        E, h, nt = P_DESK
        devs = []
        for eps in (1e-4, 1e-5):
            u, _ = frobenius_init((E, h, nt), eps=eps)
            ratio = u / eps ** nt
            devs.append(np.max(np.abs(ratio - np.array([1.0, -1.0j]))))
        assert devs[0] < 2e-3
        assert devs[1] < 0.2 * devs[0]

    def test_plugin_residual(self):
        E, h, nt = 1.0, 0.1, 0.5
        tp = turning_points(E, nt * h)
        eps = 1e-3 * min(1.0, abs(tp.r0))
        u, a = frobenius_init((E, h, nt), K=20)
        n = np.arange(21)
        du = (a * ((n + nt) * eps ** (n - 1))[:, None]).sum(axis=0) \
            * eps ** nt
        A = np.array([[eps ** 2 - E, nt * h / eps],
                      [-nt * h / eps, E - eps ** 2]], dtype=complex)
        res = -1j * h * du - A @ u
        assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(u))

    def test_table_reproduces_endpoint(self):
        E, h, nt = P_DESK
        u, a = frobenius_init((E, h, nt), eps=1e-4, K=12)
        n = np.arange(13)
        rebuilt = (a * (1e-4 ** n)[:, None]).sum(axis=0) * 1e-4 ** nt
        assert np.max(np.abs(rebuilt - u)) <= 1e-15 * np.max(np.abs(u))

    def test_terms_decay(self):
        u, a = frobenius_init(P_DESK, K=20)
        assert np.all(np.isfinite(a))
        tp = turning_points(P_DESK[0], 0.05)
        eps = 1e-3 * min(1.0, abs(tp.r0))
        terms = np.abs(a).max(axis=1) * eps ** np.arange(21)
        assert terms[-1] < 1e-30 * terms.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            frobenius_init(P_DESK, K=6)
        with pytest.raises(ValueError):
            frobenius_init(P_DESK, eps=0.5)
        with pytest.raises(ValueError):
            frobenius_init((1.0, 0.1, 0.4))
        with pytest.raises(ValueError):
            frobenius_init((1.0, 0.1, -0.5))


class TestIntegrateSystem:
    def test_zero_path_identity(self):
        u0 = np.array([1.0, 2.0j])
        r = integrate_system((0.0, 0.1, 0.0), [0.5 + 0.1j, 0.5 + 0.1j], u0)
        assert np.array_equal(r.u_end, u0)
        assert r.steps == 0
        assert r.wronskian_drift == 0.0

    def test_constant_coefficient_closed_form(self):
        # nu term off, E = 0: the system is diagonal and the components
        # evolve by e^{+-i x^3/3h}
        r = integrate_system((0.0, 0.1, 0.0), [0.3, 1.2],
                             np.array([1.0 + 0j, 1.0 + 0j]))
        s = cmath.exp(1j * (1.2 ** 3 - 0.3 ** 3) / 0.3)
        assert abs(r.u_end[0] - s) <= 1e-8
        assert abs(r.u_end[1] - 1.0 / s) <= 1e-8

    @pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
    def test_wronskian_drift_on_ray(self, h):
        E, nt = P_DESK[0], 0.5
        u0, _ = frobenius_init((E, h, nt))
        tp = turning_points(E, nt * h)
        eps = 1e-3 * min(1.0, abs(tp.r0))
        x_mid = math.sqrt(abs(tp.r1) * abs(tp.r2))
        w = cmath.exp(-0.5j)
        path = [eps, x_mid, x_mid * w, 2.5 * w]
        r = integrate_system((E, h, nt), path, u0)
        assert r.wronskian_drift <= 1e-8

    def test_fundamental_pair(self):
        M0 = np.eye(2, dtype=complex)
        r = integrate_system((1.0, 0.1, 0.5), [0.2, 0.9], M0)
        assert r.u_end.shape == (2, 2)
        det = r.u_end[0, 0] * r.u_end[1, 1] - r.u_end[0, 1] * r.u_end[1, 0]
        assert abs(det - 1.0) <= 1e-9
        assert r.wronskian_drift <= 1e-9

    def test_segment_concatenation(self):
        p = (1.0, 0.1, 0.5)
        u0, _ = frobenius_init(p)
        tp = turning_points(1.0, 0.05)
        eps = 1e-3 * min(1.0, abs(tp.r0))
        one = integrate_system(p, [eps, 0.4 - 0.1j, 0.9 - 0.3j], u0)
        ab = integrate_system(p, [eps, 0.4 - 0.1j], u0)
        bc = integrate_system(p, [0.4 - 0.1j, 0.9 - 0.3j], ab.u_end)
        assert np.max(np.abs(one.u_end - bc.u_end)) \
            <= 1e-9 * np.max(np.abs(one.u_end))

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            integrate_system((1.0, 0.1, 0.5), [-0.5, 0.5],
                             np.array([1.0, -1.0j]))

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            integrate_system((1.0, 0.1, 0.5), [0.2, 0.9],
                             np.array([[1.0, 2.0], [1.0j, 2.0j]]))


class TestJostCplus:
    def test_plateau_invariant(self):
        est = jost_cplus(P_DESK)
        assert est.plateau_error <= 1e-6 * abs(est.c_plus)

    def test_extraction_radius_stability(self):
        a = jost_cplus(P_DESK)
        b = jost_cplus(P_DESK, R_max=0.8 * a.R_max)
        allowance = 4.0 * (a.plateau_error + b.plateau_error)
        assert abs(a.c_plus - b.c_plus) <= allowance

    def test_theta_independence(self):
        a = jost_cplus(P_DESK, theta=0.4)
        b = jost_cplus(P_DESK, theta=0.6)
        assert abs(a.c_plus - b.c_plus) <= 1e-5 * abs(a.c_plus)

    def test_dip_at_ode_zero_not_at_bs_root(self, bs_root, ode_root):
        at_zero = abs(jost_cplus((ode_root.E, 0.1, 0.5)).c_plus)
        at_bs = abs(jost_cplus((bs_root.E, 0.1, 0.5)).c_plus)
        # the zero is a genuine dip of many orders; the BS root sits on
        # a ridge between two zeros and shows no dip at all
        assert at_zero <= 1e-4 * at_bs
        assert at_bs > 0.05

    # c+ at the h = 0.1, k = 4 ODE zero and at one ring point
    # E + 1e-4|E|, frozen from a Radau-only gauged ray at rtol 1e-13
    # (inner contour at the default rtol 1e-11, as below)
    C_REF = {"zero": complex(8.4479027747644e-14, 2.992131523311346e-14),
             "ring": complex(0.0006390700089812968, -0.0006151803417702451)}

    def test_ray_accuracy_against_tight_radau(self):
        # The bound is relative to the ring |c+|, the scale of the 1e-8
        # winding certificate, and it is what the ray must hold at the
        # zero itself. An LSODA ray fails it by two orders of magnitude:
        # 2.5e-8 at rtol 1e-11 and still 8e-9 to 1e-8 at 1e-12 and 1e-13.
        E = cmath.exp((2.0 / 3.0) * cmath.log(LAM_ODE[0.1]))
        bound = 1e-10 * abs(self.C_REF["ring"])
        for name, Ep in (("zero", E), ("ring", E + 1e-4 * abs(E))):
            c = jost_cplus((Ep, 0.1, 0.5)).c_plus
            assert abs(c - self.C_REF[name]) <= bound, name

    def test_validation(self):
        with pytest.raises(ValueError):
            jost_cplus(P_DESK, theta=0.0)
        with pytest.raises(ValueError):
            jost_cplus(P_DESK, theta=math.pi / 3.0)
        with pytest.raises(ValueError):
            jost_cplus(P_DESK, R_max=1.5)

    def test_no_plateau_at_minimal_radius(self):
        # dominance margin barely met but the quotient tail is still
        # far above the plateau tolerance at this radius
        with pytest.raises(NoPlateau):
            jost_cplus(P_DESK, theta=0.5, R_max=2.4)


class TestFindResonance:
    def test_certified_zero(self, ode_root):
        assert ode_root.method == "ode-oracle"
        assert ode_root.residual < 1e-8
        assert ode_root.lam.imag < 0
        assert ode_root.k == 4
        assert ode_root.iterations >= 3

    def test_half_spacing_offset_from_bs(self, bs_root, ode_root):
        off = abs(ode_root.lam - bs_root.lam) / 0.1
        assert abs(off - 0.75 * math.pi) <= 0.02 * 0.75 * math.pi

    @pytest.mark.parametrize("h, k", [(0.2, 2), (0.1, 4), (0.05, 8)])
    def test_zero_identity_from_bs_seed(self, h, k):
        bs = solve_resonance(k, 0.5, h)
        ode = find_resonance_ode((bs.E, h, 0.5), bs.E)
        assert abs(ode.lam - LAM_ODE[h]) <= 1e-9
        assert ode.residual <= 1e-8

    def test_reseed_converges_to_same_zero(self, ode_root):
        again = find_resonance_ode((ode_root.E, 0.1, 0.5), ode_root.E,
                                   ring_points=8)
        assert abs(again.lam - ode_root.lam) <= 1e-8

    def test_no_convergence(self, bs_root):
        with pytest.raises(NoConvergence):
            find_resonance_ode((bs_root.E, 0.1, 0.5), bs_root.E,
                               max_iter=0, ring_points=4)

    @staticmethod
    def _noise_floor_jost(zero, eta_best, eta_last):
        """Synthetic c+ = E - zero, except that the two secant landings
        next to the zero read eta_best and then the larger eta_last, as
        when the secant steps off its best point at the noise floor."""
        landings = []

        def fake(params, theta=0.5):
            E = params[0]
            c = E - zero
            if abs(c) < 1e-9:
                landings.append(E)
                c = eta_best if len(landings) % 2 else eta_last
            return ode_oracle.JostEstimate(c, 0.0, 10.0, theta)

        return fake, landings

    def test_secant_rings_best_iterate(self, monkeypatch):
        zero = 1.5 - 0.05j
        fake, landings = self._noise_floor_jost(zero, 1e-13, 1e-11)
        monkeypatch.setattr(ode_oracle, "jost_cplus", fake)
        rec = find_resonance_ode((zero + 0.05, 0.1, 0.5), zero + 0.05,
                                 max_iter=2)
        # ring median is the ring radius 1e-4 |E|, so the last iterate
        # (1e-11) fails the 1e-8 certificate and the best one (1e-13)
        # passes it
        assert len(landings) == 2
        assert rec.E == landings[0] != landings[1]
        assert rec.iterations == 4
        assert rec.residual == pytest.approx(1e-13 / (1e-4 * abs(rec.E)),
                                             rel=1e-6)

    def test_best_iterate_above_certificate_fails(self, monkeypatch):
        zero = 1.5 - 0.05j
        fake, _ = self._noise_floor_jost(zero, 2e-12, 1e-11)
        monkeypatch.setattr(ode_oracle, "jost_cplus", fake)
        with pytest.raises(NoConvergence):
            find_resonance_ode((zero + 0.05, 0.1, 0.5), zero + 0.05,
                               max_iter=2)

    def test_refine_ode_through_sweep(self, ode_root):
        band = Band(2.0, 2.1, h=0.1, nu_tilde_max=0.5)
        recs = resonance_set(band, refine="ode")
        assert len(recs) == 1
        assert recs[0].method == "ode-oracle"
        assert abs(recs[0].lam - ode_root.lam) <= 1e-8


class TestPplusOracle:
    # Scaled eigenvalues e_n(l) of -u'' + ((l^2-1/4)/s^2 + s)u = e u,
    # computed independently by bisection on the sign of a shooting
    # endpoint in the h-free scaled variables (r = h^{2/3} s); the
    # physical levels are exactly e_n h^{2/3}.
    E_SCALED = {1: [2.872098, 4.493018, 5.867117],
                2: [3.817508, 5.262979]}

    def test_levels_match_scaled_shooting(self):
        h = 0.01
        got = pplus_eigen_oracle(1, h, (0.01, 0.30))
        want = [e * h ** (2.0 / 3.0) for e in self.E_SCALED[1]]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-5 * w

    def test_levels_l2(self):
        h = 0.01
        got = pplus_eigen_oracle(2, h, (0.05, 0.27))
        want = [e * h ** (2.0 / 3.0) for e in self.E_SCALED[2]]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-5 * w

    def test_real_simple_sorted(self):
        got = pplus_eigen_oracle(1, 0.02, (0.05, 0.5))
        assert got == sorted(got)
        assert all(b - a > 1e-6 for a, b in zip(got, got[1:]))

    def test_exact_h_scaling(self):
        lo = pplus_eigen_oracle(1, 0.01, (0.05, 0.25))
        hi = pplus_eigen_oracle(1, 0.02, (0.05, 0.4))
        for a, b in zip(lo, hi):
            assert abs(b / a - 2.0 ** (2.0 / 3.0)) <= 1e-6

    def test_formula_alignment_at_physical_indices(self):
        # each oracle level sits within h of a formula level, but the
        # formula's lowest index has no oracle partner (it falls below
        # the effective well bottom)
        h = 0.01
        got = pplus_eigen_oracle(1, h, (0.01, 0.30))
        formula = pplus_levels(h, 1, range(0, 5))
        for g in got:
            assert min(abs(g - f) for f in formula) <= h
        lowest_formula = formula[0]
        assert min(abs(lowest_formula - g) for g in got) > 5 * h

    def test_window_empty(self):
        with pytest.raises(WindowEmpty):
            pplus_eigen_oracle(1, 0.01, (0.02, 0.05))

    def test_validation(self):
        with pytest.raises(ValueError):
            pplus_eigen_oracle(0, 0.01, (0.1, 0.2))
        with pytest.raises(ValueError):
            pplus_eigen_oracle(1, 0.01, (0.2, 0.1))
        with pytest.raises(ValueError):
            pplus_eigen_oracle(1, -0.01, (0.1, 0.2))
        with pytest.raises(ValueError):
            pplus_eigen_oracle(True, 0.01, (0.1, 0.2))

    def test_repeat_call_deterministic(self):
        a = pplus_eigen_oracle(1, 0.02, (0.1, 0.4))
        b = pplus_eigen_oracle(1, 0.02, (0.1, 0.4))
        assert a == b

    @staticmethod
    def _scaled_levels_fd(l, e_max, L=30.0, m=40000):
        # second-order finite differences for -u'' + ((l^2-1/4)/s^2 + s)u
        # on (0, L] at m and 2m interior points, one Richardson step
        from scipy.linalg import eigh_tridiagonal

        def levels(n):
            ds = L / (n + 1)
            s = ds * np.arange(1, n + 1)
            diag = 2.0 / ds ** 2 + (l * l - 0.25) / s ** 2 + s
            off = np.full(n - 1, -1.0 / ds ** 2)
            return eigh_tridiagonal(diag, off, select="v",
                                    select_range=(0.0, e_max),
                                    eigvals_only=True)

        coarse, fine = levels(m), levels(2 * m)
        assert len(coarse) == len(fine)
        return (4.0 * fine - coarse) / 3.0

    @pytest.mark.parametrize("l", [1, 2])
    def test_high_levels_match_finite_differences(self, l):
        # every level up to scaled e = 15 (12 at l = 1, 11 at l = 2);
        # 15 sits at least 0.15 from the nearest level for both l
        h = 0.008
        h23 = h ** (2.0 / 3.0)
        want = self._scaled_levels_fd(l, 15.0) * h23
        got = pplus_eigen_oracle(l, h, (0.5 * h23, 15.0 * h23))
        assert len(got) == len(want) >= 11
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-6 * w

    @pytest.mark.parametrize("perturb", [
        lambda e, N: e * (1.0 + 1e-9 * N),  # values drift with N
        lambda e, N: e[1:] if N > 200 else e,  # finer solve drops a level
    ], ids=["drift", "dropped-level"])
    def test_node_count_disagreement_raises(self, monkeypatch, perturb):
        # the window needs N = 160 and 214 nodes
        solve = ode_oracle._scaled_radial_levels
        monkeypatch.setattr(
            ode_oracle, "_scaled_radial_levels",
            lambda l, S, N: perturb(solve(l, S, N), N))
        with pytest.raises(ConvergenceFailure):
            pplus_eigen_oracle(1, 0.01, (0.01, 0.30))
