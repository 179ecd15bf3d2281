"""Tests for the direct-integration oracle.

Reference values here come from closed forms (diagonal constant-ν̃-free
evolution, exact h^{2/3} scaling of the radial problem), from an
independent shooting computation of the scaled radial eigenvalues
(h-free form of the equation, endpoint sign bisection) whose results
are frozen as literals, and from a finite-difference solve of the same
scaled problem run in the test; c+ references come from the test's own
gauged ray system under scipy's Radau at rtol 1e-13, run far out and
divided by the leading 1/x^3 tail, the inner contour's from DOP853 at
rtol 1e-13, and the h = 0.05 zero from a small-angle full eigensolve of
the complex-scaled problem. The half-spacing offset between the Jost zeros
and the quantization route is asserted as measured fact: with the
A-matrix, the x^{ν̃}(1,-i) Frobenius seed, and the outgoing-coefficient
convention used throughout this package, the zeros of c⁺ sit half a
lattice spacing from the Bohr-Sommerfeld roots, |Δλ|/h → 3π/4.
"""

import cmath
import gc
import math
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from conires import ode_oracle
from conires.errors import (
    ConvergenceFailure,
    NoConvergence,
    NoPlateau,
    SeriesDivergence,
    SpuriousZero,
    StepUnderflow,
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
    _SLOPE,
    Band,
    lattice_point,
    pplus_levels,
    resonance_set,
    solve_resonance,
)
from conires import spectral
from conires.spectral import locate_zero

P_DESK = (2.0 ** (2.0 / 3.0), 0.1, 0.5)

# The ODE zeros that find_resonance_ode reaches from the BS seeds of
# acceptance criterion 5, (h, k) = (0.2, 2), (0.1, 4), (0.05, 8). Each
# seed sits on a ridge between two zeros, so a solver change can hop to
# the neighbour and still pass every other check.  The complex-scaled
# locator cannot settle on that ridge, so the search reaches the upper
# neighbour from the ladder seed half a spacing above the BS root, at
# every h.  The values were frozen from a Jost secant alone, before the
# locator existed.  At h = 0.2 and 0.1 the located eigenvalue itself is
# certified and reproduces them to 5e-13 relative; at h = 0.05 the
# re-centred rings land within 1e-11.
LAM_ODE = {0.2: complex(2.7084132879886424, -0.266666586365009),
           0.1: complex(2.296713902883714, -0.15290658806028087),
           0.05: complex(2.0908961950236815, -0.08761487040461918)}
# The lower neighbours, which the ladder seed half a spacing below the
# BS root reaches; frozen from a Jost secant alone, as LAM_ODE.
LAM_BELOW = {0.2: complex(1.7661977307715468, -0.23524419635590801),
             0.1: complex(1.8254463227515232, -0.14438130941676852)}
# The eigenvalues that spectral.locate_zero located from the ladder seeds
# half a spacing above (+1) and below (-1) the BS roots of criterion 5
# (nu_tilde = 1/2) and of its rule at nu_tilde = 3/2 (the root with
# Re lambda nearest 2), keyed by (h, nu_tilde, sign); frozen from its
# Chebyshev collocation on ceil(32 sqrt|Lambda|) nodes at two BLAS
# threads, before the pencil was banded.
E_COLLOCATION = {
    (0.2, 0.5, 1): complex(1.9451047358119664, -0.12744659299254527),
    (0.2, 0.5, -1): complex(1.4640105163554256, -0.12957285993377737),
    (0.1, 0.5, 1): complex(1.741612448115945, -0.07723668115175755),
    (0.1, 0.5, -1): complex(1.494676911544774, -0.0787219579108774),
    (0.05, 0.5, 1): complex(1.6354590102890794, -0.04567227262105456),
    (0.1, 1.5, 1): complex(1.6228253811498938, -0.03617601996877694),
    (0.1, 1.5, -1): complex(1.3663714466721697, -0.034355847468786734)}
# The h = 0.05 zero of LAM_ODE from the full eigensolve of the
# complex-scaled problem at a small angle: the eigenvalue nearest
# LAM_ODE[0.05] of scipy.linalg.eigvals(L, diag(m)), with L the Chebyshev
# collocation of L - 0 M on 250 nodes in s (the node s = S dropped) and
# m the diagonal of M there, at theta = 0.12, as E^{3/2}. The same solve
# at theta = 0.15, N = 300 agrees to 1.3e-13 relative. Far tighter than
# LAM_ODE's 1e-11 at this h.
LAM_SPECTRAL_005 = complex(2.090896195034893, -0.08761487049335161)
# The scaled radial levels e of -u'' + ((l^2-1/4)/s^2 + s)u = e u in
# [0.5, e_top], keyed by (l, e_top): what pplus_eigen_oracle(l, 1, (0.5,
# e_top)) returned from the Chebyshev collocation of the scaled problem
# in t = sqrt(s) on ceil(12 S^{3/4}) nodes (S = e_top + 25) at two BLAS
# threads, before the solve became a Galerkin one.  They agree with the
# same collocation on 300 nodes to 1.2e-13 relative.
E_RADIAL = {
    (1, 7.7): [
        2.8720977374712904, 4.493018218780757, 5.867116814618232,
        7.097765067935596],
    (1, 15.0): [
        2.87209773747135, 4.493018218780859, 5.867116814618182,
        7.0977650679356366, 8.230575405160375, 9.29065365372458,
        10.293650033616483, 11.25014108318906, 12.1676930284051,
        13.051952698569679, 13.907274852798384, 14.737106760408025],
    (1, 25.0): [
        2.8720977374711834, 4.493018218780656, 5.867116814618119,
        7.097765067935507, 8.230575405160312, 9.290653653724542,
        10.293650033616249, 11.250141083189035, 12.16769302840534,
        13.051952698569533, 13.907274852798508, 14.737106760408041,
        15.544236173775053, 16.330957893146895, 17.099189500072125,
        17.850554095128697, 18.5864409027572, 19.308050606150957,
        20.016429887005852, 20.71249816887205, 21.397068622666172,
        22.07086487791942, 22.734534471496914, 23.38865978386865,
        24.033767016700395, 24.67033362634901],
    (2, 7.7): [
        3.8175079374212486, 5.262979405466027, 6.541551150125771],
    (2, 15.0): [
        3.817507937421519, 5.262979405466161, 6.541551150125984,
        7.709737563613048, 8.797486551849586, 9.822991371200024,
        10.798317340620919, 11.731971621693667, 12.630230657957382,
        13.497889572433712, 14.338714721731787],
    (2, 25.0): [
        3.817507937421338, 5.262979405465944, 6.5415511501259695,
        7.70973756361334, 8.797486551849563, 9.822991371200205,
        10.798317340621063, 11.731971621693795, 12.630230657957169,
        13.497889572433657, 14.338714721731673, 15.155731855906625,
        15.951417624131706, 16.727831421528826, 17.486708895466144,
        18.229529958044544, 18.957569345610416, 19.671934924724262,
        20.37359720313563, 21.06341240412402, 21.742140747998764,
        22.410461109136985, 23.06898289367594, 23.718255758909745,
        24.358777637353604, 24.991001415137283],
}


def _oracle_nodes(e_top):
    """pplus_eigen_oracle's box end S and its two basis sizes at the
    scaled window top e_top: the larger of 6 S^{3/4} and
    0.4 S sqrt(e_top) + 20, S = e_top + 25, and a third more."""
    S = e_top + 25.0
    N = max(math.ceil(6.0 * S ** 0.75),
            math.ceil(0.4 * S * math.sqrt(e_top)) + 20)
    return S, (N, math.ceil(4.0 * N / 3.0))


def _jacobi_values(a, b, n, x, start):
    """Values and x-derivatives at the nodes x of the first n
    polynomials orthonormal for (1 - x)^a (1 + x)^b, each node's
    scaled so that the first polynomial is start there, by the
    three-term recurrence."""
    diag, off = ode_oracle._jacobi_recurrence(a, b, n)
    P = np.zeros((n, x.size))
    dP = np.zeros((n, x.size))
    P[0] = start
    for k in range(n - 1):
        t = x - diag[k]
        c = off[k - 1] if k else 0.0
        P[k + 1] = (t * P[k] - c * P[k - 1]) / off[k]
        dP[k + 1] = (P[k] + t * dP[k] - c * dP[k - 1]) / off[k]
    return P, dP


def _radial_levels_one_n(l, S, N):
    """The reference for ode_oracle._scaled_radial_levels: the same
    Rayleigh-Ritz on N basis functions, each family by a recurrence of
    its own on this N's nodes alone."""
    b = 2.0 * l + 1.0
    diag, off = ode_oracle._jacobi_recurrence(0.0, b, N + 2)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    g = (0.5 * (1.0 + x)) ** (l + 1.0)
    Q, _ = _jacobi_values(0.0, b, N + 2, x, g)
    P, dP = _jacobi_values(2.0, b, N, x, g)
    q = np.sqrt(np.einsum("nk,nk->k", Q, Q))
    r = np.divide(math.sqrt((b + 2.0) * (b + 3.0) / 8.0), q,
                  out=np.zeros_like(q), where=q > 0.0)
    dphi = ((1.0 - x) * dP - P) * r
    phi = (1.0 - x) * P * (r * np.sqrt(1.0 + x))
    H = ((4.0 / (S * S)) * np.einsum("mk,nk->mn", dphi, dphi)
         + (0.5 * S) * np.einsum("mk,nk->mn", phi, phi))
    return np.linalg.eigvalsh(H)


def _ladder_seed_above(h, k):
    """Criterion 5's BS root E and find_resonance_ode's ladder seed half
    a lattice spacing above it, computed as the search computes it."""
    E = solve_resonance(k, 0.5, h).E
    return E, ode_oracle._E_of_lambda(
        ode_oracle._lambda_of_E(E) + 0.5 * (8.0 * _SLOPE * h))


@pytest.fixture(scope="module")
def bs_root():
    return solve_resonance(4, 0.5, 0.1)


@pytest.fixture(scope="module")
def ode_root(bs_root):
    return find_resonance_ode((bs_root.E, 0.1, 0.5))


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

    def test_stack_is_per_member_bits(self):
        # the batched recurrence gives every member frobenius_init's bits
        Es = 1.6 - 0.02j + 1e-4 * np.exp(2j * np.pi * np.arange(17) / 17)
        u, a = ode_oracle._frobenius_stack(Es, 0.1, 1.5, 1e-4, 20)
        for j, E in enumerate(Es):
            uj, aj = frobenius_init((E, 0.1, 1.5), eps=1e-4)
            assert np.array_equal(u[j], uj) and np.array_equal(a[j], aj)

    def test_stack_divergence_of_one_member_raises(self):
        # E eps/h = 500 for the second member: its terms grow at K = 8
        Es = np.array([1e-3, 1e3], dtype=complex)
        ode_oracle._frobenius_stack(Es[:1], 0.1, 0.5, 0.05, 8)
        with pytest.raises(SeriesDivergence):
            ode_oracle._frobenius_stack(Es, 0.1, 0.5, 0.05, 8)

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
        # (measured 2.5e-16: the Taylor sums run to roundoff)
        s = cmath.exp(1j * (1.2 ** 3 - 0.3 ** 3) / 0.3)
        assert abs(r.u_end[0] - s) <= 1e-13
        assert abs(r.u_end[1] - 1.0 / s) <= 1e-13

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
        assert r.wronskian_drift <= 1e-12  # measured 7.6e-15 to 4.0e-14

    def test_fundamental_pair(self):
        M0 = np.eye(2, dtype=complex)
        r = integrate_system((1.0, 0.1, 0.5), [0.2, 0.9], M0)
        assert r.u_end.shape == (2, 2)
        det = r.u_end[0, 0] * r.u_end[1, 1] - r.u_end[0, 1] * r.u_end[1, 0]
        # measured 2.6e-16 and 5.4e-16
        assert abs(det - 1.0) <= 1e-13
        assert r.wronskian_drift <= 1e-13

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
        # the Taylor steps expand the x-multiplied system, singular at
        # the origin even where nu = 0 leaves A(x) regular
        for nt in (0.5, 0.0):
            with pytest.raises(ValueError, match="origin"):
                integrate_system((1.0, 0.1, nt), [-0.5, 0.5],
                                 np.array([1.0, -1.0j]))

    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            integrate_system((1.0, 0.1, 0.5), [0.2, 0.9],
                             np.array([[1.0, 2.0], [1.0j, 2.0j]]))


def _sequential_carry(segs, Es, h, nu, M):
    """The carry as one Taylor series per step, each summed from the
    step's actual start in its own recurrence, the steps sized by the
    same rule: the reference for ode_oracle._carry, which sums the
    propagators of a block of steps in one recurrence, from identity
    starts, and applies them to the carried columns: on the ring at
    h = 0.2, 0.1 and 0.05 the blocked pairs drift 1.6e-14, 2.1e-14 and
    2.6e-14 against this reference's 2.4e-14, 2.9e-14 and 3.5e-14. M
    holds pairs or single columns. Returns the starts carried to the
    last vertex, the steps, the largest drift (None for single columns)
    and the first columns at every segment end."""
    Q, R_acc = ode_oracle._gram_schmidt(M)
    drift = np.zeros(len(Es))
    steps = 0
    cols = []
    for a, b in segs:
        L = abs(b - a)
        e = (b - a) / L
        t = 0.0
        while t < L:
            xc = a + t * e
            r = abs(xc)
            a_c = float(np.abs(xc * xc - Es).max()) + nu / r
            dt = min(0.4 * r, L - t, 4.0 * h / (
                a_c + math.sqrt(a_c * a_c + 8.0 * h * r)))
            t = t + dt if t + dt < L else L
            z = (b if t == L else a + t * e) - xc
            # c_{n+1} from c_n .. c_{n-3}, on the terms d_n = c_n z^n
            w, g = z / xc, 1j / h * z / xc
            s = np.array([1.0, -1.0])[None, :, None]
            coef = [np.broadcast_to(c, Es.shape)[:, None, None] for c in (
                g * (xc ** 3 - Es * xc), g * z * (3.0 * xc * xc - Es),
                g * 3.0 * xc * z * z, g * z ** 3)]
            d = [np.zeros_like(Q)] * 3 + [Q]
            U = Q.copy()
            small = 0
            n = 0
            while small < 3:
                bracket = sum(c * d[-1 - i] for i, c in enumerate(coef))
                new = (s * (bracket + g * nu * d[-1][:, ::-1])
                       - n * w * d[-1]) / (n + 1)
                d.append(new)
                U = U + new
                small = small + 1 if np.abs(new).max() < 2e-17 else 0
                n += 1
            if M.shape[-1] == 2:
                W0 = Q[:, 0, 0] * Q[:, 1, 1] - Q[:, 1, 0] * Q[:, 0, 1]
                W = U[:, 0, 0] * U[:, 1, 1] - U[:, 1, 0] * U[:, 0, 1]
                drift += np.abs(W - W0) / np.abs(W0)
            Q, R = ode_oracle._gram_schmidt(U)
            R_acc = R @ R_acc
            steps += 1
        cols.append(Q[..., 0] * R_acc[:, :1, 0])
    return (Q @ R_acc, steps,
            float(drift.max()) if M.shape[-1] == 2 else None,
            np.array(cols))


def _ring_contour(h):
    """Energies, contour and start pairs of the 17-member ring around
    criterion 5's zero at h, as _gauged_vertices sets them up."""
    nt, nu = 0.5, 0.5 * h
    E = cmath.exp((2.0 / 3.0) * cmath.log(LAM_ODE[h]))
    Es = np.append(E + 1e-4 * abs(E) * np.exp(
        2j * np.pi * np.arange(16) / 16), E)
    c = ode_oracle._contour(E, h, nu, ode_oracle._THETA, None)
    u0, _ = ode_oracle._frobenius_stack(Es, h, nt, c.x0,
                                        ode_oracle._START_TERMS)
    segs = ode_oracle.ComplexPath(
        (c.x0, c.x_mid, c.xs, *c.ends)).segments()
    return Es, nu, segs, ode_oracle._companion(u0)


def _col_error(cols, ref):
    """Largest deviation of the segment-end columns from ref at each end,
    relative to the largest |v| of the stack there."""
    return np.abs(cols - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))


# The blocked carry against the sequential one, relative to max|v|: on
# the inner contour (x_mid and the ray start) to 1e-13 (measured at most
# 3.5e-15), and on the ray, where the roundoff of the regular column is
# amplified as it is into c+ (the ring's noise), to RAY_BOUND (measured
# up to 2.4e-12, 1.3e-11 and 9.4e-10 at h = 0.2, 0.1 and 0.05 for the
# pairs, 2.5e-12, 1.2e-11 and 9.9e-10 for the regular column alone; a carry
# that forms each step's terms by a batched matrix product, one
# recurrence per step, sits as far from the sequential reference:
# 2.1e-12, 9.2e-12 and 8.7e-10)
INNER_BOUND = 1e-13
RAY_BOUND = {0.2: 1e-10, 0.1: 1e-10, 0.05: 1e-8}


def _assert_columns_agree(cols, ref, h):
    err = _col_error(cols, ref)
    assert err[:2].max() <= INNER_BOUND, err
    assert err[2:].max() <= RAY_BOUND[h], err


class TestBlockedCarry:
    @pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
    def test_ring_against_sequential_steps(self, h):
        # the pairs, and the regular column alone as _gauged_vertices
        # carries it, each against the sequential steps from its start
        Es, nu, segs, M = _ring_contour(h)
        schedule = ode_oracle._schedule(segs, Es, h, nu)
        for start in (M, M[..., :1]):
            _, drift, cols = ode_oracle._carry(schedule, Es, h, nu, start)
            _, ref_steps, ref_drift, ref_cols = _sequential_carry(
                segs, Es, h, nu, start)
            assert len(schedule[0]) == ref_steps
            if start.shape[-1] == 2:
                assert drift <= 2.0 * ref_drift
            else:
                assert drift is None and ref_drift is None
            _assert_columns_agree(cols, ref_cols, h)

    @pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
    def test_one_member_against_sequential_steps(self, h):
        # the m = 1 case, as integrate_system carries it, at a ring
        # point (the centre is a zero of c+, where the regular column on
        # the ray is all noise): the pair at 1.1 R_max
        Es, nu, segs, M = _ring_contour(h)
        path = [segs[0][0]] + [b for _, b in segs]
        r = integrate_system((Es[0], h, 0.5), path, M[0])
        ref, ref_steps, ref_drift, _ = _sequential_carry(
            segs, Es[:1], h, nu, M[:1])
        assert r.steps == ref_steps
        assert r.wronskian_drift <= 2.0 * ref_drift
        assert np.abs(r.u_end - ref[0]).max() <= \
            RAY_BOUND[h] * np.abs(ref[0]).max()

    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size(self, h, block, monkeypatch):
        # one step per block and blocks that split the schedule give the
        # default's bits, for the pairs and for the regular column alone:
        # no propagator depends on the start or on the other steps
        Es, nu, segs, M = _ring_contour(h)
        schedule = ode_oracle._schedule(segs, Es, h, nu)
        assert block < len(schedule[0]) <= ode_oracle._BLOCK
        starts = (M, M[..., :1])
        default = [ode_oracle._carry(schedule, Es, h, nu, start)
                   for start in starts]
        monkeypatch.setattr(ode_oracle, "_BLOCK", block)
        for start, (end, drift, cols) in zip(starts, default):
            b_end, b_drift, b_cols = ode_oracle._carry(schedule, Es, h, nu,
                                                       start)
            assert np.array_equal(b_end, end)
            assert np.array_equal(b_cols, cols)
            assert b_drift == drift

    @pytest.mark.parametrize("block", [7, ode_oracle._BLOCK])
    def test_one_series_pass_per_block(self, block, monkeypatch):
        # a ring solve sums each block's series once, from identity
        # starts, and applies the propagators to the carried column
        h = 0.05
        Es, nu, segs, _ = _ring_contour(h)
        steps = len(ode_oracle._schedule(segs, Es, h, nu)[0])
        calls = []
        sums = ode_oracle._taylor_sums

        def counted(xc, *args):
            calls.append(len(xc))
            return sums(xc, *args)

        monkeypatch.setattr(ode_oracle, "_BLOCK", block)
        monkeypatch.setattr(ode_oracle, "_taylor_sums", counted)
        ode_oracle._jost_ring(Es[-1], Es, h, 0.5)
        assert len(calls) == -(-steps // block)
        assert sum(calls) == steps

    @pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
    def test_block_sums_are_each_step_alone(self, h):
        # a step's sum reads nothing of the other steps of its block,
        # however many of them stop before it: the whole ring schedule in
        # one recurrence equals each step summed alone, bit for bit
        Es, nu, segs, _ = _ring_contour(h)
        xc, z, _ = ode_oracle._schedule(segs, Es, h, nu)
        block = ode_oracle._taylor_sums(xc, z, Es, h, nu)
        for k in range(len(xc)):
            alone = ode_oracle._taylor_sums(xc[k:k + 1], z[k:k + 1], Es, h,
                                            nu)
            assert np.array_equal(block[k], alone[0]), k

    def test_step_budget_fails_fast(self, monkeypatch):
        # near theta = pi/3 the extraction radius and with it the step
        # count blow up; the budget is checked on the schedule before
        # any series is summed (measured 0.6 s), and the message names
        # theta and R_max
        def no_sums(*args):
            raise AssertionError("a series was summed")

        monkeypatch.setattr(ode_oracle, "_taylor_sums", no_sums)
        start = time.perf_counter()
        with pytest.raises(StepUnderflow, match=r"theta=1\.047 to R_max="):
            jost_cplus((1.6, 0.1, 0.5), theta=1.047)
        assert time.perf_counter() - start < 5.0


class TestJostCplus:
    def test_plateau_invariant(self):
        est = jost_cplus(P_DESK)
        assert est.plateau_error <= 1e-6 * abs(est.c_plus)

    def test_extraction_radius_stability(self):
        # c+ read at 1.25 R against the default R, where the recessive
        # mode is down by 40 e-folds: to 1e-10 |c+| (measured 1.1e-14);
        # 0.8 R would fail the dominance check
        a = jost_cplus(P_DESK)
        b = jost_cplus(P_DESK, R_max=1.25 * a.R_max)
        assert abs(a.c_plus - b.c_plus) <= 1e-10 * abs(a.c_plus)

    def test_theta_independence(self):
        a = jost_cplus(P_DESK, theta=0.4)
        b = jost_cplus(P_DESK, theta=0.6)
        assert abs(a.c_plus - b.c_plus) <= 1e-5 * abs(a.c_plus)

    def test_scaling_law(self):
        # x -> a x, E -> a^2 E, h -> a^3 h leaves h D_x u = A(x) u
        # invariant and multiplies the regular start x^nu_tilde by
        # a^nu_tilde, so c+ scales by that factor: its zero set is
        # lambda = h Lambda(k, nu_tilde)
        E, h, nt = 1.6 - 0.02j, 0.1, 1.5
        a = 2.0 ** (1.0 / 3.0)
        base = a ** nt * jost_cplus((E, h, nt)).c_plus
        scaled = jost_cplus((a * a * E, a ** 3 * h, nt)).c_plus
        assert abs(scaled - base) <= 1e-6 * abs(base)

    def test_dip_at_ode_zero_not_at_bs_root(self, bs_root, ode_root):
        at_zero = abs(jost_cplus((ode_root.E, 0.1, 0.5)).c_plus)
        at_bs = abs(jost_cplus((bs_root.E, 0.1, 0.5)).c_plus)
        # the zero is a genuine dip of many orders; the BS root sits on
        # a ridge between two zeros and shows no dip at all
        assert at_zero <= 1e-4 * at_bs
        assert at_bs > 0.05

    def test_ray_accuracy_against_tight_radau(self):
        # The reference shares the program's inner contour and gauge
        # (the x_s row of _gauged_vertices), then runs the test's own
        # realified gauged system v' = e^{-i th}(i/h)[[0, nu/x],
        # [-nu/x, -2(x^2 - E)]]v under scipy's Radau at rtol 1e-13 out to
        # (3.4e8 nt^2 h)^{1/3}, and divides out the leading tail
        # 1 + i nu^2/(6 h x^3) of the outgoing solution there. The bound
        # is relative to the ring |c+|, the scale of the 1e-8 winding
        # certificate, and it is what c+ must hold at the zero itself
        # (measured 3.3e-11 at the zero and 3.6e-11 at the ring point; the
        # reference starts from the program's ray start, and a change in
        # its last bits moves the reference by about 3e-11 as well).
        from scipy.integrate import solve_ivp

        h, nt, nu = 0.1, 0.5, 0.05
        E = cmath.exp((2.0 / 3.0) * cmath.log(LAM_ODE[h]))
        R = (3.4e8 * nt * nt * h) ** (1.0 / 3.0)
        got, ref = {}, {}
        for name, Ep in (("zero", E), ("ring", E + 1e-4 * abs(E))):
            c = ode_oracle._contour(Ep, h, nu, ode_oracle._THETA, None)
            v0 = ode_oracle._gauged_vertices(np.array([Ep]), h, nt, nu,
                                             c)[0, 0]
            w = cmath.exp(-1j * c.theta)

            def jac(t, y, Ep=Ep, w=w):
                x = t * w
                J = w * (1j / h) * np.array([[0.0, nu / x],
                                             [-nu / x, 2.0 * (Ep - x * x)]])
                return np.block([[J.real, -J.imag], [J.imag, J.real]])

            sol = solve_ivp(lambda t, y: jac(t, y) @ y, (c.x_mid, R),
                            np.concatenate([v0.real, v0.imag]),
                            method="Radau", jac=jac, rtol=1e-13,
                            atol=1e-15 * np.abs(v0).max())
            assert sol.success
            x = R * w
            ref[name] = complex(sol.y[0, -1], sol.y[2, -1]) / (
                1.0 + 1j * nu * nu / (6.0 * h * x ** 3))
            got[name] = jost_cplus((Ep, h, nt)).c_plus
        bound = 1e-10 * abs(ref["ring"])
        for name in ref:
            assert abs(got[name] - ref[name]) <= bound, name

    @pytest.mark.parametrize("h", [0.2, 0.1, 0.05])
    def test_ray_start_against_tight_dop853(self, h):
        # the inner contour's start vectors on the ring around criterion
        # 5's zero, against DOP853 at rtol 1e-13 on the same path from
        # frobenius_init's own start, gauged alike: each member to 1e-12
        # of its max|v| (measured 1.5e-13 to 2.4e-13; DOP853 at rtol
        # 1e-11 in renormalized chunks read 3.6e-12 to 1.4e-11)
        from scipy.integrate import solve_ivp

        nt = 0.5
        nu = nt * h
        E = cmath.exp((2.0 / 3.0) * cmath.log(LAM_ODE[h]))
        Es = np.append(E + 1e-4 * abs(E) * np.exp(
            2j * np.pi * np.arange(16) / 16), E)
        c = ode_oracle._contour(E, h, nu, ode_oracle._THETA, None)
        got = ode_oracle._gauged_vertices(Es, h, nt, nu, c)[0]
        tp = turning_points(E, nu)
        path = [1e-3 * min(1.0, abs(tp.r0)), c.x_mid, c.xs]
        for j, Ej in enumerate(Es):
            u, _ = frobenius_init((Ej, h, nt), eps=path[0])
            for a, b in zip(path[:-1], path[1:]):
                e = (b - a) / abs(b - a)

                def f(t, y, a=a, e=e):
                    x = a + t * e
                    return e * (1j / h) * np.array(
                        [(x * x - Ej) * y[0] + nu / x * y[1],
                         -nu / x * y[0] + (Ej - x * x) * y[1]])

                sol = solve_ivp(f, (0.0, abs(b - a)), u, method="DOP853",
                                rtol=1e-13, atol=1e-16)
                assert sol.success
                u = sol.y[:, -1]
            ref = u * cmath.exp(-1j * (c.xs ** 3 - 3.0 * Ej * c.xs)
                                / (3.0 * h))
            assert np.max(np.abs(got[j] - ref)) <= \
                1e-12 * np.max(np.abs(ref)), j

    def test_one_member_ring_is_jost_cplus(self):
        # one c+ code path: jost_cplus is the one-member batched solve on
        # E's own contour, so the two agree bit for bit
        for h in (0.2, 0.1):
            for E in (1.0, 1.6 - 0.02j, 1.2 - 0.05j):
                ring = ode_oracle._jost_ring(E, [E], h, 0.5)
                assert jost_cplus((E, h, 0.5)).c_plus == ring[0], (h, E)

    def test_validation(self):
        with pytest.raises(ValueError):
            jost_cplus(P_DESK, theta=0.0)
        with pytest.raises(ValueError):
            jost_cplus(P_DESK, theta=math.pi / 3.0)
        with pytest.raises(ValueError):
            jost_cplus(P_DESK, R_max=1.5)

    @pytest.mark.parametrize("off, fails", [(1e-5, True), (1e-7, False)])
    def test_two_readings_must_agree(self, monkeypatch, off, fails):
        # c+ is read at R and again at 1.1 R; a check reading off by
        # 1e-5 of |c+| exceeds the 1e-6 allowance and raises, one off by
        # 1e-7 passes and reports it as the plateau error
        outgoing = ode_oracle._outgoing

        def skewed(Es, h, nu, xs):
            g = outgoing(Es, h, nu, xs)
            g[:, 1, 0] /= 1.0 + off
            return g

        monkeypatch.setattr(ode_oracle, "_outgoing", skewed)
        if fails:
            with pytest.raises(NoPlateau, match="1.1 times"):
                jost_cplus(P_DESK)
        else:
            est = jost_cplus(P_DESK)
            assert est.plateau_error == pytest.approx(
                off * abs(est.c_plus), rel=1e-3)


class TestOutgoingSeries:
    @pytest.mark.parametrize("nt", [0.5, 1.5])
    def test_plugin_residual(self, nt):
        # g = sum_n (a_n, b_n) x^{-n} in g' = (i/h)[[0, nu/x],
        # [-nu/x, -2(x^2 - E)]]g at R, 1.1 R and 1.5 R on the default
        # ray; g' is the 16-point trapezoidal Cauchy sum on a circle of
        # radius 1e-2 |x|, exact to roundoff for the truncated series,
        # which all 16 points share (measured at most 7.6e-16)
        E, h = 1.6 - 0.02j, 0.1
        nu = nt * h
        c = ode_oracle._contour(E, h, nu, ode_oracle._THETA, None)
        roots = np.exp(2j * np.pi * np.arange(16) / 16)
        for f in (1.0, 1.1, 1.5):
            x = f * c.R_max * cmath.exp(-1j * c.theta)
            rho = 1e-2 * abs(x)
            g = ode_oracle._outgoing([E], h, nu, np.append(x + rho * roots,
                                                           x))[0]
            dg = (g[:-1] * roots.conj()[:, None]).mean(axis=0) / rho
            B = np.array([[0.0, nu / x], [-nu / x, 2.0 * (E - x * x)]])
            res = -1j * h * dg - B @ g[-1]
            assert np.max(np.abs(res)) <= 1e-12 * np.max(np.abs(g[-1])), f
            assert abs(g[-1, 0] - 1.0) < 1e-2  # the outgoing normalisation

    def test_term_budget_raises(self):
        # E in the upper half plane keeps the dominance margin at an
        # explicit R_max = 1.3 x_mid, but there the series' terms have
        # not fallen to _TAYLOR_CUT within the term budget
        E, h = 1.6 * cmath.exp(0.6j), 0.05
        tp = turning_points(E, 0.5 * h)
        x_mid = math.sqrt(abs(tp.r1) * abs(tp.r2))
        with pytest.raises(NoPlateau, match="did not converge in 200 terms"):
            jost_cplus((E, h, 0.5), R_max=1.3 * x_mid)


class TestFindResonance:
    def test_certified_zero(self, ode_root):
        assert ode_root.method == "ode-oracle"
        assert ode_root.residual < 1e-8
        assert ode_root.lam.imag < 0
        assert ode_root.k == 4
        assert ode_root.iterations == 0

    def test_half_spacing_offset_from_bs(self, bs_root, ode_root):
        off = abs(ode_root.lam - bs_root.lam) / 0.1
        assert abs(off - 0.75 * math.pi) <= 0.02 * 0.75 * math.pi

    @pytest.mark.parametrize("h, k", [(0.2, 2), (0.1, 4), (0.05, 8)])
    def test_zero_identity_from_bs_seed(self, h, k):
        bs = solve_resonance(k, 0.5, h)
        ode = find_resonance_ode((bs.E, h, 0.5))
        assert abs(ode.lam - LAM_ODE[h]) <= 1e-9
        assert ode.residual <= 1e-8
        if h == 0.05:
            # the first ring certifies the located eigenvalue, which is
            # the small-angle value to 1e-12 relative (measured 4.3e-13)
            assert ode.iterations == 0
            assert abs(ode.lam - LAM_SPECTRAL_005) <= \
                1e-12 * abs(LAM_SPECTRAL_005)

    def test_reseed_converges_to_same_zero(self, ode_root):
        again = find_resonance_ode((ode_root.E, 0.1, 0.5))
        assert abs(again.lam - ode_root.lam) <= 1e-8

    def test_no_convergence(self, bs_root):
        with pytest.raises(NoConvergence):
            find_resonance_ode((bs_root.E, 0.1, 0.5), max_iter=0)

    @pytest.mark.parametrize("h", [0.2, 0.1])
    def test_ring_matches_per_point_jost(self, h):
        # the batched ring against 16 separate jost_cplus calls on the
        # same energies, around the certified zero: values to 1e-9 of
        # the ring median (measured 1.6e-12 and 1.3e-11), the same
        # winding and the same certificate residual
        E = cmath.exp((2.0 / 3.0) * cmath.log(LAM_ODE[h]))
        Es = [E + 1e-4 * abs(E) * cmath.exp(2j * math.pi * j / 16)
              for j in range(16)]
        ring = ode_oracle._jost_ring(E, Es, h, 0.5)
        ref = np.array([jost_cplus((Ej, h, 0.5)).c_plus for Ej in Es])
        med, med_ref = np.median(np.abs(ring)), np.median(np.abs(ref))
        assert np.max(np.abs(ring - ref)) <= 1e-9 * med_ref
        assert ode_oracle._winding(ring) == ode_oracle._winding(ref) == 1
        c0 = abs(jost_cplus((E, h, 0.5)).c_plus)
        assert c0 / med == pytest.approx(c0 / med_ref, rel=1e-6)

    @staticmethod
    def _fake_rings(monkeypatch, cplus, centre=None, off=1e-3):
        """Fakes around zero = 1.5 - 0.05i. Every ladder seed is located
        at start = zero + off |zero| e^{0.3i}, by default ten ring radii
        off the zero; the ring reads c+ = cplus(E - zero), and its centre
        member centre(E_center) when centre is given. Returns the zero,
        the start and the list of ring centres."""
        zero = 1.5 - 0.05j
        start = zero + off * abs(zero) * cmath.exp(0.3j)
        centres = []

        def ring(E_center, Es, h, nt):
            centres.append(E_center)
            vals = cplus(np.asarray(Es) - zero)
            if centre is not None:
                vals[-1] = centre(E_center)
            return vals

        monkeypatch.setattr(ode_oracle, "locate_zero", lambda p, n: start)
        monkeypatch.setattr(ode_oracle, "_jost_ring", ring)
        return zero, start, centres

    def test_recentred_ring_certifies_the_newton_point(self, monkeypatch):
        # the start's centre member reads 1e-3 |E|, about the ring
        # median, and fails; the Cauchy sums of the linear c+ are exact,
        # so the second ring sits on the zero and certifies it
        zero, start, centres = self._fake_rings(monkeypatch, lambda d: d)
        rec = find_resonance_ode((start, 0.1, 0.5))
        assert centres[0] == start
        assert len(centres) == 2
        assert rec.E == centres[1]
        assert abs(rec.E - zero) <= 1e-15
        assert rec.iterations == 1
        assert rec.residual == pytest.approx(
            abs(rec.E - zero) / (1e-4 * abs(rec.E)), rel=1e-6, abs=1e-12)

    def test_passing_centre_with_double_winding_is_spurious(self,
                                                            monkeypatch):
        # located on a double zero, the centre member passes the
        # certificate, but the ring of c+ = (E - zero)^2 winds twice
        zero, _, centres = self._fake_rings(monkeypatch, lambda d: d * d,
                                            off=0.0)
        with pytest.raises(SpuriousZero, match="winding 2"):
            find_resonance_ode((zero, 0.1, 0.5))
        assert centres == [zero] * 3  # one ring per ladder seed

    def test_ring_noise_at_the_certificate_stops_the_seed(self,
                                                           monkeypatch):
        # the centre member is an exact zero, but the ring carries noise
        # on DFT index 12, sigma 2.5e-7 of its median, above the 1e-8
        # certificate: no centre can be certified below that noise, so
        # each ladder seed stops after its first ring
        noise = 1e-10 * np.exp(2j * np.pi * 12 * np.arange(17) / 16)
        zero, _, centres = self._fake_rings(
            monkeypatch, lambda d: d + noise, lambda E: 0.0, off=0.0)
        with pytest.raises(NoConvergence, match="ring noise sigma = 2.5e-07"):
            find_resonance_ode((zero, 0.1, 0.5))
        assert centres == [zero] * 3

    @pytest.mark.parametrize("h, bound", [(0.2, 7.5e-13), (0.1, 4.4e-12),
                                          (0.05, 4.3e-10)])
    def test_ring_noise_floor(self, h, bound):
        # the noise that the 1e-8 certificate must clear: sigma/median of
        # the ring around criterion 5's zero, computed as _ring_certified
        # computes it, within about 5x of its level (measured 1.6e-13,
        # 9.5e-13 and 1.1e-10; the median over 30 centres perturbed
        # within half a ring radius reads 1.6e-13, 8.7e-13 and 9.0e-11)
        E = cmath.exp((2.0 / 3.0) * cmath.log(LAM_ODE[h]))
        roots = np.exp(2j * np.pi * np.arange(16) / 16)
        ring = ode_oracle._jost_ring(
            E, np.append(E + 1e-4 * abs(E) * roots, E), h, 0.5)[:-1]
        high = np.abs(np.fft.fft(ring)[9:]) / 16
        sigma = math.sqrt(float(np.mean(high ** 2)))
        assert sigma <= bound * np.median(np.abs(ring))

    @pytest.mark.parametrize("cplus, centre, rings, match", [
        (lambda d: d, lambda E: 1.0, 3, "after 3 rings"),
        (lambda d: 1.0 + 1e-6 * d, None, 1, "left the search region")],
        ids=["max-iter", "left-region"])
    def test_failing_rings_raise_no_convergence(self, cplus, centre, rings,
                                                match, monkeypatch):
        # a centre member that never meets the certificate uses up
        # max_iter = 3 rings per ladder seed; a Newton point that leaves
        # 0.6 |E_start| (here a step of about 1e6) ends the seed after
        # its first ring
        _, start, centres = self._fake_rings(monkeypatch, cplus, centre)
        with pytest.raises(NoConvergence, match=match):
            find_resonance_ode((start, 0.1, 0.5), max_iter=3)
        assert len(centres) == 3 * rings

    @staticmethod
    def _counted_search(h, k, monkeypatch):
        """The search from criterion 5's BS seed with jost_cplus calls and
        ring solves counted, and the ladder seed where it settles."""
        calls, rings = [], []

        def counted(params, **kwargs):
            calls.append(params[0])
            return jost_cplus(params, **kwargs)

        def counted_ring(E_center, Es, h, nt):
            rings.append(E_center)
            return ring(E_center, Es, h, nt)

        ring = ode_oracle._jost_ring
        monkeypatch.setattr(ode_oracle, "jost_cplus", counted)
        monkeypatch.setattr(ode_oracle, "_jost_ring", counted_ring)
        E_bs, seed = _ladder_seed_above(h, k)
        rec = find_resonance_ode((E_bs, h, 0.5))
        return rec, calls, rings, seed

    @pytest.mark.parametrize("h, k", [(0.2, 2), (0.1, 4), (0.05, 8)])
    def test_no_jost_call_per_zero(self, h, k, monkeypatch):
        # no jost_cplus call at any h: the BS seed fails in the locator,
        # and the ladder seed above it makes one ring per centre
        rec, calls, rings, seed = self._counted_search(h, k, monkeypatch)
        assert abs(rec.lam - LAM_ODE[h]) <= 1e-9
        assert rec.residual <= 1e-8
        assert calls == []
        assert len(rings) == rec.iterations + 1
        assert rings[-1] == rec.E
        # the located eigenvalue, the first ring's centre member, already
        # meets the certificate: it is the zero, bit for bit
        assert rec.iterations == 0
        assert rec.E == locate_zero((seed, h, 0.5), 30)

    def test_noise_floor_search_at_one_blas_thread(self):
        # at h = 0.05, where the ring noise is closest to the certificate,
        # the search in a fresh interpreter at one BLAS thread certifies
        # the same zero on its first ring, with the same bits as here: the
        # locator's band solve rounds the same at every thread count
        src = str(Path(ode_oracle.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        code = ("from conires.ode_oracle import find_resonance_ode; "
                "from conires.quantization import solve_resonance; "
                "E = solve_resonance(8, 0.5, 0.05).E; "
                "r = find_resonance_ode((E, 0.05, 0.5)); "
                "print(repr(r.lam), repr(r.residual), r.iterations)")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        lam, residual, iterations = out.stdout.split()
        assert abs(complex(lam) - LAM_ODE[0.05]) <= 1e-9
        assert float(residual) <= 1e-8
        assert iterations == "0"
        here = find_resonance_ode((solve_resonance(8, 0.5, 0.05).E, 0.05,
                                   0.5))
        assert (lam, residual) == (repr(here.lam), repr(here.residual))

    @pytest.mark.parametrize("h, k", [(0.2, 2), (0.1, 4)])
    def test_centre_member_matches_jost_cplus(self, h, k):
        # the 17th ring member, the located eigenvalue on its own
        # contour, against a separate jost_cplus call there: to 1e-10
        # of the ring median (measured 5.5e-13 and 7.4e-12)
        E_c = locate_zero((_ladder_seed_above(h, k)[1], h, 0.5), 30)
        Es = np.append(E_c + 1e-4 * abs(E_c) * np.exp(
            2j * np.pi * np.arange(16) / 16), E_c)
        vals = ode_oracle._jost_ring(E_c, Es, h, 0.5)
        med = np.median(np.abs(vals[:-1]))
        ref = jost_cplus((E_c, h, 0.5)).c_plus
        assert abs(vals[-1] - ref) <= 1e-10 * med
        assert abs(vals[-1]) < 1e-8 * med

    def test_poor_start_recentres_the_ring(self, monkeypatch):
        # a ring centre 1e-3 |E| off the zero, ten ring radii, does not
        # enclose it; the rings re-centre on their Cauchy-sum Newton
        # points until a centre is certified
        E = cmath.exp((2.0 / 3.0) * cmath.log(LAM_ODE[0.1]))
        rings = []

        def off_zero(params, max_iter):
            return E + 1e-3 * abs(E) * cmath.exp(0.3j)

        def counted_ring(E_center, Es, h, nt):
            rings.append(E_center)
            return ring(E_center, Es, h, nt)

        ring = ode_oracle._jost_ring
        monkeypatch.setattr(ode_oracle, "locate_zero", off_zero)
        monkeypatch.setattr(ode_oracle, "_jost_ring", counted_ring)
        rec = find_resonance_ode((E, 0.1, 0.5))
        assert abs(rec.lam - LAM_ODE[0.1]) <= 1e-9
        assert rec.residual <= 1e-8
        assert len(rings) == rec.iterations + 1 >= 2
        assert rings[-1] == rec.E

    def test_failed_search_frees_its_seeds(self, monkeypatch):
        # with the cyclic collector off, nothing of a failed ladder seed
        # outlives the search: the raised error names every seed's
        # failure but holds none of their tracebacks
        class Probe:
            pass

        refs = []

        def failing(params, max_iter):
            probe = Probe()
            refs.append(weakref.ref(probe))
            raise NoConvergence(f"seed {params[0]:.6f} stalls")

        monkeypatch.setattr(ode_oracle, "locate_zero", failing)
        gc.disable()
        try:
            try:
                find_resonance_ode((2.0, 0.1, 0.5))
            except NoConvergence as exc:
                message = str(exc)
            alive = [ref() is not None for ref in refs]
        finally:
            gc.enable()
        assert alive == [False, False, False]
        assert message.count("stalls") == 3

    def test_refine_ode_through_sweep(self, ode_root):
        band = Band(2.0, 2.1, h=0.1, nu_tilde_max=0.5)
        recs = resonance_set(band, refine="ode")
        assert len(recs) == 1
        assert recs[0].method == "ode-oracle"
        assert abs(recs[0].lam - ode_root.lam) <= 1e-8


def _dense_shifted_operator(sigma, h, nu, N):
    """L - sigma M of spectral._shifted_operator as one dense matrix: the
    rows u(S) = 0 of both components, then the equation rows."""
    band, border, _ = spectral._shifted_operator(sigma, h, nu, N)
    A = np.zeros((2 * N, 2 * N), dtype=complex)
    A[0, 0::2] = A[1, 1::2] = 1.0
    A[2:, :2] = border
    r, b = np.indices((2 * N - 2, 2 * N - 2))
    inside = (r - b <= spectral._KL) & (b - r <= spectral._KU)
    A[2:, 2:][inside] = band[spectral._KL + spectral._KU + r[inside]
                             - b[inside], b[inside]]
    return A, band, border


class TestLocateZero:
    def test_bordered_solve_against_dense(self):
        # at N = 250, where bordering on the last coefficients leaves a
        # banded block of condition 5e16 to 9e16, the bordered solve of
        # the full system (condition 8e7 and 3e7) matches numpy's dense
        # solve to 1e-8 relative (measured 4e-10 and 2e-10), with a
        # backward error below 1e-11 (measured 1e-13 and 2e-14)
        N = 250
        sigma = 1.637184 - 0.024124j
        for nt in (0.5, 1.5):
            A, band, border = _dense_shifted_operator(sigma, 0.05,
                                                      nt * 0.05, N)
            rng = np.random.default_rng(7)
            rhs = rng.standard_normal(2 * N - 2) + 1j * rng.standard_normal(
                2 * N - 2)
            x = np.zeros((2 * N, 1), dtype=complex)
            x[2:, 0] = rhs
            got = spectral._bordered_solver(band.copy(order="F"),
                                            border)(x)
            b = np.concatenate(([0.0, 0.0], rhs))
            want = np.linalg.solve(A, b)
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(
                want), nt
            assert np.linalg.norm(A @ got - b) <= 1e-11 * np.linalg.norm(
                A, 2) * np.linalg.norm(got), nt

    @pytest.mark.parametrize("h, nt, sign", E_COLLOCATION)
    def test_matches_collocation(self, h, nt, sign):
        # the banded pencil locates these ladder zeros where the
        # collocation pencil did, to 1e-12 relative (measured 2e-15 to
        # 3.3e-13, the largest at h = 0.05)
        k = round((2.0 / (_SLOPE * h) - 5.0 + 4.0 * nt) / 8.0)
        lam = ode_oracle._lambda_of_E(solve_resonance(k, nt, h).E)
        seed = ode_oracle._E_of_lambda(lam + sign * 4.0 * _SLOPE * h)
        E = locate_zero((seed, h, nt), 30)
        assert abs(E - E_COLLOCATION[h, nt, sign]) <= 1e-12 * abs(E)

    def test_ridge_seed_fails_without_jost(self, monkeypatch):
        # inverse iteration at the BS root, halfway between two zeros,
        # does not settle in 30 solves (at h = 0.1 it is still 6e-2 from
        # the nearer zero) and fails typed; the ladder moves on, and the
        # ring solves that certify the zero make no jost_cplus call
        for h, k in ((0.2, 2), (0.1, 4), (0.05, 8)):
            with pytest.raises(NoConvergence):
                locate_zero((solve_resonance(k, 0.5, h).E, h, 0.5), 30)
            with monkeypatch.context() as mp:
                rec, calls, _, _ = TestFindResonance._counted_search(h, k,
                                                                     mp)
            assert abs(rec.lam - LAM_ODE[h]) <= 1e-9, h
            assert calls == [], h

    @pytest.mark.parametrize("h, k", [(0.2, 2), (0.1, 4)])
    def test_half_spacing_seeds(self, h, k):
        # the ladder's own seeds, half a spacing either side of the BS
        # root, each certify a zero within a few re-centred rings
        lam_bs = solve_resonance(k, 0.5, h).lam
        for sign, want in ((1, LAM_ODE[h]), (-1, LAM_BELOW[h])):
            E = cmath.exp((2.0 / 3.0) * cmath.log(
                lam_bs + sign * 4.0 * _SLOPE * h))
            rec = find_resonance_ode((E, h, 0.5))
            assert abs(rec.lam - want) <= 1e-9, sign
            assert rec.iterations <= 5, sign
            assert rec.residual <= 1e-8, sign

    def test_scaling_law(self):
        # the scaled problem is h-free at fixed Lambda = lambda/h, node
        # count included: the located Lambda agrees across h to 1e-12
        # relative (measured 6e-15) and is the certified zero of
        # LAM_ODE[0.1] to 1e-11 relative (measured 4.6e-13), the
        # locator's own precision at this Lambda
        lam_seed = 23.0 - 1.5j
        got = [cmath.exp(1.5 * cmath.log(locate_zero(
            (cmath.exp((2.0 / 3.0) * cmath.log(h * lam_seed)), h, 0.5),
            30))) / h for h in (0.2, 0.1, 0.05)]
        assert max(abs(g - got[0]) for g in got) <= 1e-12 * abs(got[0])
        assert abs(got[1] - LAM_ODE[0.1] / 0.1) <= 1e-11 * abs(got[1])


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

    @pytest.mark.parametrize("l, e_top", E_RADIAL)
    def test_matches_collocation(self, l, e_top):
        # the Galerkin levels are the collocation's to 1e-12 relative
        # (measured 5.9e-14 to 3.1e-13, the largest at l = 1, e_top = 25)
        got = pplus_eigen_oracle(l, 1.0, (0.5, e_top))
        want = E_RADIAL[l, e_top]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w

    @pytest.mark.parametrize("l, e_top, count, first, last", [
        (10, 30.0, 30, 9.272195567313675, 29.882565801896835),
        (200, 75.2, 29, 64.81950070344789, 74.93139604654071)])
    def test_large_l(self, l, e_top, count, first, last):
        # at large l the Gauss weights near x = -1 are tiny and the basis
        # there huge: the lowest and highest levels of the window agree
        # with the same collocation as E_RADIAL to 1e-12 relative
        # (measured 4e-16 to 5.5e-14)
        got = pplus_eigen_oracle(l, 1.0, (0.5, e_top))
        assert len(got) == count
        assert abs(got[0] - first) <= 1e-12 * first
        assert abs(got[-1] - last) <= 1e-12 * last

    @pytest.mark.parametrize("l", [1, 2])
    def test_coarse_fine_spread(self, monkeypatch, l):
        # the two solves agree to 1e-12 relative on every level up to
        # scaled e = 25 (26 levels for both l), not only to the 1e-10
        # the oracle demands (measured at most 2.8e-13)
        solve = ode_oracle._scaled_radial_levels
        runs = []
        monkeypatch.setattr(ode_oracle, "_scaled_radial_levels",
                            lambda l, S, Ns: runs.append(solve(l, S, Ns))
                            or runs[-1])
        for e_top in (4.0, 7.7, 11.0, 15.0, 20.0, 25.0):
            runs.clear()
            n = len(pplus_eigen_oracle(l, 1.0, (0.5, e_top)))
            [(coarse, fine)] = runs
            assert np.all(np.abs(coarse[:n] - fine[:n])
                          <= 1e-12 * fine[:n]), e_top
        assert n == 26

    @pytest.mark.parametrize("l", [1, 2])
    def test_rayleigh_ritz_from_above(self, l):
        # the space of N basis functions lies inside that of N + 4 and
        # both matrices are exact, so no level of the smaller one lies
        # below its twin: from 20 functions, where the levels near
        # e = 25 are off by O(1), to the 160 of the oracle's finer solve
        # at e_top = 25.  Rounding moves converged levels by up to a few
        # hundred ulps (measured at most 3.7e-13 relative), which the
        # 1e-12 allows
        Ns = range(20, 164, 4)
        runs = ode_oracle._scaled_radial_levels(l, 50.0, Ns)
        for N, prev, cur in zip(Ns[1:], runs, runs[1:]):
            n = min(len(prev), 26)
            assert np.all(prev[:n] >= cur[:n] * (1.0 - 1e-12)), N
        assert runs[-1][25] < 25.0 < runs[-1][26]

    @pytest.mark.parametrize("perturb", [
        lambda e, N, fine: e * (1.0 + 1e-9 * N),  # values drift with N
        lambda e, N, fine: e[1:] if N == fine else e,  # finer one drops one
    ], ids=["drift", "dropped-level"])
    def test_node_count_disagreement_raises(self, monkeypatch, perturb):
        h, window = 0.01, (0.01, 0.30)
        _, Ns = _oracle_nodes(window[1] / h ** (2.0 / 3.0))
        solve = ode_oracle._scaled_radial_levels
        seen = []

        def perturbed(l, S, Ns):
            seen.append(tuple(Ns))
            return [perturb(e, N, Ns[1])
                    for e, N in zip(solve(l, S, Ns), Ns)]

        monkeypatch.setattr(ode_oracle, "_scaled_radial_levels", perturbed)
        with pytest.raises(ConvergenceFailure):
            pplus_eigen_oracle(1, h, window)
        assert seen == [Ns]

    @pytest.mark.parametrize("e_top", sorted({e for _, e in E_RADIAL}
                                             | {30.0, 75.2}))
    @pytest.mark.parametrize("l", [1, 2, 5, 10, 200])
    def test_one_pass_matches_separate_solves(self, l, e_top):
        # one recurrence over both node sets gives every level the bits
        # of a recurrence per family and basis size, at the oracle's
        # basis sizes for the E_RADIAL and test_large_l windows
        S, Ns = _oracle_nodes(e_top)
        for N, got in zip(Ns, ode_oracle._scaled_radial_levels(l, S, Ns)):
            assert np.array_equal(got, _radial_levels_one_n(l, S, N)), N
