"""Tests for model parameters, the turning-point cubic, and symbol branches.

Independent oracles used here: companion-matrix eigenvalues (np.roots) for
cubic roots, frozen as literals for fixed parameter points and called live
inside property tests.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conires import model, quantization
from conires.errors import TurningPointProximity
from conires.model import (
    ModelParams,
    SymbolBranch,
    cubic_roots,
    default_symbol_path,
    discriminant,
    turning_points,
)
from conires.quantization import Band, resonance_set, solve_resonance
from conftest import companion_cubic_roots


class TestModelParams:
    def test_valid(self):
        p = ModelParams(E=2.0, h=0.1, nu_tilde=2.5)
        assert p.nu == 0.25
        assert p.E == 2.0 + 0.0j

    @pytest.mark.parametrize("h", [0.0, -0.1, math.inf, math.nan])
    def test_bad_h(self, h):
        with pytest.raises(ValueError):
            ModelParams(E=1.0, h=h, nu_tilde=0.5)

    @pytest.mark.parametrize("nt", [1.0, 2.0, 0.0, -0.5, 0.5001, 1.4999])
    def test_bad_nu_tilde(self, nt):
        with pytest.raises(ValueError):
            ModelParams(E=1.0, h=0.1, nu_tilde=nt)

    @pytest.mark.parametrize("nt", [0.5 + 2e-10, 1.5 - 5e-11, math.inf])
    def test_half_integer_rule_shared_with_frobenius(self, nt):
        # ModelParams holds the same half-integer rule as the Frobenius
        # start, so nothing it accepts is refused further down the line
        with pytest.raises(ValueError, match="half-integer"):
            ModelParams(E=1.6, h=0.1, nu_tilde=nt)

    def test_frozen(self):
        p = ModelParams(E=1.0, h=0.1, nu_tilde=0.5)
        with pytest.raises(Exception):
            p.h = 0.2


class TestDiscriminant:
    def test_direct_value(self):
        # nu^2 (4 E^3 - 27 nu^2) at E = 2, nu = 1/2
        assert abs(discriminant(2.0, 0.5) - 0.25 * (32.0 - 27.0 * 0.25)) < 1e-14

    def test_zero_at_critical_coupling(self):
        E = 1.5
        nu = math.sqrt(4.0 * E ** 3 / 27.0)
        assert abs(discriminant(E, nu)) < 1e-13


class TestCubicRoots:
    def test_reference_point(self):
        # E = 2, nu = 1/2: roots near 0.0669, 1.6054, 2.3277
        cr = cubic_roots(2.0, 0.5)
        want = [0.0669, 1.6054, 2.3277]
        assert not cr.degenerate
        for got, ref in zip(cr.roots, want):
            assert abs(got - ref) < 1e-3
            assert abs(got.imag) < 1e-12

    def test_companion_matrix_frozen(self):
        # np.roots values at two fixed parameter points, 16 digits
        cases = {
            (3.7, 0.9): [0.06117335309797028, 3.196618682919258,
                         4.142207963982767],
            (1.3, 0.2): [0.02459010759415592, 1.110184145087157,
                         1.465225747318685],
        }
        for (E, nu), want in cases.items():
            cr = cubic_roots(E, nu)
            for got, ref in zip(cr.roots, want):
                assert abs(got - ref) < 1e-12

    @given(st.floats(min_value=0.5, max_value=4.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_real_E_properties(self, E, nu):
        cr = cubic_roots(E, nu)
        scale = 1e-12 * max(1.0, abs(E) ** 3)
        x0, x1, x2 = cr.roots
        # residuals
        for x in cr.roots:
            assert abs(x ** 3 - 2 * E * x ** 2 + E ** 2 * x - nu ** 2) <= scale
        # Vieta (sum and product; the pairwise sum is ill-conditioned near
        # double roots and is not part of the contract)
        assert abs(x0 + x1 + x2 - 2 * E) <= 1e-12
        assert abs(x0 * x1 * x2 - nu ** 2) <= 1e-12

    @given(st.floats(min_value=0.2, max_value=2 * math.pi - 0.2),
           st.floats(min_value=0.5, max_value=4.0),
           st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_complex_E_properties(self, phase, mod, nu):
        E = mod * complex(math.cos(phase), math.sin(phase))
        cr = cubic_roots(E, nu)
        scale = 1e-12 * max(1.0, abs(E) ** 3)
        for x in cr.roots:
            assert abs(x ** 3 - 2 * E * x ** 2 + E ** 2 * x - nu ** 2) <= 10 * scale
        # root multiset matches the companion-matrix oracle
        oracle = companion_cubic_roots(E, nu)
        got = np.array(sorted(cr.roots, key=lambda z: (z.real, z.imag)))
        assert np.max(np.abs(got - oracle)) < 1e-9 * max(1.0, abs(E))

    @given(st.floats(min_value=0.5, max_value=3.0),
           st.floats(min_value=0.05, max_value=0.3))
    @settings(max_examples=30, deadline=None)
    def test_reality_equivalence(self, E, nu):
        d3 = discriminant(E, nu)
        if abs(d3) < 1e-6:
            return
        cr = cubic_roots(E, nu)
        all_real = max(abs(x.imag) for x in cr.roots) < 1e-10
        assert all_real == (d3.real > 0)

    def test_limit_law(self):
        # r0(nu)/nu -> 1/E as nu -> 0+
        E = 2.0
        for nu in [1e-3, 1e-4, 1e-5]:
            tp = turning_points(E, nu)
            assert abs(tp.r0 * E / nu - 1.0) < 10.0 * nu

    def test_degenerate_flag(self):
        E = 1.5
        nu = math.sqrt(4.0 * E ** 3 / 27.0)
        cr = cubic_roots(E, nu)
        assert cr.degenerate
        for x in cr.roots:
            assert abs(x ** 3 - 2 * E * x ** 2 + E ** 2 * x - nu ** 2) < 1e-10

    def test_nu_zero(self):
        cr = cubic_roots(2.0, 0.0)
        assert cr.degenerate
        got = sorted(abs(x) for x in cr.roots)
        assert got[0] < 1e-14 and abs(got[1] - 2.0) < 1e-12

    def test_continuation_continuity(self):
        # labels move continuously as Im E grows
        prev = cubic_roots(2.0, 0.5).roots
        for im in np.linspace(-0.01, -0.4, 25):
            cur = cubic_roots(2.0 + 1j * im, 0.5).roots
            for a, b in zip(prev, cur):
                assert abs(a - b) < 0.1
            prev = cur

    def test_non_finite_energy_rejected(self):
        for E in (complex(math.nan, 0.0), complex(1.0, math.inf)):
            with pytest.raises(ValueError):
                cubic_roots(E, 0.5)

    def test_non_finite_discriminant_is_degenerate_error(self):
        # past nu ~ 5e76 the 27 nu^4 term overflows to inf without raising:
        # a typed error, not three nan roots; just below, the roots stand
        for E, nu in ((1.0, 1e78), (1.0, 6e76), (1e50, 1e100)):
            assert not np.isfinite(discriminant(E, nu))
            with pytest.raises(TurningPointProximity,
                               match="discriminant leaves the floating"):
                cubic_roots(E, nu)
        assert np.isfinite(discriminant(1.0, 5e76))
        assert all(np.isfinite(x) for x in cubic_roots(1.0, 5e76).roots)

    def test_negative_real_part_falls_back(self):
        cr = cubic_roots(-1.0 + 0.5j, 0.3)
        assert cr.degenerate  # modulus-ordered labels flagged as unlabeled
        assert abs(cr.roots[0]) <= abs(cr.roots[1]) <= abs(cr.roots[2])

    def test_negligible_energy_falls_back(self):
        # |mu| = nu |E|^{-3/2} near 1e449: the closed-form labels would
        # overflow, and E is far below the roundoff of the roots
        cr = cubic_roots(1e-300 + 1e-300j, 0.1)
        assert cr.degenerate
        assert abs(cr.roots[0]) <= abs(cr.roots[1]) <= abs(cr.roots[2])


_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def _match(prev, cand):
    """Permutation of cand minimizing total displacement from prev."""
    best = min(_PERMS, key=lambda perm: sum(
        abs(prev[i] - cand[perm[i]]) for i in range(3)))
    return [cand[best[i]] for i in range(3)]


def _reference_roots(E, nu, n=4096):
    """Labels of cubic_roots by brute force: n uniform steps from the
    real anchor to E, each matched to the last by least total displacement
    over all six permutations, then polished as cubic_roots polishes."""
    cur = model._cardano_labeled(complex(E.real), nu)
    for j in range(1, n + 1):
        E_j = E if j == n else complex(E.real, E.imag * j / n)
        cur = _match(cur, model._cardano_any(E_j, nu))
    return tuple(complex(x) for x in model._polish(cur, E, nu))


def _e_c(nu):
    """Real branch point (27 nu^2 / 4)^{1/3}, where x1 and x2 collide."""
    return (6.75 * nu * nu) ** (1.0 / 3.0)


class TestContinuation:
    """The closed-form labels are those of the step-by-step continuation
    from the real axis, bit for bit, in both half-planes."""

    @pytest.mark.parametrize("nu", [0.002, 0.0075, 0.015])
    def test_matches_uniform_match_reference(self, nu):
        e_c = _e_c(nu)
        for re in (0.5 * e_c, 0.98 * e_c, 1.02 * e_c, 1.0, 3.9):
            for im in (-1e-4, -0.02, -0.4, 1e-4, 0.02, 0.4):
                E = complex(re, im)
                cr = cubic_roots(E, nu)
                assert not cr.degenerate
                assert cr.roots == _reference_roots(E, nu), E

    @given(st.floats(min_value=-4.0, max_value=0.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=-6.0, max_value=0.5),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_closed_form_labels_match_reference(self, lg_nu, lg_re, lg_im,
                                                above):
        # Re E from E_c/10 to 10 E_c puts |mu| = nu |E|^{-3/2} on both
        # sides of the critical coupling; the reference needs its 4096
        # steps to stay short of the root separation, which shrinks to 0
        # at the branch point E_c
        assume(abs(lg_re) >= 1e-3)
        nu = 10.0 ** lg_nu
        e_c = _e_c(nu)
        E = complex(e_c * 10.0 ** lg_re,
                    (1.0 if above else -1.0) * e_c * 10.0 ** lg_im)
        cr = cubic_roots(E, nu)
        assume(not cr.degenerate)
        assert cr.roots == _reference_roots(E, nu), E

    @pytest.mark.parametrize("nu", [0.002, 0.0075])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_labels_next_to_branch_point(self, nu, side):
        # a vertical path from Re E within 1e-6 of E_c starts next to the
        # double root, where a step-by-step continuation runs out of step
        # size; the closed form labels E all the same, continuous with the
        # labels 1e-3 away
        e_c = _e_c(nu)
        near = cubic_roots(complex(e_c * (1.0 + side * 1e-6), -0.5), nu)
        far = cubic_roots(complex(e_c * (1.0 + side * 1e-3), -0.5), nu)
        assert not near.degenerate and not far.degenerate
        sep = min(abs(a - b) for i, a in enumerate(far.roots)
                  for b in far.roots[i + 1:])
        for a, b in zip(near.roots, far.roots):
            assert abs(a - b) < 0.1 * sep

    @pytest.mark.parametrize("nu", [0.1, 1.0])
    def test_labels_continuous_to_tiny_real_part(self, nu):
        # below the real axis the labels are analytic in E down to
        # Re E -> 0+, also where Re E falls below the roundoff of the
        # roots and the real-axis labels are picked by rounding
        e_c = _e_c(nu)
        prev = None
        for f in np.logspace(math.log10(0.5), -30, 300):
            cur = cubic_roots(complex(f * e_c, -0.1 * e_c), nu)
            assert not cur.degenerate
            if prev is not None:
                sep = min(abs(a - b) for i, a in enumerate(cur.roots)
                          for b in cur.roots[i + 1:])
                for a, b in zip(cur.roots, prev.roots):
                    assert abs(a - b) < 0.3 * sep, f
            prev = cur

    def _count_cardano(self, monkeypatch):
        calls = [0]
        real = model._cardano_any

        def counted(E, nu):
            calls[0] += 1
            return real(E, nu)

        monkeypatch.setattr(model, "_cardano_any", counted)
        return calls

    def test_one_cardano_solve_per_newton_iterate(self, monkeypatch):
        calls = self._count_cardano(monkeypatch)
        per_iterate = []
        real = quantization._A_and_dE

        def counted(*args):
            before = calls[0]
            out = real(*args)
            per_iterate.append(calls[0] - before)
            return out

        monkeypatch.setattr(quantization, "_A_and_dE", counted)
        for k, nt, h in ((40, 0.5, 0.005), (60, 2.5, 0.004), (25, 1.5, 0.006)):
            per_iterate.clear()
            rec = solve_resonance(k, nt, h)
            assert rec.iterations >= 3
            assert per_iterate == [1] * rec.iterations

    def test_sweep_cardano_solves_per_root(self, monkeypatch):
        # continuing every iterate from the real axis costs 21.6 per root
        calls = self._count_cardano(monkeypatch)
        recs = resonance_set(Band(1, 4, h=0.005, nu_tilde_max=2.5))
        assert len(recs) == 381
        assert calls[0] / len(recs) <= 4.0


class TestTurningPoints:
    def test_reference_point(self):
        tp = turning_points(2.0, 0.5)
        want = [0.2587, 1.2670, 1.5257]
        for got, ref in zip(tp.r, want):
            assert abs(got - ref) < 1e-3
        assert not tp.degenerate

    def test_square_root_halfplane(self):
        tp = turning_points(2.0 - 0.3j, 0.5)
        for r, x in zip(tp.r, tp.x_roots):
            assert r.real >= 0
            assert abs(r * r - x) < 1e-12

    def test_ordering_real_case(self):
        tp = turning_points(2.0, 0.5)
        r0, r1, r2 = (z.real for z in tp.r)
        sqE = math.sqrt(2.0)
        assert 0 < r0 < r1 < sqE < r2


class TestSymbolBranch:
    PARAMS = ModelParams(E=2.0, h=0.1, nu_tilde=2.5)  # nu = 1/4

    def _intervals(self):
        tp = turning_points(self.PARAMS.E, self.PARAMS.nu)
        r0, r1, r2 = (z.real for z in tp.r)
        return tp, [0.5 * r0, 0.5 * (r0 + r1), 0.5 * (r1 + r2), r2 + 0.5]

    def test_sqrt_gg_interval_branches(self):
        tp, xs = self._intervals()
        # real positive, +i R+, real positive, +i R+
        for x, imag in zip(xs, [False, True, False, True]):
            b = SymbolBranch(tp)
            b.advance_along(default_symbol_path(tp, x).vertices[1:])
            v = complex(b.sqrt_gg_at([x])[0])
            if imag:
                assert v.imag > 0 and abs(v.real) < 1e-12 * abs(v)
            else:
                assert v.real > 0 and abs(v.imag) < 1e-12 * abs(v)
            gg = (self.PARAMS.nu ** 2 - x ** 2 *
                  (self.PARAMS.E - x ** 2) ** 2) / x ** 2
            assert abs(v * v - gg) < 1e-10 * max(1.0, abs(gg))

    def test_errors(self):
        # at the critical coupling of E = 2 the turning points r1, r2
        # coincide, and the branch is not defined
        nu_crit = math.sqrt(4.0 * 8.0 / 27.0)
        with pytest.raises(TurningPointProximity):
            SymbolBranch(turning_points(2.0, nu_crit))

    def _loop_around_r0(self, b, x_base):
        # counterclockwise rectangle around r0 alone, from x_base back to it
        r0 = b.points[0].real
        s = 0.4 * min(r0, x_base - r0)
        b.advance_along([x_base + 1j * s, r0 - s + 1j * s, r0 - s - 1j * s,
                         x_base - 1j * s, x_base])

    def test_winding_accumulates(self):
        # a loop around r0 alone adds 2 pi to the argument of x - r0 and
        # leaves the other five factors
        tp, xs = self._intervals()
        b = SymbolBranch(tp, xs[1])
        args0 = b.args.copy()
        self._loop_around_r0(b, xs[1])
        winding = (b.args - args0) / (2.0 * math.pi)
        assert np.allclose(winding, [1, 0, 0, 0, 0, 0], atol=1e-14)

    def test_square_root_sign_flips_after_loop(self):
        tp, xs = self._intervals()
        b = SymbolBranch(tp, xs[1])
        before = complex(b.sqrt_gg_at([xs[1]])[0])
        self._loop_around_r0(b, xs[1])
        after = complex(b.sqrt_gg_at([xs[1]])[0])
        assert abs(after + before) < 1e-14 * abs(before)

    def test_segment_touching_turning_point_rejected(self):
        tp, xs = self._intervals()
        b = SymbolBranch(tp, xs[0])
        with pytest.raises(ValueError):
            b.advance(xs[1])  # straight through r0
        with pytest.raises(ValueError):
            SymbolBranch(tp).advance(tp.r0)

    def test_anchor_must_be_positive(self):
        # x0 x1 x2 = nu^2 > 0 makes both products positive at x = 0; turning
        # points without that identity cannot anchor the branch
        tp = model.TurningPoints((), (1j, 2.0 + 0j, 3.0 + 0j), 1.0, False)
        with pytest.raises(ValueError):
            SymbolBranch(tp)

    def test_clone_is_independent(self):
        tp, xs = self._intervals()
        b = SymbolBranch(tp, xs[0])
        c = b.clone()
        c.advance(xs[0] + 0.1j)
        assert b.at == xs[0] and c.at == xs[0] + 0.1j
        assert np.array_equal(b.args, SymbolBranch(tp, xs[0]).args)
