"""Tests for the resonance lattice, the Newton solve of the quantization
condition, the band sweep, and the scalar-operator level predictions.

The lattice literals below are plain arithmetic, written out by hand from
the Re/Im formulas; Newton roots are validated against the exponential
form of the condition (|e^A + 1| = 0 at a root) and against two
independent differencing schemes for analyticity.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conires.actions import action_S12
from conires.errors import ConiresError, EmptyBand, NoConvergence
from conires import quantization
from conires.quantization import (
    Band,
    ResonanceRecord,
    bs_residual,
    lattice,
    lattice_point,
    pplus_levels,
    resonance_set,
    solve_resonance,
)


def _k_near(lam, nu_tilde, h):
    """Branch index whose lattice Re part lands nearest to lam."""
    return round((lam / h / (3 * math.pi / 16) - 5 + 4 * nu_tilde) / 8)


class TestBand:
    def test_valid(self):
        b = Band(1.0, 4.0, h=0.01, nu_tilde_max=2.5)
        assert b.a == 1.0 and b.nu_tilde_max == 2.5

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Band(0.0, 4.0)
        with pytest.raises(ValueError):
            Band(2.0, 1.0)

    def test_invalid_extras(self):
        with pytest.raises(ValueError):
            Band(1.0, 4.0, h=-0.1)
        with pytest.raises(ValueError):
            Band(1.0, 4.0, nu_tilde_max=0.2)


class TestLatticePoint:
    def test_reference_values(self):
        # (3 pi/16)(8*100 - 6 + 5) * 0.01 and -(3/8) h ln(2 lam/(pi nt^2))
        lam = lattice_point(100, 1.5, 0.01)
        assert abs(lam.real - 4.7065) <= 2e-4
        assert abs(lam.imag + 0.018343) <= 2e-5

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=3, max_value=300),
        nt=st.sampled_from([0.5, 1.5, 2.5, 3.5]),
        h=st.floats(min_value=1e-3, max_value=0.5),
    )
    def test_spacing_and_shift(self, k, nt, h):
        base = lattice_point(k, nt, h).real
        assert abs(lattice_point(k + 1, nt, h).real - base
                   - 1.5 * math.pi * h) <= 1e-12 * max(1.0, base)
        assert abs(lattice_point(k, nt + 1, h).real - base
                   + 0.75 * math.pi * h) <= 1e-12 * max(1.0, base)

    def test_missing_branch_rejected(self):
        # 8k + 5 - 4 nt <= 0 has no lattice point
        with pytest.raises(ValueError):
            lattice_point(0, 5.5, 0.01)

    def test_imaginary_part_sign_flips_when_formula_leaves_regime(self):
        # Im < 0 in the semiclassical band; the formula crosses zero when
        # 2 lam_k = pi nt^2, which the Figure-1 corner reaches.
        assert lattice_point(42, 0.5, 0.01).imag < 0
        assert lattice_point(11, 5.5, 1.0).imag > 0


class TestLattice:
    def test_band_membership_and_count(self):
        h = 0.01
        recs = lattice(0.5, h, (1.0, 4.0))
        assert all(1.0 < r.lam.real < 4.0 for r in recs)
        expect = (4.0 - 1.0) / (1.5 * math.pi * h)
        assert abs(len(recs) - expect) <= 1.0
        ks = [r.k for r in recs]
        assert ks == list(range(ks[0], ks[0] + len(ks)))

    def test_record_fields(self):
        rec = lattice(1.5, 0.02, (1.0, 2.0))[0]
        assert rec.method == "lattice"
        assert rec.iterations == 0
        assert math.isnan(rec.residual)
        assert rec.lam == rec.lambda_lat
        assert abs(rec.E ** 1.5 - rec.lam) <= 1e-12 * abs(rec.lam)

    def test_empty_band(self):
        with pytest.raises(EmptyBand):
            lattice(0.5, 0.9, (1.0, 1.05))

    def test_band_object_h_argument_wins(self):
        band = Band(1.0, 4.0, h=0.5, nu_tilde_max=0.5)
        recs = lattice(0.5, 0.01, band)
        assert abs(len(recs) - 3.0 / (1.5 * math.pi * 0.01)) <= 1.0

    def test_serialization_shape(self):
        d = lattice(0.5, 0.02, (1.0, 2.0))[0].as_dict()
        assert set(d) == {"k", "nu_tilde", "lambda_lat", "lambda", "E",
                          "method", "residual", "iterations"}
        assert d["residual"] is None
        assert set(d["lambda"]) == {"re", "im"}


class TestBsResidual:
    def test_nearest_branch_imag_in_principal_window(self):
        r = bs_residual(2.0 - 0.02j, (0.01, 0.5))
        assert -math.pi < r.imag <= math.pi

    def test_two_differencing_schemes_agree(self):
        # real-direction and imaginary-direction difference quotients
        # agree only for an analytic function (Cauchy-Riemann).
        E = 2.0 - 0.02j
        d = 1e-6
        p = (0.01, 0.5)
        fr = (bs_residual(E + d, p, k=42) - bs_residual(E - d, p, k=42)) / (2 * d)
        fi = (bs_residual(E + 1j * d, p, k=42)
              - bs_residual(E - 1j * d, p, k=42)) / (2j * d)
        assert abs(fr - fi) <= 1e-6 * abs(fr)

    def test_residual_at_lattice_seed_shrinks_with_h(self):
        vals = []
        for h in (0.02, 0.01, 0.005):
            k = _k_near(2.0, 0.5, h)
            lam = lattice_point(k, 0.5, h)
            E = cmath.exp((2.0 / 3.0) * cmath.log(lam))
            vals.append(abs(bs_residual(E, (h, 0.5), k=k)))
        assert vals[0] > vals[1] > vals[2]

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            bs_residual(2.0, (-0.1, 0.5))
        with pytest.raises(ValueError):
            bs_residual(2.0, (0.1, 0.0))


class TestSolveResonance:
    def test_converged_root(self):
        rec = solve_resonance(42, 0.5, 0.01)
        assert rec.method == "bs-newton"
        assert rec.residual <= 1e-10
        assert rec.lam.imag < 0
        assert 1 <= rec.iterations <= 50
        # exponential form of the condition at the root
        r = bs_residual(rec.E, (0.01, 0.5), k=42, tol=1e-13)
        assert abs(cmath.exp(r + 1j * math.pi * 85) + 1) <= 1e-9

    def test_branch_consistency(self):
        rec = solve_resonance(21, 1.5, 0.02)
        r = bs_residual(rec.E, (0.02, 1.5), k=21)
        assert abs(r.imag) < math.pi / 4

    def test_gap_shrinks_faster_than_h(self):
        gaps = []
        for h in (0.02, 0.01, 0.005):
            rec = solve_resonance(_k_near(2.0, 0.5, h), 0.5, h)
            gaps.append(abs(rec.lam - rec.lambda_lat))
        assert gaps[1] / gaps[0] < 0.9 * 0.5
        assert gaps[2] / gaps[1] < 0.9 * 0.5
        assert gaps[2] <= 0.5 * 0.005

    def test_custom_seed_reaches_same_root(self):
        a = solve_resonance(42, 0.5, 0.01)
        b = solve_resonance(42, 0.5, 0.01, seed=a.E * (1 + 1e-3))
        assert abs(a.lam - b.lam) <= 1e-9

    def test_no_convergence_reported(self):
        with pytest.raises(NoConvergence):
            solve_resonance(42, 0.5, 0.01, max_iter=1)

    def test_carlson_gap_is_typed_failure(self):
        # Newton from this lattice seed reaches an E where scipy's R_J has
        # no value; the failure must be a package error, not a TypeError
        with pytest.raises(ConiresError):
            solve_resonance(1, 2.5, 0.1)

    def test_non_finite_iterate_is_no_convergence(self, monkeypatch):
        # a nan slope sends every seed's first step to E = nan
        real = quantization._A_and_dE
        monkeypatch.setattr(quantization, "_A_and_dE", lambda E, h, nt: (
            real(E, h, nt)[0], complex(math.nan)))
        with pytest.raises(NoConvergence):
            solve_resonance(42, 0.5, 0.01)

    def test_non_finite_iterate_moves_to_next_seed(self, monkeypatch):
        # a nan slope on the very first iterate abandons the lattice
        # seed; the real-axis seed still converges
        real = quantization._A_and_dE
        calls = []

        def first_nan(E, h, nt):
            calls.append(E)
            a, dr = real(E, h, nt)
            return (a, complex(math.nan)) if len(calls) == 1 else (a, dr)

        monkeypatch.setattr(quantization, "_A_and_dE", first_nan)
        rec = solve_resonance(42, 0.5, 0.01)
        assert rec.residual <= 1e-10
        assert abs(rec.lam - solve_resonance(42, 0.5, 0.01).lam) <= 1e-9

    def test_deterministic(self):
        assert solve_resonance(30, 2.5, 0.015) == solve_resonance(30, 2.5, 0.015)


class TestResonanceSet:
    BAND = Band(1.0, 4.0, h=0.02, nu_tilde_max=2.5)

    def test_counts_per_family(self):
        recs = resonance_set(self.BAND)
        per = {}
        for r in recs:
            per[r.nu_tilde] = per.get(r.nu_tilde, 0) + 1
        expect = 3.0 / (1.5 * math.pi * 0.02)
        assert set(per) == {0.5, 1.5, 2.5}
        assert all(abs(n - expect) <= 1.0 for n in per.values())

    def test_all_converged_below_axis(self):
        recs = resonance_set(self.BAND)
        assert all(r.residual <= 1e-10 for r in recs)
        assert all(r.lam.imag < 0 for r in recs)

    def test_no_duplicates(self):
        recs = resonance_set(self.BAND)
        lams = [r.lam for r in recs]
        for i, a in enumerate(lams):
            for b in lams[i + 1:]:
                assert abs(a - b) >= 1e-8

    def test_imag_magnitude_decreases_with_family_index(self):
        recs = resonance_set(self.BAND)
        byk = {}
        for r in recs:
            byk.setdefault(r.k, {})[r.nu_tilde] = abs(r.lam.imag)
        for k, fam in byk.items():
            if len(fam) == 3:
                assert fam[0.5] > fam[1.5] > fam[2.5]

    def test_failures_collected_not_raised(self):
        recs, fails = resonance_set(self.BAND, max_iter=1,
                                    return_failures=True)
        assert recs == []
        assert len(fails) > 0
        assert fails[0].error.startswith("NoConvergence")

    def test_lattice_mode(self):
        recs = resonance_set(Band(1.0, 4.0, h=0.01, nu_tilde_max=5.5),
                             refine="lattice")
        assert all(r.method == "lattice" for r in recs)
        assert len({r.nu_tilde for r in recs}) == 6

    def test_missing_sweep_parameters(self):
        with pytest.raises(ValueError):
            resonance_set(Band(1.0, 4.0))

    def test_unknown_refine(self):
        with pytest.raises(ValueError):
            resonance_set(self.BAND, refine="magic")

    def test_empty_band(self):
        with pytest.raises(EmptyBand):
            resonance_set(Band(1.0, 1.01, h=0.9, nu_tilde_max=0.5))


class TestPplusLevels:
    def test_reference_bracket_value(self):
        # (3 pi/4)(1 - sqrt(3)/2) * 0.01 = 0.0031567; E is its 2/3 power
        (E,) = pplus_levels(0.01, 1, [0])
        assert abs(E ** 1.5 - 0.0031567) <= 2e-7
        assert abs(E - 0.021519) <= 2e-6

    def test_l_zero_rejected(self):
        with pytest.raises(ValueError):
            pplus_levels(0.01, 0, range(3))

    def test_non_integer_l_rejected(self):
        # not truncated to the l = 1 levels
        with pytest.raises(ValueError):
            pplus_levels(0.01, 1.7, range(3))

    def test_bool_l_rejected(self):
        with pytest.raises(ValueError):
            pplus_levels(0.01, True, range(3))

    def test_bracket_filter(self):
        # l=2: 2k+1 must exceed sqrt(3.75) = 1.936, so k=0 drops out
        vals = pplus_levels(0.01, 2, range(3))
        assert len(vals) == 2
        full = pplus_levels(0.01, 1, range(3))
        assert len(full) == 3

    def test_exact_h_scaling(self):
        a = pplus_levels(0.01, 1, range(4))
        b = pplus_levels(0.02, 1, range(4))
        for x, y in zip(a, b):
            assert abs(y / x - 2.0 ** (2.0 / 3.0)) <= 1e-12

    def test_monotone_in_k(self):
        vals = pplus_levels(0.01, 1, range(6))
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bs_residual_small_at_regime_interior_levels(self):
        # Only levels whose mu stays below the turning-point merge have a
        # barrier action; there |e^{2 S12/h} + 1| is small and exactly
        # h-independent (the radial problem scales as E = e h^{2/3}).
        mods = []
        for h in (0.02, 0.01):
            levels = pplus_levels(h, 1, range(1, 3))
            for E in levels:
                s12 = action_S12(E, h, 1).value
                mods.append(abs(cmath.exp(2.0 * s12 / h) + 1.0))
        assert all(m < 0.3 for m in mods)
        assert abs(mods[0] - mods[2]) <= 1e-6
        assert abs(mods[1] - mods[3]) <= 1e-6
