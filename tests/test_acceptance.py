"""End-to-end acceptance checks, one test per criterion.

Each test exercises a full pipeline slice at its stated tolerances and
prints a single summary line, ACCEPTANCE <n> <name>: PASS or FAIL,
with the headline measurements, before asserting.  Criterion 6
contains clauses that the radial problem itself contradicts: the exact
h^{2/3} scaling makes the oracle-vs-prediction error shrink by exactly
2^{-2/3} per h-halving (never faster than h) and makes the barrier
residual exactly h-independent (never decreasing), and at l = 2 the
thin-barrier residual modulus sits near 0.51, above the stated 0.3
bound.  Those clauses are implemented as stated; the test reports the
measured values when it fails.
"""

import cmath
import csv
import math
import time

import numpy as np

from conires.actions import (
    action_I,
    action_Iplus,
    action_S12,
    residue_R,
    tunnel_T,
)
from conires.cli import main as cli_main
from conires.model import ModelParams, turning_points
from conires.ode_oracle import (
    find_resonance_ode,
    frobenius_init,
    integrate_system,
    jost_cplus,
    pplus_eigen_oracle,
)
from conires.quantization import (
    Band,
    lattice,
    pplus_levels,
    resonance_set,
    solve_resonance,
)
from conires.wkb import amplitude_recurrence, branching_R, origin_series


def _report(capsys, number, name, checks, elapsed, limit):
    checks = list(checks) + [
        (elapsed < limit, f"runtime {elapsed:.1f}s (limit {limit:.0f}s)")]
    bad = [msg for ok, msg in checks if not ok]
    verdict = "PASS" if not bad else "FAIL"
    detail = "; ".join(msg for _, msg in checks)
    # Bypass capture so the verdict line reaches the terminal even when
    # the test passes.
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {verdict} ({detail})")
    assert not bad, f"criterion {number} failed: " + "; ".join(bad)


def test_criterion_1_turning_point_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260825)
    n = 10_000
    worst_res = worst_vieta = 0.0
    reality_ok = True
    for i in range(n):
        E = rng.uniform(0.2, 4.0)
        crit = math.sqrt(4.0 * E ** 3 / 27.0)
        u = rng.uniform(0.05, 0.95) if i % 2 == 0 else rng.uniform(1.05, 3.0)
        nu = u * crit
        tp = turning_points(E, nu)
        x = [complex(v) for v in tp.x_roots]
        for xv in x:
            worst_res = max(worst_res, abs(
                ((xv - 2.0 * E) * xv + E * E) * xv - nu * nu))
        worst_vieta = max(
            worst_vieta,
            abs(sum(x) - 2.0 * E),
            abs(x[0] * x[1] + x[0] * x[2] + x[1] * x[2] - E * E),
            abs(x[0] * x[1] * x[2] - nu * nu),
        )
        all_real = max(abs(xv.imag) for xv in x) < 1e-10 * max(1.0, E)
        if all_real != (tp.D3.real > 0.0):
            reality_ok = False
    elapsed = time.perf_counter() - t0
    _report(capsys, 1, "turning-point suite", [
        (worst_res <= 1e-12, f"max root residual {worst_res:.2e}"),
        (worst_vieta <= 1e-12, f"max Vieta defect {worst_vieta:.2e}"),
        (reality_ok, "discriminant/reality equivalence exact"),
    ], elapsed, 5.0)


def test_criterion_2_action_asymptotics(capsys):
    t0 = time.perf_counter()
    mus = (1e-1, 1e-2, 1e-3, 1e-4)
    C = max(abs(action_I(mu).value - 2.0 / 3.0 - math.pi * mu / 2.0)
            / (mu * mu * (1.0 + abs(math.log(mu)))) for mu in mus)
    C_plus = max(abs(action_Iplus(mu).value - 2.0 / 3.0 - math.pi * mu / 2.0)
                 / (mu * mu * (1.0 + abs(math.log(mu)))) for mu in mus)
    mono = 0.0
    for mu in (0.02, 0.05, 0.1):
        lhs = action_I(mu * cmath.exp(1j * math.pi)).value
        rhs = action_I(mu).value + residue_R(mu) + tunnel_T(mu).value
        mono = max(mono, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    _report(capsys, 2, "action asymptotics", [
        (C < 10.0, f"fitted C for I = {C:.3f}"),
        (C_plus < 10.0, f"fitted C for I+ = {C_plus:.3f}"),
        (mono <= 1e-8, f"monodromy defect {mono:.2e}"),
    ], elapsed, 30.0)


def test_criterion_3_branching_matrix(capsys):
    t0 = time.perf_counter()
    h = 0.1
    worst = 0.0
    for kappa in np.geomspace(1e-3, 10.0, 40):
        for phase in (0.0, 0.7, 2.1):
            gamma = math.sqrt(2.0 * h * kappa) * cmath.exp(1j * phase)
            m = branching_R(gamma, h)
            p, q = m.entry(1, 1), m.entry(1, 2)
            worst = max(worst, abs(abs(p) ** 2 - abs(q) ** 2 - 1.0))
    elapsed = time.perf_counter() - t0
    _report(capsys, 3, "branching matrix", [
        (worst <= 1e-12, f"max | |p|^2 - |q|^2 - 1 | = {worst:.2e}"),
    ], elapsed, 1.0)


def test_criterion_4_lattice_vs_bs(capsys):
    t0 = time.perf_counter()
    hs = (0.02, 0.01, 0.005)
    gaps = []
    checks = []
    for h in hs:
        band = Band(1.0, 4.0, h=h, nu_tilde_max=2.5)
        recs, failures = resonance_set(band, refine="bs",
                                       return_failures=True)
        n_lat = sum(len(lattice(nt, h, band)) for nt in (0.5, 1.5, 2.5))
        checks.append((not failures and len(recs) == n_lat,
                       f"h={h}: {len(recs)}/{n_lat} roots converged"))
        worst_res = max(r.residual for r in recs)
        checks.append((worst_res <= 1e-10,
                       f"h={h}: max residual {worst_res:.2e}"))
        checks.append((all(r.lam.imag < 0.0 for r in recs),
                       f"h={h}: all Im lambda < 0"))
        gaps.append(max(abs(r.lam - r.lambda_lat) for r in recs))
    checks.append((gaps[0] > gaps[1] > gaps[2],
                   "gap decreasing: " + " > ".join(f"{g:.2e}" for g in gaps)))
    checks.append((gaps[2] <= 0.5 * hs[2],
                   f"gap {gaps[2]:.2e} <= 0.5 h at h={hs[2]}"))
    elapsed = time.perf_counter() - t0
    _report(capsys, 4, "lattice vs BS-Newton", checks, elapsed, 120.0)


def test_criterion_5_ode_oracle_cross_validation(capsys):
    t0 = time.perf_counter()
    nt = 0.5
    ratios = []
    checks = []
    for h, k in ((0.2, 2), (0.1, 4), (0.05, 8)):
        bs = solve_resonance(k, nt, h)
        # Zero certified inside: winding number 1 on a surrounding ring
        # and residual below 1e-8 of the ring median, else it raises.
        ode = find_resonance_ode((bs.E, h, nt))
        checks.append((ode.residual <= 1e-8,
                       f"h={h}: |c+| residual {ode.residual:.1e}"))
        c1 = jost_cplus((bs.E, h, nt), theta=0.4)
        c2 = jost_cplus((bs.E, h, nt), theta=0.6)
        rel = abs(c1.c_plus - c2.c_plus) / abs(c1.c_plus)
        checks.append((rel <= 1e-5, f"h={h}: theta spread {rel:.1e}"))
        E = bs.E
        tp = turning_points(E, nt * h)
        x_mid = math.sqrt(abs(tp.r1) * abs(tp.r2))
        eps = 1e-3 * min(1.0, abs(tp.r0))
        u0, _ = frobenius_init((E, h, nt), eps=eps)
        path = [eps, x_mid, x_mid * cmath.exp(-0.5j),
                2.5 * cmath.exp(-0.5j)]
        drift = integrate_system((E, h, nt), path, u0).wronskian_drift
        checks.append((drift <= 1e-8, f"h={h}: Wronskian drift {drift:.1e}"))
        ratios.append(abs(ode.lam - bs.lam) / h)
    # The ratio decreases monotonically toward 3 pi / 4 = 2.35619, the
    # half-lattice-spacing offset between the Jost-zero ladder and the
    # BS roots; it does not go to zero.
    checks.append((ratios[0] > ratios[1] > ratios[2],
                   "|lam_ode - lam_BS|/h monotone: "
                   + " > ".join(f"{r:.6f}" for r in ratios)
                   + " (limit 3 pi/4 = 2.356194)"))
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, "ODE-oracle cross-validation", checks, elapsed, 300.0)


def test_criterion_6_pplus_closure(capsys):
    t0 = time.perf_counter()
    windows = {1: (2.0, 5.2), 2: (3.0, 6.0)}
    checks = []
    for l in (1, 2):
        errs = {}
        mods = {}
        for h in (0.02, 0.01):
            s = h ** (2.0 / 3.0)
            lo, hi = windows[l]
            eigs = pplus_eigen_oracle(l, h, (lo * s, hi * s))[:2]
            preds = pplus_levels(h, l, range(0, 8))
            matched = [min(preds, key=lambda p: abs(p - ev)) for ev in eigs]
            errs[h] = [abs(ev - p) for ev, p in zip(eigs, matched)]
            checks.append((max(errs[h]) <= h,
                           f"l={l} h={h}: max |E_oracle - E_pred| "
                           f"{max(errs[h]):.2e} <= h"))
            mods[h] = []
            for E in matched:
                s12 = action_S12(E, h, l).value
                mods[h].append(abs(cmath.exp(2.0 * s12 / h) + 1.0))
            checks.append((max(mods[h]) < 0.3,
                           f"l={l} h={h}: max BS residual "
                           f"{max(mods[h]):.3f} < 0.3"))
        ratio = max(e1 / e2 for e1, e2 in zip(errs[0.01], errs[0.02]))
        checks.append((ratio < 0.5,
                       f"l={l}: error ratio per h-halving {ratio:.3f} "
                       "(exact scaling gives 2^(-2/3) = 0.630)"))
        dec = all(m1 < m2 for m1, m2 in zip(mods[0.01], mods[0.02]))
        deltas = ", ".join(f"{m1 - m2:+.1e}"
                           for m1, m2 in zip(mods[0.01], mods[0.02]))
        checks.append((dec,
                       f"l={l}: BS residual change under h-halving [{deltas}]"
                       " (exactly h-independent)"))
    elapsed = time.perf_counter() - t0
    _report(capsys, 6, "P+ closure", checks, elapsed, 120.0)


def test_criterion_7_wkb_amplitude_contract(capsys):
    t0 = time.perf_counter()
    nu = 0.05
    path = [0.2j, 0.9j]
    devs = []
    for h in (0.2, 0.1, 0.05):
        pair = amplitude_recurrence(path, (1.0, h, nu / h), 4, sign=+1)
        devs.append(abs(pair.w_even - 1.0))
    r1, r2 = devs[0] / devs[1], devs[1] / devs[2]
    checks = [
        (1.6 <= r1 <= 2.4 and 1.6 <= r2 <= 2.4,
         f"|w_even - 1| halving ratios {r1:.2f}, {r2:.2f} in [1.6, 2.4]"),
    ]
    params = ModelParams(1.0, 0.1, 0.5)
    E, nuv = 1.0, 0.05
    bound_ok = True
    worst_frac = 0.0
    for tau in (0.5, 1.0, 2.0):
        series = origin_series(params, 1j * nuv * tau / E, 12)
        K = 1.0 + 3.0 * nuv * nuv * tau * tau / E ** 3
        ratio = tau / (1.0 + tau)
        for n in range(13):
            cap = K ** n / math.factorial(n) * ratio ** n
            frac = abs(series.terms[n]) / cap
            worst_frac = max(worst_frac, frac)
            if frac > 1.0 + 1e-9:
                bound_ok = False
    checks.append((bound_ok,
                   f"origin-series bound holds to n=12, max used fraction "
                   f"{worst_frac:.3f}"))
    elapsed = time.perf_counter() - t0
    _report(capsys, 7, "WKB amplitude contract", checks, elapsed, 60.0)


def test_criterion_8_figure_fan(tmp_path, capsys):
    t0 = time.perf_counter()
    fig = tmp_path / "fan.csv"
    code = cli_main([
        "resonances", "--h-sweep", "0.001,1.0,13", "--kmin", "11",
        "--kmax", "60", "--nutilde-min", "1.5", "--nutilde-max", "5.5",
        "--refine", "lattice", "--figure-data", str(fig),
        "--output", str(tmp_path / "table.csv"),
    ])
    series = {}
    with open(fig, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["k"]), float(row["h"]))
            series.setdefault(key, []).append(
                (float(row["nu_tilde"]), abs(float(row["lambda_im"]))))
    fan_ok = True
    for key, pts in series.items():
        pts.sort()
        ims = [im for _, im in pts]
        if len(pts) != 5 or any(nxt >= prv for prv, nxt in
                                zip(ims, ims[1:])):
            fan_ok = False
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, "figure fan reproduction", [
        (code == 0, "sweep exit code 0"),
        (len(series) == 50 * 13, f"{len(series)} (k, h) cells"),
        (fan_ok, "|Im lambda| strictly decreasing in nu_tilde at every "
                 "(k, h)"),
    ], elapsed, 180.0)
