"""The three benchmark workloads: seeded inputs and output checks.

Each workload turns a seed into an endless sequence of CLI invocations
(``jobs``) and checks one invocation's output (``check``), returning
(attempted, certified) item counts.  The checks run outside the timed
region and pass the contract tolerances explicitly, so a speed-up that
comes from looser library defaults shows up as failures.

The parameter h is drawn per job by a golden-ratio rotation from a
seeded offset: any run of consecutive jobs spreads evenly over the h
interval, so a run's mix of problem sizes, and with it the run's item
rate, depends little on the seed.
"""

import cmath
import csv
import io
import json
import math
import random
from dataclasses import dataclass

_SLOPE = 3.0 * math.pi / 16.0  # lattice spacing factor of Re lambda
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Scaled radial levels e_n(l): the levels at h are exactly e_n h^{2/3}.
# The first three (l=1) and two (l=2) are the constants of
# tests/test_ode_oracle.py; the last of each row was computed with
# scaled_levels_fd below, which reproduces the others to 1e-7.
SCALED_LEVELS = {1: (2.872098, 4.493018, 5.867117, 7.097765),
                 2: (3.817508, 5.262979, 6.541551)}

BS_RESIDUAL_MAX = 1e-10
BS_SAMPLE = 24  # roots per sweep whose residual is recomputed
JOST_RATIO_MAX = 1e-8
LEVEL_REL_TOL = 1e-5


@dataclass(frozen=True)
class Job:
    argv: tuple
    h: float
    params: dict


def _h_values(rng, lo, hi):
    u = rng.random()
    j = 0
    while True:
        yield lo + (hi - lo) * ((u + j * _GOLDEN) % 1.0)
        j += 1


def _E_of_lambda(lam):
    return cmath.exp((2.0 / 3.0) * cmath.log(lam))


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _complex(row, name):
    re, im = row.get(f"{name}_re"), row.get(f"{name}_im")
    if not re or not im:
        return None
    return complex(float(re), float(im))


class BsSweep:
    """Full Bohr-Sommerfeld band sweep; an item is one BS root."""

    name = "bs-sweep"
    trace_jobs = 1
    band = (1.0, 4.0)
    nutilde_max = 2.5

    def jobs(self, seed):
        rng = random.Random(seed)
        for h in _h_values(rng, 0.004, 0.006):
            argv = ("resonances", "--h", repr(h),
                    "--band", "%g,%g" % self.band,
                    "--nutilde-max", repr(self.nutilde_max), "--refine", "bs")
            yield Job(argv, h, {})

    def expected_roots(self, h):
        """Lattice points with a < Re lambda < b, from the lattice formula."""
        a, b = self.band
        n = 0
        nt = 0.5
        while nt <= self.nutilde_max:
            k = 0
            while True:
                bracket = 8 * k + 5 - 4.0 * nt
                re = _SLOPE * bracket * h
                if re >= b:
                    break
                if bracket > 0 and re > a:
                    n += 1
                k += 1
            nt += 1.0
        return n

    def check(self, job, code, text, rng):
        from conires.quantization import bs_residual

        rows = _csv_rows(text) if code in (0, 4) else []
        good = [(row, E) for row in rows
                if (E := _certified_bs_root(row)) is not None]
        bad = 0
        for row, E in rng.sample(good, min(BS_SAMPLE, len(good))):
            r = bs_residual(E, (job.h, float(row["nu_tilde"])),
                            k=int(row["k"]), tol=BS_RESIDUAL_MAX * job.h / 20)
            if not abs(r) < BS_RESIDUAL_MAX:
                bad += 1
        return max(self.expected_roots(job.h), len(rows)), len(good) - bad


def _certified_bs_root(row):
    """E of a row that reports a converged resonance, else None."""
    try:
        E, lam = _complex(row, "E"), _complex(row, "lambda")
        ok = (not row["error"] and row["method"] == "bs-newton"
              and E is not None and lam is not None and lam.imag < 0.0
              and float(row["residual"]) < BS_RESIDUAL_MAX)
    except (KeyError, ValueError):
        return None
    return E if ok else None


class OdeCertify:
    """verify-ode near Re lambda = 2; an item is one certified ODE zero."""

    name = "ode-certify"
    trace_jobs = 1
    nutilde = 0.5

    def jobs(self, seed):
        rng = random.Random(seed)
        for h in _h_values(rng, 0.1, 0.2):
            # Re lambda = SLOPE (8k - 4 nutilde + 5) h closest to 2
            k = round((2.0 / (_SLOPE * h) - 5.0 + 4.0 * self.nutilde) / 8.0)
            argv = ("verify-ode", "--h", repr(h), "--nutilde",
                    repr(self.nutilde), "--k", str(k))
            yield Job(argv, h, {})

    def check(self, job, code, text, rng):
        from conires.errors import ConiresError
        from conires.ode_oracle import jost_cplus

        rows = _csv_rows(text) if code == 0 else []
        try:
            lam = _complex(rows[0], "lambda_ode") if len(rows) == 1 \
                and not rows[0]["error"] else None
        except (KeyError, ValueError):
            lam = None
        if lam is None:
            return 1, 0
        E = _E_of_lambda(lam)
        try:
            at_zero = jost_cplus((E, job.h, self.nutilde), rtol=1e-11).c_plus
            nearby = jost_cplus((E + 1e-4 * abs(E), job.h, self.nutilde),
                                rtol=1e-11).c_plus
        except ConiresError:
            return 1, 0
        return 1, int(abs(at_zero) < JOST_RATIO_MAX * abs(nearby))


class RadialLevels:
    """pplus with the shooting oracle; an item is one radial eigenvalue."""

    name = "radial-levels"
    trace_jobs = 4

    def jobs(self, seed):
        rng = random.Random(seed)
        first_l = rng.choice((1, 2))
        for j, h in enumerate(_h_values(rng, 0.005, 0.01)):
            l = 1 + (first_l - 1 + j) % 2
            argv = ("pplus", "--h", repr(h), "--l", str(l), "--oracle",
                    "--format", "json")
            yield Job(argv, h, {"l": l})

    def check(self, job, code, text, rng):
        want = [e * job.h ** (2.0 / 3.0)
                for e in SCALED_LEVELS[job.params["l"]]]
        got = []
        if code == 0:
            try:
                got = json.loads(text)["meta"]["oracle_values"] or []
            except (ValueError, KeyError, TypeError):
                pass
        matched = sum(1 for w in want
                      if any(abs(g - w) <= LEVEL_REL_TOL * w for g in got))
        extra = max(0, len(got) - len(want))
        return len(want) + extra, matched


WORKLOADS = {w.name: w for w in (BsSweep(), OdeCertify(), RadialLevels())}


def scaled_levels_fd(l, n, L=20.0, N=40000):
    """Lowest n eigenvalues of -u'' + ((l^2 - 1/4)/s^2 + s) u = e u on the
    half-line, by second-order finite differences on (0, L] at N and 2N
    interior points with one Richardson step.  Independent of the
    program's shooting oracle; used to derive and check SCALED_LEVELS."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    def levels(m):
        dx = L / (m + 1)
        s = dx * np.arange(1, m + 1)
        diag = 2.0 / dx ** 2 + (l * l - 0.25) / s ** 2 + s
        off = np.full(m - 1, -1.0 / dx ** 2)
        return eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, n - 1), eigvals_only=True)

    coarse, fine = levels(N), levels(2 * N)
    return [float(x) for x in (4.0 * fine - coarse) / 3.0]
