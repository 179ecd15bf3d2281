"""Bohr-Sommerfeld quantization of the resonance lattice.

The quantization condition sqrt(pi h/2) nu_t e^{-i pi/4} E^{-3/4}
e^{2 S01/h} = -1 is solved in log form

    A(E) = log(sqrt(pi h / 2) nu_t E^{-3/4}) - i pi/4 + 2 S01(E)/h
         = i pi (2k + 1),

which turns the exponential equation into one Newton solve per integer
branch k and never forms e^{2 S01 / h} (its modulus overflows long before
the interesting h range).  The asymptotic lattice

    Re lambda = (3 pi/16)(8k - 4 nu_t + 5) h,
    Im lambda = -(3/8) h ln(2 lambda_k / (pi nu_t^2)),

with lambda_k the dimensionless Re part over h, seeds the solves and is
also exposed on its own, plus the closed-form eigenvalue prediction for
the scalar comparison operator.

Newton uses the closed-form derivative dA/dE = -(3/4)/E + 2 S01'(E)/h
built on action_S01_dE rather than any differencing of A: the quadrature
noise of S01 enters the residual amplified by 2/h, so the solver also
tightens the action tolerance proportionally to h (see solve_resonance).
"""

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

from .actions import action_S01, action_S01_dE
from .errors import EmptyBand, NoConvergence, NonSimpleRoot

__all__ = [
    "Band",
    "ResonanceRecord",
    "SweepFailure",
    "bs_residual",
    "lattice",
    "lattice_point",
    "pplus_levels",
    "resonance_set",
    "solve_resonance",
]

_SLOPE = 3.0 * math.pi / 16.0


@dataclass(frozen=True)
class Band:
    """Search window a < Re lambda < b, with the sweep parameters h and
    nu_tilde_max carried along when the band drives a full sweep."""

    a: float
    b: float
    h: float = None
    nu_tilde_max: float = None

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError(
                f"band must satisfy 0 < a < b, got a={self.a}, b={self.b}"
            )
        if self.h is not None and not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"band h must be positive, got {self.h}")
        if self.nu_tilde_max is not None and self.nu_tilde_max < 0.5:
            raise ValueError(
                f"nu_tilde_max must be at least 1/2, got {self.nu_tilde_max}"
            )


@dataclass(frozen=True)
class ResonanceRecord:
    """One resonance: branch index, lattice prediction, refined value.

    lam is lambda = E^{3/2}; E uses the branch continuous from the
    positive reals (principal power).  residual is the modulus of the
    quantization residual at lam for the solver methods and nan for the
    formula-only lattice method, which performs no quadrature.
    """

    k: int
    nu_tilde: float
    lambda_lat: complex
    lam: complex
    E: complex
    method: str
    residual: float
    iterations: int

    def as_dict(self):
        def c(z):
            return {"re": z.real, "im": z.imag}

        return {
            "k": self.k,
            "nu_tilde": self.nu_tilde,
            "lambda_lat": c(self.lambda_lat),
            "lambda": c(self.lam),
            "E": c(self.E),
            "method": self.method,
            "residual": None if math.isnan(self.residual) else self.residual,
            "iterations": self.iterations,
        }


class SweepFailure(NamedTuple):
    k: int
    nu_tilde: float
    error: str


def _as_hnu(params):
    """Accept anything carrying h and nu_tilde (ModelParams does) or a
    plain (h, nu_tilde) pair."""
    if hasattr(params, "h") and hasattr(params, "nu_tilde"):
        h, nt = float(params.h), float(params.nu_tilde)
    else:
        h, nt = params
        h, nt = float(h), float(nt)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h}")
    if not (nt > 0.0 and math.isfinite(nt)):
        raise ValueError(f"nu_tilde must be positive and finite, got {nt}")
    return h, nt


def _E_of_lambda(lam):
    return cmath.exp((2.0 / 3.0) * cmath.log(lam))


def _branch_coordinate(re_lam, nt, h):
    """Real k with SLOPE (8k + 5 - 4 nu_t) h = re_lam: the lattice real
    part inverted; rounded, it is the nearest branch index."""
    return (re_lam / (_SLOPE * h) - 5.0 + 4.0 * nt) / 8.0


def _A(E, h, nt, tol=1e-10):
    E = complex(E)
    s01 = action_S01((E, nt * h), tol).value
    return (
        math.log(math.sqrt(0.5 * math.pi * h) * nt)
        - 0.75 * cmath.log(E)
        - 0.25j * math.pi
        + 2.0 * s01 / h
    )


def _A_dE(E, h, nt, tol=1e-10):
    return -0.75 / complex(E) + 2.0 * action_S01_dE((E, nt * h), tol).value / h


def bs_residual(E, params, k=None, tol=1e-10):
    """Quantization residual A(E) - i pi (2k + 1).

    With k=None the nearest odd-multiple branch is used, so the returned
    imaginary part always lies in (-pi, pi]; pass an explicit k to pin
    the branch during root following.  A root of branch k means
    e^{A} + 1 = 0 exactly.
    """
    h, nt = _as_hnu(params)
    a = _A(E, h, nt, tol)
    if k is None:
        k = round((a.imag / math.pi - 1.0) / 2.0)
    return a - 1j * math.pi * (2 * int(k) + 1)


def lattice_point(k, nu_tilde, h):
    """Lattice prediction lambda for one (k, nu_tilde): the stated Re and
    Im parts of the asymptotic formula."""
    h, nt = _as_hnu((h, nu_tilde))
    bracket = 8 * int(k) + 5 - 4.0 * nt
    if bracket <= 0.0:
        raise ValueError(
            f"branch k={k} does not exist for nu_tilde={nt}: "
            f"8k - 4 nu_tilde + 5 = {bracket} is not positive"
        )
    lam_dimless = _SLOPE * bracket
    re = lam_dimless * h
    im = -0.375 * h * math.log(2.0 * lam_dimless / (math.pi * nt * nt))
    return complex(re, im)


def lattice(nu_tilde, h, band):
    """All lattice records with a < Re lambda < b.

    band may be a Band or a plain (a, b) pair; the h argument always
    wins over band.h.  Raises EmptyBand when no branch index fits.
    """
    h, nt = _as_hnu((h, nu_tilde))
    a, b = (band.a, band.b) if isinstance(band, Band) else map(float, band)
    if not 0.0 < a < b:
        raise ValueError(f"band must satisfy 0 < a < b, got ({a}, {b})")
    # a < SLOPE (8k + 5 - 4 nt) h < b
    lo = _branch_coordinate(a, nt, h)
    hi = _branch_coordinate(b, nt, h)
    k_min = max(math.floor(lo) + 1, math.ceil((4.0 * nt - 5.0) / 8.0 + 1e-12))
    k_max = math.ceil(hi) - 1
    if k_min > k_max:
        raise EmptyBand(
            f"no lattice point with Re lambda in ({a}, {b}) for "
            f"nu_tilde={nt}, h={h}"
        )
    out = []
    for k in range(k_min, k_max + 1):
        lam = lattice_point(k, nt, h)
        out.append(ResonanceRecord(
            k=k, nu_tilde=nt, lambda_lat=lam, lam=lam, E=_E_of_lambda(lam),
            method="lattice", residual=math.nan, iterations=0,
        ))
    return out


def solve_resonance(k, nu_tilde, h, seed=None, tol=1e-10, step_tol=1e-12,
                    max_iter=50):
    """Newton refinement of branch k from the lattice seed.

    Converged when |residual| < tol and the last step was below
    step_tol |E|.  The action quadrature runs at tol h / 20 so that its
    error stays an order below tol after the 2/h amplification in A.
    """
    h, nt = _as_hnu((h, nu_tilde))
    k = int(k)
    lam_lat = lattice_point(k, nt, h)
    seeds = [complex(seed)] if seed is not None else [_E_of_lambda(lam_lat)]
    seeds.append(_E_of_lambda(complex(lam_lat.real)))
    quad_tol = min(1e-11, tol * h / 20.0)
    shift = 1j * math.pi * (2 * k + 1)

    last_err = None
    for E0 in seeds:
        E = E0
        last_step = math.inf
        try:
            for it in range(1, max_iter + 1):
                r = _A(E, h, nt, quad_tol) - shift
                if abs(r) < tol and last_step < step_tol * abs(E):
                    lam = cmath.exp(1.5 * cmath.log(E))
                    return ResonanceRecord(
                        k=k, nu_tilde=nt, lambda_lat=lam_lat, lam=lam, E=E,
                        method="bs-newton", residual=abs(r), iterations=it,
                    )
                dr = _A_dE(E, h, nt)
                if abs(dr) < 1e-10:
                    raise NonSimpleRoot(
                        f"|dA/dE| = {abs(dr):.2e} collapsed at E = {E:.8g} "
                        f"(branch k={k}, nu_tilde={nt})"
                    )
                step = -r / dr
                E = E + step
                last_step = abs(step)
            last_err = NoConvergence(
                f"branch k={k}, nu_tilde={nt}, h={h}: |residual| = "
                f"{abs(r):.2e} after {max_iter} iterations from seed {E0:.6g}"
            )
        except NonSimpleRoot as exc:
            last_err = exc
    raise last_err


def resonance_set(band, refine="bs", tol=1e-10, max_iter=50,
                  return_failures=False):
    """Union of refined records over nu_tilde in {1/2, 3/2, ...} up to
    band.nu_tilde_max, deduplicated by |delta lambda| < 1e-8.

    refine: "lattice" keeps the formula values, "bs" runs the Newton
    solve, "ode" defers to the independent ODE oracle.  Per-root
    failures never abort the sweep; they are collected and returned
    alongside the records when return_failures is set.  Distinct roots
    are independent, so when RES_LAT_THREADS is set above 1 the solves
    run in that many threads with deterministic ordered collection.
    """
    if band.h is None or band.nu_tilde_max is None:
        raise ValueError("resonance_set needs band.h and band.nu_tilde_max")
    h = band.h
    nts = []
    nt = 0.5
    while nt <= band.nu_tilde_max + 1e-12:
        nts.append(nt)
        nt += 1.0

    jobs = []
    empty = 0
    for nt in nts:
        try:
            for rec in lattice(nt, h, band):
                jobs.append((rec.k, nt, rec))
        except EmptyBand:
            empty += 1
    if not jobs:
        raise EmptyBand(
            f"no lattice point in ({band.a}, {band.b}) for any nu_tilde "
            f"up to {band.nu_tilde_max} at h={h}"
        )

    if refine == "lattice":
        def solve_one(job):
            return job[2]
    elif refine == "bs":
        def solve_one(job):
            k, nt, _ = job
            return solve_resonance(k, nt, h, tol=tol, max_iter=max_iter)
    elif refine == "ode":
        from .ode_oracle import find_resonance_ode

        def solve_one(job):
            k, nt, rec = job
            return find_resonance_ode((rec.E, h, nt), rec.E)
    else:
        raise ValueError(f"unknown refine method {refine!r}")

    def guarded(job):
        try:
            return solve_one(job), None
        except Exception as exc:
            return None, SweepFailure(job[0], job[1], f"{type(exc).__name__}: {exc}")

    threads = int(os.environ.get("RES_LAT_THREADS", "1"))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(guarded, jobs))
    else:
        results = [guarded(j) for j in jobs]

    records, failures = [], []
    for rec, fail in results:
        if fail is not None:
            failures.append(fail)
        elif all(abs(rec.lam - r.lam) >= 1e-8 for r in records):
            records.append(rec)
    if return_failures:
        return records, failures
    return records


def pplus_levels(h, l, k_range):
    """Closed-form eigenvalue predictions of the scalar comparison
    operator: E = [(3 pi/4)(2k + 1 - sqrt(l^2 - 1/4)) h]^{2/3} for every
    k in k_range with a positive bracket."""
    h = float(h)
    l = int(l)
    if l < 1:
        raise ValueError("l must be a positive integer")
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h}")
    root = math.sqrt(l * l - 0.25)
    out = []
    for k in k_range:
        bracket = 2 * int(k) + 1 - root
        if bracket <= 0.0:
            continue
        out.append((0.75 * math.pi * bracket * h) ** (2.0 / 3.0))
    return out
