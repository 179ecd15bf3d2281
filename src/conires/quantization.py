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

Newton uses the exact derivative dA/dE = -(3/4)/E + 2 S01'(E)/h rather
than any differencing of A.  S01 and S01' are closed-form Carlson
integrals (actions.action_S01_pair), accurate to roundoff and obtained
together from one root solve, so each Newton iterate costs one cubic
solve and three Carlson-function evaluations.  Their roundoff (about
2e-15 in S01 against 34-digit quadrature) enters the residual amplified
by 2/h: converged residuals of a sweep at h = 0.004 stay below 3e-12,
well under the default tolerance 1e-10.
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .actions import action_S01_pair
from .errors import EmptyBand, NoConvergence, NonSimpleRoot
from .model import _check_h_l, _check_h_nt

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


def _E_of_lambda(lam):
    return cmath.exp((2.0 / 3.0) * cmath.log(lam))


def _branch_coordinate(re_lam, nt, h):
    """Real k with SLOPE (8k + 5 - 4 nu_t) h = re_lam: the lattice real
    part inverted; rounded, it is the nearest branch index."""
    return (re_lam / (_SLOPE * h) - 5.0 + 4.0 * nt) / 8.0


def _A_and_dE(E, h, nt):
    """A(E) and dA/dE from one closed-form action evaluation."""
    E = complex(E)
    s01, ds01 = action_S01_pair((E, nt * h))
    a = (
        math.log(math.sqrt(0.5 * math.pi * h) * nt)
        - 0.75 * cmath.log(E)
        - 0.25j * math.pi
        + 2.0 * s01.value / h
    )
    return a, -0.75 / E + 2.0 * ds01.value / h


def bs_residual(E, params, k=None, tol=1e-10):
    """Quantization residual A(E) - i pi (2k + 1).

    params is anything carrying h and nu_tilde (ModelParams does) or a
    plain (h, nu_tilde) pair.  With k=None the nearest odd-multiple
    branch is used, so the returned imaginary part always lies in
    (-pi, pi]; pass an explicit k to pin the branch during root
    following.  A root of branch k means e^{A} + 1 = 0 exactly.  tol
    bounds the error of the action S01; its closed form meets any tol
    above roundoff (actions.action_S01).
    """
    if hasattr(params, "h") and hasattr(params, "nu_tilde"):
        h, nt = params.h, params.nu_tilde
    else:
        h, nt = params
    h, nt = _check_h_nt(h, nt)
    a = _A_and_dE(E, h, nt)[0]
    if k is None:
        k = round((a.imag / math.pi - 1.0) / 2.0)
    return a - 1j * math.pi * (2 * int(k) + 1)


def lattice_point(k, nu_tilde, h):
    """Lattice prediction lambda for one (k, nu_tilde): the stated Re and
    Im parts of the asymptotic formula."""
    h, nt = _check_h_nt(h, nu_tilde)
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
    h, nt = _check_h_nt(h, nu_tilde)
    a, b = (band.a, band.b) if isinstance(band, Band) else map(float, band)
    Band(a, b)  # raises ValueError unless 0 < a < b
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
    return [_lattice_record(k, nt, h) for k in range(k_min, k_max + 1)]


def _lattice_record(k, nt, h):
    """Formula-only record of branch k: lam is the lattice point itself."""
    lam = lattice_point(k, nt, h)
    return ResonanceRecord(
        k=k, nu_tilde=nt, lambda_lat=lam, lam=lam, E=_E_of_lambda(lam),
        method="lattice", residual=math.nan, iterations=0,
    )


def solve_resonance(k, nu_tilde, h, seed=None, tol=1e-10, step_tol=1e-12,
                    max_iter=50):
    """Newton refinement of branch k from the lattice seed.

    Converged when |residual| < tol and the last step was below
    step_tol |E|.  Each iterate evaluates A and dA/dE together, from one
    root solve and one closed-form action pair (actions.action_S01_pair).
    A seed whose iterate turns non-finite or whose dA/dE collapses gives
    way to the next (the real-axis lattice seed); the last such error,
    NoConvergence or NonSimpleRoot, is raised when no seed converges.
    """
    h, nt = _check_h_nt(h, nu_tilde)
    k = int(k)
    lam_lat = lattice_point(k, nt, h)
    seeds = [complex(seed)] if seed is not None else [_E_of_lambda(lam_lat)]
    seeds.append(_E_of_lambda(complex(lam_lat.real)))
    shift = 1j * math.pi * (2 * k + 1)

    last_err = None
    for E0 in seeds:
        E = E0
        last_step = math.inf
        try:
            for it in range(1, max_iter + 1):
                a, dr = _A_and_dE(E, h, nt)
                r = a - shift
                if abs(r) < tol and last_step < step_tol * abs(E):
                    lam = cmath.exp(1.5 * cmath.log(E))
                    return ResonanceRecord(
                        k=k, nu_tilde=nt, lambda_lat=lam_lat, lam=lam, E=E,
                        method="bs-newton", residual=abs(r), iterations=it,
                    )
                if abs(dr) < 1e-10:
                    raise NonSimpleRoot(
                        f"|dA/dE| = {abs(dr):.2e} collapsed at E = {E:.8g} "
                        f"(branch k={k}, nu_tilde={nt})"
                    )
                step = -r / dr
                E = E + step
                last_step = abs(step)
                if not cmath.isfinite(E):
                    raise NoConvergence(
                        f"non-finite Newton iterate from seed {E0:.6g} "
                        f"(branch k={k}, nu_tilde={nt})"
                    )
            last_err = NoConvergence(
                f"branch k={k}, nu_tilde={nt}, h={h}: |residual| = "
                f"{abs(r):.2e} after {max_iter} iterations from seed {E0:.6g}"
            )
        except (NonSimpleRoot, NoConvergence) as exc:
            last_err = exc
    raise last_err


def _families(nt_max, nt_min=0.5):
    """Half-integer nu_tilde from nt_min to nt_max, ascending."""
    out = []
    nt = 0.5
    while nt <= nt_max + 1e-12:
        if nt >= nt_min - 1e-12:
            out.append(nt)
        nt += 1.0
    return out


def _sweep_job(k, nt, h, seed, refine, tol=1e-10, max_iter=50):
    """One (k, nu_tilde) point of a sweep at h, refined as in
    resonance_set from seed, or from the lattice point when seed is None.

    Any exception of the solve comes back as a SweepFailure, so one bad
    root never aborts a sweep; an unknown refine raises ValueError.
    """
    if refine not in ("lattice", "bs", "ode"):
        raise ValueError(f"unknown refine method {refine!r}")
    try:
        if refine == "bs":
            return solve_resonance(k, nt, h, seed=seed, tol=tol,
                                   max_iter=max_iter)
        rec = _lattice_record(k, nt, h)
        if refine == "lattice":
            return rec
        from .ode_oracle import find_resonance_ode  # imports this module

        E0 = rec.E if seed is None else seed
        return find_resonance_ode((E0, h, nt), E0)
    except Exception as exc:
        return SweepFailure(k, nt, f"{type(exc).__name__}: {exc}")


def resonance_set(band, refine="bs", tol=1e-10, max_iter=50,
                  return_failures=False):
    """Union of refined records over nu_tilde in {1/2, 3/2, ...} up to
    band.nu_tilde_max, deduplicated by |delta lambda| < 1e-8.

    refine: "lattice" keeps the formula values, "bs" runs the Newton
    solve, "ode" defers to the independent ODE oracle.  Per-root
    failures never abort the sweep; they are collected and returned
    alongside the records when return_failures is set.
    """
    if band.h is None or band.nu_tilde_max is None:
        raise ValueError("resonance_set needs band.h and band.nu_tilde_max")
    h = band.h
    jobs = []
    for nt in _families(band.nu_tilde_max):
        try:
            jobs += [(rec.k, nt) for rec in lattice(nt, h, band)]
        except EmptyBand:
            pass
    if not jobs:
        raise EmptyBand(
            f"no lattice point in ({band.a}, {band.b}) for any nu_tilde "
            f"up to {band.nu_tilde_max} at h={h}"
        )

    results = [_sweep_job(k, nt, h, None, refine, tol, max_iter)
               for k, nt in jobs]
    records, failures = [], []
    for res in results:
        if isinstance(res, SweepFailure):
            failures.append(res)
        elif all(abs(res.lam - r.lam) >= 1e-8 for r in records):
            records.append(res)
    if return_failures:
        return records, failures
    return records


def pplus_levels(h, l, k_range):
    """Closed-form eigenvalue predictions of the scalar comparison
    operator: E = [(3 pi/4)(2k + 1 - sqrt(l^2 - 1/4)) h]^{2/3} for every
    k in k_range with a positive bracket."""
    h, l = _check_h_l(h, l)
    root = math.sqrt(l * l - 0.25)
    out = []
    for k in k_range:
        bracket = 2 * int(k) + 1 - root
        if bracket <= 0.0:
            continue
        out.append((0.75 * math.pi * bracket * h) ** (2.0 / 3.0))
    return out
