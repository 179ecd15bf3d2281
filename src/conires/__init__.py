"""Semiclassical resonances of a two-level model with a conical intersection.

Three mutually checking routes to the resonance lattice: an asymptotic
lattice formula, numerical Bohr-Sommerfeld quantization built on complex
action integrals, and an independent ODE oracle locating zeros of the
outgoing Jost coefficient.

The names of the WKB module are resolved on first access (PEP 562
module __getattr__), so that importing the package, or the CLI, does
not load scipy.integrate; the ODE oracle defers its scipy imports to
its first solve for the same reason.
"""

import importlib

from .actions import (
    MU_CRITICAL,
    ActionValue,
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
from .errors import (
    BranchAmbiguity,
    ConiresError,
    ConvergenceFailure,
    EmptyBand,
    MonotonicityViolation,
    NoConvergence,
    NonSimpleRoot,
    NoPlateau,
    NoRealTurningPoints,
    OrderTooHigh,
    QuadratureFailure,
    SeriesDivergence,
    SpuriousZero,
    StepUnderflow,
    TurningPointProximity,
    WindowEmpty,
)
from .model import (
    CubicRoots,
    ModelParams,
    SymbolBranch,
    SymbolValue,
    TurningPoints,
    cubic_roots,
    default_symbol_path,
    discriminant,
    energy_surface_rho2,
    symbol_at,
    turning_points,
)
from .ode_oracle import (
    IntegrationResult,
    JostEstimate,
    find_resonance_ode,
    frobenius_init,
    integrate_system,
    jost_cplus,
    pplus_eigen_oracle,
)
from .quadrature import ComplexPath, adaptive_path, adaptive_segment
from .quantization import (
    Band,
    ResonanceRecord,
    SweepFailure,
    bs_residual,
    lattice,
    lattice_point,
    pplus_levels,
    resonance_set,
    solve_resonance,
)
_WKB_NAMES = frozenset({
    "AmplitudePair",
    "NormalFormCoeffs",
    "PhaseValue",
    "TransferMatrix",
    "amplitude_recurrence",
    "assembly_matrix",
    "branching_R",
    "connection_c0",
    "dlog_H",
    "gamma_series",
    "origin_series",
    "phase_z",
    "phi_map",
    "psi_map",
    "transfer_T1",
    "transfer_T2",
    "transfer_T3",
    "wkb_solution",
    "wronskian",
})


def __getattr__(name):
    if name not in _WKB_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(".wkb", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
