"""Semiclassical resonances of a two-level model with a conical intersection.

Three mutually checking routes to the resonance lattice: an asymptotic
lattice formula, numerical Bohr-Sommerfeld quantization built on complex
action integrals, and an independent ODE oracle locating zeros of the
outgoing Jost coefficient.

Importing the package, or the CLI, loads every submodule but neither
numpy nor scipy: each module binds numpy and its scipy modules through
deferred handles (_lazy) that import on first use.  The scalar routes
build no array and load neither: the turning points, the closed-form
actions, whose Carlson integrals come from one in-house AGM kernel
(actions._agm_carlson), and the lattice and Bohr-Sommerfeld
refinements, so turning-points, actions, pplus without --oracle and
resonances with --refine lattice or bs run on the standard library
alone.  numpy
loads with the first array call: the ODE oracle and its spectral
locator (verify-ode, --refine ode), the radial oracle (pplus --oracle)
and wkb's amplitude sweeps.  scipy loads only in the locator's band LU
(scipy.linalg.lapack) and in wkb's sweeps (scipy.integrate) and
loggamma (scipy.special).
"""

from .actions import (
    MU_CRITICAL,
    ActionValue,
    action_I,
    action_Iplus,
    action_S01,
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
    TurningPoints,
    cubic_roots,
    default_symbol_path,
    discriminant,
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
from .quadrature import ComplexPath
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
from .wkb import (
    AmplitudePair,
    TransferMatrix,
    amplitude_recurrence,
    assembly_matrix,
    branching_R,
    connection_c0,
    dlog_H,
    origin_series,
    transfer_T1,
    transfer_T2,
    transfer_T3,
    wronskian,
)

__version__ = "0.1.0"
