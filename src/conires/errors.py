"""Exception types shared across the package.

Every error raised on purpose by this package derives from :class:`ConiresError`,
so callers can catch the whole family with one clause.  Flags that are *not*
errors (e.g. the degenerate-roots flag on the turning-point cubic) are plain
booleans on the returned objects, not exceptions.
"""


class ConiresError(Exception):
    """Base class for all package-specific errors."""


class QuadratureFailure(ConiresError):
    """An adaptive quadrature could not meet the requested tolerance."""


class TurningPointProximity(ConiresError):
    """An evaluation point or path came too close to a turning point."""


class NoRealTurningPoints(ConiresError):
    """The radial-well cubic has no pair of simple real turning points."""


class MonotonicityViolation(ConiresError):
    """Re z fails to increase along a path that the amplitude recurrence needs
    to be admissible."""


class ConvergenceFailure(ConiresError):
    """A series or iteration did not stabilize within its order budget."""


class BranchAmbiguity(ConiresError):
    """A closed-form branch (square root of the normal-form map) was requested
    outside its principal neighborhood."""


class OrderTooHigh(ConiresError):
    """Truncated power-series arithmetic was asked to exceed its table budget."""


class EmptyBand(ConiresError):
    """No lattice index k falls inside the requested Re-lambda band."""


class NoConvergence(ConiresError):
    """A root iteration (Newton or secant) ran out of iterations."""


class NonSimpleRoot(ConiresError):
    """The derivative collapsed at a candidate root; the root cannot be
    certified simple by the iteration."""


class SeriesDivergence(ConiresError):
    """Frobenius series terms fail to decay at the requested start radius."""


class StepUnderflow(ConiresError):
    """The ODE integrator exhausted its step/oscillation budget."""


class NoPlateau(ConiresError):
    """The Jost-coefficient extraction did not stabilize over the final stretch
    of the contour (raise R_max or theta)."""


class SpuriousZero(ConiresError):
    """A candidate zero of c+ failed the argument-principle check (winding
    number on the verification circle is not 1)."""


class WindowEmpty(ConiresError):
    """No eigenvalue was found in the requested energy window."""
