"""Exception types raised across the library."""


class SplineFollowError(Exception):
    """Base class for all library errors.

    ``time`` is the simulated time of the control step that failed; a
    closed-loop run sets it, and the message then starts with it.
    """

    time = None

    def __str__(self):
        msg = super().__str__()
        return msg if self.time is None else f"t={self.time:.3f}s: {msg}"


class NumericalFailure(SplineFollowError):
    """Valid input, but the numerics broke down during a computation."""


class DegenerateChordError(SplineFollowError):
    """Consecutive waypoints coincide, so the chord length is zero."""


class FitFailureError(SplineFollowError):
    """The spline fitting linear system is rank deficient."""


class DomainError(SplineFollowError):
    """Parameter lies outside a segment's domain."""


class UnsupportedOrderError(SplineFollowError):
    """Requested derivative order exceeds what the path supports."""


class IrregularCurveError(SplineFollowError):
    """The curve's first derivative vanishes at the query point."""


class DegenerateFrameError(SplineFollowError):
    """Gram-Schmidt collapsed: derivatives are not linearly independent."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NonConvergenceError(NumericalFailure):
    """Projection descent hit the iteration cap."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NonSPDInertiaError(NumericalFailure):
    """Inertia matrix failed its positive-definite factorization."""


class NearSingularDecouplingError(NumericalFailure):
    """beta * W^-1 * beta^T is too ill-conditioned to invert reliably.

    ``cond`` is its condition number (nan when it is not finite).
    """

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class DivergenceError(NumericalFailure):
    """Simulated state magnitude exceeded the divergence guard."""


class SingularManifoldError(NumericalFailure):
    """[J; Z] is singular at the internal state ``zeta`` (a straight arm)."""

    def __init__(self, message, zeta=None):
        super().__init__(message)
        self.zeta = zeta


class ParameterError(SplineFollowError):
    """A model or configuration parameter is out of its valid range."""
