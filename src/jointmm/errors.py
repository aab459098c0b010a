"""Exception types shared across the package."""


class JointmmError(Exception):
    """Base class for all package errors."""


class ConfigurationError(JointmmError):
    """Bad problem data, dimensions, or solver settings."""


class SingularConstraintError(JointmmError):
    """The constraint Gram matrix is not positive definite.

    Raised when a symmetric factorization hits a non-positive pivot; the
    stacked constraint matrix [A B] must have full row rank for the
    feasibility projection to exist.
    """


class EstimationError(JointmmError):
    """Operator-norm estimation did not converge within the iteration cap."""

    def __init__(self, message, last_estimate):
        super().__init__(message)
        self.last_estimate = last_estimate


class NumericalError(JointmmError):
    """A computation produced a nonfinite value."""


class DivergenceError(JointmmError):
    """A solver iterate became nonfinite; raised only by solver.iterate.

    Carries the last certified state (None when the start already fails)
    and the trace recorded up to that point.
    """

    def __init__(self, message, state=None, trace=None):
        super().__init__(message)
        self.state = state
        self.trace = trace if trace is not None else []


class FrameworkError(JointmmError):
    """A delegated inner solver failed to meet its accuracy target."""

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration
