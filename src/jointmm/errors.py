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


class DivergenceError(JointmmError):
    """A solver iterate became nonfinite; raised only by solver.iterate.

    Carries the last certified state (None when the start already fails)
    and the trace recorded up to that point, the float64 array of rows that
    solver.iterate returns (no rows when the start fails or nothing is
    recorded).
    """

    def __init__(self, message, state, trace):
        super().__init__(message)
        self.state = state
        self.trace = trace


class FrameworkError(JointmmError):
    """A delegated inner solver failed to meet its accuracy target."""

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration
