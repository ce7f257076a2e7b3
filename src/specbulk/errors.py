"""Exception types shared across the package."""


class SpecbulkError(Exception):
    """Base class for all package errors."""


class ValidationError(SpecbulkError):
    """Invalid model input: bad dimensions, non-PSD covariance, bad options."""


class ConfigError(SpecbulkError):
    """Malformed run configuration (unknown keys, missing sections, bad types)."""


class NonConvergenceError(SpecbulkError):
    """A solve spent its budget of max_iter Psi evaluations unsolved."""

    def __init__(self, message, z=None, residual=None, iterations=None):
        super().__init__(message)
        self.z = z
        self.residual = residual
        self.iterations = iterations


class NumericalSingularityError(SpecbulkError):
    """A linear solve hit a (near-)singular matrix."""

    def __init__(self, message, z=None):
        super().__init__(message)
        self.z = z


class ConsistencyError(SpecbulkError):
    """A converged solution violates a constraint it should satisfy."""


class NearSupportError(SpecbulkError):
    """Evaluation too close to the spectral support for the requested object."""
