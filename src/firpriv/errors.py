"""Exception types shared across the package."""


class FirprivError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(FirprivError, ValueError):
    """Inconsistent vector/matrix dimensions."""


class ParameterError(FirprivError, ValueError):
    """A scalar parameter is outside its admissible range."""


class StabilityError(FirprivError, ValueError):
    """A rational filter has poles on or outside the unit circle."""


class ConditioningError(FirprivError, ValueError):
    """A linear solve was rejected because the matrix is too ill-conditioned."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class BudgetError(FirprivError, ValueError):
    """The output-variance budget is not strictly larger than the noise floor."""


class RankError(FirprivError, ValueError):
    """A matrix required to be positive definite is numerically singular."""


class SingularKernelError(FirprivError, ValueError):
    """Regularization kernel is numerically singular."""


class RedrawBudgetError(FirprivError, RuntimeError):
    """Too many Monte Carlo replicates had to be redrawn or discarded."""


class AuditSizeError(FirprivError, ValueError):
    """Privacy audit instance is too large for exact density evaluation."""


class ConfigError(FirprivError, ValueError):
    """Experiment configuration file is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
