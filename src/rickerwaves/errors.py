"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A model or kernel parameter is outside its admissible range."""


class DegenerateKernelError(ParameterError):
    """Discretization would put all dispersal mass on a single cell."""


class RangeError(ValueError):
    """A numeric argument is out of range or causes overflow."""


class DomainError(ValueError):
    """An input lies outside the domain an operation is defined on."""


class ConfigError(ValueError):
    """Inconsistent grids/kernels or a malformed configuration."""


class SearchError(RuntimeError):
    """A one-dimensional minimization failed to bracket a minimum."""


class CertificateError(RuntimeError):
    """No admissible threshold found for the bistability certificate."""


class MeasurementError(RuntimeError):
    """A front-tracking level is never crossed by the field."""


class DegenerateDataError(RuntimeError):
    """Data lack the structure a computation needs: a tracked front, or lambda(B_0) > 1."""


class ConvergenceError(RuntimeError):
    """Iteration hit its step budget before meeting the tolerances."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history
