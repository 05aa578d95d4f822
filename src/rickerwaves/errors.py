"""Exception types shared across the package, and its one test of a number:
a real within the float range, or an integral count of any size."""


def _is_number(value, integral: bool = False) -> bool:
    """Whether value is a numbers.Real (a numbers.Integral if ``integral``) and
    not a bool, Python's or numpy's: a str, None, a complex or a Decimal is
    not, and nor is a real whose float() overflows (an int or a Fraction
    past ~1.8e308), though such an int is still a count.  Every module asks
    it before comparing an argument, and raises its own named error.  A
    float or an int is told without ``numbers``, so code on plain floats
    never imports it."""
    kind = type(value)
    if kind is float:
        return not integral
    if kind is not int:
        import numbers
        if kind is bool or not isinstance(value, numbers.Integral if integral else numbers.Real):
            return False
    if not integral:
        try:
            float(value)
        except OverflowError:
            return False
    return True


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


class MeasurementError(RuntimeError):
    """A front-tracking level is never crossed by the field."""


class DegenerateDataError(RuntimeError):
    """Data lack the structure a computation needs: a tracked front, or lambda(B_0) > 1."""


class ConvergenceError(RuntimeError):
    """Iteration hit its step budget before meeting the tolerances."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history
