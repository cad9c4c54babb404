"""Exception types shared across the package, and the one rule by which a
configuration value is read as a finite real number."""

import math


class SphereFVError(Exception):
    """Base class for all package errors."""


class SingularPointError(SphereFVError):
    """A geometric operation was requested at (or too close to) a chart singularity."""


class PoleError(SingularPointError):
    """Evaluation at a sphere pole, where the tangent basis is not defined."""


class DegenerateSampleError(SphereFVError):
    """A sample point made a computation degenerate (e.g. vanishing vector field)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ConfigError(SphereFVError):
    """Invalid configuration (mesh parameters, scenario file, registry lookup)."""


def finite_real(value, key: str, what: str = "a finite real number") -> float:
    """A finite real config value (an int or a float, never a bool); anything
    else is a ``ConfigError`` that names ``key``."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:           # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return number


class InputError(SphereFVError):
    """Invalid runtime input data (non-finite samples, states, ...)."""
