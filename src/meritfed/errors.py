"""Exception taxonomy shared across the package."""


class MeritFedError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(MeritFedError):
    """A dimension or count parameter is out of range."""


class NumericInputError(MeritFedError):
    """An input vector contains NaN or infinite entries."""


class InvalidSmoothingError(MeritFedError):
    """The finite-difference smoothing radius is not positive."""


class ShapeError(MeritFedError):
    """Array shapes do not agree."""


class ConfigError(MeritFedError):
    """A run configuration is malformed or inconsistent."""


class AttackInputError(MeritFedError):
    """An attack rule received an unusable honest-gradient set."""
