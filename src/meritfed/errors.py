"""Exception taxonomy shared across the package."""


class MeritFedError(Exception):
    """Base class for all package errors."""


class NumericInputError(MeritFedError):
    """An input vector contains NaN or infinite entries."""


class ConfigError(MeritFedError):
    """A run configuration is malformed or inconsistent."""
