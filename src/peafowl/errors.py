"""Exception types shared across the package."""

__all__ = ["PeafowlError", "ConfigError", "DataError", "EvaluationError"]


class PeafowlError(Exception):
    """Base class for package-specific failures."""


class ConfigError(PeafowlError):
    """Bad command-line flags or config-file contents."""


class DataError(PeafowlError):
    """Malformed or inconsistent input data."""


class EvaluationError(PeafowlError):
    """Objective evaluation produced an unusable (non-finite) value."""
