"""Exception types shared across the library."""


class ComemError(Exception):
    """Base class for all library errors."""


class DimensionError(ComemError, ValueError):
    """Tensor shapes do not conform for the requested operation."""


class GeometryError(ComemError, ValueError):
    """An operation would produce an invalid geometry (e.g. empty output)."""


class DomainError(ComemError, ValueError):
    """An input value lies outside the documented domain."""


class FormatError(ComemError, ValueError):
    """A serialized artifact is malformed; the message names the field."""


class ConfigError(ComemError, ValueError):
    """Incompatible configuration, e.g. checkpoint/dataset task mismatch."""


class NumericError(ComemError, ArithmeticError):
    """A non-finite value was produced where a finite one is required."""
