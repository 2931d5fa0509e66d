"""Exception types shared across the library."""


class ComemError(Exception):
    """Base class for all library errors; ``exit_code`` is the CLI's exit status for it (2: data/format)."""
    exit_code = 2


class DimensionError(ComemError, ValueError):
    """Tensor shapes do not conform for the requested operation."""


class GeometryError(ComemError, ValueError):
    """An operation would produce an invalid geometry (e.g. empty output)."""


class DomainError(ComemError, ValueError):
    """An input value lies outside the documented domain."""


class FormatError(ComemError, ValueError):
    """A serialized artifact is malformed; the message names the field."""


class ConfigError(ComemError, ValueError):
    """Incompatible configuration, e.g. a checkpoint whose task or vocabularies differ from the dataset's."""
    exit_code = 1


class NumericError(ComemError, ArithmeticError):
    """A non-finite value was produced where a finite one is required."""
    exit_code = 3
