"""Exception hierarchy shared by all sonomotion modules."""


class SonomotionError(Exception):
    """Base class for all package errors."""


class ShapeError(SonomotionError):
    """Operand shapes do not conform for the requested operation."""


class NumericError(SonomotionError):
    """A numeric computation produced NaN/Inf or left its valid domain."""


class ContractError(SonomotionError):
    """A documented pre/postcondition was violated by the caller."""


class DegenerateRotationError(ContractError):
    """A 6D rotation block cannot be orthogonalized (near-zero or parallel axes)."""


class LayoutError(ContractError):
    """A packed vector does not match the expected block layout."""


class AlignmentError(ContractError):
    """Paired audio/motion files disagree on duration or frame count."""


class DurationError(AlignmentError):
    """An audio clip is too short for the requested frame count."""


class SamplingError(ContractError):
    """Not enough items to draw the requested sample (pool underflow)."""


class ConfigError(SonomotionError):
    """Invalid or unknown configuration value."""


class DataError(SonomotionError):
    """A data file is missing, unparsable, or inconsistent."""
