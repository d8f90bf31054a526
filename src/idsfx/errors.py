"""Exception types shared across the toolkit."""


class IdsfxError(Exception):
    """Base class for all toolkit errors."""


class DatasetError(IdsfxError):
    """Malformed or unreadable dataset input."""


class EmptyDatasetError(DatasetError):
    """The dataset file holds no data rows."""


class SchemaError(IdsfxError):
    """Column layout does not match what a fitted model or profile expects."""


class ConfigError(IdsfxError):
    """Invalid configuration value or combination."""


class DomainError(IdsfxError):
    """Input values violate a mathematical precondition (negative, NaN, ...)."""


class PipelineError(IdsfxError):
    """A pipeline stage cannot proceed with the data it was given."""


class IntegrityError(IdsfxError):
    """Persisted file failed its checksum or is truncated."""


class VersionError(IdsfxError):
    """Persisted file was written by an incompatible format version."""
