"""Exception taxonomy shared by all modules.

Each class carries the CLI exit code it maps to: 2 config, 3 data,
4 numeric, 5 verification.
"""


class PeftLabError(Exception):
    exit_code = 2


class ConfigError(PeftLabError):
    """Invalid configuration, dimensions, or call sequencing."""

    exit_code = 2


class DimensionError(ConfigError):
    """Operand shapes incompatible with the requested operation."""


class StateError(ConfigError):
    """Operation invalid in the object's current state (e.g. double merge)."""


class DataError(PeftLabError):
    """Problems with datasets, manifests, or on-disk artifacts."""

    exit_code = 3


class InsufficientDataError(DataError):
    """A class has fewer items than the episode or fraction requires."""


class FormatError(DataError):
    """Malformed binary or text artifact (bad magic, truncation, checksum)."""


class ParseError(DataError):
    """Malformed results CSV or config file row."""


class LabelError(DataError):
    """Label index outside the valid class range."""


class WriteError(DataError, OSError):
    """A file could not be written; still an OSError for library callers."""


class NumericError(PeftLabError):
    """NaN/Inf encountered, or a numeric precondition violated."""

    exit_code = 4


class VerificationError(PeftLabError):
    """An invariant check of the verify suite failed."""

    exit_code = 5
