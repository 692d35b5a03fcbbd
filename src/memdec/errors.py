"""Exception types shared across the toolkit. The rules of the config
fields, and the integer check, are in `rules`.

ValueError is used for plain contract violations (invalid arguments); the
classes here capture conditions callers are expected to branch on.
"""


class MemdecError(Exception):
    """Base class for toolkit-specific failures."""


class NumericError(MemdecError):
    """Non-finite values reached an optimizer or numeric kernel."""


class ConfigError(MemdecError):
    """Configuration text failed to parse or validate."""


class DataFileError(MemdecError):
    """Base class for persistence failures."""


class CorruptFileError(DataFileError):
    """File failed magic/shape/truncation checks."""


class UpgradeNeededError(DataFileError):
    """File was written by an incompatible format version."""


class InsufficientDataError(MemdecError):
    """Too few usable points for the requested statistic."""


class DegenerateFitError(MemdecError):
    """Fit parameters admit no meaningful derived quantity (e.g. b = 1)."""
