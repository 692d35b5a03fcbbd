"""Exception types shared across the toolkit, and the integer check of the
config dataclasses.

ValueError is used for plain contract violations (invalid arguments); the
classes here capture conditions callers are expected to branch on.
"""

import numpy as np


def _check_integer(name: str, value) -> None:
    """Raise ValueError unless `value` is an integer: a Python or numpy
    integer, not a bool and not an integral float, which would pass a range
    check and then fail where the count is used."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_integers(config, *names: str) -> None:
    """`_check_integer` on each named field of `config`."""
    for name in names:
        _check_integer(name, getattr(config, name))


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
