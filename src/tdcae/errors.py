"""Exception hierarchy shared by all tdcae modules, `_all_finite`, the
one finiteness test that every checking module uses, and `_check_seed`."""

import operator

import numpy as np


class TdcaeError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TdcaeError):
    """Invalid configuration value or unusable argument combination."""


class DimensionError(TdcaeError):
    """Array shapes do not line up with what an operation requires."""


class IngestionError(TdcaeError):
    """Malformed input file (bad CSV cell, missing column, ragged row)."""


class NumericError(TdcaeError):
    """A non-finite value appeared where finite arithmetic is required."""


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite. The finite entries are counted:
    on the small matrices checked each hour, reducing np.isfinite(a) with
    `all` goes through numpy's Python-level reduction wrapper and costs
    about twice as much."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _check_seed(seed) -> int:
    """seed as an int; a ConfigError if it is not an integer >= 0, such as
    a float or a bool. numpy integers pass."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if value < 0:
        raise ConfigError("seed must be >= 0")
    return value
