"""Exception hierarchy shared by all tdcae modules, `_all_finite`, the
one finiteness test that every checking module uses, and the one check of
each kind of setting that every config type uses: `_check_int` for
integers, `_check_number` for finite numbers, `_check_binary` for labels."""

import math
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


def _check_int(value, name: str, minimum: int) -> int:
    """value as an int; a ConfigError naming `name` if it is not an integer
    >= minimum, such as a float (2.0 included) or a bool. numpy integers
    pass as ints."""
    try:
        result = operator.index(value)
    except TypeError:
        result = None
    if result is None or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r:.40}")
    if result < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")
    return result


def _check_number(value, name: str, minimum: float = -math.inf, strict: bool = False) -> float:
    """value as a float; a ConfigError naming `name` unless it is a finite
    real number >= minimum (> minimum if strict). Bools, strings, None and
    ints beyond float range are refused; numpy numbers pass as floats. It
    tests with math.isfinite: isinstance against numbers.Real costs ~1 us."""
    try:
        finite = math.isfinite(value)
    except OverflowError:  # whose repr may exceed Python's digit limit
        raise ConfigError(f"{name} must be finite, got an int beyond float range") from None
    except TypeError:
        finite = None
    if finite is None or isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a number, got {value!r:.40}")
    if not finite:
        raise ConfigError(f"{name} must be finite, got {value!r:.40}")
    result = float(value)
    if result < minimum or (strict and result == minimum):
        raise ConfigError(f"{name} must be {'>' if strict else '>='} {minimum:g}")
    return result


def _check_binary(labels: np.ndarray) -> None:
    """A ConfigError unless every entry of labels is 0 or 1."""
    if np.count_nonzero((labels == 0) | (labels == 1)) != labels.size:
        raise ConfigError("labels must be binary")
