"""Exception types shared across the package, and the one reader of config values.

Every config value is read through `config_object`, `whole` and
`positive`, which raise ConfigError (or the error type a caller names)
with the field's name in the message.

The CLI maps these onto exit codes (config -> 2, data -> 3, solver -> 4).
"""

from __future__ import annotations

import math

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration, CLI usage, or experiment spec."""


class DataError(ValueError):
    """Malformed input files or datasets inconsistent with a model/grid."""


class SolverError(RuntimeError):
    """A linear subproblem could not be solved to the required accuracy.

    `group` is the 0-based index of the independent subsystem that failed
    (the lowest one, when several did), or None when no subsystem is named.
    """

    def __init__(self, message: str = "", group: int | None = None) -> None:
        super().__init__(message)
        self.group = group


class UnsupportedOperation(RuntimeError):
    """Operation not available for the given kernel family."""


def config_object(cfg, what: str, required=(), optional=()) -> dict:
    """`cfg` checked to be a JSON object with every `required` key and no key but those and `optional`."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} must be a JSON object, got {cfg!r}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"{what} missing keys: {sorted(missing)}")
    unknown = set(cfg) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return cfg


_INTP_MAX = np.iinfo(np.intp).max


def _is_number(value) -> bool:
    """Whether `value` is one real number (an int within int64); a bool, a string, None or a container is not."""
    if isinstance(value, (float, np.floating, np.integer)):
        return True
    return isinstance(value, int) and not isinstance(value, bool) and -(2**63) <= value < 2**63


def _numbers(values, what: str, many: bool, error: type[ValueError]) -> list | None:
    """The numbers of `values` in a list: the one number, or with `many` a list's; None if one is not a number.

    Raises `error` when `many` and `values` is not a non-empty list.
    """
    if not many:
        items = [values]
    elif isinstance(values, (list, tuple)) or (isinstance(values, np.ndarray) and values.ndim == 1):
        items = values.tolist() if isinstance(values, np.ndarray) else values
    else:
        items = []
    if not items:
        raise error(f"{what} must be a non-empty list, got {values!r}")
    if not all(map(_is_number, items)):
        return None
    # a NumPy scalar as the Python number it holds: math.trunc takes no np.int64
    return [v.item() if isinstance(v, np.generic) else v for v in items]


def _shown(values, given: list | None, many: bool):
    """What a message shows of `values`: its numbers, as one array would hold them, when they are numbers."""
    if given is None:
        return values.tolist() if isinstance(values, np.ndarray) else values
    return np.array(given).tolist() if many else given[0]


def whole(values, what: str, minimum: int | None = None, error=ConfigError, many=False, distinct=False):
    """`values` as whole numbers: an int, or with `many` a flat intp array of a non-empty list.

    Raises `error` unless every value is a finite whole number, at least
    `minimum` when one is given, and with `distinct` no two are equal.
    Only numbers pass: a string, a bool, None, a dict, and a list where
    one number is expected (or a number where a list is) raise too.
    """
    given = _numbers(values, what, many, error)
    valid = given is not None and all(math.isfinite(v) and v == math.trunc(v) and abs(v) < _INTP_MAX for v in given)
    ints = [int(v) for v in given] if valid else []
    if not valid or (minimum is not None and min(ints) < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        kind = "whole numbers" if many else "a whole number"
        raise error(f"{what} must be {kind}{bound}, got {_shown(values, given, many)!r}")
    if distinct and len(set(ints)) < len(ints):
        raise error(f"{what} must be distinct, got {_shown(values, given, many)!r}")
    return np.array(ints, dtype=np.intp) if many else ints[0]


def positive(values, what: str, finite: bool = True, many: bool = False, needs: str | None = None):
    """`values` checked to be positive reals, finite unless `finite` is False.

    Returns a float for one number and, with `many`, the values of a
    non-empty list as given, in a tuple (an int stays an int); a list may
    not repeat a value (1 equals 1.0). Raises ConfigError otherwise, "<what>
    must be <needs>, got ..." with `needs` "positive and finite" (or
    "positive") unless one is given. Only numbers pass, as for `whole`.
    """
    given = _numbers(values, what, many, ConfigError)
    if given is None or not all(v > 0 and (v < math.inf or not finite) for v in given):
        needs = needs or ("positive and finite" if finite else "positive")
        raise ConfigError(f"{what} must be {needs}, got {_shown(values, given, many)!r}")
    if many and len(set(given)) < len(given):
        raise ConfigError(f"{what} must be distinct, got {_shown(values, given, many)!r}")
    return tuple(values) if many else float(values)
