"""Exception types shared across the package, and the one check of whole numbers.

The CLI maps these onto exit codes (config -> 2, data -> 3, solver -> 4).
"""

from __future__ import annotations

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


def whole(values, what: str, minimum: int | None = None, error: type[ValueError] = ConfigError):
    """`values` as whole numbers: an int for a scalar, a flat intp array otherwise.

    Raises `error` unless every value is a finite whole number, at least
    `minimum` when one is given. Only numbers pass: a string, a bool or
    None raises too.
    """
    given = np.asarray(values)
    if given.dtype.kind == "f":
        limit = np.iinfo(np.intp).max
        valid = (np.isfinite(given) & (np.trunc(given) == given) & (np.abs(given) < limit)).all()
    else:
        valid = given.dtype.kind in "iu"
    numbers = given.astype(np.intp) if valid else None
    if not valid or (minimum is not None and (numbers < minimum).any()):
        bound = "" if minimum is None else f" >= {minimum}"
        if given.ndim == 0:
            raise error(f"{what} must be a whole number{bound}, got {values!r}")
        raise error(f"{what} must be whole numbers{bound}, got {given.reshape(-1).tolist()}")
    return int(numbers) if numbers.ndim == 0 else numbers.reshape(-1)
