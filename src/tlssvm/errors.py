"""Exception types shared across the package.

The CLI maps these onto exit codes (config -> 2, data -> 3, solver -> 4).
"""

from __future__ import annotations


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
