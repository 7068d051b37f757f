"""Multi-index task bookkeeping and CP factor algebra.

Tasks live on an N-mode grid of size T_1 x ... x T_N. A task is addressed
either by its multi-index (t_1, ..., t_N) or by a linear id in {1, ..., T}.
Both are 1-based at the API boundary; the first index varies fastest
(generalized column-major order). All types here are immutable and all
operations are pure. The module imports no other module of the package
but `errors`; the shared factor, which also needs the training inputs, is
`model.SharedFactor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import whole

__all__ = [
    "TaskGrid",
    "ModeFactors",
    "linearize",
    "delinearize",
    "task_vector",
    "task_vector_table",
    "row_product_table",
]


@dataclass(frozen=True)
class TaskGrid:
    """The task space T_1 x ... x T_N and its linearization."""

    mode_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = tuple(whole(self.mode_sizes, "mode sizes", 1).tolist())
        if len(sizes) < 1:
            raise ValueError("a task grid needs at least one mode")
        object.__setattr__(self, "mode_sizes", sizes)

    @property
    def n_modes(self) -> int:
        return len(self.mode_sizes)

    @property
    def n_tasks(self) -> int:
        return math.prod(self.mode_sizes)

    @cached_property
    def mode_indices(self) -> np.ndarray:
        """(T, N) read-only table: 0-based mode indices of every task in linear order."""
        unraveled = np.unravel_index(np.arange(self.n_tasks), self.mode_sizes, order="F")
        table = np.stack(unraveled, axis=1)
        table.flags.writeable = False
        return table

    def _check_multi_index(self, idx) -> tuple[int, ...]:
        idx = tuple(int(i) for i in idx)
        if len(idx) != self.n_modes:
            raise IndexError(
                f"multi-index {idx} has {len(idx)} entries, grid has {self.n_modes} modes"
            )
        for n, (i, size) in enumerate(zip(idx, self.mode_sizes), start=1):
            if not 1 <= i <= size:
                raise IndexError(
                    f"index {i} out of range [1, {size}] in mode {n} of grid {self.mode_sizes}"
                )
        return idx

    def _check_mode(self, mode: int) -> int:
        mode = int(mode)
        if not 1 <= mode <= self.n_modes:
            raise IndexError(f"mode {mode} out of range [1, {self.n_modes}]")
        return mode


def linearize(grid: TaskGrid, idx) -> int:
    """Map a 1-based multi-index to its 1-based linear task id.

    The first index varies fastest: (1,1,1) -> 1, (2,1,1) -> 2, ...
    """
    idx = grid._check_multi_index(idx)
    t, stride = 1, 1
    for i, size in zip(idx, grid.mode_sizes):
        t += (i - 1) * stride
        stride *= size
    return t


def delinearize(grid: TaskGrid, t: int) -> tuple[int, ...]:
    """Inverse of :func:`linearize`."""
    t = int(t)
    if not 1 <= t <= grid.n_tasks:
        raise IndexError(f"task id {t} out of range [1, {grid.n_tasks}]")
    rem, idx = t - 1, []
    for size in grid.mode_sizes:
        idx.append(rem % size + 1)
        rem //= size
    return tuple(idx)


@dataclass(frozen=True)
class ModeFactors:
    """One factor matrix per mode; the n-th has shape T_n x K."""

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        # private copies: freezing a caller's array in place would be rude
        mats = tuple(np.array(f, dtype=float) for f in self.factors)
        if len(mats) < 1:
            raise ValueError("need at least one mode factor")
        for n, f in enumerate(mats, start=1):
            if f.ndim != 2:
                raise ValueError(f"mode-{n} factor must be a matrix, got ndim={f.ndim}")
            if not np.all(np.isfinite(f)):
                raise ValueError(f"mode-{n} factor contains non-finite entries")
        ranks = {f.shape[1] for f in mats}
        if len(ranks) != 1:
            raise ValueError(f"mode factors disagree on rank: {sorted(ranks)}")
        for f in mats:
            f.flags.writeable = False
        object.__setattr__(self, "factors", mats)

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @cached_property
    def grid(self) -> TaskGrid:
        return TaskGrid(tuple(f.shape[0] for f in self.factors))


def task_vector(factors: ModeFactors, idx) -> np.ndarray:
    """Length-K Hadamard product of the factor rows selected by the multi-index."""
    idx = factors.grid._check_multi_index(idx)
    out = np.ones(factors.rank)
    for f, i in zip(factors.factors, idx):
        out = out * f[i - 1, :]
    return out


def row_product_table(mats, mode_indices: np.ndarray, skip_mode: int | None = None) -> np.ndarray:
    """(T, K) matrix whose row t-1 multiplies, mode by mode, the factor rows of task t.

    `mats` are the T_n x K factor matrices, `mode_indices` the grid's
    table; the 1-based `skip_mode`, if given, is left out of the product.
    Matrices stacked B x T_n x K give the tables B x T x K.
    """
    skip = -1 if skip_mode is None else skip_mode - 1
    out = np.ones(mats[0].shape[:-2] + (mode_indices.shape[0], mats[0].shape[-1]))
    for n, f in enumerate(mats):
        if n != skip:
            out *= f.take(mode_indices[:, n], axis=-2)
    return out


def task_vector_table(factors: ModeFactors) -> np.ndarray:
    """(T, K) matrix whose row t-1 is the task vector of linear task t."""
    return row_product_table(factors.factors, factors.grid.mode_indices)
