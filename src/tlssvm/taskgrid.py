"""Multi-index task bookkeeping and CP factor algebra.

Tasks live on an N-mode grid of size T_1 x ... x T_N. A task is addressed
either by its multi-index (t_1, ..., t_N) or by a linear id in {1, ..., T}.
Both are 1-based at the API boundary; the first index varies fastest
(generalized column-major order). All types here are immutable and all
operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .data import MtlDataset

__all__ = [
    "TaskGrid",
    "ModeFactors",
    "SharedFactor",
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
        sizes = tuple(int(s) for s in self.mode_sizes)
        if len(sizes) < 1:
            raise ValueError("a task grid needs at least one mode")
        if any(s < 1 for s in sizes):
            raise ValueError(f"mode sizes must be positive, got {sizes}")
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
    """
    skip = -1 if skip_mode is None else skip_mode - 1
    out = np.ones((mode_indices.shape[0], mats[0].shape[1]))
    for n, f in enumerate(mats):
        if n != skip:
            out *= f[mode_indices[:, n], :]
    return out


def task_vector_table(factors: ModeFactors) -> np.ndarray:
    """(T, K) matrix whose row t-1 is the task vector of linear task t."""
    return row_product_table(factors.factors, factors.grid.mode_indices)


@dataclass(frozen=True)
class SharedFactor:
    """The factor common to all tasks, kept in dual form.

    The dual form stores one coefficient per training sample, the per-task
    vectors in effect when those coefficients were solved, and a handle to
    the training inputs. For kernels with a finite feature map the explicit
    d_h x K matrix is carried as an additional fast path.
    """

    duals: np.ndarray
    task_vector_snapshot: np.ndarray
    train_data: MtlDataset
    explicit: np.ndarray | None = None

    def __post_init__(self) -> None:
        from .data import MtlDataset  # data imports this module

        if not isinstance(self.train_data, MtlDataset):
            raise TypeError(f"train_data must be an MtlDataset, got {type(self.train_data).__name__}")
        duals = np.array(self.duals, dtype=float)
        snap = np.array(self.task_vector_snapshot, dtype=float)
        if duals.ndim != 1 or not np.all(np.isfinite(duals)):
            raise ValueError("dual coefficients must be a finite vector")
        if snap.ndim != 2 or not np.all(np.isfinite(snap)):
            raise ValueError("task-vector snapshot must be a finite T x K matrix")
        n_train = self.train_data.n_samples
        if n_train != duals.shape[0]:
            raise ValueError(
                f"{duals.shape[0]} dual coefficients for {n_train} training samples"
            )
        n_tasks = self.train_data.grid.n_tasks
        if snap.shape[0] != n_tasks:
            raise ValueError(f"snapshot has {snap.shape[0]} rows for {n_tasks} tasks")
        explicit = self.explicit
        if explicit is not None:
            explicit = np.array(explicit, dtype=float)
            if explicit.ndim != 2 or explicit.shape[1] != snap.shape[1]:
                raise ValueError("explicit matrix must be d_h x K")
            if not np.all(np.isfinite(explicit)):
                raise ValueError("explicit matrix contains non-finite entries")
            explicit.flags.writeable = False
        duals.flags.writeable = False
        snap.flags.writeable = False
        object.__setattr__(self, "duals", duals)
        object.__setattr__(self, "task_vector_snapshot", snap)
        object.__setattr__(self, "explicit", explicit)

    @classmethod
    def _of_solve(cls, duals, task_vector_snapshot, train_data: MtlDataset, explicit=None) -> "SharedFactor":
        """A shared factor over arrays a solve has just made, frozen in place unchecked.

        A solve's duals passed its residual check, so they are finite; the
        arrays are fresh, so freezing them affects no caller.
        """
        self = object.__new__(cls)
        for name, arr in (
            ("duals", duals), ("task_vector_snapshot", task_vector_snapshot),
            ("train_data", train_data), ("explicit", explicit),
        ):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        return self

    @property
    def rank(self) -> int:
        return self.task_vector_snapshot.shape[1]
