"""Independent per-task LSSVM regression, the single-task sanity baseline.

Each task is fit on its own by the standard LSSVM dual system

    [[0, 1^T], [1, G + I/C]] [b; alpha] = [0; y]

with G the task's kernel Gram matrix. No information is shared between
tasks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MtlDataset
from .errors import DataError, SolverError, positive
from .kernels import KernelSpec, gram
from .linsys import Blocks, solve_dual_system
from .taskgrid import TaskGrid, linearize

__all__ = ["SingleTaskLssvm", "LssvmModel", "fit_independent"]


@dataclass(frozen=True)
class SingleTaskLssvm:
    """Dual solution for one task: coefficients, bias, and its training inputs."""

    duals: np.ndarray
    bias: float
    inputs: np.ndarray
    kernel: KernelSpec

    def __post_init__(self) -> None:
        duals = np.array(self.duals, dtype=float)
        inputs = np.array(self.inputs, dtype=float)
        if duals.ndim != 1 or inputs.ndim != 2 or duals.shape[0] != inputs.shape[0]:
            raise ValueError("need one dual coefficient per training sample")
        duals.flags.writeable = False
        inputs.flags.writeable = False
        object.__setattr__(self, "duals", duals)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "bias", float(self.bias))


def query_inputs(x, ndim: int, n_features: int) -> np.ndarray:
    """Query inputs of a model as a float array: one row (ndim 1) or a matrix of rows (ndim 2).

    Raises DataError for the wrong shape or a NaN or infinite value.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-1] != n_features:
        expected = f"a length-{n_features} input" if ndim == 1 else f"n x {n_features} inputs"
        raise DataError(f"expected {expected}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("inputs contain NaN or infinite values")
    return x


def check_query_dataset(data: MtlDataset, grid: TaskGrid, n_features: int) -> None:
    """Raise DataError unless a dataset fits a model's task grid and feature count."""
    if data.grid != grid:
        raise DataError(f"dataset grid {data.grid.mode_sizes} does not match model grid {grid.mode_sizes}")
    if data.n_features != n_features:
        raise DataError(f"dataset has {data.n_features} features, model expects {n_features}")


@dataclass(frozen=True)
class LssvmModel:
    """Per-task LSSVM models over a task grid (no coupling between tasks)."""

    grid: TaskGrid
    kernel: KernelSpec
    tasks: tuple[SingleTaskLssvm, ...]

    method = "lssvm-independent"

    def __post_init__(self) -> None:
        if len(self.tasks) != self.grid.n_tasks:
            raise ValueError(f"expected {self.grid.n_tasks} task models, got {len(self.tasks)}")

    @property
    def n_features(self) -> int:
        return self.tasks[0].inputs.shape[1]

    def predict_rows(self, multi_indices, X) -> np.ndarray:
        """Predictions for rows of X, each addressed to its own task; one Gram per task."""
        X = query_inputs(X, 2, self.n_features)
        task_ids = np.array([linearize(self.grid, idx) - 1 for idx in multi_indices], dtype=int)
        if task_ids.shape[0] != X.shape[0]:
            raise DataError(f"{task_ids.shape[0]} task indices for inputs of shape {X.shape}")
        out = np.empty(X.shape[0])
        for t in np.unique(task_ids):
            rows = np.flatnonzero(task_ids == t)
            task = self.tasks[t]
            out[rows] = task.duals @ gram(self.kernel, task.inputs, X[rows]) + task.bias
        return out

    def predict_dataset(self, data: MtlDataset) -> list[np.ndarray]:
        """Per-task prediction blocks for a dataset on the same grid."""
        check_query_dataset(data, self.grid, self.n_features)
        return [task.duals @ gram(self.kernel, task.inputs, X) + task.bias for task, X in zip(self.tasks, data.inputs)]


def fit_independent(data: MtlDataset, C, kernel: KernelSpec):
    """Fit every task separately with shared hyperparameters.

    `C` is one cost, or a sequence of costs. Each task's Gram is built once
    and every cost still alive is one member of a single
    `solve_dual_system` call on it; a cost whose member fails on a task is
    not fit on the later ones. Each cost gives what its lone fit does bit
    for bit, its LssvmModel or its first failing task's SolverError.
    """
    data.require_nonempty_tasks()
    lone = not isinstance(C, (list, tuple)) and np.ndim(C) == 0
    costs = np.array([positive(c, "C") for c in ([C] if lone else C)])
    fits: list = [[] for _ in costs]  # per cost, its task fits so far or its SolverError
    for X, y in zip(data.inputs, data.targets):
        alive = [b for b, fit in enumerate(fits) if not isinstance(fit, SolverError)]
        if not alive:
            break
        solution = solve_dual_system(Blocks([X.shape[0]]), gram(kernel, X), y, costs[alive])
        for b, biases, duals, error in zip(alive, solution.biases, solution.duals, solution.errors):
            if error is None:
                fits[b].append(SingleTaskLssvm(duals, float(biases[0]), X, kernel))
            else:
                fits[b] = error
    models = [fit if isinstance(fit, SolverError) else LssvmModel(data.grid, kernel, tuple(fit)) for fit in fits]
    if lone and isinstance(models[0], SolverError):
        raise models[0]
    return models[0] if lone else models
