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
from .errors import DataError
from .kernels import KernelSpec, gram
from .linsys import Blocks, solve_dual_system
from .taskgrid import TaskGrid, linearize

__all__ = ["SingleTaskLssvm", "LssvmModel", "fit_single", "fit_independent", "predict_single"]


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


def fit_single(X, y, C: float, kernel: KernelSpec) -> SingleTaskLssvm:
    """Fit one task; the dual coefficients sum to zero by the bias stationarity."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad training block shapes: X {X.shape}, y {y.shape}")
    if X.shape[0] < 1:
        raise ValueError("need at least one training sample")
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"training {name} contains NaN or infinite values")
    G = gram(kernel, X)
    biases, duals = solve_dual_system(Blocks([X.shape[0]]), G, y, C)[:2]
    return SingleTaskLssvm(duals, float(biases[0]), X, kernel)


def predict_single(model: SingleTaskLssvm, x) -> float:
    """sum_i alpha_i k(x, x_i) + b."""
    x = query_inputs(x, 1, model.inputs.shape[1])
    k = gram(model.kernel, model.inputs, x[None, :])[:, 0]
    return float(model.duals @ k + model.bias)


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
        out = []
        for task, X in zip(self.tasks, data.inputs):
            if X.shape[0] == 0:
                out.append(np.zeros(0))
                continue
            k = gram(self.kernel, task.inputs, X)
            out.append(task.duals @ k + task.bias)
        return out


def fit_independent(data: MtlDataset, C: float, kernel: KernelSpec) -> LssvmModel:
    """Fit every task separately with shared hyperparameters."""
    data.require_nonempty_tasks()
    tasks = tuple(fit_single(X, y, C, kernel) for X, y in zip(data.inputs, data.targets))
    return LssvmModel(data.grid, kernel, tasks)
