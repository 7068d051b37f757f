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
from .linsys import solve_dual_system
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


def fit_single(X, y, C: float, kernel: KernelSpec, jitter: float = 0.0) -> SingleTaskLssvm:
    """Fit one task; the dual coefficients sum to zero by the bias stationarity."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad training block shapes: X {X.shape}, y {y.shape}")
    if X.shape[0] < 1:
        raise ValueError("need at least one training sample")
    G = gram(kernel, X)
    biases, duals, _ = solve_dual_system([X.shape[0]], G, y, C, jitter)
    return SingleTaskLssvm(duals, float(biases[0]), X, kernel)


def predict_single(model: SingleTaskLssvm, x) -> float:
    """sum_i alpha_i k(x, x_i) + b."""
    k = gram(model.kernel, model.inputs, np.asarray(x, dtype=float)[None, :])[:, 0]
    return float(model.duals @ k + model.bias)


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
        X = np.asarray(X, dtype=float)
        task_ids = np.array([linearize(self.grid, idx) - 1 for idx in multi_indices], dtype=int)
        if X.ndim != 2 or task_ids.shape[0] != X.shape[0]:
            raise DataError(f"{task_ids.shape[0]} task indices for inputs of shape {X.shape}")
        out = np.empty(X.shape[0])
        for t in np.unique(task_ids):
            rows = np.flatnonzero(task_ids == t)
            task = self.tasks[t]
            out[rows] = task.duals @ gram(self.kernel, task.inputs, X[rows]) + task.bias
        return out

    def predict_dataset(self, data: MtlDataset) -> list[np.ndarray]:
        """Per-task prediction blocks for a dataset on the same grid."""
        if data.grid != self.grid:
            raise DataError(
                f"dataset grid {data.grid.mode_sizes} does not match model grid {self.grid.mode_sizes}"
            )
        out = []
        for task, X in zip(self.tasks, data.inputs):
            if X.shape[0] == 0:
                out.append(np.zeros(0))
                continue
            k = gram(self.kernel, task.inputs, X)
            out.append(task.duals @ k + task.bias)
        return out


def fit_independent(data: MtlDataset, C: float, kernel: KernelSpec, jitter: float = 0.0) -> LssvmModel:
    """Fit every task separately with shared hyperparameters."""
    data.require_nonempty_tasks()
    tasks = tuple(
        fit_single(X, y, C, kernel, jitter) for X, y in zip(data.inputs, data.targets)
    )
    return LssvmModel(data.grid, kernel, tasks)
