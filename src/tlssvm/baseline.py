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
from .linsys import Blocks, DenseGram, solve_dual_system
from .taskgrid import TaskGrid

__all__ = ["SingleTaskLssvm", "LssvmModel", "fit_independent"]


@dataclass(frozen=True)
class SingleTaskLssvm:
    """Dual solution for one task: coefficients, bias, and its training inputs.

    Its kernel is the model's (`LssvmModel.kernel`). Construction raises
    ValueError unless there is one dual per training row and every value
    is finite. Read-only float64 inputs are kept as given, so the fits of
    one task at several costs share its inputs; others are copied.
    """

    duals: np.ndarray
    bias: float
    inputs: np.ndarray

    def __post_init__(self) -> None:
        duals = np.array(self.duals, dtype=float)
        inputs = self.inputs
        if not (isinstance(inputs, np.ndarray) and inputs.dtype == np.float64 and not inputs.flags.writeable):
            inputs = np.array(inputs, dtype=float)
        bias = float(self.bias)
        if duals.ndim != 1 or inputs.ndim != 2 or duals.shape[0] != inputs.shape[0]:
            raise ValueError("need one dual coefficient per training sample")
        if not (np.isfinite(bias) and np.isfinite(duals).all() and np.isfinite(inputs).all()):
            raise ValueError("model contains non-finite values")
        duals.flags.writeable = False
        inputs.flags.writeable = False
        object.__setattr__(self, "duals", duals)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "bias", bias)

    @classmethod
    def _solved(cls, duals: np.ndarray, bias, inputs: np.ndarray) -> "SingleTaskLssvm":
        """A solved task's model, without the constructor's checks.

        `inputs` is an MtlDataset's read-only, finite block; `duals` (read-only,
        kept as given) and `bias` met the solver's residual bound, which no non-finite value meets.
        """
        task = object.__new__(cls)
        task.__dict__.update(duals=duals, bias=float(bias), inputs=inputs)
        return task


def query_inputs(x, ndim: int, n_features: int) -> np.ndarray:
    """Query inputs of a model as a float array: one row (ndim 1) or a matrix of rows (ndim 2).

    Raises DataError for the wrong shape or a NaN or infinite value.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-1] != n_features:
        expected = f"a length-{n_features} input" if ndim == 1 else f"n x {n_features} inputs"
        raise DataError(f"expected {expected}, got shape {x.shape}")
    if not np.isfinite(x).all():
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
        dims = {task.inputs.shape[1] for task in self.tasks}
        if len(dims) != 1:
            raise ValueError(f"task inputs disagree on feature dimension: {sorted(dims)}")

    @property
    def n_features(self) -> int:
        return self.tasks[0].inputs.shape[1]

    def predict_rows(self, multi_indices, X) -> np.ndarray:
        """Predictions for rows of X, each addressed to its own task; one Gram per task."""
        X = query_inputs(X, 2, self.n_features)
        task_ids = np.array([self.grid.task_row(idx) for idx in multi_indices], dtype=int)
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

    `C` is one cost, or a sequence of costs. Every task of one size and
    every cost is a member of a single `solve_dual_system` call on the
    size's block structure and task Grams (a `DenseGram`, each Gram built
    once), so a cost whose member fails on a task is still solved on the
    others. Each cost gives what its lone fit does bit for bit, its
    LssvmModel or its first failing task's SolverError.
    """
    data.require_nonempty_tasks()
    lone = not isinstance(C, (list, tuple)) and np.ndim(C) == 0
    costs = np.array([positive(c, "C") for c in ([C] if lone else C)])
    fits = [[None] * data.grid.n_tasks for _ in costs]  # per cost, each task's fit or SolverError
    for m in dict.fromkeys(data.task_sizes):
        tasks = [t for t, size in enumerate(data.task_sizes) if size == m]
        grams = tuple(gram(kernel, data.inputs[t]) for t in tasks)
        owner = np.arange(len(tasks)).repeat(len(costs))
        y = np.stack([data.targets[t] for t in tasks]).repeat(len(costs), axis=0)
        solution = solve_dual_system(Blocks([m]), DenseGram(grams, owner), y, np.tile(costs, len(tasks)))
        solution.duals.flags.writeable = False
        biases = solution.biases[:, 0].tolist()
        for member, error in enumerate(solution.errors):
            b, t = member % len(costs), tasks[member // len(costs)]
            fits[b][t] = error or SingleTaskLssvm._solved(solution.duals[member], biases[member], data.inputs[t])
    failed = [next((fit for fit in task_fits if isinstance(fit, SolverError)), None) for task_fits in fits]
    models = [error or LssvmModel(data.grid, kernel, tuple(task_fits)) for error, task_fits in zip(failed, fits)]
    if lone and isinstance(models[0], SolverError):
        raise models[0]
    return models[0] if lone else models


def cross_grams(kernel: KernelSpec, train: MtlDataset, query: MtlDataset) -> list[np.ndarray]:
    """Each task's Gram between its training inputs in `train` and its inputs in `query`, as its fits predict with."""
    return [gram(kernel, X, X_query) for X, X_query in zip(train.inputs, query.inputs)]
