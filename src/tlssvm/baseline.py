"""Independent per-task LSSVM regression, the single-task sanity baseline.

Each task is fit on its own by the standard LSSVM dual system

    [[0, 1^T], [1, G + I/C]] [b; alpha] = [0; y]

with G the task's kernel Gram matrix. No information is shared between
tasks. The fits are `model.LssvmModel`s, which predict without this module.
"""

from __future__ import annotations

import numpy as np

from .data import MtlDataset
from .errors import SolverError, positive
from .kernels import KernelSpec, gram
from .linsys import Blocks, DenseGram, solve_dual_system
from .model import LssvmModel, SingleTaskLssvm

__all__ = ["fit_independent", "cross_grams"]


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
