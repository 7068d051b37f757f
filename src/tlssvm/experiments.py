"""Cross-validated hyperparameter search and the multi-SNR benchmark.

Both experiments are deterministic given their seeds: fold assignment,
factor initialization, and per-repetition data seeds are all derived from
caller-supplied integers, and result dictionaries contain no timestamps,
so serialized outputs are byte-identical across reruns.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .baseline import LssvmModel, cross_grams, fit_independent
from .data import MtlDataset, SyntheticSpec, generate_synthetic, kfold_split
from .errors import ConfigError, SolverError, config_object, positive, whole
from .kernels import KernelSpec
from .metrics import evaluate_predictions
from .model import TrainedModel, query_gram, shared_projection, task_predictions
from .solver import FitConfig, fit, fit_many
from .taskgrid import row_product_table

__all__ = [
    "METHOD_TENSOR",
    "METHOD_BASELINE",
    "DEFAULT_RANKS",
    "DEFAULT_COSTS",
    "DEFAULT_GAMMAS",
    "CvPlan",
    "CvCell",
    "CvResult",
    "run_cv",
    "fit_method",
    "fit_best",
    "BenchmarkRun",
    "BenchmarkResult",
    "run_benchmark",
]

METHOD_TENSOR = TrainedModel.method
METHOD_BASELINE = LssvmModel.method

DEFAULT_RANKS = (1, 2, 3, 5)
DEFAULT_COSTS = tuple(float(c) for c in np.logspace(-2, 3, 6))
DEFAULT_GAMMAS = tuple(float(g) for g in np.logspace(-3, 1, 5))


@dataclass(frozen=True)
class CvPlan:
    """Search space and fit settings for one method's grid search.

    `gammas` applies only to the rbf family; `ranks` applies only to the
    tensorized method and is ignored for the independent baseline. Both
    are checked all the same. `costs` and `gammas` keep their values as
    given (an integer cost stays an integer), since a CvResult echoes them.
    A cell is named by its values, so no list may repeat one.
    """

    kernel_family: str = "linear"
    ranks: tuple[int, ...] = DEFAULT_RANKS
    costs: tuple[float, ...] = DEFAULT_COSTS
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    folds: int = 5
    max_iters: int = 100
    tol: float = 1e-3

    def __post_init__(self) -> None:
        if self.kernel_family not in ("linear", "rbf"):
            raise ConfigError(f"unknown kernel family {self.kernel_family!r}")
        object.__setattr__(self, "ranks", tuple(whole(self.ranks, "ranks", 1, many=True, distinct=True).tolist()))
        object.__setattr__(self, "costs", positive(self.costs, "costs", many=True))
        object.__setattr__(self, "gammas", positive(self.gammas, "gammas", many=True, needs="each a finite gamma > 0"))
        object.__setattr__(self, "folds", whole(self.folds, "folds", 2))
        object.__setattr__(self, "max_iters", whole(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "tol", positive(self.tol, "tol", finite=False))

    @classmethod
    def from_config(cls, cfg: dict) -> "CvPlan":
        return cls(**config_object(cfg, "cv config", (), [f.name for f in dataclasses.fields(cls)]))

    def _gamma_axis(self) -> tuple[float | None, ...]:
        return self.gammas if self.kernel_family == "rbf" else (None,)

    def _rank_axis(self, method: str) -> tuple[int | None, ...]:
        return self.ranks if method == METHOD_TENSOR else (None,)

    def kernel(self, gamma: float | None) -> KernelSpec:
        return KernelSpec(self.kernel_family, gamma)


@dataclass(frozen=True)
class CvCell:
    rank: int | None
    cost: float
    gamma: float | None
    fold_rmses: tuple[float, ...] | None
    mean_rmse: float | None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "cost": self.cost,
            "gamma": self.gamma,
            "fold_rmses": None if self.fold_rmses is None else list(self.fold_rmses),
            "mean_rmse": self.mean_rmse,
            "error": self.error,
        }


@dataclass(frozen=True)
class CvResult:
    method: str
    kernel_family: str
    folds: int
    seed: int
    cells: tuple[CvCell, ...]
    best: CvCell

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "kernel_family": self.kernel_family,
            "folds": self.folds,
            "seed": self.seed,
            "best": self.best.to_dict(),
            "cells": [c.to_dict() for c in self.cells],
        }


def fit_method(
    data: MtlDataset,
    method: str,
    rank: int | None,
    cost: float,
    kernel: KernelSpec,
    *,
    max_iters: int = 100,
    tol: float = 1e-3,
    seed: int = 0,
):
    """Fit one method at fixed hyperparameters; returns a predict-capable model."""
    if method == METHOD_BASELINE:
        return fit_independent(data, cost, kernel)
    if method == METHOD_TENSOR:
        if rank is None:
            raise ConfigError("tensorized method needs a rank")
        config = FitConfig(K=rank, C=cost, kernel=kernel, max_iters=max_iters, tol=tol, seed=seed)
        return TrainedModel.from_fit(data, fit(data, config), kernel)
    raise ConfigError(f"unknown method {method!r}")


def run_cv(data: MtlDataset, method: str, plan: CvPlan, seed: int = 0) -> CvResult:
    """Exhaustive grid search by k-fold validation RMSE.

    Cells are reported rank-major, then cost, then gamma, all ascending, and
    the best cell is the first strict minimum of mean validation RMSE, so
    ties resolve to the smallest rank, then cost, then gamma. A cell whose
    fit fails on a fold is recorded with that fit's error and skipped; only
    a fully failed grid raises.

    Each method visits rank, then gamma, then its folds, and fits the costs
    still alive together, each fit equal to its lone fit and scored from it
    as its model would predict: the cells are those of every cell alone.
    The tensorized method fits the folds of one block structure (a run of
    folds whose tasks have the same training sizes, `_lockstep_folds`) in
    one `solver.fit_many` call, every (fold, cost) pair a member, which
    runs them in one alternation when the shared step is the
    task-Kronecker ridge and fold after fold otherwise; the baseline
    fits each fold with `fit_independent` and a sequence of costs, which
    solves every task and alive cost of one task size in one dense member
    solve, and scores them on `cross_grams`. A cost
    leaves its (rank, gamma) after the folds in which it first failed, and
    its cell keeps the error of its first failing fold.
    """
    if method not in (METHOD_TENSOR, METHOD_BASELINE):
        raise ConfigError(f"unknown method {method!r}")
    splits = kfold_split(data, plan.folds, seed)
    runs = _lockstep_folds(splits) if method == METHOD_TENSOR else [[split] for split in splits]
    ranks = sorted(plan._rank_axis(method), key=lambda r: (r is not None, r))
    costs = sorted(plan.costs)
    gammas = sorted(plan._gamma_axis(), key=lambda g: (g is not None, g))
    scores: dict[tuple, list[float] | str] = {}  # per cell, its fold RMSEs or its error
    for rank in ranks:
        for gamma in gammas:
            kernel = plan.kernel(gamma)
            for cost in costs:
                scores[rank, cost, gamma] = []
            for folds in runs:
                alive = [cost for cost in costs if not isinstance(scores[rank, cost, gamma], str)]
                if not alive:
                    break
                if method == METHOD_TENSOR:
                    config = FitConfig(
                        K=rank, C=alive[0], kernel=kernel, max_iters=plan.max_iters, tol=plan.tol, seed=seed
                    )
                    fits = fit_many([train for train, _ in folds], config, alive)
                    rmses = [_tensor_rmses(states, val, kernel) for states, (_, val) in zip(fits, folds)]
                else:
                    rmses = [
                        _baseline_rmses(fit_independent(train, alive, kernel), train, val, kernel)
                        for train, val in folds
                    ]
                for fold in rmses:
                    for cost, score in zip(alive, fold):
                        if isinstance(scores[rank, cost, gamma], str):
                            continue  # the cost failed on an earlier fold
                        if isinstance(score, SolverError):
                            scores[rank, cost, gamma] = str(score)
                        else:
                            scores[rank, cost, gamma].append(score)
    cells = []
    for rank, cost, gamma in itertools.product(ranks, costs, gammas):
        score = scores[rank, cost, gamma]
        if isinstance(score, str):
            cells.append(CvCell(rank, cost, gamma, None, None, score))
        else:
            cells.append(CvCell(rank, cost, gamma, tuple(score), float(np.mean(score))))
    scored = [cell for cell in cells if cell.error is None]
    if not scored:
        raise SolverError(f"all {len(cells)} grid cells failed; first error: {cells[0].error}")
    best = min(scored, key=lambda cell: cell.mean_rmse)  # the first minimum
    return CvResult(method, plan.kernel_family, plan.folds, seed, tuple(cells), best)


def _lockstep_folds(splits: list) -> list[list]:
    """The (train, validation) splits in runs of consecutive folds whose training tasks have equal sizes.

    `kfold_split` gives the first folds of a task one validation sample
    more than the last, so the folds of one block structure follow one
    another.
    """
    return [list(run) for _, run in itertools.groupby(splits, key=lambda split: split[0].task_sizes)]


def _tensor_rmses(states: list, val: MtlDataset, kernel: KernelSpec) -> list:
    """Each fit's pooled RMSE on `val` as its TrainedModel predicts, one RBF cross-Gram for all, or its SolverError."""
    X, task_ids, mode_indices = val.stacked_inputs(), val.sample_task_ids(), val.grid.mode_indices
    shared = next((state.shared for state in states if not isinstance(state, SolverError)), None)
    cross_gram = None if shared is None or shared.explicit is not None else query_gram(shared, kernel, X)
    return _rmses(states, val, lambda state: task_predictions(
        shared_projection(state.shared, kernel, X, cross_gram), row_product_table(state.factors.factors, mode_indices),
        state.biases, task_ids,
    ))


def _baseline_rmses(models: list, train: MtlDataset, val: MtlDataset, kernel: KernelSpec) -> list:
    """Each model's pooled RMSE on `val` as it predicts, one cross-Gram per task for all, or its SolverError."""
    grams = cross_grams(kernel, train, val)
    return _rmses(models, val, lambda model: np.concatenate([t.duals @ k + t.bias for t, k in zip(model.tasks, grams)]))


def _rmses(fits: list, val: MtlDataset, predict) -> list:
    """Each fit's pooled RMSE on `val` by `predict`; a SolverError stays as it is."""
    y = val.stacked_targets()
    return [fit if isinstance(fit, SolverError) else float(np.sqrt(np.mean((y - predict(fit)) ** 2))) for fit in fits]


def fit_best(data: MtlDataset, result: CvResult, plan: CvPlan, seed: int = 0):
    """Refit the winning cell on the full training data."""
    return fit_method(
        data,
        result.method,
        result.best.rank,
        result.best.cost,
        plan.kernel(result.best.gamma),
        max_iters=plan.max_iters,
        tol=plan.tol,
        seed=seed,
    )


@dataclass(frozen=True)
class BenchmarkRun:
    snr: float
    rep: int
    data_seed: int
    method: str
    selected: CvCell
    rmse: float
    q2: float
    correlation: float

    def to_dict(self) -> dict:
        return {
            "snr": self.snr,
            "rep": self.rep,
            "data_seed": self.data_seed,
            "method": self.method,
            "selected": self.selected.to_dict(),
            "metrics": {"rmse": self.rmse, "q2": self.q2, "correlation": self.correlation},
        }


@dataclass(frozen=True)
class BenchmarkResult:
    runs: tuple[BenchmarkRun, ...]
    methods: tuple[str, ...]
    snrs: tuple[float, ...]
    reps: int
    base_seed: int

    def summary_rows(self) -> list[dict]:
        """One averaged row per (snr, method), in grid order."""
        rows = []
        for snr in self.snrs:
            for method in self.methods:
                hits = [r for r in self.runs if r.snr == snr and r.method == method]
                rows.append(
                    {
                        "snr": snr,
                        "method": method,
                        "reps": len(hits),
                        "rmse": float(np.mean([r.rmse for r in hits])),
                        "q2": float(np.mean([r.q2 for r in hits])),
                        "correlation": float(np.mean([r.correlation for r in hits])),
                    }
                )
        return rows

    def to_dict(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "reps": self.reps,
            "snrs": list(self.snrs),
            "methods": list(self.methods),
            "summary": self.summary_rows(),
            "runs": [r.to_dict() for r in self.runs],
        }


def run_benchmark(
    template: SyntheticSpec,
    snrs: tuple[float, ...],
    reps: int,
    base_seed: int,
    plans: dict[str, CvPlan],
) -> BenchmarkResult:
    """Repeat the synthetic comparison across SNR levels.

    Each (snr, rep) pair regenerates data with seed
    `base_seed + 1000*snr_index + rep`, tunes every method in `plans` by
    cross-validation on the training split, refits the winner, and scores
    the test split. Rows of the summary average the repetitions.
    """
    reps = whole(reps, "repetitions", 1)
    base_seed = whole(base_seed, "base_seed", 0)
    snrs = positive(snrs, "snrs", finite=False, many=True)
    methods = tuple(plans)
    if not methods:
        raise ConfigError("no methods to benchmark")
    runs = []
    for snr_index, snr in enumerate(snrs):
        for rep in range(reps):
            data_seed = base_seed + 1000 * snr_index + rep
            spec = dataclasses.replace(template, snr=float(snr), seed=data_seed)
            train, test, _ = generate_synthetic(spec)
            for method in methods:
                plan = plans[method]
                cv = run_cv(train, method, plan, seed=data_seed)
                model = fit_best(train, cv, plan, seed=data_seed)
                report = evaluate_predictions(test, model.predict_dataset(test))
                runs.append(
                    BenchmarkRun(
                        snr=float(snr),
                        rep=rep,
                        data_seed=data_seed,
                        method=method,
                        selected=cv.best,
                        rmse=report.rmse,
                        q2=report.q2,
                        correlation=report.correlation,
                    )
                )
    return BenchmarkResult(tuple(runs), methods, tuple(float(s) for s in snrs), reps, base_seed)
