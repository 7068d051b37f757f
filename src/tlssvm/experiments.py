"""Cross-validated hyperparameter search and the multi-SNR benchmark.

Both experiments are deterministic given their seeds: fold assignment,
factor initialization, and per-repetition data seeds are all derived from
caller-supplied integers, and result dictionaries contain no timestamps,
so serialized outputs are byte-identical across reruns.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .baseline import LssvmModel, fit_independent
from .data import MtlDataset, SyntheticSpec, generate_synthetic, kfold_split
from .errors import ConfigError, SolverError, whole
from .kernels import KernelSpec
from .metrics import evaluate_predictions
from .model import TrainedModel
from .solver import FitConfig, fit, fit_many

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

METHOD_TENSOR = "tlssvm"
METHOD_BASELINE = "lssvm-independent"

DEFAULT_RANKS = (1, 2, 3, 5)
DEFAULT_COSTS = tuple(float(c) for c in np.logspace(-2, 3, 6))
DEFAULT_GAMMAS = tuple(float(g) for g in np.logspace(-3, 1, 5))


@dataclass(frozen=True)
class CvPlan:
    """Search space and fit settings for one method's grid search.

    `gammas` applies only to the rbf family; `ranks` applies only to the
    tensorized method and is ignored for the independent baseline.
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
        for name in ("ranks", "costs", "gammas"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} grid must be non-empty")
        object.__setattr__(self, "folds", whole(self.folds, "folds", 2))
        object.__setattr__(self, "max_iters", whole(self.max_iters, "max_iters", 1))
        if not all(0 < float(c) < math.inf for c in self.costs):
            raise ConfigError(f"costs must be positive and finite, got {list(self.costs)}")
        object.__setattr__(self, "ranks", tuple(whole(self.ranks, "ranks", 1).tolist()))
        for gamma in self._gamma_axis():
            self.kernel(gamma)  # KernelSpec rejects a gamma that is not finite and positive

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


def _pooled_rmse(model, data: MtlDataset) -> float:
    # plain pooled RMSE; avoids the correlation/q2 preconditions of the full report
    predicted = np.concatenate(model.predict_dataset(data))
    return float(np.sqrt(np.mean((data.stacked_targets() - predicted) ** 2)))


def run_cv(data: MtlDataset, method: str, plan: CvPlan, seed: int = 0) -> CvResult:
    """Exhaustive grid search by k-fold validation RMSE.

    Cells are reported rank-major, then cost, then gamma, all ascending, and
    the best cell is the first strict minimum of mean validation RMSE, so
    ties resolve to the smallest rank, then cost, then gamma. A cell whose
    fit fails on a fold is recorded with that fit's error and skipped; only
    a fully failed grid raises.

    The tensorized method visits rank, then gamma, then fold, and fits the
    costs still alive on a fold in lockstep (`solver.fit_many`, one Gram
    for all of them): each cost's fit equals its lone fit, so the cells
    are those of fitting every cell alone. A cost leaves its (rank, gamma)
    at its first failing fold.
    """
    if method not in (METHOD_TENSOR, METHOD_BASELINE):
        raise ConfigError(f"unknown method {method!r}")
    splits = kfold_split(data, plan.folds, seed)
    ranks = sorted(plan._rank_axis(method), key=lambda r: (r is not None, r))
    costs = sorted(plan.costs)
    gammas = sorted(plan._gamma_axis(), key=lambda g: (g is not None, g))
    scores: dict[tuple, list[float] | str] = {}  # per cell, its fold RMSEs or its error
    for rank in ranks:
        for gamma in gammas:
            kernel = plan.kernel(gamma)
            for cost in costs:
                scores[rank, cost, gamma] = []
            for fold_train, fold_val in splits:
                alive = [cost for cost in costs if not isinstance(scores[rank, cost, gamma], str)]
                if not alive:
                    break
                for cost, model in zip(alive, _fold_models(fold_train, method, rank, alive, kernel, plan, seed)):
                    if isinstance(model, SolverError):
                        scores[rank, cost, gamma] = str(model)
                    else:
                        scores[rank, cost, gamma].append(_pooled_rmse(model, fold_val))
    cells = []
    best = None
    for rank in ranks:
        for cost in costs:
            for gamma in gammas:
                score = scores[rank, cost, gamma]
                if isinstance(score, str):
                    cells.append(CvCell(rank, cost, gamma, None, None, score))
                    continue
                cell = CvCell(rank, cost, gamma, tuple(score), float(np.mean(score)))
                cells.append(cell)
                if best is None or cell.mean_rmse < best.mean_rmse:
                    best = cell
    if best is None:
        raise SolverError(
            f"all {len(cells)} grid cells failed; first error: {cells[0].error}"
        )
    return CvResult(method, plan.kernel_family, plan.folds, seed, tuple(cells), best)


def _fold_models(data: MtlDataset, method: str, rank, costs, kernel: KernelSpec, plan: CvPlan, seed: int):
    """One fold's model per cost, or the SolverError its fit raised."""
    if method == METHOD_TENSOR:
        config = FitConfig(
            K=rank, C=costs[0], kernel=kernel, max_iters=plan.max_iters, tol=plan.tol, seed=seed
        )
        return [
            state if isinstance(state, SolverError) else TrainedModel.from_fit(data, state, kernel)
            for state in fit_many(data, config, costs)
        ]
    models = []
    for cost in costs:
        try:
            models.append(fit_method(data, method, rank, cost, kernel))
        except SolverError as exc:
            models.append(exc)
    return models


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
    if not snrs:
        raise ConfigError("snr grid must be non-empty")
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
