"""Regression metrics and evaluation reports: RMSE, Q-squared, correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import MtlDataset
from .taskgrid import delinearize

__all__ = ["rmse", "q_squared", "correlation", "TaskScore", "EvalReport", "evaluate_predictions"]


def _pair(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.ndim != 1 or y_hat.ndim != 1 or y.shape != y_hat.shape:
        raise ValueError(f"need equal-length vectors, got shapes {y.shape} and {y_hat.shape}")
    if y.size == 0:
        raise ValueError("empty input")
    return y, y_hat


def rmse(y, y_hat) -> float:
    """Root mean squared error."""
    y, y_hat = _pair(y, y_hat)
    diff = y - y_hat
    return math.sqrt(float(diff @ diff) / y.size)


def q_squared(y, y_hat) -> float:
    """1 - ||y - y_hat||^2 / ||y||^2 (uncentered; denominator is the raw norm)."""
    y, y_hat = _pair(y, y_hat)
    denom = float(y @ y)
    if denom == 0.0:
        raise ValueError("q_squared undefined for all-zero reference values")
    diff = y - y_hat
    return 1.0 - float(diff @ diff) / denom


def correlation(y, y_hat) -> float:
    """Pearson correlation between reference and predicted values."""
    y, y_hat = _pair(y, y_hat)
    if y.size < 2 or np.ptp(y) == 0.0 or np.ptp(y_hat) == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.corrcoef(y, y_hat)[0, 1])


@dataclass(frozen=True)
class TaskScore:
    task_id: int
    multi_index: tuple[int, ...]
    n_samples: int
    rmse: float
    q2: float | None
    correlation: float | None


@dataclass(frozen=True)
class EvalReport:
    """Pooled and per-task scores for one model on one dataset.

    Pooled numbers concatenate all tasks' (y, y_hat) pairs; per-task Q2 or
    correlation can be None when undefined on that task's block.
    """

    rmse: float
    q2: float
    correlation: float
    n_samples: int
    per_task: tuple[TaskScore, ...]

    def to_dict(self) -> dict:
        return {
            "pooled": {"rmse": self.rmse, "q2": self.q2, "correlation": self.correlation},
            "n_samples": self.n_samples,
            "per_task": [
                {
                    "task": s.task_id,
                    "multi_index": list(s.multi_index),
                    "n_samples": s.n_samples,
                    "rmse": s.rmse,
                    "q2": s.q2,
                    "correlation": s.correlation,
                }
                for s in self.per_task
            ],
        }

    def format_table(self) -> str:
        header = f"{'scope':>12}  {'n':>6}  {'rmse':>12}  {'q2':>12}  {'correlation':>12}"
        lines = [header, "-" * len(header)]

        def fmt(v) -> str:
            return f"{v:12.6f}" if v is not None else f"{'n/a':>12}"

        lines.append(
            f"{'pooled':>12}  {self.n_samples:>6}  {fmt(self.rmse)}  {fmt(self.q2)}  {fmt(self.correlation)}"
        )
        for s in self.per_task:
            scope = "(" + ",".join(str(i) for i in s.multi_index) + ")"
            lines.append(
                f"{scope:>12}  {s.n_samples:>6}  {fmt(s.rmse)}  {fmt(s.q2)}  {fmt(s.correlation)}"
            )
        return "\n".join(lines)


def evaluate_predictions(data: MtlDataset, predictions) -> EvalReport:
    """Score per-task prediction blocks against a dataset's targets."""
    predictions = [np.asarray(p, dtype=float) for p in predictions]
    if len(predictions) != data.grid.n_tasks:
        raise ValueError(
            f"got {len(predictions)} prediction blocks for {data.grid.n_tasks} tasks"
        )
    scores = []
    for t, (y, p) in enumerate(zip(data.targets, predictions), start=1):
        if y.shape != p.shape:
            raise ValueError(f"task {t}: prediction block shape {p.shape} vs targets {y.shape}")
        try:
            q2_t = q_squared(y, p)
        except ValueError:
            q2_t = None
        try:
            corr_t = correlation(y, p)
        except ValueError:
            corr_t = None
        scores.append(
            TaskScore(t, delinearize(data.grid, t), y.size, rmse(y, p), q2_t, corr_t)
        )
    y_all = data.stacked_targets()
    p_all = np.concatenate(predictions)
    return EvalReport(
        rmse=rmse(y_all, p_all),
        q2=q_squared(y_all, p_all),
        correlation=correlation(y_all, p_all),
        n_samples=y_all.size,
        per_task=tuple(scores),
    )
