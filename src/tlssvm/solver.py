"""Alternating solver for the tensorized multitask LSSVM.

The model couples T tasks through a CP-factorized weight tensor: a shared
factor common to all tasks and one T_n x K factor per task-grid mode. Each
outer iteration solves the shared-factor subproblem, then sweeps every row
of every mode factor; all subproblems are equality-constrained quadratics
solved exactly, so the training objective is non-increasing across block
steps.

Every block step is the saddle-point system of `linsys` with a system
matrix Q = Phi Phi^T whenever the step has a finite feature matrix Phi:
the reduced features Z of a mode-row step (K columns), and for kernels with
a finite feature map the shared-step features u_t(j) kron phi(x_j) (d_h K
columns). Such a step hands Q to `linsys.solve_dual_system` as a
FeatureGram, which solves it as a centered ridge in the primal weights
when Phi has no more columns than rows, and otherwise, like every RBF
shared step, by the dense LU.

Rows within a mode touch disjoint task sets; they are solved sequentially
here (deterministically), with the reduced features recomputed once per
mode sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import MtlDataset
from .errors import ConfigError, SolverError
from .kernels import KernelSpec, gram
from .linsys import FeatureGram, solve_dual_system
from .taskgrid import (
    ModeFactors,
    SharedFactor,
    TaskGrid,
    coslice_tasks,
    exclusion_table,
    task_vector_table,
)

__all__ = [
    "FitConfig",
    "FitState",
    "TraceEntry",
    "init_factors",
    "coherence_weighted_gram",
    "solve_shared_step",
    "shared_projection",
    "reduced_features",
    "solve_mode_row_step",
    "evaluate_objective",
    "fit",
]


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters and controls for one fit."""

    K: int
    C: float
    kernel: KernelSpec
    max_iters: int = 100
    tol: float = 1e-3
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.K) < 1:
            raise ConfigError(f"rank K must be >= 1, got {self.K}")
        if not float(self.C) > 0:
            raise ConfigError(f"C must be positive, got {self.C}")
        if int(self.max_iters) < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not float(self.tol) > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if float(self.jitter) < 0:
            raise ConfigError(f"jitter must be nonnegative, got {self.jitter}")
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "max_iters", int(self.max_iters))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "jitter", float(self.jitter))
        object.__setattr__(self, "seed", int(self.seed))

    def to_config(self) -> dict:
        return {
            "K": self.K,
            "C": self.C,
            "kernel": self.kernel.to_config(),
            "max_iters": self.max_iters,
            "tol": self.tol,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "FitConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("fit config must be a JSON object")
        required = {"K", "C", "kernel"}
        missing = required - set(cfg)
        if missing:
            raise ConfigError(f"fit config missing keys: {sorted(missing)}")
        known = {"K", "C", "kernel", "max_iters", "tol", "jitter", "seed"}
        extra = set(cfg) - known
        if extra:
            raise ConfigError(f"unknown fit config keys: {sorted(extra)}")
        return cls(
            K=int(cfg["K"]),
            C=float(cfg["C"]),
            kernel=KernelSpec.from_config(cfg["kernel"]),
            max_iters=int(cfg.get("max_iters", 100)),
            tol=float(cfg.get("tol", 1e-3)),
            jitter=float(cfg.get("jitter", 0.0)),
            seed=int(cfg.get("seed", 0)),
        )


@dataclass(frozen=True)
class TraceEntry:
    """Objective/RMSE snapshot after one block step.

    `step` is "init" (before any solve), "shared", or "mode{n}/row{r}".
    `factor_change` is filled on the last entry of each outer iteration.
    """

    iteration: int
    step: str
    objective: float
    train_rmse: float
    factor_change: float | None = None


@dataclass
class FitState:
    """Result of :func:`fit`."""

    factors: ModeFactors
    shared: SharedFactor
    biases: np.ndarray
    duals: np.ndarray
    trace: list[TraceEntry]
    converged: bool
    iterations: int
    warnings: list[str] = field(default_factory=list)
    max_system_residual: float = 0.0
    max_constraint_residual: float = 0.0


def init_factors(grid: TaskGrid, rank: int, seed: int) -> ModeFactors:
    """Seeded standard-normal mode factors with unit-norm columns."""
    if int(rank) < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    mats = []
    for size in grid.mode_sizes:
        f = rng.standard_normal((size, int(rank)))
        f /= np.linalg.norm(f, axis=0, keepdims=True)
        mats.append(f)
    return ModeFactors(tuple(mats))


def coherence_weighted_gram(
    data: MtlDataset,
    factors: ModeFactors,
    kernel: KernelSpec,
    gram_matrix: np.ndarray | None = None,
) -> np.ndarray:
    """m x m system matrix: task-vector coherence <u_t, u_q> times the kernel Gram.

    Entry (j, j') couples sample i of task t with sample p of task q, where
    j runs over the global sample order.
    """
    if factors.grid != data.grid:
        raise ValueError(
            f"factor grid {factors.grid.mode_sizes} does not match data grid {data.grid.mode_sizes}"
        )
    G = gram(kernel, data.stacked_inputs()) if gram_matrix is None else gram_matrix
    u_table = task_vector_table(factors)
    coherence = u_table @ u_table.T
    coherence = 0.5 * (coherence + coherence.T)
    tid = data.sample_task_ids()
    return coherence[np.ix_(tid, tid)] * G


def _block_sums(values: np.ndarray, block_sizes) -> np.ndarray:
    ends = np.cumsum(block_sizes)
    return np.add.reduceat(values, np.concatenate([[0], ends[:-1]]))


@dataclass(frozen=True)
class SharedStepResult:
    shared: SharedFactor
    biases: np.ndarray
    system_residual: float
    constraint_residual: float


def solve_shared_step(
    data: MtlDataset,
    factors: ModeFactors,
    kernel: KernelSpec,
    C: float,
    jitter: float = 0.0,
    gram_matrix: np.ndarray | None = None,
) -> SharedStepResult:
    """Exactly minimize over the shared factor, biases, and residuals.

    With a finite feature map the system matrix is Phi Phi^T for the m x dK
    features Phi_j = u_t(j) kron x_j (the linear kernel's map is the
    identity), solved through the smaller of its two forms. Other kernels
    solve the (T+m)-dimensional dual system with the coherence-weighted
    Gram matrix. The updated shared factor is returned in dual form (plus
    the explicit matrix whenever the kernel has a finite feature map).
    """
    data.require_nonempty_tasks()
    y = data.stacked_targets()
    u_table = task_vector_table(factors)
    task_vectors = u_table[data.sample_task_ids()]
    explicit = None
    if kernel.has_feature_map:
        X = data.stacked_inputs()
        Phi = (task_vectors[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
        biases, duals, residual = solve_dual_system(data.task_sizes, FeatureGram(Phi), y, C, jitter)
        explicit = X.T @ (duals[:, None] * task_vectors)
    else:
        Q = coherence_weighted_gram(data, factors, kernel, gram_matrix=gram_matrix)
        biases, duals, residual = solve_dual_system(data.task_sizes, Q, y, C, jitter)
    constraint = float(np.max(np.abs(_block_sums(duals, data.task_sizes))))
    shared = SharedFactor(duals, u_table, data, explicit)
    return SharedStepResult(shared, biases, residual, constraint)


def shared_projection(
    shared: SharedFactor,
    kernel: KernelSpec,
    query_inputs: np.ndarray,
    cross_gram: np.ndarray | None = None,
) -> np.ndarray:
    """Image of each query sample's features through the shared factor.

    Row j is the length-K vector obtained by projecting phi(x_j) onto the
    shared factor's columns. The dual path never materializes a feature-
    space object: it contracts the kernel block between training and query
    samples with the dual coefficients and the task-vector snapshot.
    `cross_gram`, if given, is that (m_train x n_query) block.
    """
    query_inputs = np.asarray(query_inputs, dtype=float)
    if shared.explicit is not None:
        return query_inputs @ shared.explicit
    train: MtlDataset = shared.train_data
    if cross_gram is None:
        cross_gram = gram(kernel, train.stacked_inputs(), query_inputs)
    weighted = shared.duals[:, None] * shared.task_vector_snapshot[train.sample_task_ids()]
    return cross_gram.T @ weighted


def reduced_features(
    data: MtlDataset,
    shared: SharedFactor,
    factors: ModeFactors,
    kernel: KernelSpec,
    mode: int,
    projection: np.ndarray | None = None,
) -> np.ndarray:
    """m x K reduced features for one mode's row subproblems.

    Each sample's row is its shared projection Hadamard-multiplied with the
    task's exclusion product over all other modes.
    """
    if projection is None:
        projection = shared_projection(shared, kernel, data.stacked_inputs())
    excl = exclusion_table(factors, mode)
    return projection * excl[data.sample_task_ids()]


@dataclass(frozen=True)
class ModeRowResult:
    row_values: np.ndarray
    biases: np.ndarray
    duals: np.ndarray
    tasks: np.ndarray
    system_residual: float
    constraint_residual: float


def solve_mode_row_step(
    data: MtlDataset,
    z: np.ndarray,
    mode: int,
    row: int,
    C: float,
    jitter: float = 0.0,
) -> ModeRowResult:
    """Exactly minimize over one mode-factor row and its co-sliced biases.

    Only the tasks whose mode index equals `row` take part; the system
    matrix is the Gram of their reduced features Z, solved through the
    smaller of its two forms (a K x K ridge unless K exceeds the sample
    count). The optimal row is the dual-weighted sum of those features.
    """
    data.require_nonempty_tasks()
    grid = data.grid
    tasks = coslice_tasks(grid, mode, row)
    offsets = data.task_offsets()
    sizes = data.task_sizes
    sel = np.concatenate(
        [np.arange(offsets[t - 1], offsets[t - 1] + sizes[t - 1]) for t in tasks]
    )
    Z = np.asarray(z, dtype=float)[sel]
    if not np.any(Z):
        raise SolverError(
            f"mode {mode} row {row}: all reduced features are zero, the row "
            "subproblem is degenerate (row would vanish and biases reduce to task means)"
        )
    y_sel = data.stacked_targets()[sel]
    block_sizes = [sizes[t - 1] for t in tasks]
    biases, duals, residual = solve_dual_system(block_sizes, FeatureGram(Z), y_sel, C, jitter)
    constraint = float(np.max(np.abs(_block_sums(duals, block_sizes))))
    return ModeRowResult(Z.T @ duals, biases, duals, tasks, residual, constraint)


def _shared_penalty(shared: SharedFactor, kernel: KernelSpec, gram_matrix: np.ndarray | None) -> float:
    """Squared Frobenius norm of the shared factor, tr(L L^T)."""
    if shared.explicit is not None:
        return float(np.sum(shared.explicit**2))
    train: MtlDataset = shared.train_data
    G = gram(kernel, train.stacked_inputs()) if gram_matrix is None else gram_matrix
    weighted = shared.duals[:, None] * shared.task_vector_snapshot[train.sample_task_ids()]
    return float(np.sum(weighted * (G @ weighted)))


def _predictions(projection, u_table, biases, tid) -> np.ndarray:
    return np.sum(projection * u_table[tid], axis=1) + biases[tid]


def evaluate_objective(
    data: MtlDataset,
    shared: SharedFactor | None,
    factors: ModeFactors,
    biases: np.ndarray,
    C: float,
    kernel: KernelSpec,
    gram_matrix: np.ndarray | None = None,
) -> float:
    """Training objective: C/2 * sum of squared residuals plus the factor penalties.

    `shared=None` stands for a zero shared factor (the state before the
    first shared-step). Residuals use the current mode factors against the
    shared factor's stored representation.
    """
    y = data.stacked_targets()
    tid = data.sample_task_ids()
    biases = np.asarray(biases, dtype=float)
    if shared is None:
        yhat = biases[tid]
        pen_shared = 0.0
    else:
        cross = gram_matrix if shared.train_data is data else None
        projection = shared_projection(shared, kernel, data.stacked_inputs(), cross)
        yhat = _predictions(projection, task_vector_table(factors), biases, tid)
        pen_shared = _shared_penalty(shared, kernel, gram_matrix)
    residuals = y - yhat
    pen_modes = sum(float(np.sum(f**2)) for f in factors.factors)
    return 0.5 * C * float(residuals @ residuals) + 0.5 * pen_shared + 0.5 * pen_modes


def _factor_change(new_mats, old_mats) -> float:
    total = 0.0
    for new, old in zip(new_mats, old_mats):
        denom = float(np.sum(old**2))
        num = float(np.sum((new - old) ** 2))
        if denom == 0.0:
            total += 0.0 if num == 0.0 else math.inf
        else:
            total += num / denom
    return total


def fit(data: MtlDataset, config: FitConfig) -> FitState:
    """Alternate shared-factor and mode-row solves until the factors settle.

    Per outer iteration: one shared step, then for each mode in order a full
    row sweep (rows in order, reduced features refreshed per mode). Stops
    when the summed relative factor change drops below `config.tol` or
    after `config.max_iters` iterations (then flagged, not an error).
    """
    data.require_nonempty_tasks()
    grid = data.grid
    kernel = config.kernel
    y = data.stacked_targets()
    tid = data.sample_task_ids()
    m = data.n_samples

    # Only kernels without a feature map solve through the m x m Gram.
    G = None if kernel.has_feature_map else gram(kernel, data.stacked_inputs())
    factor_mats = [f.copy() for f in init_factors(grid, config.K, config.seed).factors]
    biases = np.zeros(grid.n_tasks)
    shared = None
    trace: list[TraceEntry] = []
    warnings: list[str] = []
    seen_collapsed: set[tuple[int, int]] = set()
    max_sys = 0.0
    max_con = 0.0

    def record(iteration: int, step: str, projection, pen_shared: float) -> None:
        factors_now = ModeFactors(tuple(factor_mats))
        if projection is None:
            yhat = biases[tid]
        else:
            yhat = _predictions(projection, task_vector_table(factors_now), biases, tid)
        residuals = y - yhat
        obj = (
            0.5 * config.C * float(residuals @ residuals)
            + 0.5 * pen_shared
            + 0.5 * sum(float(np.sum(f**2)) for f in factor_mats)
        )
        rmse = math.sqrt(float(residuals @ residuals) / m)
        trace.append(TraceEntry(iteration, step, obj, rmse, None))

    record(0, "init", None, 0.0)

    converged = False
    iterations = 0
    for it in range(1, config.max_iters + 1):
        iterations = it
        prev_mats = [f.copy() for f in factor_mats]

        factors_now = ModeFactors(tuple(factor_mats))
        try:
            step = solve_shared_step(data, factors_now, kernel, config.C, config.jitter, gram_matrix=G)
        except SolverError as exc:
            raise SolverError(f"iteration {it}, shared step: {exc}") from exc
        shared = step.shared
        biases = step.biases.copy()
        max_sys = max(max_sys, step.system_residual)
        max_con = max(max_con, step.constraint_residual)
        projection = shared_projection(shared, kernel, data.stacked_inputs(), G)
        pen_shared = _shared_penalty(shared, kernel, G)
        record(it, "shared", projection, pen_shared)

        for mode in range(1, grid.n_modes + 1):
            factors_now = ModeFactors(tuple(factor_mats))
            z = reduced_features(data, shared, factors_now, kernel, mode, projection=projection)
            for row in range(1, grid.mode_sizes[mode - 1] + 1):
                try:
                    result = solve_mode_row_step(data, z, mode, row, config.C, config.jitter)
                except SolverError as exc:
                    raise SolverError(f"iteration {it}, mode {mode}/row {row}: {exc}") from exc
                factor_mats[mode - 1][row - 1, :] = result.row_values
                biases[result.tasks - 1] = result.biases
                max_sys = max(max_sys, result.system_residual)
                max_con = max(max_con, result.constraint_residual)
                record(it, f"mode{mode}/row{row}", projection, pen_shared)

        change = _factor_change(factor_mats, prev_mats)
        trace[-1] = replace(trace[-1], factor_change=change)

        for n, f in enumerate(factor_mats, start=1):
            for k in range(f.shape[1]):
                if (n, k) not in seen_collapsed and not np.any(f[:, k]):
                    seen_collapsed.add((n, k))
                    warnings.append(
                        f"mode {n} factor column {k + 1} collapsed to zero; "
                        "the component contributes nothing"
                    )

        if change < config.tol:
            converged = True
            break

    return FitState(
        factors=ModeFactors(tuple(factor_mats)),
        shared=shared,
        biases=biases,
        duals=shared.duals,
        trace=trace,
        converged=converged,
        iterations=iterations,
        warnings=warnings,
        max_system_residual=max_sys,
        max_constraint_residual=max_con,
    )
