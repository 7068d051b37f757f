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
when Phi has no more columns than rows. RBF shared steps hand it the dense
coherence-weighted Gram, solved by Cholesky with a T x T Schur complement
for the biases.

Rows within a mode touch disjoint task sets, and their reduced features
are computed once per mode sweep, so the T_n row subproblems of a mode are
one block-diagonal system: `solve_mode_row_step` hands all of them to the
solver in a single call, as a FeatureGram of Z whose groups are the rows.
Each row is still factored and checked on its own, so a mode with many
rows costs what the rows would cost one by one, less the per-call
overhead. The sample order of each mode (`data.ModeLayout`) is built with
the dataset. `fit` then applies the rows in order and records one trace
entry per row, exactly as if they had been solved one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import ModeLayout, MtlDataset
from .errors import ConfigError, SolverError
from .kernels import KernelSpec, gram
from .linsys import FeatureGram, solve_dual_system
from .taskgrid import (
    ModeFactors,
    SharedFactor,
    TaskGrid,
    exclusion_table,
    row_product_table,
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
    # samples are stacked task by task, so the coherence expands block by block
    sizes = data.task_sizes
    Q = np.repeat(np.repeat(coherence, sizes, axis=0), sizes, axis=1)
    Q *= G
    return Q


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
    if cross_gram is None:
        cross_gram = gram(kernel, shared.train_data.stacked_inputs(), query_inputs)
    return cross_gram.T @ _weighted_duals(shared)


def _weighted_duals(shared: SharedFactor) -> np.ndarray:
    """m x K dual weights W: each training sample's dual times its task vector snapshot."""
    tid = shared.train_data.sample_task_ids()
    return shared.duals[:, None] * shared.task_vector_snapshot[tid]


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
    """One row of a mode step; `system_residual` is the mode solve's largest row residual."""

    row_values: np.ndarray
    biases: np.ndarray
    duals: np.ndarray
    tasks: np.ndarray
    system_residual: float
    constraint_residual: float


@dataclass(frozen=True)
class ModeStepResult:
    """All rows of one mode, solved together; `row(r)` is row r's result.

    Arrays follow the layout's order: `row_values` is T_n x K, `biases`
    has one entry per task, `duals` one per sample. `system_residual` is
    the largest row residual, each row having met its own bound.
    """

    layout: ModeLayout
    row_values: np.ndarray
    biases: np.ndarray
    duals: np.ndarray
    system_residual: float
    constraint_residuals: np.ndarray

    def row(self, r: int) -> ModeRowResult:
        """Result of row r (1-based) as a single-row step."""
        lay = self.layout
        tasks = slice((r - 1) * lay.per_row, r * lay.per_row)
        return ModeRowResult(
            self.row_values[r - 1],
            self.biases[tasks],
            self.duals[lay.row_starts[r - 1] : lay.row_starts[r]],
            lay.tasks[tasks],
            self.system_residual,
            float(self.constraint_residuals[r - 1]),
        )


def solve_mode_row_step(
    data: MtlDataset, z: np.ndarray, mode: int, C: float, jitter: float = 0.0
) -> ModeStepResult:
    """Exactly minimize over every row of one mode factor and all biases.

    Row r's subproblem involves only the tasks whose mode index equals r;
    its system matrix is the Gram of their reduced features Z_r. The rows
    are independent, so they go to the solver as one FeatureGram of Z with
    one group per row, each row solved through the smaller of its two
    forms (a K x K ridge unless K exceeds the row's sample count). Each
    row's optimum is the dual-weighted sum of its features. A SolverError
    names the lowest failing row, in its message and as its `group`
    (row - 1).
    """
    data.require_nonempty_tasks()
    layout = data.mode_layout(mode)
    Z = np.asarray(z, dtype=float)[layout.samples]
    rows = layout.n_rows
    row_starts = layout.row_starts[:-1]
    y = data.stacked_targets()[layout.samples]
    # A row with all-zero features still solves (its ridge block is I/C), so
    # the error raised is that of the lowest failing row, degenerate or not.
    nonzero = np.logical_or.reduceat(np.any(Z != 0, axis=1), row_starts)
    degenerate = int(np.argmin(nonzero)) if not nonzero.all() else rows
    try:
        biases, duals, residual = solve_dual_system(
            layout.block_sizes, FeatureGram(Z, (layout.per_row,) * rows), y, C, jitter
        )
    except SolverError as exc:
        if exc.group is None:
            raise SolverError(f"mode {mode}: {exc}") from exc
        if exc.group < degenerate:
            raise SolverError(f"mode {mode} row {exc.group + 1}: {exc}", exc.group) from exc
        # otherwise a lower row is degenerate, which is raised next
    if degenerate < rows:
        raise SolverError(
            f"mode {mode} row {degenerate + 1}: all reduced features are zero, the row "
            "subproblem is degenerate (row would vanish and biases reduce to task means)",
            degenerate,
        )
    task_sums = np.abs(_block_sums(duals, layout.block_sizes)).reshape(rows, layout.per_row)
    return ModeStepResult(
        layout,
        np.add.reduceat(Z * duals[:, None], row_starts, axis=0),
        biases,
        duals,
        residual,
        task_sums.max(axis=1),
    )


def _shared_penalty(shared: SharedFactor, train_projection: np.ndarray) -> float:
    """Squared Frobenius norm of the shared factor, tr(L L^T).

    Without the explicit matrix this is tr(W^T G W) for the weighted duals
    W, read off the training inputs' shared projection G W.
    """
    if shared.explicit is not None:
        return float(np.sum(shared.explicit**2))
    return float(np.sum(_weighted_duals(shared) * train_projection))


def _predictions(projection, u_table, biases, tid) -> np.ndarray:
    return np.sum(projection * u_table[tid], axis=1) + biases[tid]


def _objective(y, yhat, C: float, pen_shared: float, factor_mats) -> tuple[float, float]:
    """Training objective for predictions yhat, and the residual sum of squares."""
    residuals = y - yhat
    sse = float(residuals @ residuals)
    pen_modes = sum(float(np.sum(f**2)) for f in factor_mats)
    return 0.5 * C * sse + 0.5 * pen_shared + 0.5 * pen_modes, sse


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
    tid = data.sample_task_ids()
    biases = np.asarray(biases, dtype=float)
    if shared is None:
        yhat = biases[tid]
        pen_shared = 0.0
    else:
        on_train = shared.train_data is data
        projection = shared_projection(
            shared, kernel, data.stacked_inputs(), gram_matrix if on_train else None
        )
        if on_train:
            pen_shared = _shared_penalty(shared, projection)
        else:
            train = shared.train_data.stacked_inputs()
            pen_shared = _shared_penalty(shared, shared_projection(shared, kernel, train, gram_matrix))
        yhat = _predictions(projection, task_vector_table(factors), biases, tid)
    return _objective(data.stacked_targets(), yhat, C, pen_shared, factors.factors)[0]


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
        if projection is None:
            yhat = biases[tid]
        else:
            u_table = row_product_table(factor_mats, grid.mode_indices)
            yhat = _predictions(projection, u_table, biases, tid)
        obj, sse = _objective(y, yhat, config.C, pen_shared, factor_mats)
        trace.append(TraceEntry(iteration, step, obj, math.sqrt(sse / m), None))

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
        pen_shared = _shared_penalty(shared, projection)
        record(it, "shared", projection, pen_shared)

        for mode in range(1, grid.n_modes + 1):
            factors_now = ModeFactors(tuple(factor_mats))
            z = reduced_features(data, shared, factors_now, kernel, mode, projection=projection)
            try:
                step_rows = solve_mode_row_step(data, z, mode, config.C, config.jitter)
            except SolverError as exc:
                where = f"mode {mode}" if exc.group is None else f"mode {mode}/row {exc.group + 1}"
                raise SolverError(f"iteration {it}, {where}: {exc}") from exc
            max_sys = max(max_sys, step_rows.system_residual)
            for row in range(1, step_rows.layout.n_rows + 1):
                result = step_rows.row(row)
                factor_mats[mode - 1][row - 1, :] = result.row_values
                biases[result.tasks - 1] = result.biases
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
