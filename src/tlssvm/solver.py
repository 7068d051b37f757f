"""Alternating solver for the tensorized multitask LSSVM.

The model couples T tasks through a CP-factorized weight tensor: a shared
factor common to all tasks and one T_n x K factor per task-grid mode. Each
outer iteration solves the shared-factor subproblem, then sweeps every row
of every mode factor; all subproblems are equality-constrained quadratics
solved exactly, so the training objective is non-increasing across block
steps. That objective, C/2 times the squared training residuals plus half
the squared norms of the shared and mode factors, is the one every step
minimizes and the one the trace records: the cost C is the only
regularization, and it enters every system as the ridge I/C.

Every block step is the saddle-point system of `linsys` with a system
matrix Q = Phi Phi^T. A mode-row step hands over its reduced features Z
(K columns) as a FeatureGram. The shared step's form is chosen in
`solve_shared_step` and nowhere else: a linear kernel with dK <= m hands
over the features u_t(j) kron x_j as a KroneckerGram (the task vectors
with the inputs' per-task moments, from which the task-Kronecker ridge is
assembled without forming Phi); every other shared step, RBF or linear
with dK > m, hands over a CoherenceGram: the task vectors with the fit's
kernel Gram G (X X^T for the linear kernel), Q being their coherence
times G. `fit` builds G once with `kernels.gram`, which symmetrizes it in
place, and the solver factors Q + I/C in G's upper triangle and restores
G, so such a fit holds one m x m array in all.

A ridge solve's primal weights w are the step's result: a mode row is its
w, and the linear shared factor's explicit d x K matrix is w reshaped, not
the sum Phi^T alpha, which cancels. The linear shared factor also keeps
the duals, as its dual form. A w that fails the residual bound with the
refined biases and duals of a refinement step is replaced by Phi^T alpha
of those duals, so every step's result meets the bound; a dense solve
gives Phi^T alpha too (X^T (alpha o U) for a linear shared step).

Every shared step returns a `model.SharedFactor`, the record that
prediction uses too, and the fit projects its training inputs through it
with `model.shared_projection`, the one routine that chooses between the
explicit matrix and the dual form.

Rows within a mode touch disjoint task sets, and their reduced features
are computed once per mode sweep, so the T_n row subproblems of a mode are
one block-diagonal system: `solve_mode_row_step` hands all of them to the
solver in a single call, as a FeatureGram of Z with the mode layout's
Blocks, whose groups are the rows. Each row is still factored and checked
on its own, so a mode with many rows costs what the rows would cost one
by one, less the per-call overhead. `fit` then applies the rows in order
and records one trace entry per row, exactly as if they had been solved
one by one; a trace entry updates only the predictions of its row's
samples.

What depends only on the dataset is built once per dataset, on its first
fit, and kept on it (`data.FitPlan`): the block structure of the shared
step, each mode's layout (its tasks and samples row by row, as a
`linsys.Blocks` with one group per row, and its targets in that order),
and the per-task input moments, which a linear shared step computes on
first use. Inside `fit` the factors stay plain matrices; they are validated
once, when the fit returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import ModeLayout, MtlDataset
from .errors import ConfigError, SolverError, whole
from .kernels import KernelSpec, gram
from .linsys import CoherenceGram, FeatureGram, KroneckerGram, solve_dual_system
from .model import SharedFactor, dual_weights, shared_projection, task_predictions
from .taskgrid import ModeFactors, TaskGrid, row_product_table

__all__ = [
    "FitConfig",
    "FitState",
    "TraceEntry",
    "init_factors",
    "solve_shared_step",
    "shared_projection",
    "reduced_features",
    "solve_mode_row_step",
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
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", whole(self.K, "rank K", 1))
        if not 0 < float(self.C) < math.inf:
            raise ConfigError(f"C must be positive and finite, got {self.C}")
        object.__setattr__(self, "max_iters", whole(self.max_iters, "max_iters", 1))
        if not float(self.tol) > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        object.__setattr__(self, "C", float(self.C))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "seed", whole(self.seed, "seed", 0))

    @classmethod
    def from_config(cls, cfg: dict) -> "FitConfig":
        if not isinstance(cfg, dict):
            raise ConfigError("fit config must be a JSON object")
        required = {"K", "C", "kernel"}
        missing = required - set(cfg)
        if missing:
            raise ConfigError(f"fit config missing keys: {sorted(missing)}")
        known = {"K", "C", "kernel", "max_iters", "tol", "seed"}
        extra = set(cfg) - known
        if extra:
            raise ConfigError(f"unknown fit config keys: {sorted(extra)}")
        try:
            return cls(
                K=cfg["K"],
                C=float(cfg["C"]),
                kernel=KernelSpec.from_config(cfg["kernel"]),
                max_iters=cfg.get("max_iters", 100),
                tol=float(cfg.get("tol", 1e-3)),
                seed=cfg.get("seed", 0),
            )
        except (TypeError, ValueError, OverflowError) as exc:  # ConfigError included
            raise ConfigError(f"bad fit config: {exc}") from exc


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
    """Result of :func:`fit`; `shared` is the last shared step's factor, duals included."""

    factors: ModeFactors
    shared: SharedFactor
    biases: np.ndarray
    trace: list[TraceEntry]
    converged: bool
    iterations: int
    warnings: list[str] = field(default_factory=list)
    max_system_residual: float = 0.0
    max_constraint_residual: float = 0.0


def init_factors(grid: TaskGrid, rank: int, seed: int) -> ModeFactors:
    """Seeded standard-normal mode factors with unit-norm columns."""
    rank = whole(rank, "rank", 1)
    rng = np.random.default_rng(seed)
    mats = []
    for size in grid.mode_sizes:
        f = rng.standard_normal((size, rank))
        f /= np.linalg.norm(f, axis=0, keepdims=True)
        mats.append(f)
    return ModeFactors(tuple(mats))


def _factor_mats(data: MtlDataset, factors) -> tuple[np.ndarray, ...]:
    """The factor matrices of a ModeFactors on the data's grid, or the matrices as given.

    A step function takes its factors as a ModeFactors or as the bare
    T_n x K matrices, which `fit` passes for the matrices it owns. Either
    must fit the data's grid; bare matrices must also be finite.
    """
    if isinstance(factors, ModeFactors):
        if factors.grid != data.grid:
            raise ValueError(
                f"factor grid {factors.grid.mode_sizes} does not match data grid {data.grid.mode_sizes}"
            )
        return factors.factors
    mats = tuple(factors)
    shapes = [np.shape(f) for f in mats]
    if not shapes or len(shapes[0]) != 2 or shapes != [(n, shapes[0][1]) for n in data.grid.mode_sizes]:
        raise ValueError(f"factor matrices of shapes {shapes} do not fit data grid {data.grid.mode_sizes}")
    if not all(np.isfinite(f).all() for f in mats):
        raise ValueError("factor matrices contain non-finite entries")
    return mats


@dataclass(frozen=True)
class SharedStepResult:
    shared: SharedFactor
    biases: np.ndarray
    system_residual: float
    constraint_residual: float


def _kronecker_ridge(kernel: KernelSpec, data: MtlDataset, K: int) -> bool:
    """Whether a rank-K shared step solves the task-Kronecker ridge (linear kernel, dK <= m)."""
    return kernel.has_feature_map and data.n_features * K <= data.n_samples


def solve_shared_step(
    data: MtlDataset,
    factors: ModeFactors | tuple[np.ndarray, ...],
    kernel: KernelSpec,
    C: float,
    gram_matrix: np.ndarray | None = None,
) -> SharedStepResult:
    """Exactly minimize over the shared factor, biases, and residuals.

    This is where the step's form is chosen. A linear kernel with dK <= m
    solves Q = Phi Phi^T for the features Phi_j = u_t(j) kron x_j as a
    KroneckerGram over the dataset's per-task moments: the dK x dK ridge.
    Every other step solves a CoherenceGram: the task vectors with the
    kernel Gram of the stacked inputs, `gram_matrix` if given.
    The updated shared factor is returned as a `model.SharedFactor` over
    the data's stacked inputs and sample tasks: in dual form, plus for the
    linear kernel the explicit matrix: the ridge weights w in Kronecker
    order (feature k*d + i is u_k x_i), or X^T (alpha o U) for dK > m or
    when w misses the residual bound with the refined duals (see
    `linsys.solve_feature_system`). `factors` is a ModeFactors on the
    data's grid, or its factor matrices.
    """
    data.require_nonempty_tasks()
    plan = data.fit_plan
    y = data.stacked_targets()
    X = data.stacked_inputs()
    u_table = row_product_table(_factor_mats(data, factors), data.grid.mode_indices)
    explicit = None
    if _kronecker_ridge(kernel, data, u_table.shape[1]):
        biases, duals, residual, weights = solve_dual_system(
            plan.shared, KroneckerGram(u_table, plan.moments), y, C
        )
        explicit = np.ascontiguousarray(weights[0].reshape(u_table.shape[1], -1).T)
    else:
        G = gram(kernel, X) if gram_matrix is None else gram_matrix
        biases, duals, residual, _ = solve_dual_system(
            plan.shared, CoherenceGram(u_table, G), y, C
        )
        if kernel.has_feature_map:
            explicit = X.T @ dual_weights(duals, u_table, data.sample_task_ids())
    constraint = float(np.max(np.abs(plan.shared.sums(duals))))
    shared = SharedFactor(duals, u_table, X, data.sample_task_ids(), explicit)
    return SharedStepResult(shared, biases, residual, constraint)


def reduced_features(
    data: MtlDataset,
    shared: SharedFactor,
    factors: ModeFactors | tuple[np.ndarray, ...],
    kernel: KernelSpec,
    mode: int,
    projection: np.ndarray | None = None,
) -> np.ndarray:
    """m x K reduced features for one mode's row subproblems.

    Each sample's row is its shared projection Hadamard-multiplied with the
    task's exclusion product over all other modes. `factors` is a
    ModeFactors on the data's grid, or its factor matrices.
    """
    mode = data.grid._check_mode(mode)
    mats = _factor_mats(data, factors)
    if projection is None:
        projection = shared_projection(shared, kernel, data.stacked_inputs())
    excl = row_product_table(mats, data.grid.mode_indices, mode)
    return projection * excl[data.sample_task_ids()]


@dataclass(frozen=True)
class ModeStepResult:
    """All rows of one mode, solved together.

    Arrays follow the layout's order: `row_values` is T_n x K, `biases`
    has one entry per task, `duals` one per sample; row r's tasks and
    samples are those of `layout.blocks.group_slices[r - 1]`.
    `system_residual` is the largest row residual, each row having met its
    own bound.
    """

    layout: ModeLayout
    row_values: np.ndarray
    biases: np.ndarray
    duals: np.ndarray
    system_residual: float
    constraint_residuals: np.ndarray


def solve_mode_row_step(data: MtlDataset, z: np.ndarray, mode: int, C: float) -> ModeStepResult:
    """Exactly minimize over every row of one mode factor and all biases.

    Row r's subproblem involves only the tasks whose mode index equals r;
    its system matrix is the Gram of their reduced features Z_r. The rows
    are independent, so they go to the solver as one FeatureGram of Z with
    the layout's Blocks (one group per row), each row solved as its own
    K x K centered ridge, whatever its sample count. Each row's values are
    the solver's primal weights for its group: the ridge solution w, or
    Z_r^T alpha_r when w misses the row's bound after a refinement step.
    A row whose features are all zero (a fit that collapsed) has the exact
    solution 0, with its tasks' biases at their target means. A
    SolverError names the lowest failing row, in its message (`mode n row
    r: <reason>`) and as its `group` (row - 1).
    """
    data.require_nonempty_tasks()
    layout = data.fit_plan.layouts[data.grid._check_mode(mode) - 1]
    blocks = layout.blocks
    Z = np.asarray(z, dtype=float)[layout.samples]
    try:
        biases, duals, residual, values = solve_dual_system(
            blocks, FeatureGram(Z), layout.targets, C
        )
    except SolverError as exc:
        if exc.group is None:
            raise SolverError(f"mode {mode}: {exc}", reason=exc.reason) from exc
        raise SolverError(f"mode {mode} row {exc.group + 1}: {exc}", exc.group, exc.reason) from exc
    task_sums = np.abs(blocks.sums(duals)).reshape(len(values), -1)
    return ModeStepResult(layout, values, biases, duals, residual, task_sums.max(axis=1))


def _shared_penalty(shared: SharedFactor, train_projection: np.ndarray) -> float:
    """Squared Frobenius norm of the shared factor, tr(L L^T).

    Without the explicit matrix this is tr(W^T G W) for the weighted duals
    W, read off the training inputs' shared projection G W.
    """
    if shared.explicit is not None:
        return float(np.sum(shared.explicit**2))
    return float(np.sum(shared.weighted_duals * train_projection))


def _squared_norm(f: np.ndarray) -> float:
    return float(np.sum(f**2))


def _objective(y, yhat, C: float, pen_shared: float, mode_norms) -> tuple[float, float]:
    """Training objective for predictions yhat, and the residual sum of squares.

    `mode_norms` are the squared norms of the mode factors, in mode order.
    """
    residuals = y - yhat
    sse = float(residuals @ residuals)
    return 0.5 * C * sse + 0.5 * pen_shared + 0.5 * sum(mode_norms), sse


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
    after `config.max_iters` iterations (then flagged, not an error). A
    step that cannot be solved raises SolverError naming the iteration and
    the step once: `iteration i, shared step: <reason>` or `iteration i,
    mode n/row r: <reason>` (`mode n` when no row is named).
    """
    data.require_nonempty_tasks()
    grid = data.grid
    kernel = config.kernel
    y = data.stacked_targets()
    X = data.stacked_inputs()
    tid = data.sample_task_ids()
    m = data.n_samples
    mode_indices = grid.mode_indices

    # Every shared step but the task-Kronecker ridge solves through the m x m Gram.
    G = None if _kronecker_ridge(kernel, data, config.K) else gram(kernel, X)
    factor_mats = [f.copy() for f in init_factors(grid, config.K, config.seed).factors]
    biases = np.zeros(grid.n_tasks)
    shared = None
    trace: list[TraceEntry] = []
    warnings: list[str] = []
    seen_collapsed: set[tuple[int, int]] = set()
    max_sys = 0.0
    max_con = 0.0

    # The trace is kept incrementally. Row r of a mode changes one factor
    # row and the biases of its own tasks, so the entry after row r differs
    # from the previous one only in those tasks' predictions and in that
    # factor's norm. A sweep therefore computes each sample's new prediction
    # once, by the arithmetic of a full recomputation, and each row's entry
    # takes over its own samples' values.
    yhat = biases[tid]
    mode_norms = [_squared_norm(f) for f in factor_mats]
    pen_shared = 0.0

    def record(iteration: int, step: str) -> None:
        obj, sse = _objective(y, yhat, config.C, pen_shared, mode_norms)
        trace.append(TraceEntry(iteration, step, obj, math.sqrt(sse / m), None))

    record(0, "init")

    converged = False
    iterations = 0
    for it in range(1, config.max_iters + 1):
        iterations = it
        prev_mats = [f.copy() for f in factor_mats]

        try:
            step = solve_shared_step(data, factor_mats, kernel, config.C, gram_matrix=G)
        except SolverError as exc:
            raise SolverError(f"iteration {it}, shared step: {exc}") from exc
        shared = step.shared
        biases = step.biases.copy()
        max_sys = max(max_sys, step.system_residual)
        max_con = max(max_con, step.constraint_residual)
        projection = shared_projection(shared, kernel, X, G)
        pen_shared = _shared_penalty(shared, projection)
        yhat = task_predictions(projection, row_product_table(factor_mats, mode_indices), biases, tid)
        record(it, "shared")

        for mode in range(1, grid.n_modes + 1):
            z = reduced_features(data, shared, factor_mats, kernel, mode, projection=projection)
            try:
                sweep = solve_mode_row_step(data, z, mode, config.C)
            except SolverError as exc:
                where = f"mode {mode}" if exc.group is None else f"mode {mode}/row {exc.group + 1}"
                raise SolverError(f"iteration {it}, {where}: {exc.reason}") from exc
            max_sys = max(max_sys, sweep.system_residual)
            max_con = max(max_con, float(sweep.constraint_residuals.max()))
            lay = sweep.layout
            mat = factor_mats[mode - 1]
            norms = []  # of the factor with rows 1..r replaced
            for r, values in enumerate(sweep.row_values):
                mat[r, :] = values
                norms.append(_squared_norm(mat))
            biases[lay.tasks - 1] = sweep.biases
            u_table = row_product_table(factor_mats, mode_indices)
            swept = task_predictions(projection[lay.samples], u_table, biases, tid[lay.samples])
            for r, (rows, _) in enumerate(lay.blocks.group_slices):
                yhat[lay.samples[rows]] = swept[rows]
                mode_norms[mode - 1] = norms[r]
                record(it, f"mode{mode}/row{r + 1}")

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
        trace=trace,
        converged=converged,
        iterations=iterations,
        warnings=warnings,
        max_system_residual=max_sys,
        max_constraint_residual=max_con,
    )
