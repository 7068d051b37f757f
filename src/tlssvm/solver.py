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
first use. Inside a fit the factors stay plain matrices; they are
validated once, when the fit returns.

`fit_many` fits B members in lockstep: fits that share the data, rank,
kernel, seed, `max_iters` and `tol` and differ only in the cost C, as a
cross-validation cell's costs do on one fold. Every array of the
alternation carries a leading member axis: the factor matrices are
B x T_n x K, the biases B x T, the predictions B x m, the shared record's
duals, task vectors and explicit matrix B x m, B x T x K and B x d x K.
This is the one shape of the step functions: they take such stacks with
a 1-D array of costs, and each solve passes them on to `linsys` as one
system of B members, which keeps every member's arithmetic that of a
solve of its own; a step returns each member's SolverError instead of
raising it. The trace's objectives and factor changes are computed for
all members at once. A member leaves the batch when it converges or a
step fails for it, so every member's FitState, or error, equals that of
its lone fit bit for bit. `fit` is `fit_many` with the one cost
`config.C`: there is a single code path.
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
    "fit_many",
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


def _factor_mats(data: MtlDataset, mats) -> tuple[np.ndarray, ...]:
    """Members' factor matrices, one B x T_n x K stack per mode, checked to fit the data's grid and be finite."""
    mats = tuple(mats) if isinstance(mats, (tuple, list)) else (mats,)
    shapes = [np.shape(f) for f in mats]
    if len(shapes[0]) != 3 or shapes != [shapes[0][:1] + (n, shapes[0][-1]) for n in data.grid.mode_sizes]:
        raise ValueError(
            f"factor matrices of shapes {shapes} do not fit data grid {data.grid.mode_sizes} "
            "as members' B x T_n x K stacks"
        )
    if not all(np.isfinite(f).all() for f in mats):
        raise ValueError("factor matrices contain non-finite entries")
    return mats


def _member_costs(C) -> np.ndarray:
    """A step's costs, which must be a 1-D array (one per member)."""
    costs = np.asarray(C, dtype=float)
    if costs.ndim != 1:
        raise ValueError(f"a step takes a 1-D array of its members' costs, got shape {costs.shape}")
    return costs


@dataclass(frozen=True)
class SharedStepResult:
    """The members' shared step: one record and B x T biases, and per member its residuals and SolverError or None."""

    shared: SharedFactor
    biases: np.ndarray
    system_residual: np.ndarray
    constraint_residual: np.ndarray
    errors: tuple[SolverError | None, ...]


def _kronecker_ridge(kernel: KernelSpec, data: MtlDataset, K: int) -> bool:
    """Whether a rank-K shared step solves the task-Kronecker ridge (linear kernel, dK <= m)."""
    return kernel.has_feature_map and data.n_features * K <= data.n_samples


def solve_shared_step(
    data: MtlDataset,
    factors: tuple[np.ndarray, ...],
    kernel: KernelSpec,
    C: np.ndarray,
    gram_matrix: np.ndarray | None = None,
) -> SharedStepResult:
    """Exactly minimize over the shared factor, biases, and residuals of B members.

    `factors` are the members' factor matrices, stacked B x T_n x K, and
    C their 1-D array of costs. This is where the step's form is chosen.
    A linear kernel with dK <= m solves Q = Phi Phi^T for the features
    Phi_j = u_t(j) kron x_j as a KroneckerGram over the dataset's per-task
    moments: the dK x dK ridge. Every other step solves a CoherenceGram:
    the task vectors with `gram_matrix`, the kernel Gram of the stacked
    inputs, which such a step requires; the members share it and get it
    back bit for bit. The updated shared factors are returned as one
    `model.SharedFactor` over the data's stacked inputs and sample tasks:
    in dual form, plus for the linear kernel the explicit matrices: the
    ridge weights w in Kronecker order (feature k*d + i is u_k x_i), or
    X^T (alpha o U) for dK > m or when w misses the residual bound with
    the refined duals (see `linsys._solve_features`). The record, biases
    and residuals carry the member axis, and `errors` holds each member's
    SolverError, or None.
    """
    data.require_nonempty_tasks()
    costs = _member_costs(C)
    plan = data.fit_plan
    y = data.stacked_targets()
    X = data.stacked_inputs()
    tid = data.sample_task_ids()
    u_table = row_product_table(_factor_mats(data, factors), data.grid.mode_indices)
    K = u_table.shape[-1]
    explicit = None
    if _kronecker_ridge(kernel, data, K):
        solution = solve_dual_system(plan.shared, KroneckerGram(u_table, plan.moments), y, costs)
        weights = solution.weights[..., 0, :]
        explicit = np.ascontiguousarray(np.swapaxes(weights.reshape(weights.shape[:-1] + (K, -1)), -1, -2))
    else:
        if gram_matrix is None:
            raise ValueError("this shared step solves through the kernel Gram: gram_matrix is required")
        solution = solve_dual_system(plan.shared, CoherenceGram(u_table, gram_matrix), y, costs)
        if kernel.has_feature_map:
            explicit = X.T @ dual_weights(solution.duals, u_table, tid)
    constraint = np.max(np.abs(plan.shared.sums(solution.duals, axis=-1)), axis=-1)
    shared = SharedFactor(solution.duals, u_table, X, tid, explicit)
    return SharedStepResult(shared, solution.biases, solution.residual, constraint, solution.errors)


def reduced_features(
    data: MtlDataset, factors: tuple[np.ndarray, ...], mode: int, projection: np.ndarray
) -> np.ndarray:
    """B x m x K reduced features for one mode's row subproblems of B members.

    Each sample's row is its shared projection (`projection`, B x m x K:
    the training inputs through each member's shared factor)
    Hadamard-multiplied with the task's exclusion product over all other
    modes, from the members' factor matrices stacked B x T_n x K.
    """
    mode = data.grid._check_mode(mode)
    excl = row_product_table(_factor_mats(data, factors), data.grid.mode_indices, mode)
    return projection * excl.take(data.sample_task_ids(), axis=-2)


@dataclass(frozen=True)
class ModeStepResult:
    """All rows of one mode, solved together for B members.

    Arrays follow the layout's order after the member axis: `row_values`
    is B x T_n x K, `biases` has one entry per task, `duals` one per
    sample; row r's tasks and samples are those of
    `layout.blocks.group_slices[r - 1]`. `system_residual` holds each
    member's largest row residual, each row having met its own bound, and
    `constraint_residuals` each member's per row. `errors` holds each
    member's SolverError, or None.
    """

    layout: ModeLayout
    row_values: np.ndarray
    biases: np.ndarray
    duals: np.ndarray
    system_residual: np.ndarray
    constraint_residuals: np.ndarray
    errors: tuple[SolverError | None, ...]


def solve_mode_row_step(data: MtlDataset, z: np.ndarray, mode: int, C: np.ndarray) -> ModeStepResult:
    """Exactly minimize over every row of one mode factor and all biases, for B members.

    `z` holds the members' reduced features, stacked B x m x K, and C
    their 1-D array of costs. Row r's subproblem involves only the tasks
    whose mode index equals r; its system matrix is the Gram of their
    reduced features Z_r. The rows are independent, so they go to the
    solver as one FeatureGram of Z with the layout's Blocks (one group per
    row), each row solved as its own K x K centered ridge, whatever its
    sample count. Each row's values are the solver's primal weights for
    its group: the ridge solution w, or Z_r^T alpha_r when w misses the
    row's bound after a refinement step. A row whose features are all zero
    (a fit that collapsed) has the exact solution 0, with its tasks'
    biases at their target means. A member's SolverError is the solver's:
    its `group` is the lowest failing row, less one.
    """
    data.require_nonempty_tasks()
    layout = data.fit_plan.layouts[data.grid._check_mode(mode) - 1]
    blocks = layout.blocks
    if np.ndim(z) != 3:
        raise ValueError(f"a row step takes its members' features stacked B x m x K, got shape {np.shape(z)}")
    # a gather along the sample axis that keeps each member's rows contiguous
    Z = np.take(np.asarray(z, dtype=float), layout.samples, axis=-2)
    solution = solve_dual_system(blocks, FeatureGram(Z), layout.targets, _member_costs(C))
    values = solution.weights
    task_sums = np.abs(blocks.sums(solution.duals, axis=-1)).reshape(values.shape[:-1] + (-1,))
    return ModeStepResult(
        layout, values, solution.biases, solution.duals, solution.residual, task_sums.max(axis=-1), solution.errors
    )


def _shared_penalty(shared: SharedFactor, train_projection: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of the shared factor, tr(L L^T), per member.

    Without the explicit matrix this is tr(W^T G W) for the weighted duals
    W, read off the training inputs' shared projection G W.
    """
    if shared.explicit is not None:
        return np.sum(shared.explicit**2, axis=(-2, -1))
    return np.sum(shared.weighted_duals * train_projection, axis=(-2, -1))


def _objective(y, yhat, C, pen_shared, mode_norms) -> tuple[np.ndarray, np.ndarray]:
    """Training objective for predictions yhat, and the residual sum of squares.

    `mode_norms` are the squared norms of the mode factors, in mode order
    along the last axis. With members, `yhat` is B x m, `mode_norms`
    B x n_modes, and the results hold one value per member.
    """
    residuals = y - yhat
    sse = (residuals[..., None, :] @ residuals[..., :, None])[..., 0, 0]
    mode_norms = np.asarray(mode_norms)
    norms = 0
    for n in range(mode_norms.shape[-1]):
        norms = norms + mode_norms[..., n]
    return 0.5 * C * sse + 0.5 * pen_shared + 0.5 * norms, sse


def _squared_norm(f: np.ndarray) -> np.ndarray:
    """The squared norm of a matrix, or of each member's in a B x r x K stack."""
    return np.sum(f**2, axis=(-2, -1))


def _factor_change(new_mats, old_mats) -> np.ndarray:
    """Summed relative change of the factor matrices, per member."""
    total = 0.0
    for new, old in zip(new_mats, old_mats):
        denom = _squared_norm(old)
        num = _squared_norm(new - old)
        ratio = np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)
        total = total + np.where(denom == 0.0, np.where(num == 0.0, 0.0, math.inf), ratio)
    return total


def _member_record(shared: SharedFactor, key) -> SharedFactor:
    """The record of the members that `key` (a mask, or one member's index) selects."""
    explicit = None if shared.explicit is None else shared.explicit[key]
    return SharedFactor(
        shared.duals[key], shared.task_vector_snapshot[key], shared.train_inputs, shared.task_ids, explicit
    )


class _Members:
    """The members of a `fit_many` still in its alternation.

    Arrays carry the member axis first; `index` holds each member's
    position among the costs. `keep` drops the members that left.
    """

    def __init__(self, costs: list[float], start: tuple[np.ndarray, ...], n_tasks: int, tid, y, m: int):
        B = len(costs)
        self.y, self.m = y, m
        self.index = list(range(B))
        self.C = np.array(costs)
        self.factor_mats = [np.repeat(f[None], B, axis=0) for f in start]
        self.prev_mats = None
        self.biases = np.zeros((B, n_tasks))
        self.yhat = self.biases.take(tid, axis=1)
        self.mode_norms = np.stack([_squared_norm(f) for f in self.factor_mats], axis=1)
        self.pen_shared = np.zeros(B)
        self.max_sys = np.zeros(B)
        self.max_con = np.zeros(B)
        self.shared = None
        self.projection = None
        self.traces = [[] for _ in range(B)]
        self.warnings = [[] for _ in range(B)]
        self.collapsed = [set() for _ in range(B)]

    def record(self, iteration: int, step: str) -> None:
        obj, sse = _objective(self.y, self.yhat, self.C, self.pen_shared, self.mode_norms)
        for trace, value, rmse in zip(self.traces, obj.tolist(), np.sqrt(sse / self.m).tolist()):
            trace.append(TraceEntry(iteration, step, value, rmse, None))

    def keep(self, mask: np.ndarray) -> None:
        for name in ("C", "biases", "yhat", "mode_norms", "pen_shared", "max_sys", "max_con", "projection"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[mask])
        self.factor_mats = [f[mask] for f in self.factor_mats]
        if self.prev_mats is not None:
            self.prev_mats = [f[mask] for f in self.prev_mats]
        if self.shared is not None:
            self.shared = _member_record(self.shared, mask)
        for name in ("index", "traces", "warnings", "collapsed"):
            setattr(self, name, [v for v, kept in zip(getattr(self, name), mask.tolist()) if kept])

    def state(self, b: int, converged: bool, iterations: int) -> FitState:
        return FitState(
            factors=ModeFactors(tuple(f[b] for f in self.factor_mats)),
            shared=_member_record(self.shared, b),
            biases=self.biases[b].copy(),
            trace=self.traces[b],
            converged=converged,
            iterations=iterations,
            warnings=self.warnings[b],
            max_system_residual=float(self.max_sys[b]),
            max_constraint_residual=float(self.max_con[b]),
        )


def _failure(message: str, cause: SolverError) -> SolverError:
    error = SolverError(message)
    error.__cause__ = cause
    return error


def fit_many(data: MtlDataset, config: FitConfig, costs) -> list[FitState | SolverError]:
    """Fit one model per cost in lockstep, each equal to its lone `fit` bit for bit.

    The members share the data and all of `config` but C: rank, kernel,
    seed, `max_iters` and `tol`. They run one alternation, whose every
    step solves all members still in it at once (see the module
    docstring). A member leaves when it converges or when a step fails for
    it. Returns, per cost in the order given, the member's FitState or the
    SolverError its lone fit raises. `fit` is the case of one cost.
    """
    costs = [replace(config, C=cost).C for cost in costs]  # FitConfig checks each cost
    if not costs:
        raise ConfigError("fit_many needs at least one cost")
    data.require_nonempty_tasks()
    grid = data.grid
    kernel = config.kernel
    y = data.stacked_targets()
    X = data.stacked_inputs()
    tid = data.sample_task_ids()
    mode_indices = grid.mode_indices

    # Every shared step but the task-Kronecker ridge solves through the m x m Gram.
    G = None if _kronecker_ridge(kernel, data, config.K) else gram(kernel, X)
    start = init_factors(grid, config.K, config.seed).factors
    live = _Members(costs, start, grid.n_tasks, tid, y, data.n_samples)
    outcomes: list[FitState | SolverError | None] = [None] * len(costs)

    def leave(failures, where) -> np.ndarray:
        """Members whose failure is not None leave with it, located by `where`; the mask of the rest."""
        kept = np.array([exc is None for exc in failures])
        if not kept.all():
            for b in np.flatnonzero(~kept).tolist():
                outcomes[live.index[b]] = where(failures[b])
            live.keep(kept)
        return kept

    # The trace is kept incrementally. Row r of a mode changes one factor
    # row and the biases of its own tasks, so the entry after row r differs
    # from the previous one only in those tasks' predictions and in that
    # factor's norm. A sweep therefore computes each sample's new prediction
    # once, by the arithmetic of a full recomputation, and each row's entry
    # takes over its own samples' values.
    live.record(0, "init")

    for it in range(1, config.max_iters + 1):
        live.prev_mats = [f.copy() for f in live.factor_mats]

        try:
            step = solve_shared_step(data, live.factor_mats, kernel, live.C, gram_matrix=G)
        except SolverError as exc:
            failures = [exc] * len(live.index)
        else:
            failures = step.errors
            live.shared = step.shared
            live.biases = step.biases.copy()
            live.max_sys = np.maximum(live.max_sys, step.system_residual)
            live.max_con = np.maximum(live.max_con, step.constraint_residual)
        leave(failures, lambda exc: _failure(f"iteration {it}, shared step: {exc}", exc))
        if not live.index:
            break
        live.projection = shared_projection(live.shared, kernel, X, G)
        live.pen_shared = _shared_penalty(live.shared, live.projection)
        u_table = row_product_table(live.factor_mats, mode_indices)
        live.yhat = task_predictions(live.projection, u_table, live.biases, tid)
        live.record(it, "shared")

        for mode in range(1, grid.n_modes + 1):
            z = reduced_features(data, live.factor_mats, mode, live.projection)
            try:
                sweep = solve_mode_row_step(data, z, mode, live.C)
            except SolverError as exc:
                failures = [exc] * len(live.index)
            else:
                failures = sweep.errors

            def located(exc: SolverError) -> SolverError:
                where = f"mode {mode}" if exc.group is None else f"mode {mode}/row {exc.group + 1}"
                return _failure(f"iteration {it}, {where}: {exc}", exc)

            kept = leave(failures, located)
            if not live.index:
                break
            if not kept.all():
                sweep = replace(
                    sweep, row_values=sweep.row_values[kept], biases=sweep.biases[kept],
                    duals=sweep.duals[kept], system_residual=sweep.system_residual[kept],
                    constraint_residuals=sweep.constraint_residuals[kept],
                )
            live.max_sys = np.maximum(live.max_sys, sweep.system_residual)
            live.max_con = np.maximum(live.max_con, sweep.constraint_residuals.max(axis=1))
            lay = sweep.layout
            mat = live.factor_mats[mode - 1]
            norms = []  # of the factor with rows 1..r replaced
            for r in range(mat.shape[1]):
                mat[:, r, :] = sweep.row_values[:, r]
                norms.append(_squared_norm(mat))
            live.biases[:, lay.tasks - 1] = sweep.biases
            u_table = row_product_table(live.factor_mats, mode_indices)
            swept = task_predictions(
                live.projection.take(lay.samples, axis=1), u_table, live.biases, tid[lay.samples]
            )
            for r, (rows, _) in enumerate(lay.blocks.group_slices):
                live.yhat[:, lay.samples[rows]] = swept[:, rows]
                live.mode_norms[:, mode - 1] = norms[r]
                live.record(it, f"mode{mode}/row{r + 1}")
        if not live.index:
            break

        change = _factor_change(live.factor_mats, live.prev_mats)
        for trace, value in zip(live.traces, change.tolist()):
            trace[-1] = replace(trace[-1], factor_change=value)

        for n, f in enumerate(live.factor_mats, start=1):
            for b, k in zip(*(axis.tolist() for axis in np.nonzero(~f.any(axis=1)))):
                if (n, k) not in live.collapsed[b]:
                    live.collapsed[b].add((n, k))
                    live.warnings[b].append(
                        f"mode {n} factor column {k + 1} collapsed to zero; "
                        "the component contributes nothing"
                    )

        converged = change < config.tol
        for b in np.flatnonzero(converged).tolist():
            outcomes[live.index[b]] = live.state(b, True, it)
        if converged.any():
            live.keep(~converged)
            if not live.index:
                break

    for b, position in enumerate(live.index):
        outcomes[position] = live.state(b, False, config.max_iters)
    return outcomes


def fit(data: MtlDataset, config: FitConfig) -> FitState:
    """Alternate shared-factor and mode-row solves until the factors settle.

    Per outer iteration: one shared step, then for each mode in order a full
    row sweep (rows in order, reduced features refreshed per mode). Stops
    when the summed relative factor change drops below `config.tol` or
    after `config.max_iters` iterations (then flagged, not an error). A
    step that cannot be solved raises SolverError naming the iteration and
    the step once: `iteration i, shared step: <message>` or `iteration i,
    mode n/row r: <message>` (`mode n` when no row is named), with the
    solver's SolverError, and its message, as the cause. This is
    `fit_many` with the one cost `config.C`.
    """
    (outcome,) = fit_many(data, config, (config.C,))
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome
