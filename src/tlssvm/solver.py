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
place, and compares its triangles once (`linsys.check_symmetric`), and
the solver factors Q + I/C in G's upper triangle and restores G, so such
a fit holds one m x m array in all.

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
one by one: the entry after row r takes the new predictions of the
samples of rows 1..r only.

What depends only on the dataset is built once per dataset, on its first
fit, and kept on it (`data.FitPlan`): the block structure of the shared
step, each mode's layout (its tasks and samples row by row, as a
`linsys.Blocks` with one group per row, and its targets in that order),
and the per-task input moments, which a linear shared step computes on
first use. Inside a fit the factors stay plain matrices; they are
validated once, when the fit returns.

`fit_many` fits B members in lockstep. A member is a (dataset, cost)
pair, and the members share the rank, kernel, seed, `max_iters` and
`tol`: a cross-validation cell's costs on every training fold of one
block structure. Datasets may share an alternation when they have the
same grid, the same number of samples in every task and the same number
of features, so that every `linsys.Blocks` and mode layout is theirs in
common; `kfold_split` gives such folds in runs, one run per structure.
Every array of the alternation carries a leading member axis: the factor
matrices are B x T_n x K, the biases B x T, the predictions and the
targets B x m, the shared record's duals, task vectors and explicit
matrix B x m, B x T x K and B x d x K. What is as large as the data or
larger is kept once per dataset and shared by its members, never copied
per member. A step takes a `Members` record: the datasets, each once,
and each member's owner, its index into them (one MtlDataset stands for
all members on it). The members that follow one another with one owner
form a run, and what reads a dataset's inputs or moments runs once per
run (`linsys.by_run`); the targets are the owners' targets, gathered
B x m. This is the one shape of the step functions: they take such
stacks with a 1-D array of costs, and each solve passes them on to
`linsys` as one system of B members, which keeps every member's
arithmetic that of a solve of its own; a step returns each member's
SolverError instead of raising it. The trace is one table per
alternation, which holds each step's objectives and training RMSEs over
the members then in it and each iteration's factor changes, never
predictions; the shared step adds one evaluation of all members, and a
mode sweep one for all its rows. A member's FitState builds its list of
TraceEntry rows from the table on first read, so a fit whose trace is
never read, a cross-validation member's, builds none. A member leaves the
batch when it converges or a step fails for it, so every member's
FitState, or error, equals that of its lone fit bit for bit. `fit` is
`fit_many` with one dataset and the one cost `config.C`: there is a
single code path.

Only the task-Kronecker ridge fits several datasets in one alternation.
A shared step that solves a CoherenceGram (an RBF grid, or a linear one
with dK > m) solves each member in turn in the m x m Gram of its dataset,
at O(m^3) per member, so lockstepping datasets would save next to nothing
there and would hold one Gram per dataset at once. `fit_many` therefore
fits such datasets one after another, each in its own alternation over
all the costs, and holds one Gram at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import ModeLayout, MtlDataset
from .errors import ConfigError, SolverError, config_object, positive, whole
from .kernels import KernelSpec, gram
from .linsys import CoherenceGram, FeatureGram, KroneckerGram, by_run, check_symmetric, solve_dual_system
from .model import SharedFactor, dual_weights, shared_projection, task_predictions
from .taskgrid import ModeFactors, TaskGrid, row_product_table

__all__ = [
    "FitConfig",
    "FitState",
    "Members",
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
        object.__setattr__(self, "C", positive(self.C, "C"))
        object.__setattr__(self, "max_iters", whole(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "tol", positive(self.tol, "tol", finite=False))
        object.__setattr__(self, "seed", whole(self.seed, "seed", 0))

    @classmethod
    def from_config(cls, cfg: dict) -> "FitConfig":
        cfg = config_object(cfg, "fit config", ("K", "C", "kernel"), ("max_iters", "tol", "seed"))
        return cls(**{**cfg, "kernel": KernelSpec.from_config(cfg["kernel"])})


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


@dataclass(slots=True)
class _TraceRows:
    """Consecutive steps of one iteration: a row per member then in the alternation, a column per step.

    `members` are those members' positions, and `changes` their factor
    changes once the steps end the iteration.
    """

    iteration: int
    steps: tuple[str, ...]
    members: list[int]
    objectives: np.ndarray
    rmses: np.ndarray
    changes: np.ndarray | None = None


def _trace_entries(table: list[_TraceRows], member: int) -> list[TraceEntry]:
    """The trace of the member at position `member`: its column of the table's rows, up to the step it left after."""
    entries = []
    for rows in table:
        if member not in rows.members:
            break
        b = rows.members.index(member)
        changes = [None] * len(rows.steps)
        if rows.changes is not None:
            changes[-1] = float(rows.changes[b])
        entries += map(
            TraceEntry, [rows.iteration] * len(rows.steps), rows.steps, rows.objectives[b].tolist(),
            rows.rmses[b].tolist(), changes,
        )
    return entries


@dataclass
class FitState:
    """Result of :func:`fit`; `shared` is the last shared step's factor, duals included.

    `trace`, a TraceEntry per block step, is built on first read from the
    alternation's trace table, where the fit is the member at `_member`.
    """

    factors: ModeFactors
    shared: SharedFactor
    biases: np.ndarray
    converged: bool
    iterations: int
    warnings: list[str] = field(default_factory=list)
    max_system_residual: float = 0.0
    max_constraint_residual: float = 0.0
    _trace_table: list[_TraceRows] = field(default_factory=list, repr=False, compare=False)
    _member: int = field(default=0, repr=False, compare=False)

    @cached_property
    def trace(self) -> list[TraceEntry]:
        return _trace_entries(self._trace_table, self._member)


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


def _check_structure(datasets) -> None:
    """Raise ValueError unless the datasets share the grid, the per-task sample counts and the feature count."""
    first = datasets[0]
    for other in datasets[1:]:
        if (other.grid, other.task_sizes, other.n_features) != (first.grid, first.task_sizes, first.n_features):
            raise ValueError(
                "datasets share a lockstep only on one grid, with the same samples per task and features: "
                f"got task sizes {first.task_sizes} and {other.task_sizes} on grids "
                f"{first.grid.mode_sizes} and {other.grid.mode_sizes}, {first.n_features} and "
                f"{other.n_features} features"
            )


@dataclass(frozen=True)
class Members:
    """Members on several datasets: the datasets, each once, and each member's owner, its index into them."""

    datasets: tuple[MtlDataset, ...]
    owner: np.ndarray

    def gather(self, of) -> np.ndarray:
        """`of(dataset)` of each member's owner, stacked along the member axis."""
        return np.stack([of(dataset) for dataset in self.datasets]).take(self.owner, axis=0)


def _members(data: MtlDataset | Members, B: int) -> Members:
    """A step's `data` as Members of one block structure; one MtlDataset is the dataset of all B members."""
    if isinstance(data, MtlDataset):
        data = Members((data,), np.zeros(B, dtype=np.intp))
    _check_structure(data.datasets)
    data.datasets[0].require_nonempty_tasks()
    return data


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
    data: MtlDataset | Members,
    factors: tuple[np.ndarray, ...],
    kernel: KernelSpec,
    C: np.ndarray,
    gram_matrix: np.ndarray | None = None,
    *,
    _gram_compared: bool = False,
) -> SharedStepResult:
    """Exactly minimize over the shared factor, biases, and residuals of B members.

    `factors` are the members' factor matrices, stacked B x T_n x K, and C
    their 1-D array of costs. `data` is the dataset of every member, or
    `Members` on datasets that share one block structure (see `fit_many`).
    This is where the step's form is chosen. A linear kernel with dK <= m
    solves Q = Phi Phi^T for the features Phi_j = u_t(j) kron x_j as a
    KroneckerGram over each dataset's per-task moments: the dK x dK ridge.
    Every other step solves a CoherenceGram: the task vectors with
    `gram_matrix`, the kernel Gram of the stacked inputs, which such a step
    requires, of the one dataset of every member; they share it and its
    targets, and get the Gram back bit for bit. It must be exactly
    symmetric, as `kernels.gram` returns it, and the step compares its
    triangles (ValueError otherwise, with the Gram unchanged). `fit_many`,
    which compares each Gram once when it builds it, passes the private
    `_gram_compared` to skip that. The updated shared factors are returned
    as one `model.SharedFactor` over the sample tasks and, in a tuple, each
    member's owner's stacked inputs: in dual form, plus for the linear
    kernel the explicit matrices: the ridge weights w in Kronecker order
    (feature k*d + i is u_k x_i), or X^T (alpha o U) for dK > m or when w
    misses the residual bound with the refined duals (see
    `linsys._solve_features`). The record, biases and residuals carry the
    member axis, and `errors` holds each member's SolverError, or None.
    """
    costs = _member_costs(C)
    data = _members(data, len(costs))
    first = data.datasets[0]
    plan = first.fit_plan
    tid = first.sample_task_ids()
    u_table = row_product_table(_factor_mats(first, factors), first.grid.mode_indices)
    K = u_table.shape[-1]
    explicit = None
    if _kronecker_ridge(kernel, first, K):
        moments = tuple(dataset.fit_plan.moments for dataset in data.datasets)
        y = data.gather(MtlDataset.stacked_targets)
        solution = solve_dual_system(plan.shared, KroneckerGram(u_table, moments, data.owner), y, costs)
        weights = solution.weights[..., 0, :]
        explicit = np.ascontiguousarray(np.swapaxes(weights.reshape(weights.shape[:-1] + (K, -1)), -1, -2))
    else:
        if gram_matrix is None:
            raise ValueError("this shared step solves through the kernel Gram: gram_matrix is required")
        if len(data.datasets) > 1:
            raise ValueError("a shared step through the kernel Gram takes one dataset for all members")
        Q = CoherenceGram(u_table, gram_matrix, _compared=_gram_compared)
        solution = solve_dual_system(plan.shared, Q, first.stacked_targets(), costs)
        if kernel.has_feature_map:
            explicit = first.stacked_inputs().T @ dual_weights(solution.duals, u_table, tid)
    constraint = np.max(np.abs(plan.shared.sums(solution.duals, axis=-1)), axis=-1)
    X = tuple(data.datasets[k].stacked_inputs() for k in data.owner.tolist())
    shared = SharedFactor(solution.duals, u_table, X, tid, explicit)
    return SharedStepResult(shared, solution.biases, solution.residual, constraint, solution.errors)


def reduced_features(
    data: MtlDataset | Members, factors: tuple[np.ndarray, ...], mode: int, projection: np.ndarray
) -> np.ndarray:
    """B x m x K reduced features for one mode's row subproblems of B members.

    Each sample's row is its shared projection (`projection`, B x m x K:
    the training inputs through each member's shared factor)
    Hadamard-multiplied with the task's exclusion product over all other
    modes, from the members' factor matrices stacked B x T_n x K. `data`
    is as for `solve_shared_step`; only its grid and sample tasks are read.
    """
    data = _members(data, len(projection)).datasets[0]
    mode = data.grid._check_mode(mode)
    excl = row_product_table(_factor_mats(data, factors), data.grid.mode_indices, mode)
    return projection * excl.take(data.sample_task_ids(), axis=-2)


@dataclass(frozen=True)
class ModeStepResult:
    """All rows of one mode, solved together for B members.

    `layout` is the mode's layout, whose tasks, samples and blocks every
    member shares (its targets are the first member's). Arrays follow the
    layout's order after the member axis: `row_values`
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


def solve_mode_row_step(data: MtlDataset | Members, z: np.ndarray, mode: int, C: np.ndarray) -> ModeStepResult:
    """Exactly minimize over every row of one mode factor and all biases, for B members.

    `z` holds the members' reduced features, stacked B x m x K, and C their
    1-D array of costs; `data` is as for `solve_shared_step`, and each
    member's targets are those of its owner's layout. Row r's subproblem
    involves only the tasks whose mode index equals r; its system matrix is
    the Gram of their reduced features Z_r. The rows are independent, so they
    go to the solver as one FeatureGram of Z with the layout's Blocks (one
    group per row), each row solved as its own K x K centered ridge, whatever
    its sample count. Each row's values are the solver's primal weights for
    its group: the ridge solution w, or Z_r^T alpha_r when w misses the row's
    bound after a refinement step. A row whose features are all zero (a fit
    that collapsed) has the exact solution 0, with its tasks' biases at their
    target means. A member's SolverError is the solver's: its `group` is the
    lowest failing row, less one.
    """
    data = _members(data, np.size(C))
    index = data.datasets[0].grid._check_mode(mode) - 1
    costs = _member_costs(C)
    layout = data.datasets[0].fit_plan.layouts[index]
    blocks = layout.blocks
    if np.ndim(z) != 3:
        raise ValueError(f"a row step takes its members' features stacked B x m x K, got shape {np.shape(z)}")
    # a gather along the sample axis that keeps each member's rows contiguous
    Z = np.take(np.asarray(z, dtype=float), layout.samples, axis=-2)
    targets = data.gather(lambda dataset: dataset.fit_plan.layouts[index].targets)
    solution = solve_dual_system(blocks, FeatureGram(Z), targets, costs)
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
    along the last axis. Leading axes (members, and a sweep's rows) carry
    over: with `yhat` B x R x m and `mode_norms` B x R x n_modes, `y` is
    B x 1 x m, `C` and `pen_shared` B x 1, and the results are B x R. Each
    value is that of the one-row evaluation bit for bit.
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
    """The record of the members that `key` (a mask or a slice) selects, or of the one member at index `key`.

    A batch record holds a tuple with each member's training inputs, and
    one member's record that member's own array.
    """
    explicit = None if shared.explicit is None else shared.explicit[key]
    picked = np.arange(len(shared.train_inputs))[key]
    X = shared.train_inputs[picked] if picked.ndim == 0 else tuple(shared.train_inputs[b] for b in picked.tolist())
    return SharedFactor(shared.duals[key], shared.task_vector_snapshot[key], X, shared.task_ids, explicit)


class _Members:
    """The members of a `fit_many` still in its alternation.

    Arrays carry the member axis first; `index` holds each member's
    position among the members. `data` holds the datasets and each
    member's owner, as the steps take them, `gram` the Gram of the one
    dataset of a fit through the kernel Gram (else None), and `y` the
    owners' targets, B x m. `trace` is the alternation's trace table, which
    `record` extends and every member's FitState shares. `keep` drops the
    members that left.
    """

    def __init__(
        self, costs: list[float], start: tuple[np.ndarray, ...], n_tasks: int, tid, data: Members, gram_matrix
    ):
        B = len(costs)
        self.data, self.gram = data, gram_matrix
        self.y = data.gather(MtlDataset.stacked_targets)
        self.m = self.y.shape[-1]
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
        self.trace: list[_TraceRows] = []
        self.warnings = [[] for _ in range(B)]
        self.collapsed = [set() for _ in range(B)]

    def record(self, iteration: int, steps: tuple[str, ...], yhat: np.ndarray, mode_norms: np.ndarray) -> None:
        """Trace rows of `steps` from the predictions (B x R x m) and mode-factor norms (B x R x n_modes) after each."""
        obj, sse = _objective(self.y[:, None], yhat, self.C[:, None], self.pen_shared[:, None], mode_norms)
        self.trace.append(_TraceRows(iteration, steps, self.index, obj, np.sqrt(sse / self.m)))

    def project(self, kernel: KernelSpec) -> np.ndarray:
        """The training inputs through the members' shared factors (`shared_projection`), dataset by dataset."""

        def run(own: slice, data: MtlDataset) -> np.ndarray:
            return shared_projection(_member_record(self.shared, own), kernel, data.stacked_inputs(), self.gram)

        return by_run(self.data.owner, self.data.datasets, run)

    def keep(self, mask: np.ndarray) -> None:
        self.data = replace(self.data, owner=self.data.owner[mask])
        for name in ("y", "C", "biases", "yhat", "mode_norms", "pen_shared", "max_sys", "max_con", "projection"):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[mask])
        self.factor_mats = [f[mask] for f in self.factor_mats]
        if self.prev_mats is not None:
            self.prev_mats = [f[mask] for f in self.prev_mats]
        if self.shared is not None:
            self.shared = _member_record(self.shared, mask)
        for name in ("index", "warnings", "collapsed"):
            setattr(self, name, [v for v, kept in zip(getattr(self, name), mask.tolist()) if kept])

    def state(self, b: int, converged: bool, iterations: int) -> FitState:
        return FitState(
            factors=ModeFactors(tuple(f[b] for f in self.factor_mats)),
            shared=_member_record(self.shared, b),
            biases=self.biases[b].copy(),
            converged=converged,
            iterations=iterations,
            warnings=self.warnings[b],
            max_system_residual=float(self.max_sys[b]),
            max_constraint_residual=float(self.max_con[b]),
            _trace_table=self.trace,
            _member=self.index[b],
        )


def _failure(message: str, cause: SolverError) -> SolverError:
    error = SolverError(message)
    error.__cause__ = cause
    return error


def fit_many(data, config: FitConfig, costs) -> list:
    """Fit one model per (dataset, cost) pair in lockstep, each equal to its lone `fit` bit for bit.

    `data` is one MtlDataset, or a sequence of datasets that share the
    grid, the number of samples in each task and the number of features,
    as the training folds of a cross-validation split do when every task's
    sample count divides evenly. The members are every (dataset, cost)
    pair, dataset by dataset, and share all of `config` but C: rank,
    kernel, seed, `max_iters` and `tol`. They run one alternation, whose
    every step solves all members still in it at once (see the module
    docstring), when the shared step is the task-Kronecker ridge; else
    each dataset's members run one alternation, dataset after dataset, in
    the one Gram of that dataset. A member leaves when it converges or when
    a step fails for it. Returns, per cost in the order given, the
    member's FitState or the SolverError its lone fit raises: for one
    dataset that list, for a sequence one such list per dataset. The
    FitStates of one alternation share its trace table, from which each
    builds its `trace` when it is first read. `fit` is the case of one
    dataset and one cost. Raises ValueError for datasets that do not share
    one block structure.
    """
    costs = [replace(config, C=cost).C for cost in costs]  # FitConfig checks each cost
    if not costs:
        raise ConfigError("fit_many needs at least one cost")
    datasets = (data,) if isinstance(data, MtlDataset) else tuple(data)
    if not datasets:
        raise ConfigError("fit_many needs at least one dataset")
    _check_structure(datasets)
    datasets[0].require_nonempty_tasks()
    if _kronecker_ridge(config.kernel, datasets[0], config.K):
        outcomes = _alternation(datasets, config, costs)
    else:
        outcomes = [outcome for dataset in datasets for outcome in _alternation((dataset,), config, costs)]
    if isinstance(data, MtlDataset):
        return outcomes
    return [outcomes[i : i + len(costs)] for i in range(0, len(outcomes), len(costs))]


def _alternation(datasets: tuple[MtlDataset, ...], config: FitConfig, costs: list[float]) -> list:
    """The outcomes of one alternation of every (dataset, cost) member, dataset by dataset.

    Several datasets only for the task-Kronecker ridge; any other shared
    step solves through the m x m Gram of the one dataset, built and its
    triangles compared here, once.
    """
    first = datasets[0]
    grid = first.grid
    kernel = config.kernel
    tid = first.sample_task_ids()
    mode_indices = grid.mode_indices

    G = None
    if not _kronecker_ridge(kernel, first, config.K):
        G = gram(kernel, first.stacked_inputs())
        check_symmetric(G)
    member_data = Members(datasets, np.repeat(np.arange(len(datasets)), len(costs)))
    start = init_factors(grid, config.K, config.seed).factors
    live = _Members(costs * len(datasets), start, grid.n_tasks, tid, member_data, G)
    outcomes: list[FitState | SolverError | None] = [None] * len(live.index)

    def leave(failures, where) -> np.ndarray:
        """Members whose failure is not None leave with it, located by `where`; the mask of the rest."""
        kept = np.array([exc is None for exc in failures])
        if not kept.all():
            for b in np.flatnonzero(~kept).tolist():
                outcomes[live.index[b]] = where(failures[b])
            live.keep(kept)
        return kept

    # Row r of a mode changes one factor row and the biases of its own
    # tasks, so the predictions after row r differ from those before the
    # sweep only in the samples of rows 1..r. A sweep computes each sample's
    # new prediction once, by the arithmetic of a full recomputation, stacks
    # the predictions after each row (`swept_by_row` marks the samples they
    # take over) and records all its rows with one objective evaluation.
    swept_by_row = [mode_indices[tid, n] <= np.arange(size)[:, None] for n, size in enumerate(grid.mode_sizes)]
    row_steps = [
        tuple(f"mode{n}/row{r}" for r in range(1, size + 1)) for n, size in enumerate(grid.mode_sizes, start=1)
    ]
    live.record(0, ("init",), live.yhat[:, None], live.mode_norms[:, None])

    for it in range(1, config.max_iters + 1):
        live.prev_mats = [f.copy() for f in live.factor_mats]

        try:
            step = solve_shared_step(
                live.data, live.factor_mats, kernel, live.C, gram_matrix=live.gram, _gram_compared=True
            )
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
        live.projection = live.project(kernel)
        live.pen_shared = _shared_penalty(live.shared, live.projection)
        live.yhat = task_predictions(live.projection, live.shared.task_vector_snapshot, live.biases, tid)
        live.record(it, ("shared",), live.yhat[:, None], live.mode_norms[:, None])

        for mode in range(1, grid.n_modes + 1):
            z = reduced_features(live.data, live.factor_mats, mode, live.projection)
            try:
                sweep = solve_mode_row_step(live.data, z, mode, live.C)
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
            norms = np.repeat(live.mode_norms[:, None], mat.shape[1], axis=1)  # after each row r
            for r in range(mat.shape[1]):
                mat[:, r, :] = sweep.row_values[:, r]
                norms[:, r, mode - 1] = _squared_norm(mat)
            live.mode_norms = norms[:, -1]
            live.biases[:, lay.tasks - 1] = sweep.biases
            u_table = row_product_table(live.factor_mats, mode_indices)
            before, live.yhat = live.yhat, np.empty_like(live.yhat)
            live.yhat[:, lay.samples] = task_predictions(
                live.projection.take(lay.samples, axis=1), u_table, live.biases, tid[lay.samples]
            )
            after_rows = np.where(swept_by_row[mode - 1], live.yhat[:, None], before[:, None])
            live.record(it, row_steps[mode - 1], after_rows, norms)
        if not live.index:
            break

        change = _factor_change(live.factor_mats, live.prev_mats)
        live.trace[-1].changes = change

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
