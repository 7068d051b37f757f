from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from tlssvm import MtlDataset, TaskGrid
from tlssvm.baseline import SingleTaskLssvm, fit_independent, query_inputs
from tlssvm.data import SyntheticSpec, generate_synthetic
from tlssvm.errors import DataError, UnsupportedOperation, positive
from tlssvm.kernels import KernelSpec, gram
from tlssvm.linsys import Blocks, CoherenceGram, FeatureGram, KroneckerGram, solve_dual_system
from tlssvm.model import SharedFactor, dual_projection, task_predictions
from tlssvm.solver import (
    FitConfig,
    ModeStepResult,
    _member_record,
    _objective,
    _shared_penalty,
    _squared_norm,
    init_factors,
    shared_projection,
)
from tlssvm.taskgrid import ModeFactors, linearize, row_product_table, task_vector_table


def block_constraint_matrix(block_sizes) -> np.ndarray:
    """m x T block-diagonal matrix of ones columns (one column per task)."""
    m = int(sum(block_sizes))
    A = np.zeros((m, len(block_sizes)))
    start = 0
    for j, size in enumerate(block_sizes):
        A[start : start + size, j] = 1.0
        start += size
    return A


def saddle_oracle(block_sizes, Q, y, C):
    """(biases, duals) of the assembled saddle system, solved by np.linalg.solve."""
    A = block_constraint_matrix(block_sizes)
    m, T = A.shape
    full = np.block([[np.zeros((T, T)), A.T], [A, Q + (1.0 / C) * np.eye(m)]])
    sol = np.linalg.solve(full, np.concatenate([np.zeros(T), y]))
    return sol[:T], sol[T:]


def kernel_eval(spec: KernelSpec, x, x_other) -> float:
    """k(x, x') for a single pair of points, evaluated directly: the oracle for `gram`."""
    x = np.asarray(x, dtype=float)
    x_other = np.asarray(x_other, dtype=float)
    if x.ndim != 1 or x.shape != x_other.shape:
        raise ValueError(f"need two vectors of one length, got shapes {x.shape} and {x_other.shape}")
    if spec.family == "linear":
        return float(x @ x_other)
    diff = x - x_other
    return float(np.exp(-spec.gamma * (diff @ diff)))


def predict_single(model: SingleTaskLssvm, x, kernel: KernelSpec) -> float:
    """sum_i alpha_i k(x, x_i) + b for one query row: the one-query oracle of a baseline task.

    A task carries no kernel: it is its model's (`LssvmModel.kernel`).
    """
    x = query_inputs(x, 1, model.inputs.shape[1])
    k = gram(kernel, model.inputs, x[None, :])[:, 0]
    return float(model.duals @ k + model.bias)


def fit_single(X, y, C: float, kernel: KernelSpec) -> SingleTaskLssvm:
    """One task's LSSVM, as `fit_independent` fits it on a grid of one task: the single-task oracle.

    Raises ValueError for bad or non-finite training blocks and ConfigError
    unless C is a positive finite number.
    """
    C = positive(C, "C")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad training block shapes: X {X.shape}, y {y.shape}")
    if X.shape[0] < 1:
        raise ValueError("need at least one training sample")
    for name, values in (("X", X), ("y", y)):
        if not np.isfinite(values).all():
            raise ValueError(f"training {name} contains NaN or infinite values")
    return fit_independent(MtlDataset(TaskGrid((1,)), (X,), (y,)), C, kernel).tasks[0]


def coherence_dense(Q: CoherenceGram, blocks: Blocks, shift: float = 0.0) -> np.ndarray:
    """Q + shift I of a CoherenceGram, as a fresh C-ordered m x m array.

    The solver never forms it: it factors Q + I/C in the Gram's own upper
    triangle. This is the assembled matrix that oracles solve with.
    """
    coherence = Q.task_vectors @ Q.task_vectors.T
    coherence = 0.5 * (coherence + coherence.T)
    # samples are stacked task by task, so the coherence expands block by block
    H = np.repeat(np.repeat(coherence, blocks.sizes, axis=0), blocks.sizes, axis=1)
    H *= Q.gram
    H.reshape(-1)[:: blocks.m + 1] += shift
    return H


def one_member(step, data: MtlDataset, given, *args, C: float, **kwargs):
    """`step` (`solve_shared_step` or `solve_mode_row_step`) for one member, as a lone step.

    The steps take members only: factor matrices stacked B x T_n x K,
    reduced features B x m x K and a 1-D array of costs. The member's
    factors (a ModeFactors) or features (m x K) are passed as the stacks
    of one member, its cost as the array [C]. Returns member 0's result
    without the member axis, or raises its SolverError.
    """
    if isinstance(given, ModeFactors):
        given = tuple(f[None] for f in given.factors)
    else:
        given = np.asarray(given)[None]
    result = step(data, given, *args, np.array([C], dtype=float), **kwargs)
    (error,) = result.errors
    if error is not None:
        raise error
    lone = {
        field.name: getattr(result, field.name)[0]
        for field in dataclasses.fields(result)
        if isinstance(getattr(result, field.name), np.ndarray)
    }
    if hasattr(result, "shared"):
        lone["shared"] = _member_record(result.shared, 0)
    return dataclasses.replace(result, **lone)


class LoneSolution(NamedTuple):
    """Member 0 of a one-member solve: biases (T), duals (m), residual, weights (G x p, or None)."""

    biases: np.ndarray
    duals: np.ndarray
    residual: float
    weights: np.ndarray | None


def lone_solve(blocks, Q, y, C: float) -> LoneSolution:
    """`solve_dual_system` for one cost, as a lone solve: the oracle that each member equals.

    The solve takes members only: a 1-D array of costs and a structured
    Q's arrays with a leading member axis. The cost is passed as the
    array [C], and a FeatureGram's features or a KroneckerGram's or
    CoherenceGram's task vectors as the stacks of one member; a
    KroneckerGram's owner already holds that member's one entry, and a
    dense Q has no member axis. Returns member 0's biases, duals,
    residual and weights, or raises its SolverError.
    """
    if isinstance(Q, FeatureGram):
        Q = FeatureGram(Q.features[None])
    elif isinstance(Q, (KroneckerGram, CoherenceGram)):
        Q = dataclasses.replace(Q, task_vectors=np.asarray(Q.task_vectors, dtype=float)[None])
    solution = solve_dual_system(blocks, Q, y, np.array([C], dtype=float))
    (error,) = solution.errors
    if error is not None:
        raise error
    weights = None if solution.weights is None else solution.weights[0]
    return LoneSolution(solution.biases[0], solution.duals[0], float(solution.residual[0]), weights)


def fit_config_dict(cfg: FitConfig) -> dict:
    """The JSON object of a FitConfig that `FitConfig.from_config` reads back."""
    return {
        "K": cfg.K,
        "C": cfg.C,
        "kernel": cfg.kernel.to_config(),
        "max_iters": cfg.max_iters,
        "tol": cfg.tol,
        "seed": cfg.seed,
    }


def high_precision_saddle_solution(block_sizes, Phi, y, C, digits=40):
    """(biases, duals) of the saddle system with Q = Phi Phi^T, solved in `digits`-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    A = block_constraint_matrix(block_sizes)
    m, T = A.shape
    with mpmath.workdps(digits):
        P = mpmath.matrix(np.asarray(Phi).tolist())
        Q = P * P.T
        M = mpmath.zeros(T + m)
        ridge = mpmath.mpf(1) / C
        for i in range(m):
            for t in range(T):
                M[T + i, t] = M[t, T + i] = A[i, t]
            for j in range(m):
                M[T + i, T + j] = Q[i, j] + (ridge if i == j else 0)
        exact = mpmath.lu_solve(M, mpmath.matrix([0] * T + np.asarray(y).tolist()))
        sol = np.array([float(v) for v in exact])
    return sol[:T], sol[T:]


def task_offsets(data: MtlDataset) -> np.ndarray:
    """Start of each task's block in the dataset's global sample order."""
    sizes = np.array(data.task_sizes, dtype=np.intp)
    return np.cumsum(sizes) - sizes


def with_updated_row(factors: ModeFactors, mode: int, row: int, values) -> ModeFactors:
    """Copy of the factors with row `row` of mode `mode` replaced (1-based)."""
    mode = factors.grid._check_mode(mode)
    mats = [f.copy() for f in factors.factors]
    mats[mode - 1][row - 1, :] = values
    return ModeFactors(tuple(mats))


def task_vector(factors: ModeFactors, idx) -> np.ndarray:
    """Length-K Hadamard product of the factor rows of one multi-index: a row of `task_vector_table`, alone."""
    factors.grid.task_row(idx)  # IndexError for a bad multi-index
    out = np.ones(factors.rank)
    for f, i in zip(factors.factors, idx):
        out = out * f[i - 1, :]
    return out


def task_vector_excluding(factors: ModeFactors, idx, skip_mode: int) -> np.ndarray:
    """Task vector of one multi-index with one mode left out of the product.

    With a single mode the product is empty and the all-ones vector is returned.
    """
    grid = factors.grid
    grid.task_row(idx)
    skip_mode = grid._check_mode(skip_mode)
    out = np.ones(factors.rank)
    for n, (f, i) in enumerate(zip(factors.factors, idx), start=1):
        if n != skip_mode:
            out = out * f[i - 1, :]
    return out


def exclusion_table(factors: ModeFactors, skip_mode: int) -> np.ndarray:
    """(T, K) matrix of per-task exclusion products for one mode."""
    grid = factors.grid
    skip_mode = grid._check_mode(skip_mode)
    return row_product_table(factors.factors, grid.mode_indices, skip_mode)


def without_explicit(shared: SharedFactor) -> SharedFactor:
    """Copy of a shared factor restricted to its dual representation."""
    return dataclasses.replace(shared, explicit=None)


def dual_rows(model, task_ids: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Batch dual-form predictions of a TrainedModel: rows of X at 0-based task ids.

    The oracle of `predict_dual`, which makes these operations on a 1-row block.
    """
    projection = dual_projection(model._shared, model.kernel, X)
    return task_predictions(projection, model._u_table, model.biases, task_ids)


def coslice_tasks(grid: TaskGrid, mode: int, row: int) -> np.ndarray:
    """Linear ids (ascending, 1-based) of all tasks whose mode index equals `row`.

    Over row = 1..T_n these sets partition {1, ..., T}; each has
    prod_{l != n} T_l elements.
    """
    mode = grid._check_mode(mode)
    row = int(row)
    size = grid.mode_sizes[mode - 1]
    if not 1 <= row <= size:
        raise IndexError(f"row {row} out of range [1, {size}] in mode {mode}")
    return np.flatnonzero(grid.mode_indices[:, mode - 1] == row - 1) + 1


def feature_dim(kernel: KernelSpec, n_features: int) -> int:
    """Width of the kernel's finite feature map for inputs of n_features."""
    if not kernel.has_feature_map:
        raise UnsupportedOperation(f"{kernel.family} kernel has no finite feature map")
    return n_features


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
        on_train = shared.train_inputs is data.stacked_inputs()
        projection = shared_projection(
            shared, kernel, data.stacked_inputs(), gram_matrix if on_train else None
        )
        if on_train:
            pen_shared = _shared_penalty(shared, projection)
        else:
            train_projection = shared_projection(shared, kernel, shared.train_inputs, gram_matrix)
            pen_shared = _shared_penalty(shared, train_projection)
        yhat = task_predictions(projection, task_vector_table(factors), biases, tid)
    mode_norms = [_squared_norm(f) for f in factors.factors]
    return _objective(data.stacked_targets(), yhat, C, pen_shared, mode_norms)[0]


def full_recompute_trace(data: MtlDataset, config, shared_steps, projections, sweeps) -> list:
    """Reference for `fit`'s trace: every entry recomputed in full.

    Replays a fit from its step results (the shared steps, the training
    projections of their shared factors and the mode sweeps, in the order
    `fit` made them) and recomputes, after every step, all task vectors,
    all predictions and every factor norm. Returns (iteration, step,
    objective, train_rmse) per entry.
    """
    y, tid, m = data.stacked_targets(), data.sample_task_ids(), data.n_samples
    mode_indices = data.grid.mode_indices
    mats = [f.copy() for f in init_factors(data.grid, config.K, config.seed).factors]
    biases = np.zeros(data.grid.n_tasks)
    entries = []

    def record(iteration, step, projection, pen_shared):
        if projection is None:
            yhat = biases[tid]
        else:
            u_table = np.ones((data.grid.n_tasks, config.K))
            for n, f in enumerate(mats):
                u_table *= f[mode_indices[:, n], :]
            yhat = np.sum(projection * u_table[tid], axis=1) + biases[tid]
        residuals = y - yhat
        sse = float(residuals @ residuals)
        pen_modes = sum(float(np.sum(f**2)) for f in mats)
        objective = 0.5 * config.C * sse + 0.5 * pen_shared + 0.5 * pen_modes
        entries.append((iteration, step, objective, math.sqrt(sse / m)))

    record(0, "init", None, 0.0)
    sweeps = iter(sweeps)
    for it, (step, projection) in enumerate(zip(shared_steps, projections), start=1):
        biases = step.biases.copy()
        shared = step.shared
        if shared.explicit is not None:
            pen_shared = float(np.sum(shared.explicit**2))
        else:
            weights = shared.duals[:, None] * shared.task_vector_snapshot[tid]
            pen_shared = float(np.sum(weights * projection))
        record(it, "shared", projection, pen_shared)
        for mode in range(1, data.grid.n_modes + 1):
            sweep = next(sweeps)
            for row in range(1, len(sweep.row_values) + 1):
                result = sweep_row(sweep, row)
                mats[mode - 1][row - 1, :] = result.row_values
                biases[result.tasks - 1] = result.biases
                record(it, f"mode{mode}/row{row}", projection, pen_shared)
    return entries


@dataclass(frozen=True)
class ModeRowResult:
    """One row of a mode step; `system_residual` is the mode solve's largest row residual."""

    row_values: np.ndarray
    biases: np.ndarray
    duals: np.ndarray
    tasks: np.ndarray
    system_residual: float
    constraint_residual: float


def sweep_row(sweep: ModeStepResult, r: int) -> ModeRowResult:
    """Result of row r (1-based) of a mode sweep, as a single-row step."""
    lay = sweep.layout
    rows, tasks = lay.blocks.group_slices[r - 1]
    return ModeRowResult(
        sweep.row_values[r - 1],
        sweep.biases[tasks],
        sweep.duals[rows],
        lay.tasks[tasks],
        sweep.system_residual,
        float(sweep.constraint_residuals[r - 1]),
    )


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
    return coherence_dense(CoherenceGram(task_vector_table(factors), G), Blocks(data.task_sizes))


def random_dataset(seed: int, mode_sizes=(2, 2), d: int = 3, m_t: int = 5) -> MtlDataset:
    """Random standard-normal dataset, same sample count per task."""
    grid = TaskGrid(tuple(mode_sizes))
    rng = np.random.default_rng(seed)
    inputs = tuple(rng.normal(size=(m_t, d)) for _ in range(grid.n_tasks))
    targets = tuple(rng.normal(size=m_t) for _ in range(grid.n_tasks))
    return MtlDataset(grid, inputs, targets)


def load_csv_by_rows(path, grid: TaskGrid, allow_empty_tasks: bool = False) -> MtlDataset:
    """Reference for `data.load_csv`: checks and converts one line at a time.

    The header check is left to `load_csv`; every line after it must be
    rejected with the same message, and every accepted file must give the
    same arrays, bit for bit.
    """
    n_modes = grid.n_modes
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        d = width - n_modes - 1
        xs = [[] for _ in range(grid.n_tasks)]
        ys = [[] for _ in range(grid.n_tasks)]
        lineno = 1
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:  # a cell longer than csv's field limit
                raise DataError(f"{path}:{lineno + 1}: {exc}") from None
            lineno += 1
            if len(row) != width:
                raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
            try:
                idx = [int(v) for v in row[:n_modes]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer task index {row[:n_modes]}") from None
            try:
                t = linearize(grid, idx)
            except IndexError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            try:
                values = [float(v) for v in row[n_modes:]]
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric cell") from None
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"{path}:{lineno}: non-finite value")
            xs[t - 1].append(values[:-1])
            ys[t - 1].append(values[-1])
    inputs = tuple(np.asarray(block, dtype=float).reshape(len(block), d) for block in xs)
    targets = tuple(np.asarray(block, dtype=float) for block in ys)
    data = MtlDataset(grid, inputs, targets)
    if not allow_empty_tasks:
        data.require_nonempty_tasks()
    return data


def snr10_dataset() -> MtlDataset:
    """The d=6, (2, 3)-grid SNR-10 training set on which a linear fit at C=1e6 fails."""
    spec = SyntheticSpec(
        d=6, mode_sizes=(2, 3), k_true=2, train_per_task=12, test_per_task=4,
        snr=10.0, seed=21,
    )
    train, _, _ = generate_synthetic(spec)
    return train


@pytest.fixture
def tiny_dataset() -> MtlDataset:
    return random_dataset(0)


def longdouble_ridge(features, targets, block_sizes, C):
    """(w, biases) of the centered ridge with Q = F F^T, in np.longdouble throughout.

    Centering F and the targets per block eliminates the biases; w solves
    (F~^T F~ + I/C) w = F~^T y~ by a long-double Cholesky factorization,
    and b_t = mean_t(y - F w).
    """
    F = np.asarray(features, dtype=np.longdouble)
    y = np.asarray(targets, dtype=np.longdouble)
    sizes = np.asarray(block_sizes, dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    of = np.arange(len(sizes)).repeat(sizes)
    F_c = F - (np.add.reduceat(F, starts, axis=0) / sizes[:, None])[of]
    y_c = y - (np.add.reduceat(y, starts) / sizes)[of]
    p = F.shape[1]
    H = F_c.T @ F_c + np.eye(p, dtype=np.longdouble) / np.longdouble(C)
    L = np.zeros_like(H)
    for j in range(p):
        L[j, j] = np.sqrt(H[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1 :, j] = (H[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    z = F_c.T @ y_c
    for j in range(p):
        z[j] = (z[j] - L[j, :j] @ z[:j]) / L[j, j]
    for j in reversed(range(p)):
        z[j] = (z[j] - L[j + 1 :, j] @ z[j + 1 :]) / L[j, j]
    return z, np.add.reduceat(y - F @ z, starts) / sizes


def longdouble_linear_trace(data: MtlDataset, config: FitConfig, iterations: int) -> list:
    """Reference for a linear `fit`'s trace, in np.longdouble: (step, objective) per entry.

    The same init and alternation as `fit` for `iterations` outer
    iterations, every step a primal centered ridge (`longdouble_ridge`):
    the shared step over the features u_t(j) kron x_j with one block per
    task, then each mode's rows one by one over their reduced features,
    the trace recorded after every step.
    """
    ld = np.longdouble
    X, y = data.stacked_inputs().astype(ld), data.stacked_targets().astype(ld)
    tid, sizes = data.sample_task_ids(), np.array(data.task_sizes)
    mode_indices = data.grid.mode_indices
    mats = [f.astype(ld) for f in init_factors(data.grid, config.K, config.seed).factors]
    shared = np.zeros((X.shape[1], config.K), dtype=ld)
    biases = np.zeros(data.grid.n_tasks, dtype=ld)
    trace = []

    def products(skip=None):
        u = np.ones((data.grid.n_tasks, config.K), dtype=ld)
        for n, f in enumerate(mats):
            if n != skip:
                u *= f[mode_indices[:, n]]
        return u

    def record(step):
        residuals = y - np.sum((X @ shared) * products()[tid], axis=1) - biases[tid]
        penalty = np.sum(shared**2) + sum(np.sum(f**2) for f in mats)
        trace.append((step, float(ld(config.C) / 2 * (residuals @ residuals) + penalty / 2)))

    record("init")
    for _ in range(iterations):
        U = products()[tid]
        Phi = (U[:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
        w, biases = longdouble_ridge(Phi, y, sizes, config.C)
        shared = w.reshape(config.K, -1).T
        record("shared")
        projection = X @ shared
        for n, f in enumerate(mats):
            Z = projection * products(skip=n)[tid]
            # samples are stacked task by task; each row's tasks in id order
            solved = []
            for r in range(f.shape[0]):
                tasks = np.flatnonzero(mode_indices[:, n] == r)
                rows = np.isin(tid, tasks)
                solved.append((tasks, longdouble_ridge(Z[rows], y[rows], sizes[tasks], config.C)))
            for r, (tasks, (w, b)) in enumerate(solved):
                f[r] = w
                biases[tasks] = b
                record(f"mode{n + 1}/row{r + 1}")
    return trace
