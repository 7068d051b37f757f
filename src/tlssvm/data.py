"""Multitask dataset container, CSV (de)serialization, synthetic data, CV splits."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import DataError, config_object, positive, whole
from .taskgrid import ModeFactors, TaskGrid, delinearize, linearize, task_vector_table
from .textio import csv_line, csv_rows

if TYPE_CHECKING:  # linsys loads with the first fit (`FitPlan.of`), not with a dataset
    from .linsys import Blocks, TaskMoments

__all__ = [
    "MtlDataset",
    "ModeLayout",
    "FitPlan",
    "SyntheticSpec",
    "SyntheticTruth",
    "generate_synthetic",
    "save_csv",
    "load_csv",
    "kfold_split",
]


@dataclass(frozen=True)
class ModeLayout:
    """One mode's row subproblems: their tasks and samples, laid out row by row.

    `tasks` (1-based ids) run row by row, ascending within a row, and
    `samples` are the global sample indices in that task order. `blocks`
    has one block per task in that order and one group per row, so row r
    owns the tasks and samples of `blocks.group_slices[r - 1]`. `targets`
    are the targets in sample order.
    """

    tasks: np.ndarray
    samples: np.ndarray
    blocks: Blocks
    targets: np.ndarray

    @classmethod
    def of(cls, data: "MtlDataset", mode: int) -> "ModeLayout":
        from .linsys import Blocks

        grid = data.grid
        row_of_task = grid.mode_indices[:, mode - 1]
        # samples are stacked task by task, so a stable sort by row keeps
        # tasks ascending, and each task's samples in order, within a row
        tasks = np.argsort(row_of_task, kind="stable")
        samples = np.argsort(row_of_task[data.sample_task_ids()], kind="stable")
        n_rows = grid.mode_sizes[mode - 1]
        blocks = Blocks(np.asarray(data.task_sizes)[tasks], (grid.n_tasks // n_rows,) * n_rows)
        targets = data.stacked_targets()[samples]
        tasks += 1
        for arr in (tasks, samples, targets):
            arr.flags.writeable = False
        return cls(tasks, samples, blocks, targets)


@dataclass(frozen=True, eq=False)
class FitPlan:
    """What every fit of one dataset needs and only the dataset determines.

    `shared` is the block structure of the shared step (one block per
    task) and `layouts[n-1]` the layout of mode n's row subproblems.
    `moments` are the inputs' per-task moments, which a linear shared step
    in the ridge form computes on first use. Arrays are read-only.
    """

    shared: Blocks
    layouts: tuple[ModeLayout, ...]
    moments: TaskMoments

    @classmethod
    def of(cls, data: "MtlDataset") -> "FitPlan":
        from .linsys import Blocks, TaskMoments

        shared = Blocks(data.task_sizes)
        return cls(
            shared,
            tuple(ModeLayout.of(data, mode) for mode in range(1, data.grid.n_modes + 1)),
            TaskMoments(shared, data.stacked_inputs()),
        )


@dataclass(frozen=True)
class MtlDataset:
    """Per-task sample blocks (X^t, y^t) over a task grid.

    Blocks are ordered by linear task id; the global sample order is tasks
    ascending, samples in file/generation order within a task.
    `task_slices[t]` selects task t + 1's samples in that order; the
    slices are computed once.
    """

    grid: TaskGrid
    inputs: tuple[np.ndarray, ...]
    targets: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.inputs) != self.grid.n_tasks or len(self.targets) != self.grid.n_tasks:
            raise ValueError(
                f"expected {self.grid.n_tasks} task blocks, got "
                f"{len(self.inputs)} input and {len(self.targets)} target blocks"
            )
        dims = set()
        inputs, targets = [], []
        for t, (X, y) in enumerate(zip(self.inputs, self.targets), start=1):
            X = np.asarray(X, dtype=float)
            y = np.asarray(y, dtype=float)
            if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
                raise ValueError(f"task {t}: inputs must be m_t x d with matching targets")
            if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
                raise ValueError(f"task {t}: non-finite sample values")
            dims.add(X.shape[1])
            inputs.append(X)
            targets.append(y)
        if len(dims) != 1:
            raise ValueError(f"tasks disagree on feature dimension: {sorted(dims)}")
        if dims == {0}:
            raise ValueError("inputs must have at least one feature")
        # The stacked arrays are copies, so freezing them never flips a
        # caller array's writeable flag.
        self._own_stacked(
            np.concatenate(inputs, axis=0),
            np.concatenate(targets),
            tuple(X.shape[0] for X in inputs),
        )

    @classmethod
    def _from_stacked(cls, grid: TaskGrid, X: np.ndarray, y: np.ndarray, sizes) -> "MtlDataset":
        """A dataset that takes over finite arrays already stacked task by task."""
        data = object.__new__(cls)
        object.__setattr__(data, "grid", grid)
        data._own_stacked(X, y, tuple(int(n) for n in sizes))
        return data

    def _own_stacked(self, X: np.ndarray, y: np.ndarray, sizes: tuple[int, ...]) -> None:
        """Freeze the stacked arrays and derive the task blocks (views) and bookkeeping."""
        ends = np.cumsum(sizes).tolist()
        slices = tuple(map(slice, [0] + ends[:-1], ends))
        stacked = {
            "_stacked_inputs": X,
            "_stacked_targets": y,
            "_sample_task_ids": np.repeat(np.arange(len(sizes)), sizes),
        }
        for name, arr in stacked.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_task_sizes", sizes)
        object.__setattr__(self, "task_slices", slices)
        object.__setattr__(self, "inputs", tuple(X[s] for s in slices))
        object.__setattr__(self, "targets", tuple(y[s] for s in slices))

    @property
    def n_features(self) -> int:
        return self.inputs[0].shape[1]

    @property
    def task_sizes(self) -> tuple[int, ...]:
        return self._task_sizes

    @property
    def n_samples(self) -> int:
        return self._stacked_targets.shape[0]

    def stacked_inputs(self) -> np.ndarray:
        """m x d inputs in global sample order (read-only, shared by every call)."""
        return self._stacked_inputs

    def stacked_targets(self) -> np.ndarray:
        """Targets in global sample order (read-only, shared by every call)."""
        return self._stacked_targets

    def sample_task_ids(self) -> np.ndarray:
        """0-based task index of every sample in global order (read-only)."""
        return self._sample_task_ids

    @cached_property
    def fit_plan(self) -> FitPlan:
        """The dataset's `FitPlan`, built by its first fit and kept."""
        return FitPlan.of(self)

    def require_nonempty_tasks(self) -> None:
        empty = [t + 1 for t, m in enumerate(self.task_sizes) if m == 0]
        if empty:
            raise DataError(f"tasks without samples: {empty}")


@dataclass(frozen=True)
class SyntheticSpec:
    """Protocol for CP-structured synthetic regression data.

    Responses are X^t w_t + b^t plus white noise scaled, per task, so that
    ||clean||^2 / ||noise||^2 equals `snr` exactly. `snr=inf` disables noise.
    """

    d: int
    mode_sizes: tuple[int, ...]
    k_true: int
    train_per_task: int
    test_per_task: int
    snr: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode_sizes", TaskGrid(self.mode_sizes).mode_sizes)
        for name in ("d", "k_true", "train_per_task", "test_per_task", "seed"):
            minimum = 0 if name == "seed" else 1
            object.__setattr__(self, name, whole(getattr(self, name), name, minimum))
        object.__setattr__(self, "snr", positive(self.snr, "snr", finite=False))

    @property
    def grid(self) -> TaskGrid:
        return TaskGrid(self.mode_sizes)

    def to_config(self) -> dict:
        return {
            "d": self.d,
            "mode_sizes": list(self.mode_sizes),
            "k_true": self.k_true,
            "train_per_task": self.train_per_task,
            "test_per_task": self.test_per_task,
            "snr": self.snr,
            "seed": self.seed,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "SyntheticSpec":
        return cls(**config_object(cfg, "synthetic spec", [f.name for f in fields(cls)]))


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground-truth generative parameters of a synthetic dataset."""

    shared: np.ndarray
    factors: ModeFactors
    biases: np.ndarray


def _add_scaled_noise(clean: np.ndarray, raw_noise: np.ndarray, snr: float) -> np.ndarray:
    if math.isinf(snr):
        return clean.copy()
    noise_norm = float(np.linalg.norm(raw_noise))
    scale = float(np.linalg.norm(clean)) / (math.sqrt(snr) * noise_norm)
    return clean + scale * raw_noise


def generate_synthetic(spec: SyntheticSpec) -> tuple[MtlDataset, MtlDataset, SyntheticTruth]:
    """Draw a (train, test, truth) triple from the seeded generator.

    Draw order is fixed for reproducibility: shared factor, mode factors,
    inputs (per task: train then test), biases, raw noise.
    """
    rng = np.random.default_rng(spec.seed)
    grid = spec.grid
    T = grid.n_tasks

    shared = rng.standard_normal((spec.d, spec.k_true))
    factors = ModeFactors(tuple(rng.standard_normal((s, spec.k_true)) for s in spec.mode_sizes))
    xs_train = []
    xs_test = []
    for _ in range(T):
        xs_train.append(rng.standard_normal((spec.train_per_task, spec.d)))
        xs_test.append(rng.standard_normal((spec.test_per_task, spec.d)))
    biases = rng.standard_normal(T)

    weights = shared @ task_vector_table(factors).T  # d x T
    ys_train = []
    ys_test = []
    for t in range(T):
        clean_train = xs_train[t] @ weights[:, t] + biases[t]
        clean_test = xs_test[t] @ weights[:, t] + biases[t]
        noise_train = rng.standard_normal(spec.train_per_task)
        noise_test = rng.standard_normal(spec.test_per_task)
        ys_train.append(_add_scaled_noise(clean_train, noise_train, spec.snr))
        ys_test.append(_add_scaled_noise(clean_test, noise_test, spec.snr))

    train = MtlDataset(grid, tuple(xs_train), tuple(ys_train))
    test = MtlDataset(grid, tuple(xs_test), tuple(ys_test))
    return train, test, SyntheticTruth(shared, factors, biases)


def _header(grid: TaskGrid, n_features: int) -> list[str]:
    return (
        [f"t_{n}" for n in range(1, grid.n_modes + 1)]
        + [f"x_{j}" for j in range(1, n_features + 1)]
        + ["y"]
    )


def save_csv(data: MtlDataset, path) -> None:
    """Write the dataset in the t_1..t_N, x_1..x_d, y column layout.

    Floats are written with shortest round-trip repr, so load(save(data))
    reproduces the values exactly.
    """
    lines = [csv_line(_header(data.grid, data.n_features))]
    for t in range(data.grid.n_tasks):
        rows = np.column_stack((data.inputs[t], data.targets[t]))
        lines.append(csv_rows(delinearize(data.grid, t + 1), rows))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(lines))


def load_csv(path, grid: TaskGrid, allow_empty_tasks: bool = False) -> MtlDataset:
    """Read a dataset back; samples keep file order within each task.

    Task indices read as Python's int() reads them and every other cell as
    float() does. A bad line raises DataError naming the first bad line in
    file order. The data lines are converted in one C pass; a file that
    pass cannot read exactly as those rules do (a bad line, `1_0`, a quoted
    cell, a blank line) is read again line by line.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise DataError(f"{path}:1: {exc}") from None
        n_modes = grid.n_modes
        if len(header) < n_modes + 2:
            raise DataError(f"{path}: header has {len(header)} columns, need at least {n_modes + 2}")
        d = len(header) - n_modes - 1
        expected = _header(grid, d)
        if header != expected:
            raise DataError(f"{path}: bad header {header[:6]}..., expected t_1..t_{n_modes},x_1..x_{d},y")
        body = fh.read()

    # numpy's loadtxt reads a number as int() and float() do, except for
    # syntax only Python reads (`1_0`, non-ASCII digits, quoted cells), on
    # which it raises, and for the separators \x1c-\x1f, which only it strips
    # as whitespace. It skips blank lines, so a row count that differs from
    # the line count means one was there; csv rejects a cell longer than its
    # field limit, so a longer line is left to csv too. Every file the C pass
    # does not read, or whose values fail a check, is read line by line, which
    # converts what only Python accepts and raises at the first bad line.
    sizes = np.array(grid.mode_sizes)
    table = _read_table(path, body, n_modes, d)
    if table is not None:
        idx, values = table["index"], table["values"]
        if not (((idx >= 1) & (idx <= sizes)).all() and np.isfinite(values).all()):
            table = None
    if table is None:
        idx, values = _read_lines(path, io.StringIO(body, newline=""), grid, len(expected))

    task = (idx - 1) @ np.array(grid.strides)  # 0-based linear task ids
    order = np.argsort(task, kind="stable")
    counts = np.bincount(task, minlength=grid.n_tasks)
    data = MtlDataset._from_stacked(grid, values[order, :-1], values[order, -1], counts)
    if not allow_empty_tasks:
        data.require_nonempty_tasks()
    return data


def _count_lines(text: str) -> int:
    """The lines of `text` as a file opened with newline="" yields them."""
    ends = text.count("\n") + text.count("\r") - text.count("\r\n")
    return ends + int(text[-1:] not in ("", "\n", "\r"))


def _needs_python(body: str) -> bool:
    """Whether `body` holds a character or a line that only csv, int() and float() read right."""
    if any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
        return True
    limit = csv.field_size_limit()
    # a piece between two "\n" is at least as long as every line in it
    return len(body) > limit and max(map(len, body.split("\n"))) > limit


def _read_table(path, body: str, n_modes: int, d: int) -> np.ndarray | None:
    """The data lines `body` of the CSV file `path` as one record array (fields `index`, `values`).

    None when `body` has no lines or needs Python's rules, loadtxt rejects
    a line, or it returns another number of rows than `body` has lines.
    """
    n_lines = _count_lines(body)
    if not n_lines or _needs_python(body):
        return None  # loadtxt warns on a file without data
    dtype = [("index", np.int64, (n_modes,)), ("values", np.float64, (d + 1,))]
    # opened here, so that numpy neither guesses a compression from the name
    # nor the encoding; universal newlines end a line where csv does
    with open(path, "r", encoding="utf-8") as fh:
        try:
            table = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, skiprows=1, ndmin=1)
        except ValueError:
            return None
    return table if len(table) == n_lines else None


def _read_lines(path, lines, grid: TaskGrid, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Task indices and values of the CSV data lines `lines` (file line 2 on), converted one line at a time."""
    idx, values = [], []
    lineno = 1
    try:
        for lineno, row in enumerate(csv.reader(lines), start=2):
            line_idx, line_values = _check_line(path, lineno, row, grid, width)
            idx.append(line_idx)
            values.append(line_values)
    except csv.Error as exc:
        # the reader raised on the line after the last one it returned
        raise DataError(f"{path}:{lineno + 1}: {exc}") from None
    n_modes = grid.n_modes
    return (
        np.array(idx, dtype=np.int64).reshape(-1, n_modes),
        np.array(values, dtype=float).reshape(-1, width - n_modes),
    )


def _check_line(path, lineno: int, row: list[str], grid: TaskGrid, width: int) -> tuple[list[int], list[float]]:
    """One CSV line's task index and values; raises the DataError of the first check it fails."""
    n_modes = grid.n_modes
    if len(row) != width:
        raise DataError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
    try:
        idx = [int(v) for v in row[:n_modes]]
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-integer task index {row[:n_modes]}") from None
    try:
        linearize(grid, idx)
    except IndexError as exc:
        raise DataError(f"{path}:{lineno}: {exc}") from None
    try:
        values = [float(v) for v in row[n_modes:]]
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric cell") from None
    if not all(math.isfinite(v) for v in values):
        raise DataError(f"{path}:{lineno}: non-finite value")
    return idx, values


def kfold_split(data: MtlDataset, folds: int, seed: int) -> list[tuple[MtlDataset, MtlDataset]]:
    """Per-task stratified k-fold split, deterministic for a fixed seed.

    Every task's samples are partitioned into `folds` near-equal parts
    (sizes differ by at most one); fold j's validation set is the union of
    part j over tasks. Samples keep their original relative order inside
    each resulting block. Each fold's training and validation sets take
    their rows from the stacked arrays in one gather each, and are not
    checked again, since `data` was.
    """
    folds = whole(folds, "folds", 2)
    for t, m in enumerate(data.task_sizes, start=1):
        if m < folds:
            raise DataError(f"task {t} has {m} samples, fewer than {folds} folds")

    rng = np.random.default_rng(seed)
    fold_of = np.empty(data.n_samples, dtype=np.intp)  # the validation fold of each sample
    counts = np.empty((folds, data.grid.n_tasks), dtype=np.intp)  # validation samples per fold and task
    for t, (rows, m) in enumerate(zip(data.task_slices, data.task_sizes)):
        # the parts of np.array_split: the first m % folds take one sample more
        parts = np.full(folds, m // folds)
        parts[: m % folds] += 1
        fold_of[rows.start + rng.permutation(m)] = np.arange(folds).repeat(parts)
        counts[:, t] = parts

    X, y = data.stacked_inputs(), data.stacked_targets()
    out = []
    for j in range(folds):
        val = fold_of == j
        train = ~val
        out.append(
            (
                MtlDataset._from_stacked(data.grid, X[train], y[train], np.subtract(data.task_sizes, counts[j])),
                MtlDataset._from_stacked(data.grid, X[val], y[val], counts[j]),
            )
        )
    return out
