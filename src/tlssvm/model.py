"""Trained-model container: per-task prediction and JSON (de)serialization.

Predictions come in two algebraically equivalent forms. The primal form
needs the explicit shared matrix and therefore a kernel with a finite
feature map; the dual form contracts kernel evaluations against the stored
dual coefficients and works for every kernel. Models embed their training
inputs so a saved file is self-contained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .baseline import LssvmModel, SingleTaskLssvm
from .data import MtlDataset
from .errors import DataError, UnsupportedOperation
from .kernels import KernelSpec, feature_map, gram
from .taskgrid import ModeFactors, TaskGrid, linearize, task_vector, task_vector_table

__all__ = ["TrainedModel", "predict_primal", "predict_dual", "save_model", "load_model"]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class TrainedModel:
    """Fitted tensorized multitask model.

    `duals` and `task_vector_snapshot` capture the shared factor as of the
    final shared-step; `factors` are the final mode factors, whose task
    vectors enter the coherence weights at prediction time. The stacked
    training inputs, the dual-weighted task vectors and the task-vector
    table that every prediction needs are derived once, at construction.
    """

    grid: TaskGrid
    factors: ModeFactors
    duals: np.ndarray
    task_vector_snapshot: np.ndarray
    biases: np.ndarray
    kernel: KernelSpec
    train_inputs: tuple[np.ndarray, ...]
    explicit: np.ndarray | None = None

    method = "tlssvm"

    def __post_init__(self) -> None:
        if self.factors.grid != self.grid:
            raise ValueError("mode factors do not match the task grid")
        duals = np.array(self.duals, dtype=float)
        snap = np.array(self.task_vector_snapshot, dtype=float)
        biases = np.array(self.biases, dtype=float)
        T = self.grid.n_tasks
        if snap.shape != (T, self.factors.rank):
            raise ValueError(
                f"task-vector snapshot shape {snap.shape} does not match "
                f"{T} tasks at rank {self.factors.rank}"
            )
        if biases.shape != (T,):
            raise ValueError(f"need one bias per task, got shape {biases.shape}")
        if len(self.train_inputs) != T:
            raise ValueError(f"expected {T} training blocks, got {len(self.train_inputs)}")
        blocks = tuple(np.array(b, dtype=float) for b in self.train_inputs)
        dims = {b.shape[1] for b in blocks}
        if len(dims) != 1:
            raise ValueError(f"training blocks disagree on feature dimension: {sorted(dims)}")
        m = sum(b.shape[0] for b in blocks)
        if duals.shape != (m,):
            raise ValueError(f"{duals.shape[0]} dual coefficients for {m} training samples")
        explicit = self.explicit
        if explicit is not None:
            explicit = np.array(explicit, dtype=float)
            if explicit.shape != (blocks[0].shape[1], self.factors.rank):
                raise ValueError(f"explicit matrix shape {explicit.shape} inconsistent with model")
        for arr in (duals, snap, biases, *blocks):
            if not np.all(np.isfinite(arr)):
                raise ValueError("model contains non-finite values")
            arr.flags.writeable = False
        tid = np.repeat(np.arange(T), [b.shape[0] for b in blocks])
        derived = {
            "_train_X": np.concatenate(blocks, axis=0),
            "_weighted_duals": duals[:, None] * snap[tid],
            "_u_table": task_vector_table(self.factors),
        }
        for name, arr in derived.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "duals", duals)
        object.__setattr__(self, "task_vector_snapshot", snap)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "train_inputs", blocks)
        object.__setattr__(self, "explicit", explicit)

    @classmethod
    def from_fit(cls, data: MtlDataset, state, kernel: KernelSpec) -> "TrainedModel":
        """Build a self-contained model from a fit result on its training data."""
        return cls(
            grid=data.grid,
            factors=state.factors,
            duals=state.shared.duals,
            task_vector_snapshot=state.shared.task_vector_snapshot,
            biases=state.biases,
            kernel=kernel,
            train_inputs=data.inputs,
            explicit=state.shared.explicit,
        )

    @property
    def n_features(self) -> int:
        return self.train_inputs[0].shape[1]

    def _dual_rows(self, task_ids: np.ndarray, X: np.ndarray) -> np.ndarray:
        cross = gram(self.kernel, self._train_X, X)
        projection = cross.T @ self._weighted_duals
        return np.sum(projection * self._u_table[task_ids], axis=1) + self.biases[task_ids]

    def _primal_rows(self, task_ids: np.ndarray, X: np.ndarray) -> np.ndarray:
        if self.explicit is None:
            raise UnsupportedOperation(
                "no explicit shared matrix is available for this kernel; use the dual form"
            )
        projection = X @ self.explicit
        return np.sum(projection * self._u_table[task_ids], axis=1) + self.biases[task_ids]

    def predict_rows(self, multi_indices, X) -> np.ndarray:
        """Dual-form predictions for rows of X, each addressed to its own task."""
        X = _finite_inputs(X, 2, self.n_features)
        task_ids = np.array([linearize(self.grid, idx) - 1 for idx in multi_indices], dtype=int)
        if task_ids.shape[0] != X.shape[0]:
            raise DataError(f"{task_ids.shape[0]} task indices for inputs of shape {X.shape}")
        return self._dual_rows(task_ids, X)

    def predict_dataset(self, data: MtlDataset) -> list[np.ndarray]:
        """Per-task prediction blocks for a dataset on the same grid."""
        if data.grid != self.grid:
            raise DataError(
                f"dataset grid {data.grid.mode_sizes} does not match model grid {self.grid.mode_sizes}"
            )
        if data.n_features != self.n_features:
            raise DataError(
                f"dataset has {data.n_features} features, model expects {self.n_features}"
            )
        flat = self._dual_rows(data.sample_task_ids(), data.stacked_inputs())
        out = []
        start = 0
        for m in data.task_sizes:
            out.append(flat[start : start + m])
            start += m
        return out


def _finite_inputs(x, ndim: int, n_features: int) -> np.ndarray:
    """Query inputs as a float array: one row (ndim 1) or a matrix of rows (ndim 2)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != ndim or x.shape[-1] != n_features:
        expected = f"a length-{n_features} input" if ndim == 1 else f"n x {n_features} inputs"
        raise DataError(f"expected {expected}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DataError("inputs contain NaN or infinite values")
    return x


def predict_primal(model: TrainedModel, idx, x) -> float:
    """Feature-map prediction: project phi(x) onto the explicit shared matrix."""
    if model.explicit is None:
        raise UnsupportedOperation(
            f"{model.kernel.family} kernel admits no explicit feature map; use predict_dual"
        )
    t = linearize(model.grid, idx)
    u_t = task_vector(model.factors, idx)
    phi = feature_map(model.kernel, _finite_inputs(x, 1, model.n_features))
    return float((model.explicit @ u_t) @ phi + model.biases[t - 1])


def predict_dual(model: TrainedModel, idx, x) -> float:
    """Kernel prediction: dual coefficients times kernel values times task coherence."""
    t = linearize(model.grid, idx)
    x = _finite_inputs(x, 1, model.n_features)
    return float(model._dual_rows(np.array([t - 1]), x[None, :])[0])


def _model_payload(model) -> dict:
    if isinstance(model, TrainedModel):
        return {
            "format_version": FORMAT_VERSION,
            "method": model.method,
            "grid": list(model.grid.mode_sizes),
            "kernel": model.kernel.to_config(),
            "n_features": model.n_features,
            "factors": [f.tolist() for f in model.factors.factors],
            "task_vector_snapshot": model.task_vector_snapshot.tolist(),
            "duals": model.duals.tolist(),
            "biases": model.biases.tolist(),
            "train_inputs": [b.tolist() for b in model.train_inputs],
            "explicit": None if model.explicit is None else model.explicit.tolist(),
        }
    if isinstance(model, LssvmModel):
        return {
            "format_version": FORMAT_VERSION,
            "method": model.method,
            "grid": list(model.grid.mode_sizes),
            "kernel": model.kernel.to_config(),
            "n_features": model.n_features,
            "tasks": [
                {"duals": t.duals.tolist(), "bias": t.bias, "inputs": t.inputs.tolist()}
                for t in model.tasks
            ],
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")


def save_model(model, path) -> None:
    """Write a versioned, self-contained JSON model file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_model_payload(model), fh, indent=2)
        fh.write("\n")


def _block(payload, d: int) -> np.ndarray:
    arr = np.asarray(payload, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, d)
    return arr


def load_model(path):
    """Read a model file back; validates version, method, and invariants."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: model file must be a JSON object")
    version = payload.get("format_version")
    if version is None:
        raise DataError(f"{path}: missing format_version tag")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    method = payload.get("method")
    try:
        grid = TaskGrid(tuple(payload["grid"]))
        kernel = KernelSpec.from_config(payload["kernel"])
        d = int(payload["n_features"])
        if method == "tlssvm":
            return TrainedModel(
                grid=grid,
                factors=ModeFactors(tuple(np.asarray(f, dtype=float) for f in payload["factors"])),
                duals=np.asarray(payload["duals"], dtype=float),
                task_vector_snapshot=np.asarray(payload["task_vector_snapshot"], dtype=float),
                biases=np.asarray(payload["biases"], dtype=float),
                kernel=kernel,
                train_inputs=tuple(_block(b, d) for b in payload["train_inputs"]),
                explicit=None
                if payload["explicit"] is None
                else np.asarray(payload["explicit"], dtype=float),
            )
        if method == "lssvm-independent":
            tasks = tuple(
                SingleTaskLssvm(
                    duals=np.asarray(t["duals"], dtype=float),
                    bias=float(t["bias"]),
                    inputs=_block(t["inputs"], d),
                    kernel=kernel,
                )
                for t in payload["tasks"]
            )
            return LssvmModel(grid, kernel, tasks)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupted model file ({exc})") from exc
    raise DataError(f"{path}: unknown method {method!r}")
