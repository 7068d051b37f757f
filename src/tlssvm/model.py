"""Trained-model container: per-task prediction and JSON (de)serialization.

Predictions come in two algebraically equivalent forms. The primal form
needs the explicit shared matrix and therefore a kernel with a finite
feature map; it costs O(dK) per row. The dual form contracts kernel
evaluations against the stored dual coefficients, costs O(md) per row and
works for every kernel. Batch prediction (`predict_dataset`,
`predict_rows`) takes the primal form whenever the model carries the
explicit matrix, and the dual form otherwise. `predict_primal` and
`predict_dual` always take their own form, so the two stay an independent
check on each other. The dual contraction (`dual_projection`) is the one
the solver projects training samples with. Models embed their training
inputs so a saved file is self-contained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .baseline import LssvmModel, SingleTaskLssvm, check_query_dataset, query_inputs
from .data import MtlDataset
from .errors import DataError, UnsupportedOperation
from .kernels import KernelSpec, feature_map, gram
from .taskgrid import ModeFactors, TaskGrid, linearize, task_vector, task_vector_table
from .textio import write_json

__all__ = ["TrainedModel", "predict_primal", "predict_dual", "save_model", "load_model"]

FORMAT_VERSION = 1


def dual_weights(duals: np.ndarray, task_vectors: np.ndarray, task_ids: np.ndarray) -> np.ndarray:
    """m x K weights of a shared factor's dual form: each sample's dual times its task vector."""
    return duals[:, None] * task_vectors[task_ids]


def dual_projection(
    kernel: KernelSpec,
    train_inputs: np.ndarray,
    weights: np.ndarray,
    query_inputs: np.ndarray,
    cross_gram: np.ndarray | None = None,
) -> np.ndarray:
    """Image of each query sample through a shared factor in dual form.

    Row j is sum_i k(x_i, q_j) W_i over the training samples x_i, for the
    dual weights W (`dual_weights`). `cross_gram`, if given, is the
    (m_train x n_query) kernel block, which is otherwise computed here.
    """
    if cross_gram is None:
        cross_gram = gram(kernel, train_inputs, query_inputs)
    return cross_gram.T @ weights


def task_predictions(projection, u_table, biases, task_ids) -> np.ndarray:
    """Predictions of samples from their shared projections, task vectors and biases."""
    return np.sum(projection * u_table[task_ids], axis=1) + biases[task_ids]


@dataclass(frozen=True)
class TrainedModel:
    """Fitted tensorized multitask model.

    `duals` and `task_vector_snapshot` capture the shared factor as of the
    final shared-step; `factors` are the final mode factors, whose task
    vectors enter the coherence weights at prediction time. `explicit`, the
    d x K shared matrix, exists for kernels with a finite feature map and
    serves batch prediction. The stacked training inputs, the dual-weighted
    task vectors and the task-vector table that every prediction needs are
    derived once, at construction.
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
            "_weighted_duals": dual_weights(duals, snap, tid),
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
        projection = dual_projection(self.kernel, self._train_X, self._weighted_duals, X)
        return task_predictions(projection, self._u_table, self.biases, task_ids)

    def _primal_rows(self, task_ids: np.ndarray, X: np.ndarray) -> np.ndarray:
        return task_predictions(X @ self.explicit, self._u_table, self.biases, task_ids)

    def _rows(self, task_ids: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Batch predictions: primal form when the explicit matrix exists, else dual."""
        if self.explicit is None:
            return self._dual_rows(task_ids, X)
        return self._primal_rows(task_ids, X)

    def predict_rows(self, multi_indices, X) -> np.ndarray:
        """Predictions for rows of X, each addressed to its own task."""
        X = query_inputs(X, 2, self.n_features)
        task_ids = np.array([linearize(self.grid, idx) - 1 for idx in multi_indices], dtype=int)
        if task_ids.shape[0] != X.shape[0]:
            raise DataError(f"{task_ids.shape[0]} task indices for inputs of shape {X.shape}")
        return self._rows(task_ids, X)

    def predict_dataset(self, data: MtlDataset) -> list[np.ndarray]:
        """Per-task prediction blocks for a dataset on the same grid, in the batch form."""
        check_query_dataset(data, self.grid, self.n_features)
        flat = self._rows(data.sample_task_ids(), data.stacked_inputs())
        out = []
        start = 0
        for m in data.task_sizes:
            out.append(flat[start : start + m])
            start += m
        return out


def predict_primal(model: TrainedModel, idx, x) -> float:
    """Feature-map prediction: project phi(x) onto the explicit shared matrix.

    Always the primal form, computed per call from the feature map.
    """
    if model.explicit is None:
        raise UnsupportedOperation(
            f"{model.kernel.family} kernel admits no explicit feature map; use predict_dual"
        )
    t = linearize(model.grid, idx)
    u_t = task_vector(model.factors, idx)
    phi = feature_map(model.kernel, query_inputs(x, 1, model.n_features))
    return float((model.explicit @ u_t) @ phi + model.biases[t - 1])


def predict_dual(model: TrainedModel, idx, x) -> float:
    """Kernel prediction: dual coefficients times kernel values times task coherence.

    Always the dual form, for every kernel; it is the independent check on
    the primal batch form of linear models.
    """
    t = linearize(model.grid, idx)
    x = query_inputs(x, 1, model.n_features)
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
    """Write a versioned, self-contained JSON model file (indent=2 JSON)."""
    write_json(path, _model_payload(model))


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
