"""Trained-model container: the shared factor, per-task prediction and JSON (de)serialization.

The shared factor L = sum_j alpha_j phi(x_j) u_t(j)^T is one record
(`SharedFactor`), used by every alternating step of a fit and by
prediction alike. It is kept in dual form, and for a kernel with a finite
feature map also as the explicit d x K matrix. `shared_projection` is the
one routine that projects samples through it: it takes the explicit matrix
when the record has one, at O(dK) per row, and the dual contraction
(`dual_projection`) otherwise, at O(md) per row and for every kernel.
An RBF cross-Gram needs the squared norms of the training rows; the record
computes them once, on first use (`SharedFactor.train_norms`), so a query
builds no m x d temporary. Norms handed to `kernels.gram` must come from
`kernels.sq_norms`, which keeps every prediction's bits.
Batch prediction (`predict_dataset`, `predict_rows`) goes through
`shared_projection`, as the solver's training projections do, and
`task_predictions` then adds each sample's K terms in numpy's order
(`row_sums`): below 8 terms one column at a time, so every bit is `np.sum`'s.
`predict_primal` and `predict_dual` always take their own form, so the two
stay an independent check on each other. `TrainedModel` is where a shared
factor from outside (a caller or a model file) is validated. Models embed
their training inputs so a saved file is self-contained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baseline import LssvmModel, SingleTaskLssvm, check_query_dataset, query_inputs
from .data import MtlDataset
from .errors import DataError, UnsupportedOperation, whole
from .kernels import KernelSpec, feature_map, gram, sq_norms
from .taskgrid import ModeFactors, TaskGrid, task_vector_table
from .textio import write_json

__all__ = [
    "SharedFactor",
    "shared_projection",
    "TrainedModel",
    "predict_primal",
    "predict_dual",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1


def dual_weights(duals: np.ndarray, task_vectors: np.ndarray, task_ids: np.ndarray) -> np.ndarray:
    """m x K weights of a shared factor's dual form: each sample's dual times its task vector.

    Duals B x m and task vectors B x T x K (a fit's members) give B x m x K.
    """
    return duals[..., None] * task_vectors.take(task_ids, axis=-2)


@dataclass(frozen=True)
class SharedFactor:
    """The factor common to all tasks, in dual form and, if there is one, explicit.

    The dual form is one coefficient per training sample (`duals`), the
    T x K task vectors the coefficients were solved with
    (`task_vector_snapshot`), the m x d stacked training inputs and each
    sample's 0-based task. `explicit` is the d x K matrix of a kernel with
    a finite feature map. `weighted_duals` and `train_norms` are derived on
    first use and kept. The arrays are frozen in place and not checked:
    a record is built from a solve's fresh arrays, finite since they met
    the residual bound, or from arrays a `TrainedModel` has just validated.
    Inside a fit of several members (`solver.fit_many`), `duals`,
    `task_vector_snapshot` and `explicit` carry a leading member axis,
    `train_inputs` is a tuple with each member's stacked inputs, those of
    its dataset, and `shared_projection` projects through the members of
    one dataset at once.
    """

    duals: np.ndarray
    task_vector_snapshot: np.ndarray
    train_inputs: np.ndarray | tuple[np.ndarray, ...]
    task_ids: np.ndarray
    explicit: np.ndarray | None = None

    def __post_init__(self) -> None:
        for arr in (self.duals, self.task_vector_snapshot, self.train_inputs, self.task_ids, self.explicit):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    @cached_property
    def weighted_duals(self) -> np.ndarray:
        """The m x K dual weights (`dual_weights`), read-only."""
        weights = dual_weights(self.duals, self.task_vector_snapshot, self.task_ids)
        weights.flags.writeable = False
        return weights

    @cached_property
    def train_norms(self) -> np.ndarray:
        """`sq_norms` of the training inputs, read-only; only an RBF cross-Gram reads them."""
        norms = sq_norms(self.train_inputs)
        norms.flags.writeable = False
        return norms


def dual_projection(
    shared: SharedFactor,
    kernel: KernelSpec,
    X: np.ndarray,
    cross_gram: np.ndarray | None = None,
) -> np.ndarray:
    """Image of each query sample through a shared factor in dual form.

    Row j is sum_i k(x_i, q_j) W_i over the training samples x_i, for the
    dual weights W (`SharedFactor.weighted_duals`). `cross_gram`, if given,
    is the (m_train x n_query) kernel block. Otherwise `query_gram` computes
    it from the record's cached `train_norms`, so an RBF query costs O(md)
    with no m x d temporary.
    """
    if cross_gram is None:
        cross_gram = query_gram(shared, kernel, X)
    return cross_gram.T @ shared.weighted_duals


def query_gram(shared: SharedFactor, kernel: KernelSpec, X: np.ndarray) -> np.ndarray:
    """The (m_train x n_query) kernel block of a shared factor; an RBF block reads `train_norms`."""
    norms = shared.train_norms if kernel.family == "rbf" else None
    return gram(kernel, shared.train_inputs, X, norms)


def shared_projection(
    shared: SharedFactor,
    kernel: KernelSpec,
    X: np.ndarray,
    cross_gram: np.ndarray | None = None,
) -> np.ndarray:
    """Image of each query sample's features through the shared factor.

    Row j is the length-K vector L^T phi(x_j): X times the explicit matrix
    when the factor has one, else the dual contraction, which never forms a
    feature-space object. `cross_gram`, if given, is the dual contraction's
    (m_train x n_query) kernel block.
    """
    X = np.asarray(X, dtype=float)
    if shared.explicit is not None:
        return X @ shared.explicit
    return dual_projection(shared, kernel, X, cross_gram)


def task_predictions(projection, u_table, biases, task_ids) -> np.ndarray:
    """Predictions of samples from their shared projections, task vectors and biases.

    Each sample's K terms are added by `row_sums`, in numpy's order. Each
    argument but `task_ids` may carry a leading member axis.
    """
    return row_sums(projection * u_table.take(task_ids, axis=-2)) + biases.take(task_ids, axis=-1)


def row_sums(terms: np.ndarray) -> np.ndarray:
    """`np.sum(terms, axis=-1)` of a C-contiguous array, bit for bit.

    numpy adds fewer than 8 terms of a contiguous row one by one, starting
    from +0.0; here each of those steps is one vector operation over all
    rows, which on rows of a few terms costs a fraction of numpy's per-row
    reduction. From 8 terms on numpy sums pairwise, and `np.sum` is called.
    """
    if terms.shape[-1] >= 8:
        return np.sum(terms, axis=-1)
    total = np.zeros(terms.shape[:-1])
    for k in range(terms.shape[-1]):
        total += terms[..., k]
    return total


@dataclass(frozen=True)
class TrainedModel:
    """Fitted tensorized multitask model.

    `duals` and `task_vector_snapshot` capture the shared factor as of the
    final shared-step; `factors` are the final mode factors, whose task
    vectors enter the coherence weights at prediction time. `explicit`, the
    d x K shared matrix, exists for kernels with a finite feature map and
    serves batch prediction. Construction validates every array, then
    builds the model's `SharedFactor` and the task-vector table that every
    prediction needs.
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
        if any(b.ndim != 2 for b in blocks):
            raise ValueError("every training block must be a matrix of input rows")
        dims = {b.shape[1] for b in blocks}
        if len(dims) != 1:
            raise ValueError(f"training blocks disagree on feature dimension: {sorted(dims)}")
        m = sum(b.shape[0] for b in blocks)
        if duals.shape != (m,):
            raise ValueError(f"dual coefficients of shape {duals.shape} for {m} training samples")
        arrays = [duals, snap, biases, *blocks]
        explicit = self.explicit
        if explicit is not None:
            explicit = np.array(explicit, dtype=float)
            if explicit.shape != (blocks[0].shape[1], self.factors.rank):
                raise ValueError(f"explicit matrix shape {explicit.shape} inconsistent with model")
            arrays.append(explicit)
        for arr in arrays:
            if not np.all(np.isfinite(arr)):
                raise ValueError("model contains non-finite values")
            arr.flags.writeable = False
        tid = np.repeat(np.arange(T), [b.shape[0] for b in blocks])
        shared = SharedFactor(duals, snap, np.concatenate(blocks, axis=0), tid, explicit)
        u_table = task_vector_table(self.factors)
        u_table.flags.writeable = False
        object.__setattr__(self, "_shared", shared)
        object.__setattr__(self, "_u_table", u_table)
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

    def _rows(self, task_ids: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Batch predictions, through `shared_projection`."""
        projection = shared_projection(self._shared, self.kernel, X)
        return task_predictions(projection, self._u_table, self.biases, task_ids)

    def predict_rows(self, multi_indices, X) -> np.ndarray:
        """Predictions for rows of X, each addressed to its own task."""
        X = query_inputs(X, 2, self.n_features)
        task_ids = np.array([self.grid.task_row(idx) for idx in multi_indices], dtype=int)
        if task_ids.shape[0] != X.shape[0]:
            raise DataError(f"{task_ids.shape[0]} task indices for inputs of shape {X.shape}")
        return self._rows(task_ids, X)

    def predict_dataset(self, data: MtlDataset) -> list[np.ndarray]:
        """Per-task prediction blocks for a dataset on the same grid, in the batch form."""
        check_query_dataset(data, self.grid, self.n_features)
        flat = self._rows(data.sample_task_ids(), data.stacked_inputs())
        return [flat[s] for s in data.task_slices]


def predict_primal(model: TrainedModel, idx, x) -> float:
    """Feature-map prediction: project phi(x) onto the explicit shared matrix.

    Always the primal form, computed per call from the feature map.
    """
    if model.explicit is None:
        raise UnsupportedOperation(
            f"{model.kernel.family} kernel admits no explicit feature map; use predict_dual"
        )
    t = model.grid.task_row(idx)
    phi = feature_map(model.kernel, query_inputs(x, 1, model.n_features))
    return float((model.explicit @ model._u_table[t]) @ phi + model.biases[t])


def predict_dual(model: TrainedModel, idx, x) -> float:
    """Kernel prediction: dual coefficients times kernel values times task coherence.

    Always the dual form, for every kernel; it is the independent check on
    the primal batch form of linear models. One call checks the index and
    the row once each, then makes the batch dual form's operations on a
    1-row block: the m x 1 kernel column and its 1 x K contraction.
    """
    t = model.grid.task_row(idx)
    x = query_inputs(x, 1, model.n_features)
    projection = dual_projection(model._shared, model.kernel, x[None, :])
    return float((projection[0] * model._u_table[t]).sum() + model.biases[t])


def _model_payload(model) -> dict:
    """The JSON object of a model file: the keys both model kinds share, then the kind's own."""
    if not isinstance(model, (TrainedModel, LssvmModel)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload = {
        "format_version": FORMAT_VERSION,
        "method": model.method,
        "grid": list(model.grid.mode_sizes),
        "kernel": model.kernel.to_config(),
        "n_features": model.n_features,
    }
    if isinstance(model, LssvmModel):
        payload["tasks"] = [{"duals": t.duals.tolist(), "bias": t.bias, "inputs": t.inputs.tolist()} for t in model.tasks]
        return payload
    payload["factors"] = [f.tolist() for f in model.factors.factors]
    payload["task_vector_snapshot"] = model.task_vector_snapshot.tolist()
    payload["duals"] = model.duals.tolist()
    payload["biases"] = model.biases.tolist()
    payload["train_inputs"] = [b.tolist() for b in model.train_inputs]
    payload["explicit"] = None if model.explicit is None else model.explicit.tolist()
    return payload


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
    if method not in (TrainedModel.method, LssvmModel.method):
        raise DataError(f"{path}: unknown method {method!r}")
    try:
        grid = TaskGrid(tuple(payload["grid"]))
        kernel = KernelSpec.from_config(payload["kernel"])
        d = whole(payload["n_features"], "n_features", 1)
        if method == TrainedModel.method:
            model = TrainedModel(
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
        else:
            tasks = tuple(
                SingleTaskLssvm(
                    duals=np.asarray(t["duals"], dtype=float),
                    bias=float(t["bias"]),
                    inputs=_block(t["inputs"], d),
                )
                for t in payload["tasks"]
            )
            model = LssvmModel(grid, kernel, tasks)
        if model.n_features != d:
            raise ValueError(f"n_features {d} does not match training inputs of {model.n_features} features")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: corrupted model file ({exc})") from exc
    return model
