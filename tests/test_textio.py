from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from tlssvm import cli
from tlssvm.baseline import fit_independent
from tlssvm.data import MtlDataset, SyntheticSpec, generate_synthetic, load_csv, save_csv
from tlssvm.kernels import KernelSpec
from tlssvm.model import TrainedModel, _model_payload, save_model
from tlssvm.solver import FitConfig, TraceEntry, fit
from tlssvm.taskgrid import TaskGrid, delinearize
from tlssvm.textio import write_json

EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            2.2250738585072014e-308, 0.1, 1 / 3, -123456789.12345678]


def _fit(kernel, seed=0):
    spec = SyntheticSpec(
        d=3, mode_sizes=(2, 2), k_true=2, train_per_task=6, test_per_task=3, snr=5.0, seed=seed
    )
    train, test, _ = generate_synthetic(spec)
    state = fit(train, FitConfig(K=2, C=10.0, kernel=kernel, max_iters=3, tol=1e-6, seed=seed))
    return TrainedModel.from_fit(train, state, kernel), train, test


def _random_payload(rng, depth=0):
    """A random JSON tree over the scalars, strings and empty shapes json must handle."""
    kind = rng.integers(0, 9 if depth < 4 else 3)
    if kind == 0:
        return [float(rng.choice(EXTREMES)), float(rng.normal()), int(rng.integers(-5, 5)),
                bool(rng.integers(2)), None][int(rng.integers(5))]
    if kind == 1:
        return ["", "a, b", "],\n    [", 'q"uote\\', "ünï ", "x: y"][int(rng.integers(6))]
    if kind == 2:
        return [[], {}, [[]], [[], []], {"": []}][int(rng.integers(5))]
    if kind == 3:  # a flat numeric list
        return [float(v) for v in rng.choice(EXTREMES, size=rng.integers(0, 6))]
    if kind == 4:  # a matrix, as a model's task block
        rows, cols = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        return rng.choice(EXTREMES, size=(rows, cols)).tolist()
    if kind == 5:  # task blocks, some empty
        return [rng.normal(size=(int(rng.integers(0, 3)), 2)).tolist() for _ in range(3)]
    if kind == 6:  # a list of rows mixing numbers and strings
        return [[1.5, "s, t"], [2, None]]
    if kind == 7:
        return [_random_payload(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    return {f"k{i}": _random_payload(rng, depth + 1) for i in range(rng.integers(0, 4))}


class TestJsonWriter:
    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)])
    def test_trained_model_file_equals_json_dumps(self, kernel, tmp_path):
        model, _, _ = _fit(kernel, seed=1)
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_text(encoding="utf-8") == json.dumps(_model_payload(model), indent=2) + "\n"

    def test_independent_model_file_equals_json_dumps(self, tmp_path):
        _, train, _ = _fit(KernelSpec("linear"), seed=2)
        model = fit_independent(train, 10.0, KernelSpec("rbf", gamma=0.3))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_text(encoding="utf-8") == json.dumps(_model_payload(model), indent=2) + "\n"

    def test_empty_task_blocks(self, tmp_path):
        payload = {"train_inputs": [[], [[1.0, -0.0]], []], "tasks": [{"duals": [], "inputs": []}]}
        assert _written(tmp_path, payload) == json.dumps(payload, indent=2) + "\n"

    def test_random_payloads_equal_json_dumps(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "out.json"
        for _ in range(300):
            payload = _random_payload(rng)
            write_json(path, payload)
            assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2) + "\n"

    def test_non_finite_and_keys_like_json_dumps(self, tmp_path):
        payload = {"v": [float("nan"), float("inf"), -float("inf")], "m": {1: [[2]], None: [True]},
                   "t": (1, (2.5, "a")), "f": np.float64(0.1)}
        assert _written(tmp_path, payload) == json.dumps(payload, indent=2) + "\n"
        with pytest.raises(TypeError):
            _written(tmp_path, {(1, 2): [[1]]})
        with pytest.raises(TypeError):
            _written(tmp_path, [object(), [1]])

    def test_a_failed_write_leaves_the_old_file(self, tmp_path):
        # the text is encoded before the file is opened
        path = tmp_path / "out.json"
        write_json(path, {"a": [[1.0]]})
        before = path.read_text(encoding="utf-8")
        with pytest.raises(TypeError, match="keys must be"):
            write_json(path, {"a": [[1.0]], "b": {(1, 2): [[1]]}})
        assert path.read_text(encoding="utf-8") == before


def _written(tmp_path, payload) -> str:
    """The text that `write_json` writes for `payload`."""
    path = tmp_path / "written.json"
    write_json(path, payload)
    return path.read_text(encoding="utf-8")


def _csv_writer_text(rows) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _dataset_with_extremes() -> MtlDataset:
    """Random extreme and ordinary values; task 2 is empty."""
    rng = np.random.default_rng(6)
    pool = np.concatenate([EXTREMES, rng.normal(size=10)])
    sizes = [3, 0, 2, 4]
    inputs = tuple(rng.choice(pool, size=(m, 2)) for m in sizes)
    targets = tuple(rng.choice(pool, size=m) for m in sizes)
    return MtlDataset(TaskGrid((2, 2)), inputs, targets)


class TestCsvWriters:
    def test_save_csv_equals_csv_writer(self, tmp_path):
        data = _dataset_with_extremes()
        rows = [["t_1", "t_2", "x_1", "x_2", "y"]]
        for t in range(data.grid.n_tasks):
            idx = delinearize(data.grid, t + 1)
            for x, y in zip(data.inputs[t], data.targets[t]):
                rows.append([*idx, *(repr(float(v)) for v in x), repr(float(y))])
        path = tmp_path / "data.csv"
        save_csv(data, path)
        assert path.read_bytes() == _csv_writer_text(rows).encode()

    def test_predictions_csv_equals_csv_writer(self, tmp_path):
        model, _, test = _fit(KernelSpec("linear"), seed=3)
        data = MtlDataset(test.grid, (*test.inputs[:2], test.inputs[2][:0], test.inputs[3]),
                          (*test.targets[:2], test.targets[2][:0], test.targets[3]))
        save_csv(data, tmp_path / "in.csv")
        save_model(model, tmp_path / "model.json")
        argv = ["predict", "--model", str(tmp_path / "model.json"), "--data",
                str(tmp_path / "in.csv"), "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        loaded = load_csv(tmp_path / "in.csv", data.grid, allow_empty_tasks=True)
        rows = [["t_1", "t_2", "x_1", "x_2", "x_3", "y_hat"]]
        for t, block in enumerate(model.predict_dataset(loaded), start=1):
            idx = delinearize(data.grid, t)
            for x, value in zip(loaded.inputs[t - 1], block):
                rows.append([*idx, *(repr(float(v)) for v in x), repr(float(value))])
        assert (tmp_path / "predictions.csv").read_bytes() == _csv_writer_text(rows).encode()

    def test_trace_csv_equals_csv_writer(self, tmp_path):
        trace = [TraceEntry(0, "init", 12.5, 0.1, None), TraceEntry(1, "shared", 5e-324, -0.0, 0.0),
                 TraceEntry(1, "mode2/row3", 1.7976931348623157e308, 1 / 3, 2.5e-17)]
        rows = [["iteration", "step", "objective", "train_rmse", "factor_change"]]
        for e in trace:
            change = "" if e.factor_change is None else repr(e.factor_change)
            rows.append([e.iteration, e.step, repr(e.objective), repr(e.train_rmse), change])
        path = tmp_path / "trace.csv"
        cli._write_trace(str(path), trace)
        assert path.read_bytes() == _csv_writer_text(rows).encode()
