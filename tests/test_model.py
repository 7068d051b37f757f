from __future__ import annotations

import json

import numpy as np
import pytest

from tlssvm.data import SyntheticSpec, generate_synthetic
from tlssvm.errors import DataError, UnsupportedOperation
from tlssvm.kernels import KernelSpec, gram
from tlssvm.model import TrainedModel, load_model, predict_dual, predict_primal, save_model
from tlssvm.solver import FitConfig, fit
from tlssvm.taskgrid import (
    ModeFactors,
    TaskGrid,
    coslice_tasks,
    delinearize,
    task_vector_table,
)

LINEAR = KernelSpec("linear")


def hand_model(explicit, factors, biases, duals=None, train=None, kernel=LINEAR):
    grid = factors.grid
    if train is None:
        d = np.asarray(explicit).shape[0]
        train = tuple(np.zeros((1, d)) for _ in range(grid.n_tasks))
    if duals is None:
        duals = np.zeros(sum(b.shape[0] for b in train))
    snapshot = np.vstack(
        [np.prod([f[i - 1] for f, i in zip(factors.factors, delinearize(grid, t))], axis=0)
         for t in range(1, grid.n_tasks + 1)]
    )
    return TrainedModel(
        grid=grid,
        factors=factors,
        duals=duals,
        task_vector_snapshot=snapshot,
        biases=np.asarray(biases, dtype=float),
        kernel=kernel,
        train_inputs=train,
        explicit=np.asarray(explicit, dtype=float),
    )


def fitted_model(kernel=LINEAR, seed=0, snr=float("inf")):
    spec = SyntheticSpec(
        d=4, mode_sizes=(2, 2), k_true=2, train_per_task=10, test_per_task=5,
        snr=snr, seed=seed,
    )
    train, test, _ = generate_synthetic(spec)
    state = fit(train, FitConfig(K=2, C=100.0, kernel=kernel, max_iters=30, tol=1e-6, seed=seed))
    return TrainedModel.from_fit(train, state, kernel), train, test


class TestPredictPrimal:
    def test_zero_shared_matrix_returns_bias(self):
        model = hand_model(
            np.zeros((3, 1)), ModeFactors((np.ones((2, 1)),)), [4.0, -1.0]
        )
        assert predict_primal(model, (1,), np.ones(3)) == 4.0
        assert predict_primal(model, (2,), np.ones(3)) == -1.0

    def test_hand_arithmetic(self):
        # w_t = explicit @ u_t = [1,0]*2 = [2,0]; [2,0]@[3,5] + 1 = 7
        model = hand_model(
            np.array([[1.0], [0.0]]), ModeFactors((np.array([[2.0]]),)), [1.0]
        )
        assert predict_primal(model, (1,), np.array([3.0, 5.0])) == pytest.approx(7.0, abs=1e-12)

    def test_rbf_has_no_primal_form(self):
        model, _, _ = fitted_model(kernel=KernelSpec("rbf", gamma=0.4))
        assert model.explicit is None
        with pytest.raises(UnsupportedOperation, match="predict_dual"):
            predict_primal(model, (1, 1), np.zeros(4))


class TestPredictDual:
    def test_zero_duals_return_bias(self):
        rng = np.random.default_rng(0)
        factors = ModeFactors((rng.normal(size=(2, 2)),))
        train = (rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))
        model = TrainedModel(
            grid=TaskGrid((2,)), factors=factors, duals=np.zeros(5),
            task_vector_snapshot=rng.normal(size=(2, 2)), biases=np.array([1.5, -2.0]),
            kernel=KernelSpec("rbf", gamma=1.0), train_inputs=train,
        )
        assert predict_dual(model, (1,), np.ones(4)) == pytest.approx(1.5, abs=1e-12)
        assert predict_dual(model, (2,), np.ones(4)) == pytest.approx(-2.0, abs=1e-12)

    def test_single_sample_hand_sum(self):
        # one training sample: alpha * (u_snap @ u_query) * k(x_train, x) + b
        factors = ModeFactors((np.array([[3.0]]),))
        x_train = np.array([[1.0, 2.0]])
        model = TrainedModel(
            grid=TaskGrid((1,)), factors=factors, duals=np.array([0.5]),
            task_vector_snapshot=np.array([[2.0]]), biases=np.array([1.0]),
            kernel=LINEAR, train_inputs=(x_train,),
        )
        x = np.array([4.0, -1.0])
        expected = 0.5 * (2.0 * 3.0) * float(x_train[0] @ x) + 1.0
        assert predict_dual(model, (1,), x) == pytest.approx(expected, abs=1e-12)

    def test_input_shape_errors(self):
        model, _, _ = fitted_model()
        with pytest.raises(DataError, match="length-4"):
            predict_dual(model, (1, 1), np.zeros(3))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_prediction_entry_point_raises(self, bad):
        model, _, _ = fitted_model()
        x = np.zeros(4)
        x[2] = bad
        with pytest.raises(DataError, match="NaN or infinite"):
            predict_dual(model, (1, 2), x)
        with pytest.raises(DataError, match="NaN or infinite"):
            predict_primal(model, (1, 2), x)
        with pytest.raises(DataError, match="NaN or infinite"):
            model.predict_rows([(1, 1), (2, 2)], np.vstack([np.zeros(4), x]))

    def test_rbf_dual_raises(self):
        model, _, _ = fitted_model(kernel=KernelSpec("rbf", gamma=0.4))
        with pytest.raises(DataError, match="NaN or infinite"):
            predict_dual(model, (2, 1), np.array([0.0, np.nan, 0.0, 0.0]))


class TestPrecomputedDualTerms:
    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec("rbf", gamma=0.4)])
    def test_predictions_bit_identical_to_per_call_assembly(self, kernel):
        model, _, test = fitted_model(kernel=kernel, seed=2, snr=5.0)
        # the per-call assembly the model used before caching these terms
        train_X = np.concatenate(model.train_inputs, axis=0)
        tid = np.repeat(np.arange(model.grid.n_tasks), [b.shape[0] for b in model.train_inputs])
        weighted = model.duals[:, None] * model.task_vector_snapshot[tid]
        projection = gram(kernel, train_X, test.stacked_inputs()).T @ weighted
        query = test.sample_task_ids()
        expected = (
            np.sum(projection * task_vector_table(model.factors)[query], axis=1)
            + model.biases[query]
        )
        np.testing.assert_array_equal(np.concatenate(model.predict_dataset(test)), expected)
        for j in (0, 7, 19):
            idx = delinearize(model.grid, int(query[j]) + 1)
            one = predict_dual(model, idx, test.stacked_inputs()[j])
            assert one == float(model._dual_rows(query[j : j + 1], test.stacked_inputs()[j : j + 1])[0])


class TestFormsAgree:
    def test_primal_dual_equivalence_on_probes(self):
        model, _, _ = fitted_model(seed=3)
        rng = np.random.default_rng(42)
        for _ in range(50):
            idx = (rng.integers(1, 3), rng.integers(1, 3))
            x = rng.normal(size=4)
            p = predict_primal(model, idx, x)
            d = predict_dual(model, idx, x)
            assert abs(p - d) <= 1e-9 * max(1.0, abs(p))

    def test_predict_rows_matches_scalar_calls(self):
        model, _, test = fitted_model(seed=4)
        X = test.stacked_inputs()[:8]
        indices = [delinearize(model.grid, 1 + i % 4) for i in range(8)]
        rows = model.predict_rows(indices, X)
        for i, (idx, x) in enumerate(zip(indices, X)):
            assert rows[i] == pytest.approx(predict_dual(model, idx, x), abs=1e-12)

    @pytest.mark.parametrize("n_indices, n_rows", [(1, 4), (3, 2)])
    def test_predict_rows_needs_one_index_per_row(self, n_indices, n_rows):
        model, _, test = fitted_model(seed=4)
        indices = [delinearize(model.grid, 1 + i % 4) for i in range(n_indices)]
        with pytest.raises(DataError, match=f"{n_indices} task indices"):
            model.predict_rows(indices, test.stacked_inputs()[:n_rows])

    def test_predict_dataset_matches_rows(self):
        model, _, test = fitted_model(seed=5)
        blocks = model.predict_dataset(test)
        flat = np.concatenate(blocks)
        indices = [delinearize(test.grid, t + 1) for t in test.sample_task_ids()]
        np.testing.assert_allclose(
            flat, model.predict_rows(indices, test.stacked_inputs()), atol=1e-12
        )


class TestModelStructure:
    def test_affine_in_inputs_linear_kernel(self):
        model, _, _ = fitted_model(seed=6)
        rng = np.random.default_rng(7)
        x1, x2 = rng.normal(size=4), rng.normal(size=4)
        a = 0.3
        idx = (2, 1)
        lhs = predict_dual(model, idx, a * x1 + (1 - a) * x2)
        rhs = a * predict_dual(model, idx, x1) + (1 - a) * predict_dual(model, idx, x2)
        # affine, not linear: the bias survives any convex combination
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))
        assert predict_dual(model, idx, np.zeros(4)) == pytest.approx(
            predict_primal(model, idx, np.zeros(4)), abs=1e-12
        )

    def test_mode_row_edit_only_moves_its_coslice(self):
        model, _, _ = fitted_model(seed=8)
        mats = [f.copy() for f in model.factors.factors]
        mats[0][0] += 1.0
        bumped = TrainedModel(
            grid=model.grid, factors=ModeFactors(tuple(mats)), duals=model.duals,
            task_vector_snapshot=model.task_vector_snapshot, biases=model.biases,
            kernel=model.kernel, train_inputs=model.train_inputs, explicit=model.explicit,
        )
        rng = np.random.default_rng(9)
        x = rng.normal(size=4)
        touched = set(coslice_tasks(model.grid, mode=1, row=1))
        for t in range(1, model.grid.n_tasks + 1):
            idx = delinearize(model.grid, t)
            before = predict_dual(model, idx, x)
            after = predict_dual(bumped, idx, x)
            if t in touched:
                assert abs(after - before) > 1e-9
            else:
                assert after == before

    def test_validation_errors(self):
        factors = ModeFactors((np.ones((2, 1)),))
        ok = dict(
            grid=TaskGrid((2,)), factors=factors, duals=np.zeros(2),
            task_vector_snapshot=np.ones((2, 1)), biases=np.zeros(2), kernel=LINEAR,
            train_inputs=(np.zeros((1, 3)), np.zeros((1, 3))),
        )
        TrainedModel(**ok)
        with pytest.raises(ValueError, match="snapshot"):
            TrainedModel(**{**ok, "task_vector_snapshot": np.ones((2, 2))})
        with pytest.raises(ValueError, match="bias"):
            TrainedModel(**{**ok, "biases": np.zeros(3)})
        with pytest.raises(ValueError, match="dual"):
            TrainedModel(**{**ok, "duals": np.zeros(5)})
        with pytest.raises(ValueError, match="feature dimension"):
            TrainedModel(**{**ok, "train_inputs": (np.zeros((1, 3)), np.zeros((1, 2)))})
        with pytest.raises(ValueError, match="non-finite"):
            TrainedModel(**{**ok, "duals": np.array([np.nan, 0.0])})
        with pytest.raises(ValueError, match="grid"):
            TrainedModel(**{**ok, "factors": ModeFactors((np.ones((3, 1)),))})


class TestSerialization:
    def test_round_trip_predictions_identical(self, tmp_path):
        model, _, _ = fitted_model(seed=10)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(11)
        for _ in range(100):
            idx = (rng.integers(1, 3), rng.integers(1, 3))
            x = rng.normal(size=4)
            a, b = predict_dual(model, idx, x), predict_dual(loaded, idx, x)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_rbf_round_trip(self, tmp_path):
        model, _, test = fitted_model(kernel=KernelSpec("rbf", gamma=0.3), seed=12)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.explicit is None
        for a, b in zip(loaded.predict_dataset(test), model.predict_dataset(test)):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_save_is_deterministic(self, tmp_path):
        model, _, _ = fitted_model(seed=13)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rank_tamper_detected(self, tmp_path):
        model, _, _ = fitted_model(seed=14)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["factors"] = [[row[:1] for row in f] for f in payload["factors"]]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="corrupted"):
            load_model(path)

    def test_missing_version(self, tmp_path):
        model, _, _ = fitted_model(seed=15)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["format_version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="format_version"):
            load_model(path)

    def test_wrong_version(self, tmp_path):
        model, _, _ = fitted_model(seed=16)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="unsupported format_version"):
            load_model(path)

    def test_unknown_method(self, tmp_path):
        model, _, _ = fitted_model(seed=17)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["method"] = "mystery"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="unknown method"):
            load_model(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_model(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DataError, match="object"):
            load_model(path)
