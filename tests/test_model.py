from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm.baseline import fit_independent
from tlssvm.data import MtlDataset, SyntheticSpec, generate_synthetic
from tlssvm.errors import DataError, UnsupportedOperation
from tlssvm.kernels import KernelSpec, gram, sq_norms
from tlssvm.model import (
    TrainedModel, load_model, predict_dual, predict_primal, row_sums, save_model, task_predictions,
)
from tlssvm.solver import FitConfig, fit
from tlssvm.taskgrid import ModeFactors, TaskGrid, delinearize, task_vector_table
from conftest import coslice_tasks, dual_rows, task_vector

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


def fitted_model(kernel=LINEAR, seed=0, snr=float("inf"), C=100.0, max_iters=30):
    spec = SyntheticSpec(
        d=4, mode_sizes=(2, 2), k_true=2, train_per_task=10, test_per_task=5,
        snr=snr, seed=seed,
    )
    train, test, _ = generate_synthetic(spec)
    state = fit(train, FitConfig(K=2, C=C, kernel=kernel, max_iters=max_iters, tol=1e-6, seed=seed))
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


def random_model(sizes, K, kernel, seed, d=3):
    """A TrainedModel of random arrays on a grid of `sizes` (no fit): duals, factors and biases drawn at once."""
    rng = np.random.default_rng(seed)
    factors = ModeFactors(tuple(rng.normal(size=(n, K)) for n in sizes))
    T = factors.grid.n_tasks
    train = tuple(rng.normal(size=(int(m), d)) for m in rng.integers(1, 4, size=T))
    return TrainedModel(
        grid=factors.grid, factors=factors, duals=rng.normal(size=sum(b.shape[0] for b in train)),
        task_vector_snapshot=rng.normal(size=(T, K)), biases=rng.normal(size=T), kernel=kernel,
        train_inputs=train, explicit=rng.normal(size=(d, K)) if kernel.has_feature_map else None,
    )


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.integers(1, 3),
    st.sampled_from([LINEAR, KernelSpec("rbf", gamma=0.3)]),
    st.integers(0, 2**32 - 1),
)
def test_single_row_predictions_keep_the_bits_of_their_forms(sizes, K, kernel, seed):
    """predict_dual is the batch dual form on one row; predict_primal is (explicit u_t) . x + b_t."""
    model = random_model(sizes, K, kernel, seed)
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(model.grid.n_tasks, 3))
    for t, x in enumerate(X):
        idx = delinearize(model.grid, t + 1)
        assert predict_dual(model, idx, x) == float(dual_rows(model, np.array([t]), x[None, :])[0])
        if kernel.has_feature_map:
            u_t = task_vector(model.factors, idx)
            assert predict_primal(model, idx, x) == float((model.explicit @ u_t) @ x + model.biases[t])


class TestSingleRowErrors:
    """Each single-row path checks the index (IndexError) and the row (DataError) once, before any arithmetic."""

    @pytest.mark.parametrize("predict", [predict_dual, predict_primal])
    @pytest.mark.parametrize(
        "idx, match",
        [((1, 1, 1), "3 entries"), ((1,), "1 entries"), ((3, 1), "out of range"), ((1, 0), "out of range"),
         ((1.9, 1), "not an integer"), ((True, 1), "not an integer"), (("1", "2"), "not an integer")],
    )
    def test_bad_index_raises_index_error(self, predict, idx, match):
        model = random_model((2, 2), 2, LINEAR, seed=3)
        with pytest.raises(IndexError, match=match):
            predict(model, idx, np.zeros(3))

    @pytest.mark.parametrize("predict", [predict_dual, predict_primal])
    @pytest.mark.parametrize(
        "x, match",
        [(np.array([0.0, np.nan, 0.0]), "NaN or infinite"), (np.array([np.inf, 0.0, 0.0]), "NaN or infinite"),
         (np.zeros(4), "length-3"), (np.zeros((1, 3)), "length-3"), (np.zeros(()), "length-3")],
    )
    def test_bad_row_raises_data_error(self, predict, x, match):
        model = random_model((2, 2), 2, LINEAR, seed=3)
        with pytest.raises(DataError, match=match):
            predict(model, (1, 2), x)

    def test_numpy_integer_index_predicts_its_task(self):
        model = random_model((2, 3), 2, KernelSpec("rbf", gamma=0.3), seed=4)
        x = np.ones(3)
        assert predict_dual(model, (np.int64(2), np.uint8(3)), x) == predict_dual(model, (2, 3), x)

    def test_rbf_primal_is_unsupported(self):
        model = random_model((2, 2), 2, KernelSpec("rbf", gamma=0.3), seed=5)
        with pytest.raises(UnsupportedOperation, match="predict_dual"):
            predict_primal(model, (1, 1), np.zeros(3))

    @pytest.mark.parametrize("kind", ["tlssvm", "lssvm-independent"])
    def test_predict_rows_refuses_a_non_integer_index(self, kind):
        model, train, _ = fitted_model(max_iters=2)
        if kind == "lssvm-independent":
            model = fit_independent(train, 10.0, LINEAR)
        with pytest.raises(IndexError, match="not an integer"):
            model.predict_rows([(1, 1), (1.9, 1)], np.zeros((2, 4)))


class TestPrecomputedDualTerms:
    """Cached dual weights and RBF training-row norms keep the bits of a per-call assembly."""

    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec("rbf", gamma=0.4)])
    def test_predictions_bit_identical_to_per_call_assembly(self, kernel):
        model, _, test = fitted_model(kernel=kernel, seed=2, snr=5.0)
        self.assert_per_call_bits(model, test, kernel)

    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec("rbf", gamma=0.4)])
    def test_reloaded_model_bit_identical_to_per_call_assembly(self, kernel, tmp_path):
        model, _, test = fitted_model(kernel=kernel, seed=2, snr=5.0)
        save_model(model, tmp_path / "model.json")
        self.assert_per_call_bits(load_model(tmp_path / "model.json"), test, kernel)

    @staticmethod
    def assert_per_call_bits(model, test, kernel):
        X = test.stacked_inputs()
        query = test.sample_task_ids()
        u_table = task_vector_table(model.factors)
        # the per-call assembly the model used before caching these terms
        train_X = np.concatenate(model.train_inputs, axis=0)
        tid = np.repeat(np.arange(model.grid.n_tasks), [b.shape[0] for b in model.train_inputs])
        weighted = model.duals[:, None] * model.task_vector_snapshot[tid]

        def per_call(rows):
            projection = gram(kernel, train_X, X[rows]).T @ weighted
            return np.sum(projection * u_table[query[rows]], axis=1) + model.biases[query[rows]]

        expected = per_call(slice(None))
        np.testing.assert_array_equal(dual_rows(model, query, X), expected)
        if model.explicit is not None:
            # batch prediction of a linear model is the per-call primal assembly
            expected = np.sum((X @ model.explicit) * u_table[query], axis=1) + model.biases[query]
        indices = [delinearize(model.grid, int(t) + 1) for t in query]
        np.testing.assert_array_equal(np.concatenate(model.predict_dataset(test)), expected)
        np.testing.assert_array_equal(model.predict_rows(indices, X), expected)
        for j in (0, 7, 19):  # one query row: the Gram of that row alone
            assert predict_dual(model, indices[j], X[j]) == float(per_call(slice(j, j + 1))[0])


class TestCachedTrainNorms:
    RBF = KernelSpec("rbf", gamma=0.4)

    def test_norms_are_read_only_and_computed_once(self):
        model, _, test = fitted_model(kernel=self.RBF, seed=23)
        shared = model._shared
        predict_dual(model, (1, 2), test.stacked_inputs()[0])
        norms = shared.train_norms
        assert norms is shared.train_norms
        assert not norms.flags.writeable
        assert norms.tobytes() == sq_norms(shared.train_inputs).tobytes()
        model.predict_dataset(test)
        assert shared.train_norms is norms

    def test_linear_model_never_computes_norms(self):
        model, _, test = fitted_model(seed=24)
        predict_dual(model, (2, 1), test.stacked_inputs()[0])
        model.predict_dataset(test)
        dual_rows(model, test.sample_task_ids(), test.stacked_inputs())
        assert "train_norms" not in vars(model._shared)

    def test_one_query_builds_no_m_by_d_temporary(self):
        m, d = 1200, 30
        rng = np.random.default_rng(25)
        factors = ModeFactors((rng.normal(size=(2, 3)), rng.normal(size=(2, 3))))
        train = tuple(rng.normal(size=(m // 4, d)) for _ in range(4))
        model = TrainedModel(
            grid=factors.grid, factors=factors, duals=rng.normal(size=m),
            task_vector_snapshot=task_vector_table(factors), biases=rng.normal(size=4),
            kernel=self.RBF, train_inputs=train,
        )
        x = rng.normal(size=d)
        predict_dual(model, (1, 1), x)  # the first query computes the norms
        tracemalloc.start()
        try:
            predict_dual(model, (2, 1), x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * d * 8 / 4


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


class TestBatchDispatch:
    @pytest.mark.parametrize("C", [1e-2, 1.0, 1e3])
    def test_linear_batch_agrees_with_predict_dual(self, C):
        # at C=1e-2 the factors shrink until they collapse to zero after 5 iterations
        model, _, test = fitted_model(seed=18, snr=5.0, C=C, max_iters=4)
        assert model.explicit is not None
        X = test.stacked_inputs()
        indices = [delinearize(model.grid, int(t) + 1) for t in test.sample_task_ids()]
        dual = np.array([predict_dual(model, idx, x) for idx, x in zip(indices, X)])
        scale = np.maximum(1.0, np.abs(dual))
        for batch in (np.concatenate(model.predict_dataset(test)), model.predict_rows(indices, X)):
            assert np.all(np.abs(batch - dual) <= 1e-9 * scale)

    def test_rbf_batch_keeps_the_dual_bits(self):
        model, _, test = fitted_model(kernel=KernelSpec("rbf", gamma=0.4), seed=19, snr=5.0)
        X = test.stacked_inputs()
        query = test.sample_task_ids()
        indices = [delinearize(model.grid, int(t) + 1) for t in query]
        dual = dual_rows(model, query, X)
        np.testing.assert_array_equal(model.predict_rows(indices, X), dual)
        np.testing.assert_array_equal(np.concatenate(model.predict_dataset(test)), dual)

    def test_reloaded_linear_model_predicts_bit_identically(self, tmp_path):
        model, _, test = fitted_model(seed=20, snr=5.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.explicit, model.explicit)
        X = test.stacked_inputs()
        indices = [delinearize(model.grid, int(t) + 1) for t in test.sample_task_ids()]
        np.testing.assert_array_equal(loaded.predict_rows(indices, X), model.predict_rows(indices, X))
        for a, b in zip(loaded.predict_dataset(test), model.predict_dataset(test)):
            np.testing.assert_array_equal(a, b)


TERM_COUNTS = [*range(1, 21), 127, 128, 129, 130, 257]


class TestRowSums:
    """`row_sums` keeps `np.sum(terms, axis=-1)`'s bits, which every prediction had before it."""

    @pytest.mark.parametrize("K", TERM_COUNTS)
    @pytest.mark.parametrize("shape", [(37,), (3, 11)], ids=["n x K", "B x m x K"])
    def test_equals_np_sum(self, K, shape):
        rng = np.random.default_rng(K)
        # magnitudes over 16 decades, so that the order of the additions shows in the bits
        terms = rng.standard_normal(shape + (K,)) * 10.0 ** rng.integers(-8, 8, shape + (K,))
        assert row_sums(terms).tobytes() == np.sum(terms, axis=-1).tobytes()

    @pytest.mark.parametrize("K", TERM_COUNTS)
    def test_rows_of_signed_zeros(self, K):
        rng = np.random.default_rng(K)
        terms = np.where(rng.random((64, K)) < 0.5, -0.0, 0.0)
        terms[0] = -0.0
        assert row_sums(terms).tobytes() == np.sum(terms, axis=-1).tobytes()

    @pytest.mark.parametrize("K", TERM_COUNTS)
    @pytest.mark.parametrize("bias", [0.0, -0.0])
    def test_zero_terms_through_task_predictions(self, K, bias):
        # all-(-0.0) terms sum to +0.0 in numpy's order; a -0.0 sum would keep a -0.0 bias
        projection = np.full((6, K), -0.0)
        u_table = np.ones((3, K))
        biases = np.full(3, bias)
        task_ids = np.array([0, 1, 2, 0, 1, 2])
        got = task_predictions(projection, u_table, biases, task_ids)
        expected = np.sum(projection * u_table.take(task_ids, axis=-2), axis=-1) + biases.take(task_ids)
        assert got.tobytes() == expected.tobytes()
        assert not np.signbit(got).any()

    def test_no_terms_sum_to_zero(self):
        assert row_sums(np.zeros((4, 0))).tobytes() == np.sum(np.zeros((4, 0)), axis=-1).tobytes()


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
        TrainedModel(**{**ok, "explicit": np.zeros((3, 1))})
        with pytest.raises(ValueError, match="explicit matrix shape"):
            TrainedModel(**{**ok, "explicit": np.zeros((2, 1))})
        with pytest.raises(ValueError, match="non-finite"):
            TrainedModel(**{**ok, "explicit": np.array([[np.nan], [0.0], [0.0]])})


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_explicit_detected(self, tmp_path, bad):
        model, _, _ = fitted_model(seed=14)
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["explicit"][0][0] = bad
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="corrupted model file"):
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


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3),
    st.sampled_from([KernelSpec("linear"), KernelSpec("rbf", gamma=0.3)]),
    st.sampled_from(["tlssvm", "lssvm-independent"]),
    st.integers(1, 3),
    st.floats(-2.0, 4.0),
    st.integers(0, 2**32 - 1),
)
def test_save_load_save_is_bit_identical(tmp_path_factory, sizes, kernel, method, K, log_c, seed):
    grid = TaskGrid(tuple(sizes))
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, size=grid.n_tasks)
    data = MtlDataset(
        grid, tuple(rng.normal(size=(n, 3)) for n in counts), tuple(rng.normal(size=n) for n in counts)
    )
    C = 10.0**log_c
    if method == "tlssvm":
        state = fit(data, FitConfig(K=K, C=C, kernel=kernel, max_iters=3, tol=1e-300, seed=seed % 7))
        model = TrainedModel.from_fit(data, state, kernel)
    else:
        model = fit_independent(data, C, kernel)
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(model, str(path))
    saved = path.read_bytes()
    reloaded = load_model(str(path))
    save_model(reloaded, str(path))
    assert path.read_bytes() == saved
    for a, b in zip(model.predict_dataset(data), reloaded.predict_dataset(data)):
        assert a.tobytes() == b.tobytes()


class TestFitAndModelShareOneProjection:
    """A model's batch predictions on its training data are the fit's last trace entry."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec("rbf", gamma=0.4)])
    def test_training_rmse_reproduced(self, kernel, seed):
        spec = SyntheticSpec(
            d=4, mode_sizes=(2, 3), k_true=2, train_per_task=8, test_per_task=2, snr=5.0, seed=seed,
        )
        train, _, _ = generate_synthetic(spec)
        state = fit(train, FitConfig(K=2, C=10.0, kernel=kernel, max_iters=4, tol=1e-12, seed=seed))
        model = TrainedModel.from_fit(train, state, kernel)
        residuals = train.stacked_targets() - np.concatenate(model.predict_dataset(train))
        rmse = float(np.sqrt(float(residuals @ residuals) / train.n_samples))
        expected = state.trace[-1].train_rmse
        if kernel.has_feature_map:  # the same explicit matrix, task vectors and biases
            assert rmse == expected
        else:  # the model's own cross-Gram, not the fit's symmetrized Gram
            assert abs(rmse - expected) <= 1e-12 * expected
