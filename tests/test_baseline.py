from __future__ import annotations

import numpy as np
import pytest

from tlssvm import baseline
from tlssvm.baseline import LssvmModel, fit_independent
from tlssvm.data import MtlDataset
from tlssvm.errors import ConfigError, DataError, SolverError
from tlssvm.kernels import KernelSpec, gram
from tlssvm.model import load_model, save_model
from tlssvm.taskgrid import TaskGrid, linearize
from conftest import fit_single, predict_single

LINEAR = KernelSpec("linear")
RBF = KernelSpec("rbf", gamma=0.5)


class TestFitSingle:
    def test_constant_targets_put_everything_in_bias(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 3))
        y = np.full(6, 4.25)
        model = fit_single(X, y, 10.0, LINEAR)
        np.testing.assert_allclose(model.duals, 0.0, atol=1e-9)
        assert model.bias == pytest.approx(4.25, abs=1e-9)
        for x in X:
            assert predict_single(model, x) == pytest.approx(4.25, abs=1e-9)

    def test_duals_sum_to_zero(self):
        rng = np.random.default_rng(1)
        for kernel in (LINEAR, RBF):
            model = fit_single(rng.normal(size=(9, 2)), rng.normal(size=9), 3.0, kernel)
            assert abs(model.duals.sum()) < 1e-9

    def test_equality_constraints(self):
        # stationarity in the residuals: e_i = alpha_i / C
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(8, 3)), rng.normal(size=8)
        C = 7.0
        model = fit_single(X, y, C, RBF)
        preds = np.array([predict_single(model, x) for x in X])
        np.testing.assert_allclose(y - preds, model.duals / C, atol=1e-8)

    def test_training_error_shrinks_as_c_grows(self):
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(10, 4)), rng.normal(size=10)
        errors = []
        for C in (1.0, 100.0, 10000.0):
            model = fit_single(X, y, C, RBF)
            preds = np.array([predict_single(model, x) for x in X])
            errors.append(float(np.max(np.abs(preds - y))))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-2

    def test_single_sample(self):
        model = fit_single(np.array([[2.0, 1.0]]), np.array([3.5]), 5.0, LINEAR)
        assert model.duals[0] == pytest.approx(0.0, abs=1e-12)
        assert model.bias == pytest.approx(3.5, abs=1e-12)
        assert predict_single(model, np.array([9.0, -4.0])) == pytest.approx(3.5, abs=1e-12)

    def test_linear_kernel_explicit_weights(self):
        # dual expansion collapses to w = X^T alpha for the linear kernel
        rng = np.random.default_rng(4)
        X, y = rng.normal(size=(7, 3)), rng.normal(size=7)
        model = fit_single(X, y, 12.0, LINEAR)
        w = X.T @ model.duals
        probes = rng.normal(size=(5, 3))
        for x in probes:
            assert predict_single(model, x) == pytest.approx(
                float(w @ x) + model.bias, abs=1e-10
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_single(np.zeros((3, 2)), np.zeros(4), 1.0, LINEAR)
        with pytest.raises(ValueError):
            fit_single(np.zeros((0, 2)), np.zeros(0), 1.0, LINEAR)

    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_are_named(self, where, value):
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(5, 2)), rng.normal(size=5)
        (X if where == "X" else y)[2] = value
        with pytest.raises(ValueError, match=f"training {where} contains NaN or infinite values"):
            fit_single(X, y, 1.0, LINEAR)

    @pytest.mark.parametrize("C", ["10", True, None, [10.0], 0.0, -1.0, np.inf, np.nan])
    def test_cost_must_be_a_positive_finite_number(self, C):
        rng = np.random.default_rng(4)
        with pytest.raises(ConfigError, match="C must be positive and finite"):
            fit_single(rng.normal(size=(5, 2)), rng.normal(size=5), C, LINEAR)
        assert fit_single(rng.normal(size=(5, 2)), rng.normal(size=5), 10, LINEAR).duals.shape == (5,)


def grid_dataset(seed=0):
    rng = np.random.default_rng(seed)
    grid = TaskGrid((2, 2))
    inputs = tuple(rng.normal(size=(5, 3)) for _ in range(4))
    targets = tuple(rng.normal(size=5) for _ in range(4))
    return MtlDataset(grid, inputs, targets)


class TestFitIndependent:
    def test_matches_per_task_fits(self):
        data = grid_dataset()
        model = fit_independent(data, 4.0, RBF)
        assert isinstance(model, LssvmModel)
        for task, X, y in zip(model.tasks, data.inputs, data.targets):
            alone = fit_single(X, y, 4.0, RBF)
            np.testing.assert_array_equal(task.duals, alone.duals)
            assert task.bias == alone.bias

    def test_predict_dataset_blocks(self):
        data = grid_dataset(1)
        model = fit_independent(data, 50.0, RBF)
        blocks = model.predict_dataset(data)
        assert len(blocks) == 4
        for block, task, X in zip(blocks, model.tasks, data.inputs):
            expected = np.array([predict_single(task, x) for x in X])
            np.testing.assert_allclose(block, expected, atol=1e-12)

    def test_predict_rows_routes_by_task(self):
        data = grid_dataset(2)
        model = fit_independent(data, 10.0, LINEAR)
        x = np.ones((2, 3))
        out = model.predict_rows([(1, 1), (2, 2)], x)
        assert out[0] == pytest.approx(predict_single(model.tasks[0], x[0]), abs=1e-12)
        assert out[1] == pytest.approx(predict_single(model.tasks[3], x[1]), abs=1e-12)

    @pytest.mark.parametrize("kernel", [LINEAR, RBF])
    def test_predict_rows_equals_per_row_loop(self, kernel):
        data = grid_dataset(3)
        model = fit_independent(data, 10.0, kernel)
        rng = np.random.default_rng(9)
        X = rng.normal(size=(25, 3))
        idx = [(1 + int(a), 1 + int(b)) for a, b in rng.integers(0, 2, size=(25, 2))]
        expected = np.empty(25)
        for i, multi in enumerate(idx):
            task = model.tasks[linearize(model.grid, multi) - 1]
            k = gram(kernel, task.inputs, X[i : i + 1])[:, 0]
            expected[i] = task.duals @ k + task.bias
        got = model.predict_rows(idx, X)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    def test_predict_rows_count_mismatch(self):
        model = fit_independent(grid_dataset(2), 10.0, LINEAR)
        with pytest.raises(DataError, match="task indices"):
            model.predict_rows([(1, 1)], np.ones((2, 3)))

    @pytest.mark.parametrize(
        "x, message",
        [
            (np.array([0.5, np.nan, 1.0]), "NaN or infinite"),
            (np.array([0.5, np.inf, 1.0]), "NaN or infinite"),
            (np.ones(2), "expected a length-3 input"),
            (np.ones(4), "expected a length-3 input"),
        ],
    )
    def test_bad_query_inputs_raise_data_error(self, x, message):
        model = fit_independent(grid_dataset(2), 10.0, RBF)
        with pytest.raises(DataError, match=message):
            predict_single(model.tasks[0], x)
        rows = message.replace("a length-3 input", "n x 3 inputs")
        with pytest.raises(DataError, match=rows):
            model.predict_rows([(1, 1), (2, 2)], np.vstack([np.ones_like(x), x]))

    def test_wrong_feature_count_dataset(self):
        model = fit_independent(grid_dataset(), 1.0, LINEAR)
        rng = np.random.default_rng(0)
        narrow = MtlDataset(
            TaskGrid((2, 2)), tuple(rng.normal(size=(2, 2)) for _ in range(4)), (np.zeros(2),) * 4
        )
        with pytest.raises(DataError, match="dataset has 2 features, model expects 3"):
            model.predict_dataset(narrow)

    def test_grid_mismatch(self):
        model = fit_independent(grid_dataset(), 1.0, LINEAR)
        rng = np.random.default_rng(0)
        other = MtlDataset(
            TaskGrid((2,)), (rng.normal(size=(2, 3)), rng.normal(size=(2, 3))),
            (np.zeros(2), np.zeros(2)),
        )
        with pytest.raises(DataError, match="grid"):
            model.predict_dataset(other)

    def test_empty_task_rejected(self):
        grid = TaskGrid((2,))
        data = MtlDataset(
            grid, (np.zeros((0, 2)), np.ones((3, 2))), (np.zeros(0), np.ones(3))
        )
        with pytest.raises(DataError, match=r"tasks without samples: \[1\]"):
            fit_independent(data, 1.0, LINEAR)


class TestLockstepCosts:
    """`fit_independent` with a sequence of costs: each member is its lone fit, bit for bit."""

    COSTS = (1e-2, 1.0, 7.5, 1e4)

    @staticmethod
    def assert_same_fit(a: LssvmModel, b: LssvmModel) -> None:
        assert a.grid == b.grid and a.kernel == b.kernel
        for x, y in zip(a.tasks, b.tasks):
            assert x.duals.tobytes() == y.duals.tobytes() and x.bias == y.bias
            np.testing.assert_array_equal(x.inputs, y.inputs)

    @pytest.mark.parametrize("kernel", [LINEAR, RBF], ids=["linear", "rbf"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_members_equal_lone_fits(self, kernel, seed):
        data = grid_dataset(seed)
        fits = fit_independent(data, list(self.COSTS), kernel)
        assert len(fits) == len(self.COSTS)
        for cost, fit in zip(self.COSTS, fits):
            self.assert_same_fit(fit, fit_independent(data, cost, kernel))
        as_array = fit_independent(data, np.array(self.COSTS[::-1]), kernel)
        for fit, other in zip(fits[::-1], as_array):
            self.assert_same_fit(fit, other)

    @pytest.mark.parametrize("kernel", [LINEAR, RBF], ids=["linear", "rbf"])
    def test_a_failing_cost_keeps_its_lone_error_and_spares_the_others(self, kernel, monkeypatch):
        data = grid_dataset(4)
        bad_cost, bad_task = self.COSTS[2], 2
        real_solve = baseline.solve_dual_system
        solved = []  # (task, cost) of every member solved

        def solve_dual_system(blocks, Q, y, C):
            # one call per task, every alive cost a member; the bad cost's
            # member fails on the bad task, as a factorization would
            task = next(t for t, targets in enumerate(data.targets) if np.array_equal(targets, y))
            solved.extend((task, cost) for cost in C.tolist())
            solution = real_solve(blocks, Q, y, C)
            if task == bad_task and bad_cost in C:
                b = C.tolist().index(bad_cost)
                errors = list(solution.errors)
                errors[b] = SolverError(f"task {task + 1} cannot be solved at C={bad_cost}")
                solution = solution._replace(errors=tuple(errors))
            return solution

        monkeypatch.setattr(baseline, "solve_dual_system", solve_dual_system)
        fits = fit_independent(data, list(self.COSTS), kernel)
        assert (bad_task, bad_cost) in solved
        assert (bad_task + 1, bad_cost) not in solved  # a failed cost is not fit on later tasks
        assert (bad_task + 1, self.COSTS[0]) in solved
        with pytest.raises(SolverError) as lone:
            fit_independent(data, bad_cost, kernel)
        assert isinstance(fits[2], SolverError) and str(fits[2]) == str(lone.value) == "task 3 cannot be solved at C=7.5"
        for cost, fit in zip(self.COSTS, fits):
            if cost != bad_cost:
                self.assert_same_fit(fit, fit_independent(data, cost, kernel))

    @pytest.mark.parametrize("costs", [[1.0, 0.0], [1.0, "10"], [1.0, [10.0]], (np.nan,)])
    def test_every_cost_is_checked(self, costs):
        with pytest.raises(ConfigError, match="C must be positive and finite"):
            fit_independent(grid_dataset(), costs, LINEAR)


class TestBaselineSerialization:
    def test_round_trip_predictions(self, tmp_path):
        data = grid_dataset(5)
        model = fit_independent(data, 8.0, RBF)
        path = tmp_path / "baseline.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, LssvmModel)
        assert loaded.grid == model.grid
        assert loaded.kernel == model.kernel
        rng = np.random.default_rng(6)
        X = rng.normal(size=(20, 3))
        idx = [(1 + i % 2, 1 + i % 2) for i in range(20)]
        np.testing.assert_allclose(
            loaded.predict_rows(idx, X), model.predict_rows(idx, X), atol=1e-12
        )

    def test_task_count_validation(self):
        data = grid_dataset()
        model = fit_independent(data, 1.0, LINEAR)
        with pytest.raises(ValueError, match="task models"):
            LssvmModel(TaskGrid((3,)), LINEAR, model.tasks)


class TestGramHelper:
    def test_cross_gram_shape_convention(self):
        # predict paths rely on gram(kernel, train, query) being (m_train, m_query)
        A = np.zeros((3, 2))
        B = np.zeros((5, 2))
        assert gram(LINEAR, A, B).shape == (3, 5)
