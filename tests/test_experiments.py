from __future__ import annotations

import math

import numpy as np
import pytest

from tlssvm import experiments, solver
from tlssvm.baseline import fit_independent
from tlssvm.data import SyntheticSpec, generate_synthetic, kfold_split
from tlssvm.errors import ConfigError, SolverError
from tlssvm.experiments import (
    METHOD_BASELINE,
    METHOD_TENSOR,
    CvPlan,
    fit_best,
    fit_method,
    run_benchmark,
    run_cv,
)
from tlssvm.kernels import KernelSpec
from tlssvm.model import LssvmModel, TrainedModel
from tlssvm.solver import FitConfig, fit_many


def small_train(snr=10.0, seed=0):
    spec = SyntheticSpec(
        d=4, mode_sizes=(2, 2), k_true=2, train_per_task=12, test_per_task=4,
        snr=snr, seed=seed,
    )
    train, test, _ = generate_synthetic(spec)
    return train, test


SMALL_PLAN = CvPlan(
    kernel_family="linear", ranks=(1, 2), costs=(1.0, 10.0), folds=3, max_iters=20
)


class TestCvPlan:
    def test_validation(self):
        with pytest.raises(ConfigError, match="kernel family"):
            CvPlan(kernel_family="poly")
        with pytest.raises(ConfigError, match="non-empty"):
            CvPlan(costs=())
        with pytest.raises(ConfigError, match="folds"):
            CvPlan(folds=1)

    @pytest.mark.parametrize(
        "bad, message",
        [({"costs": (1.0, math.inf)}, "costs must be positive and finite"),
         ({"costs": (math.nan,)}, "costs must be positive and finite"),
         ({"costs": (-1.0,)}, "costs must be positive and finite"),
         ({"costs": (0.0,)}, "costs must be positive and finite"),
         ({"ranks": (1, 0)}, "ranks must be whole numbers >= 1"),
         ({"ranks": (1.5,)}, "ranks must be whole numbers >= 1"),
         ({"ranks": (np.float64(1.5),)}, "ranks must be whole numbers >= 1"),
         ({"ranks": (np.int64(2), np.int64(0))}, "ranks must be whole numbers >= 1"),
         ({"kernel_family": "rbf", "gammas": (0.1, math.nan)}, "finite gamma > 0"),
         ({"kernel_family": "rbf", "gammas": (math.inf,)}, "finite gamma > 0")],
    )
    def test_rejects_out_of_range_costs_ranks_and_gammas(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            CvPlan(**bad)

    def test_folds_must_be_a_whole_number(self):
        with pytest.raises(ConfigError, match="folds must be a whole number >= 2"):
            CvPlan(folds=2.5)
        plan = CvPlan(folds=3.0)
        assert plan.folds == 3 and isinstance(plan.folds, int)
        # NumPy integers are whole numbers, alone or inside a list
        plan = CvPlan(folds=np.int64(3), ranks=(np.int64(2), 1), max_iters=np.float64(4.0))
        assert (plan.folds, plan.ranks, plan.max_iters) == (3, (2, 1), 4)
        assert all(type(v) is int for v in (plan.folds, *plan.ranks, plan.max_iters))

    def test_axes_by_method_and_family(self):
        linear = CvPlan(kernel_family="linear", ranks=(2,), costs=(1.0,), gammas=(0.1, 1.0))
        assert linear._gamma_axis() == (None,)
        rbf = CvPlan(kernel_family="rbf", ranks=(2,), costs=(1.0,), gammas=(0.1,))
        assert rbf._gamma_axis() == (0.1,)
        assert linear._rank_axis(METHOD_TENSOR) == (2,)
        assert linear._rank_axis(METHOD_BASELINE) == (None,)


class TestFitMethod:
    def test_dispatch(self):
        train, _ = small_train()
        tensor = fit_method(train, METHOD_TENSOR, 2, 10.0, SMALL_PLAN.kernel(None), max_iters=5)
        base = fit_method(train, METHOD_BASELINE, None, 10.0, SMALL_PLAN.kernel(None))
        assert isinstance(tensor, TrainedModel)
        assert isinstance(base, LssvmModel)

    def test_tensor_needs_rank(self):
        train, _ = small_train()
        with pytest.raises(ConfigError, match="rank"):
            fit_method(train, METHOD_TENSOR, None, 1.0, SMALL_PLAN.kernel(None))
        with pytest.raises(ConfigError, match="method"):
            fit_method(train, "svr", 1, 1.0, SMALL_PLAN.kernel(None))


class TestRunCv:
    def test_grid_is_exhaustive_and_ordered(self):
        train, _ = small_train()
        result = run_cv(train, METHOD_TENSOR, SMALL_PLAN, seed=0)
        assert len(result.cells) == 4
        assert [(c.rank, c.cost) for c in result.cells] == [
            (1, 1.0), (1, 10.0), (2, 1.0), (2, 10.0)
        ]
        assert all(c.gamma is None for c in result.cells)
        assert all(len(c.fold_rmses) == 3 for c in result.cells)

    def test_best_is_minimum_mean(self):
        train, _ = small_train(seed=1)
        result = run_cv(train, METHOD_TENSOR, SMALL_PLAN, seed=0)
        assert result.best.mean_rmse == min(c.mean_rmse for c in result.cells)
        # first strict minimum: no earlier cell may tie the winner
        first = next(c for c in result.cells if c.mean_rmse == result.best.mean_rmse)
        assert first == result.best

    def test_fold_rmses_are_reproducible_by_hand(self):
        # recompute one cell's fold scores from the same splits
        train, _ = small_train(seed=2)
        plan = CvPlan(kernel_family="linear", ranks=(2,), costs=(10.0,), folds=3, max_iters=20)
        result = run_cv(train, METHOD_TENSOR, plan, seed=5)
        splits = kfold_split(train, 3, 5)
        for fold, (fold_train, fold_val) in enumerate(splits):
            model = fit_method(
                fold_train, METHOD_TENSOR, 2, 10.0, plan.kernel(None),
                max_iters=20, tol=plan.tol, seed=5,
            )
            pred = np.concatenate(model.predict_dataset(fold_val))
            expected = float(np.sqrt(np.mean((fold_val.stacked_targets() - pred) ** 2)))
            assert result.cells[0].fold_rmses[fold] == pytest.approx(expected, rel=1e-12)

    def test_baseline_grid_ignores_ranks(self):
        train, _ = small_train(seed=3)
        result = run_cv(train, METHOD_BASELINE, SMALL_PLAN, seed=0)
        assert len(result.cells) == 2
        assert all(c.rank is None for c in result.cells)

    def test_failed_cells_recorded_not_fatal(self, monkeypatch):
        train, _ = small_train()
        real_fit_many = experiments.fit_many

        def failing_at(cost):
            # the tensor grid fits its folds and costs in lockstep, one list of
            # costs per fold; the members at `cost` fail
            def fit_many(folds, config, costs):
                fits = real_fit_many(folds, config, costs)
                error = SolverError("dual system solve residual too large; decrease C")
                return [[error if c == cost else state for c, state in zip(costs, states)] for states in fits]

            return fit_many

        monkeypatch.setattr(experiments, "fit_many", failing_at(10.0))
        result = run_cv(train, METHOD_TENSOR, SMALL_PLAN, seed=0)
        failed = [cell for cell in result.cells if cell.error is not None]
        assert [(cell.rank, cell.cost) for cell in failed] == [(1, 10.0), (2, 10.0)]
        assert result.best.cost == 1.0

        def always_failing(folds, config, costs):
            return [[SolverError("singular") for _ in costs] for _ in folds]

        monkeypatch.setattr(experiments, "fit_many", always_failing)
        with pytest.raises(SolverError, match="all 4 grid cells failed; first error: singular"):
            run_cv(train, METHOD_TENSOR, SMALL_PLAN, seed=0)

    def test_failed_baseline_cost_recorded_and_not_refit(self, monkeypatch):
        train, _ = small_train()
        real_fit_independent = experiments.fit_independent
        calls = []  # the costs of each fold's baseline fit

        def fit_independent(data, costs, kernel):
            # the cost 10.0 fails on the second fold
            calls.append(list(costs))
            fits = real_fit_independent(data, costs, kernel)
            error = SolverError("dual system solve residual too large; decrease C")
            return [error if len(calls) == 2 and c == 10.0 else fit for c, fit in zip(costs, fits)]

        monkeypatch.setattr(experiments, "fit_independent", fit_independent)
        result = run_cv(train, METHOD_BASELINE, SMALL_PLAN, seed=0)
        assert calls == [[1.0, 10.0], [1.0, 10.0], [1.0]]
        ok, failed = result.cells
        assert (failed.cost, failed.fold_rmses, failed.mean_rmse) == (10.0, None, None)
        assert failed.error == "dual system solve residual too large; decrease C"
        assert ok.error is None and len(ok.fold_rmses) == 3 and result.best == ok

    def test_zero_targets_score_every_cell(self):
        # every tensor fit of all-zero targets collapses to the zero model
        train, _ = small_train()
        zeroed = type(train)(
            train.grid, train.inputs, tuple(np.zeros_like(y) for y in train.targets)
        )
        result = run_cv(zeroed, METHOD_TENSOR, SMALL_PLAN, seed=0)
        assert all(cell.error is None and cell.mean_rmse == 0.0 for cell in result.cells)

    def test_deterministic(self):
        train, _ = small_train(seed=4)
        a = run_cv(train, METHOD_TENSOR, SMALL_PLAN, seed=9)
        b = run_cv(train, METHOD_TENSOR, SMALL_PLAN, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_builds_no_trace_entry(self, monkeypatch):
        # run_cv never reads a member's trace, so no member builds one
        built, entry = [], solver.TraceEntry
        monkeypatch.setattr(solver, "TraceEntry", lambda *fields: built.append(fields) or entry(*fields))
        train, _ = small_train(seed=2)
        result = run_cv(train, METHOD_TENSOR, SMALL_PLAN, seed=0)
        assert all(cell.error is None for cell in result.cells) and built == []
        config = FitConfig(K=1, C=1.0, kernel=KernelSpec("linear"), max_iters=2)
        assert len(fit_many(train, config, (1.0,))[0].trace) == len(built) > 0  # the count sees a read

    def test_fit_best_refits_winner(self):
        train, test = small_train(seed=6)
        result = run_cv(train, METHOD_TENSOR, SMALL_PLAN, seed=0)
        model = fit_best(train, result, SMALL_PLAN, seed=0)
        direct = fit_method(
            train, METHOD_TENSOR, result.best.rank, result.best.cost,
            SMALL_PLAN.kernel(result.best.gamma), max_iters=SMALL_PLAN.max_iters,
            tol=SMALL_PLAN.tol, seed=0,
        )
        for a, b in zip(model.predict_dataset(test), direct.predict_dataset(test)):
            np.testing.assert_array_equal(a, b)


class TestFoldScores:
    """The scores of a fold's fits equal the pooled RMSE of the models they make, bit for bit."""

    @staticmethod
    def model_rmse(model, val) -> float:
        predicted = np.concatenate(model.predict_dataset(val))
        return float(np.sqrt(np.mean((val.stacked_targets() - predicted) ** 2)))

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.3)], ids=["linear", "rbf"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scores_equal_model_path(self, kernel, seed):
        rng = np.random.default_rng(seed)
        train, _ = small_train(seed=seed)
        costs = sorted(rng.choice([0.1, 1.0, 10.0, 100.0, 1e4], size=3, replace=False).tolist())
        folds = int(rng.integers(2, 5))
        for fold_train, fold_val in kfold_split(train, folds, int(rng.integers(100))):
            config = FitConfig(K=2, C=costs[0], kernel=kernel, max_iters=6, seed=seed)
            states = fit_many(fold_train, config, costs)
            scores = experiments._tensor_rmses(states, fold_val, kernel)
            for state, score in zip(states, scores):
                assert score == self.model_rmse(TrainedModel.from_fit(fold_train, state, kernel), fold_val)
            models = fit_independent(fold_train, costs, kernel)
            scores = experiments._baseline_rmses(models, fold_train, fold_val, kernel)
            for model, score in zip(models, scores):
                assert score == self.model_rmse(model, fold_val)

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.3)], ids=["linear", "rbf"])
    def test_errors_pass_through(self, kernel):
        train, _ = small_train()
        fold_train, fold_val = kfold_split(train, 2, 0)[0]
        error = SolverError("singular")
        states = [error, *fit_many(fold_train, FitConfig(K=2, C=1.0, kernel=kernel, max_iters=3), [1.0])]
        models = [error, *fit_independent(fold_train, [1.0], kernel)]
        for scores in (
            experiments._tensor_rmses(states, fold_val, kernel),
            experiments._baseline_rmses(models, fold_train, fold_val, kernel),
        ):
            assert scores[0] is error and isinstance(scores[1], float)
        assert experiments._tensor_rmses([error], fold_val, kernel) == [error]
        assert experiments._baseline_rmses([error], fold_train, fold_val, kernel) == [error]


class TestRunBenchmark:
    TEMPLATE = SyntheticSpec(
        d=4, mode_sizes=(2, 2), k_true=2, train_per_task=10, test_per_task=5,
        snr=1.0, seed=0,
    )
    PLANS = {
        METHOD_TENSOR: CvPlan(kernel_family="linear", ranks=(2,), costs=(10.0,), folds=2, max_iters=10),
        METHOD_BASELINE: CvPlan(kernel_family="linear", costs=(10.0,), folds=2),
    }

    def test_run_grid_and_seeds(self):
        result = run_benchmark(self.TEMPLATE, (5.0, 10.0), reps=2, base_seed=100, plans=self.PLANS)
        assert len(result.runs) == 2 * 2 * 2
        seeds = {(r.snr, r.rep): r.data_seed for r in result.runs}
        assert seeds[(5.0, 0)] == 100
        assert seeds[(5.0, 1)] == 101
        assert seeds[(10.0, 0)] == 1100
        assert seeds[(10.0, 1)] == 1101

    def test_summary_rows_average_runs(self):
        result = run_benchmark(self.TEMPLATE, (5.0,), reps=3, base_seed=0, plans=self.PLANS)
        rows = result.summary_rows()
        assert [(r["snr"], r["method"]) for r in rows] == [
            (5.0, METHOD_TENSOR), (5.0, METHOD_BASELINE)
        ]
        for row in rows:
            hits = [r for r in result.runs if r.method == row["method"]]
            assert row["reps"] == 3
            assert row["rmse"] == pytest.approx(np.mean([r.rmse for r in hits]), rel=1e-15)

    def test_deterministic(self):
        a = run_benchmark(self.TEMPLATE, (5.0,), reps=1, base_seed=3, plans=self.PLANS)
        b = run_benchmark(self.TEMPLATE, (5.0,), reps=1, base_seed=3, plans=self.PLANS)
        assert a.to_dict() == b.to_dict()

    def test_validation(self):
        with pytest.raises(ConfigError, match="repetition"):
            run_benchmark(self.TEMPLATE, (5.0,), reps=0, base_seed=0, plans=self.PLANS)
        with pytest.raises(ConfigError, match="snr"):
            run_benchmark(self.TEMPLATE, (), reps=1, base_seed=0, plans=self.PLANS)
        with pytest.raises(ConfigError, match="methods"):
            run_benchmark(self.TEMPLATE, (5.0,), reps=1, base_seed=0, plans={})
