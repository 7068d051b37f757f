"""The per-dataset fit plan and the incremental trace of `fit`."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tlssvm import data as data_module
from tlssvm import linsys, solver
from tlssvm.data import MtlDataset, SyntheticSpec, generate_synthetic, kfold_split, load_csv, save_csv
from tlssvm.errors import ConfigError, DataError
from tlssvm.kernels import KernelSpec
from tlssvm.model import SharedFactor, TrainedModel, task_predictions
from tlssvm.solver import FitConfig, fit, shared_projection
from tlssvm.taskgrid import TaskGrid
from conftest import dual_rows, full_recompute_trace, task_offsets

LINEAR = KernelSpec("linear")
RBF = KernelSpec("rbf", gamma=0.2)


def synthetic(mode_sizes, seed=31, d=5, per_task=9):
    spec = SyntheticSpec(
        d=d, mode_sizes=mode_sizes, k_true=2, train_per_task=per_task, test_per_task=3,
        snr=10.0, seed=seed,
    )
    return generate_synthetic(spec)[0]


class TestFitPlan:
    def test_built_by_the_first_fit_not_with_the_dataset(self, tmp_path):
        data = synthetic((2, 3))
        save_csv(data, tmp_path / "train.csv")
        loaded = load_csv(tmp_path / "train.csv", data.grid)
        folds = kfold_split(data, 3, seed=0)
        for d in (data, loaded, *(part for fold in folds for part in fold)):
            assert "fit_plan" not in vars(d)
        fit(data, FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=1))
        plan = vars(data)["fit_plan"]
        assert data.fit_plan is plan
        assert "fit_plan" not in vars(loaded)

    def test_datasets_never_fit_hold_no_layout(self, tmp_path, monkeypatch):
        built = []
        real_of = data_module.ModeLayout.of.__func__
        monkeypatch.setattr(
            data_module.ModeLayout, "of",
            classmethod(lambda cls, *a: built.append(a) or real_of(cls, *a)),
        )
        train, test, _ = generate_synthetic(SyntheticSpec(
            d=4, mode_sizes=(2, 3), k_true=2, train_per_task=9, test_per_task=3, snr=10.0, seed=5,
        ))
        save_csv(test, tmp_path / "test.csv")
        loaded = load_csv(tmp_path / "test.csv", train.grid, allow_empty_tasks=True)
        validation = [val for _, val in kfold_split(train, 3, seed=0)]
        model = TrainedModel.from_fit(train, fit(train, FitConfig(K=2, C=10.0, kernel=RBF, max_iters=1)), RBF)
        assert len(built) == train.grid.n_modes and all(a[0] is train for a in built)
        for d in (test, loaded, *validation):
            model.predict_dataset(d)
            assert "fit_plan" not in vars(d)
        assert len(built) == train.grid.n_modes

    def test_moments_only_for_the_linear_kernel(self):
        data = synthetic((2, 2))
        fit(data, FitConfig(K=2, C=10.0, kernel=RBF, max_iters=1))
        assert vars(data.fit_plan.moments).keys().isdisjoint({"means", "scatter"})
        fit(data, FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=1))
        assert {"means", "scatter"} <= vars(data.fit_plan.moments).keys()

    def test_second_fit_builds_no_structure_or_moments(self, monkeypatch):
        data = synthetic((3, 2, 2))
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=2)
        first = fit(data, cfg)
        plan, moments = data.fit_plan, data.fit_plan.moments
        scatter = moments.scatter
        built = []
        real_new = linsys.Blocks.__new__

        def counting_new(cls, *args, **kwargs):
            built.append("Blocks")
            return real_new(cls, *args, **kwargs)

        real_scatter = linsys.TaskMoments._scatter
        monkeypatch.setattr(linsys.Blocks, "__new__", counting_new)
        monkeypatch.setattr(linsys.TaskMoments, "__init__", lambda self, *a: built.append("moments"))
        monkeypatch.setattr(
            linsys.TaskMoments, "_scatter",
            lambda self, *a: built.append("scatter") or real_scatter(self, *a),
        )
        monkeypatch.setattr(
            data_module.FitPlan, "of",
            classmethod(lambda cls, *a: built.append("plan")),
        )
        second = fit(data, cfg)
        fit(data, dataclasses.replace(cfg, kernel=RBF))
        assert built == []
        assert data.fit_plan is plan and plan.moments is moments and moments.scatter is scatter
        assert [e.objective for e in second.trace] == [e.objective for e in first.trace]

    def test_matches_the_layouts_and_is_read_only(self):
        data = synthetic((3, 2, 2), d=4)
        plan = data.fit_plan
        assert plan.shared == data.task_sizes and plan.shared.groups.tolist() == [data.grid.n_tasks]
        y, tid = data.stacked_targets(), data.sample_task_ids()
        assert len(plan.layouts) == 3
        for mode, layout in enumerate(plan.layouts, start=1):
            n_rows = data.grid.mode_sizes[mode - 1]
            row_of_task = data.grid.mode_indices[:, mode - 1]
            blocks = layout.blocks
            assert blocks == tuple(data.task_sizes[t - 1] for t in layout.tasks)
            assert blocks.groups.tolist() == [data.grid.n_tasks // n_rows] * n_rows
            np.testing.assert_array_equal(np.sort(layout.tasks), np.arange(1, data.grid.n_tasks + 1))
            np.testing.assert_array_equal(np.sort(layout.samples), np.arange(data.n_samples))
            np.testing.assert_array_equal(tid[layout.samples], (layout.tasks - 1)[blocks.of])
            for r, (rows, own) in enumerate(blocks.group_slices):
                np.testing.assert_array_equal(row_of_task[layout.tasks[own] - 1], r)
            np.testing.assert_array_equal(layout.targets, y[layout.samples])
        X = data.stacked_inputs()
        for t, (s, n) in enumerate(zip(task_offsets(data), data.task_sizes)):
            own = X[s : s + n]
            mean = own.mean(axis=0)
            scale = float(np.abs(own).max())
            np.testing.assert_allclose(plan.moments.means[t], mean, rtol=0, atol=1e-14 * scale)
            np.testing.assert_allclose(
                plan.moments.scatter[t], (own - mean).T @ (own - mean), rtol=0, atol=1e-13 * n * scale**2
            )
        arrays = [plan.moments.means, plan.moments.scatter]
        for layout in plan.layouts:
            arrays += [layout.tasks, layout.samples, layout.targets]
        for blocks in (plan.shared, *(layout.blocks for layout in plan.layouts)):
            arrays += [blocks.sizes, blocks.starts, blocks.of, blocks.groups,
                       blocks.group_blocks, blocks.group_starts, blocks.group_sizes]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = 1

    def test_fit_rejects_what_it_rejected(self):
        grid = TaskGrid((2,))
        rng = np.random.default_rng(0)
        empty = MtlDataset(grid, (rng.normal(size=(3, 2)), np.ones((0, 2))), (np.ones(3), np.ones(0)))
        with pytest.raises(DataError, match="tasks without samples"):
            fit(empty, FitConfig(K=1, C=1.0, kernel=LINEAR))
        for bad in ({"K": 0}, {"C": 0.0}, {"C": float("nan")}, {"tol": 0.0}):
            with pytest.raises(ConfigError):
                FitConfig(**{"K": 1, "C": 1.0, "kernel": LINEAR, **bad})
        data = synthetic((2,))
        for kernel in (LINEAR, RBF):
            cfg = FitConfig(K=1, C=1.0, kernel=kernel, max_iters=2)
            object.__setattr__(cfg, "C", 0.0)  # past FitConfig's own checks
            with pytest.raises(ValueError, match="C must be positive"):
                fit(data, cfg)


def fit_with_steps(monkeypatch, data, cfg):
    """`fit`, recording the shared steps, shared projections and mode sweeps it makes."""
    shared_steps, projections, sweeps = [], [], []

    def recorder(real, into):
        def wrapped(*args, **kwargs):
            into.append(real(*args, **kwargs))
            return into[-1]

        return wrapped

    monkeypatch.setattr(solver, "solve_shared_step", recorder(solver.solve_shared_step, shared_steps))
    monkeypatch.setattr(solver, "shared_projection", recorder(solver.shared_projection, projections))
    monkeypatch.setattr(solver, "solve_mode_row_step", recorder(solver.solve_mode_row_step, sweeps))
    state = fit(data, cfg)
    monkeypatch.undo()
    # `fit` solves its cost as the one member of `fit_many`: every recorded
    # array carries a leading member axis of length 1
    for i, step in enumerate(shared_steps):
        s = step.shared
        shared = SharedFactor(
            s.duals[0], s.task_vector_snapshot[0], s.train_inputs[0], s.task_ids,
            None if s.explicit is None else s.explicit[0],
        )
        shared_steps[i] = dataclasses.replace(step, shared=shared, biases=step.biases[0])
    projections = [projection[0] for projection in projections]
    sweeps = [
        dataclasses.replace(sweep, row_values=sweep.row_values[0], biases=sweep.biases[0], duals=sweep.duals[0],
                system_residual=sweep.system_residual[0], constraint_residuals=sweep.constraint_residuals[0])
        for sweep in sweeps
    ]
    return state, shared_steps, projections, sweeps


class TestIncrementalTrace:
    @pytest.mark.parametrize("kernel", [LINEAR, RBF])
    @pytest.mark.parametrize("mode_sizes, K", [((4,), 2), ((2, 3), 3), ((3, 2, 2), 2), ((2, 2), 10)])
    def test_bit_identical_to_full_recomputation(self, monkeypatch, kernel, mode_sizes, K):
        data = synthetic(mode_sizes, per_task=12)
        cfg = FitConfig(K=K, C=10.0, kernel=kernel, max_iters=4, tol=1e-12, seed=2)
        state, *steps = fit_with_steps(monkeypatch, data, cfg)
        assert state.iterations == 4
        expected = full_recompute_trace(data, cfg, *steps)
        got = [(e.iteration, e.step, e.objective, e.train_rmse) for e in state.trace]
        assert got == expected

    @pytest.mark.parametrize("kernel", [LINEAR, RBF])
    def test_bit_identical_when_stopping_on_tol(self, monkeypatch, kernel):
        data = synthetic((2, 3), per_task=12)
        cfg = FitConfig(K=2, C=10.0, kernel=kernel, max_iters=200, tol=1e-3, seed=1)
        state, *steps = fit_with_steps(monkeypatch, data, cfg)
        assert state.converged and state.iterations < 200
        expected = full_recompute_trace(data, cfg, *steps)
        assert [(e.iteration, e.step, e.objective, e.train_rmse) for e in state.trace] == expected

    def test_fit_state_holds_validated_copies(self):
        data = synthetic((2, 3))
        state = fit(data, FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=2))
        for arr in (*state.factors.factors, state.shared.duals, state.shared.explicit):
            assert not arr.flags.writeable
        assert state.shared.train_inputs is data.stacked_inputs()
        assert state.shared.task_ids is data.sample_task_ids()


class TestSharedDualContraction:
    def test_model_predictions_equal_the_solver_projection_bitwise(self):
        data = synthetic((2, 3))
        state = fit(data, FitConfig(K=2, C=10.0, kernel=RBF, max_iters=3))
        model = TrainedModel.from_fit(data, state, RBF)
        query = synthetic((2, 3), seed=32)
        X, tid = query.stacked_inputs(), query.sample_task_ids()
        projection = shared_projection(state.shared, RBF, X)
        expected = task_predictions(projection, model._u_table, model.biases, tid)
        np.testing.assert_array_equal(dual_rows(model, tid, X), expected)
