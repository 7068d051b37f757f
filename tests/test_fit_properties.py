"""Property tests of whole fits on random grids, ranks, kernels and costs.

A fit either succeeds with a trace that never rises, or fails with a
SolverError that names the iteration and the failing step once. A fit on
every sample twice is the fit at twice the cost, and a fit whose steps
can interpolate meets the residual bound up to C = 1e8. Each member of a
lockstep fit over several costs (`fit_many`) is its lone fit, bit for bit,
error strings included, and so is each (fold, cost) member of a lockstep
over the training folds of a cross-validation split; `run_cv`'s cells are
those of a grid search that fits every fold and cost alone.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import replace

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm import solver
from tlssvm.data import MtlDataset, SyntheticSpec, generate_synthetic, kfold_split
from tlssvm.errors import SolverError
from tlssvm.experiments import METHOD_TENSOR, CvCell, CvPlan, run_cv
from tlssvm.kernels import KernelSpec, gram
from tlssvm.linsys import RESIDUAL_RTOL
from tlssvm.model import TrainedModel
from tlssvm.solver import FitConfig, FitState, fit, fit_many
from tlssvm.taskgrid import TaskGrid
from conftest import snr10_dataset

# criterion 4's tolerance on a rise of the objective between block steps
MONOTONE_RTOL = 1e-8
LOCATED = re.compile(r"iteration \d+, (shared step|mode \d+/row \d+|mode \d+): (?P<reason>.*)", re.S)


@st.composite
def random_fits(draw):
    """A random dataset and fit config: 1-3 modes, K 1-4, both kernels, C 1e-3 to 1e4."""
    mode_sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    grid = TaskGrid(mode_sizes)
    K = draw(st.integers(1, 4))
    C = 10.0 ** draw(st.floats(-3.0, 4.0))
    kernel = draw(st.sampled_from([KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, 7, size=grid.n_tasks)  # 1-6 samples per task
    data = MtlDataset(
        grid,
        tuple(rng.normal(size=(n, 3)) for n in sizes),
        tuple(rng.normal(size=n) for n in sizes),
    )
    return data, FitConfig(K=K, C=C, kernel=kernel, max_iters=3, tol=1e-300, seed=draw(st.integers(0, 9)))


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(random_fits())
def test_fit_is_monotone_or_names_its_failing_step_once(case):
    data, config = case
    try:
        state = fit(data, config)
    except SolverError as exc:
        located = LOCATED.fullmatch(str(exc))
        assert located, str(exc)
        assert not re.search(r"iteration \d|shared step|mode \d", located["reason"]), str(exc)
        return
    objectives = [entry.objective for entry in state.trace]
    for before, after in zip(objectives, objectives[1:]):
        assert after <= before * (1 + MONOTONE_RTOL)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(random_fits())
def test_every_sample_twice_is_the_fit_at_twice_the_cost(case):
    # C/2 sum of e^2 over each residual twice is (2C)/2 sum of e^2: the same
    # objective, so the same steps
    data, config = case
    twice = MtlDataset(
        data.grid,
        tuple(np.repeat(X, 2, axis=0) for X in data.inputs),
        tuple(np.repeat(y, 2) for y in data.targets),
    )
    try:
        once = fit(data, replace(config, C=2 * config.C))
    except SolverError:
        return
    doubled = fit(twice, config)
    got = np.array([entry.objective for entry in doubled.trace])
    expected = np.array([entry.objective for entry in once.trace])
    np.testing.assert_allclose(got, expected, rtol=1e-7)
    for a, b in zip(doubled.factors.factors, once.factors.factors):
        np.testing.assert_allclose(a, b, rtol=1e-6, atol=1e-9 * max(1.0, np.abs(b).max()))
    np.testing.assert_allclose(doubled.biases, once.biases, rtol=1e-6, atol=1e-9)


# Up to C = 1e8 when every step can fit its targets exactly: 2 samples per
# task and K = 2 leave the shared step (dK = 6 features for m - T = 4
# centered samples) and each mode row (K features for its 2 tasks' 2
# centered samples) room to interpolate, so the residuals e, and the duals
# C e, stay bounded. Noisy targets that no step can fit, from C = 1e6 up,
# are the strict xfail test_solver.py::TestFit::test_cost_1e6_linear_fit_meets_residual_bound:
# there the duals C e outgrow the absolute residual bound.
@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(
    st.floats(0.0, 8.0),
    st.sampled_from([KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)]),
    st.integers(0, 2**32 - 1),
)
def test_interpolating_fits_meet_the_residual_bound_up_to_cost_1e8(log_c, kernel, seed):
    rng = np.random.default_rng(seed)
    data = MtlDataset(
        TaskGrid((2, 2)),
        tuple(rng.normal(size=(2, 3)) for _ in range(4)),
        tuple(rng.normal(size=2) for _ in range(4)),
    )
    config = FitConfig(K=2, C=10.0**log_c, kernel=kernel, max_iters=5, tol=1e-300, seed=seed % 10)
    state = fit(data, config)
    assert state.max_system_residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(data.stacked_targets()))
    objectives = [entry.objective for entry in state.trace]
    for before, after in zip(objectives, objectives[1:]):
        assert after <= before * (1 + MONOTONE_RTOL)


def lone_outcome(data, config):
    """A lone fit's FitState, or the SolverError it raises."""
    try:
        return fit(data, config)
    except SolverError as exc:
        return exc


def assert_same_outcome(member, lone):
    """A lockstep member equals its lone fit bit for bit, or fails with its error string."""
    if isinstance(lone, SolverError):
        assert isinstance(member, SolverError) and str(member) == str(lone)
        return
    assert isinstance(member, FitState)
    for got, expected in zip(member.factors.factors, lone.factors.factors, strict=True):
        assert got.tobytes() == expected.tobytes()
    for part in ("duals", "task_vector_snapshot"):
        assert getattr(member.shared, part).tobytes() == getattr(lone.shared, part).tobytes()
    assert (member.shared.explicit is None) == (lone.shared.explicit is None)
    if lone.shared.explicit is not None:
        assert member.shared.explicit.tobytes() == lone.shared.explicit.tobytes()
    assert member.biases.tobytes() == lone.biases.tobytes()
    assert member.trace == lone.trace  # floats compared exactly, factor changes included
    assert (member.converged, member.iterations) == (lone.converged, lone.iterations)
    assert member.warnings == lone.warnings
    assert member.max_system_residual == lone.max_system_residual
    assert member.max_constraint_residual == lone.max_constraint_residual


@st.composite
def lockstep_fits(draw):
    """Random grids with unequal task sizes, ranks 1-3, 2-5 costs, tol 1e-3, both kernels."""
    mode_sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    grid = TaskGrid(mode_sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, 9, size=grid.n_tasks)
    d = draw(st.sampled_from([2, 4, 9]))
    data = MtlDataset(
        grid,
        tuple(rng.normal(size=(n, d)) for n in sizes),
        tuple(rng.normal(size=n) for n in sizes),
    )
    costs = tuple(10.0**e for e in draw(st.lists(st.floats(-3.0, 6.0), min_size=2, max_size=5)))
    kernel = draw(st.sampled_from([KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)]))
    config = FitConfig(
        K=draw(st.integers(1, 3)), C=1.0, kernel=kernel, max_iters=draw(st.integers(1, 12)),
        tol=1e-3, seed=draw(st.integers(0, 9)),
    )
    return data, config, costs


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(lockstep_fits())
def test_each_lockstep_member_is_its_lone_fit(case):
    data, config, costs = case
    members = fit_many(data, config, costs)
    assert len(members) == len(costs)
    for cost, member in zip(costs, members):
        assert_same_outcome(member, lone_outcome(data, replace(config, C=cost)))


def test_members_stop_at_different_iterations():
    # the property above covers members that leave early; this pins one such case
    rng = np.random.default_rng(5)
    grid = TaskGrid((2, 3))
    sizes = rng.integers(2, 9, size=grid.n_tasks)
    data = MtlDataset(
        grid, tuple(rng.normal(size=(n, 4)) for n in sizes), tuple(rng.normal(size=n) for n in sizes)
    )
    config = FitConfig(K=2, C=1.0, kernel=KernelSpec("linear"), max_iters=30, tol=1e-3, seed=1)
    members = fit_many(data, config, (0.01, 1.0, 100.0))
    assert len({state.iterations for state in members}) > 1
    for cost, member in zip((0.01, 1.0, 100.0), members):
        assert_same_outcome(member, fit(data, replace(config, C=cost)))


def test_a_members_trace_is_built_on_first_read_and_kept():
    data = snr10_dataset()
    config = FitConfig(K=2, C=1.0, kernel=KernelSpec("linear"), max_iters=3, seed=0)
    member = fit_many(data, config, (0.1, 10.0))[1]
    first = member.trace
    assert member.trace is first


def test_member_at_cost_1e6_fails_with_its_lone_error_while_the_others_finish():
    # the C=1e6 fit is the strict xfail of test_solver.py (its row-step duals
    # outgrow the absolute residual bound); in lockstep it leaves with the same
    # error and the members at 10 and 1e5 run on to their own ends
    data = snr10_dataset()
    config = FitConfig(K=2, C=10.0, kernel=KernelSpec("linear"), max_iters=10, tol=1e-8, seed=0)
    costs = (10.0, 1e5, 1e6)
    members = fit_many(data, config, costs)
    with pytest.raises(SolverError) as lone_error:
        fit(data, replace(config, C=1e6))
    assert isinstance(members[2], SolverError)
    assert str(members[2]) == str(lone_error.value)
    assert LOCATED.fullmatch(str(members[2]))
    for cost, member in zip(costs[:2], members[:2]):
        assert isinstance(member, FitState)
        assert_same_outcome(member, fit(data, replace(config, C=cost)))


def test_members_failing_in_the_shared_step_and_a_mode_step_leave_in_order():
    # on this data a linear fit fails in its first shared step from C=1e8 up
    # and in its first mode step at C=1e6: costs given out of order keep it
    data = snr10_dataset()
    config = FitConfig(K=2, C=10.0, kernel=KernelSpec("linear"), max_iters=10, tol=1e-8, seed=0)
    costs = (1e8, 10.0, 1e6, 1e5)
    members = fit_many(data, config, costs)
    assert "shared step" in str(members[0]) and "mode 1/row 1" in str(members[2])
    for cost, member in zip(costs, members):
        assert_same_outcome(member, lone_outcome(data, replace(config, C=cost)))


def test_rbf_lockstep_gives_the_gram_back_after_every_step(monkeypatch):
    # the members' shared steps factor Q + I/C in turn in the one Gram of the fit
    data = snr10_dataset()
    kernel = KernelSpec("rbf", gamma=0.2)
    reference = gram(kernel, data.stacked_inputs())
    grams, checks = [], []

    def checked(step):
        def wrapped(*args, **kwargs):
            result = step(*args, **kwargs)
            if "gram_matrix" in kwargs:
                grams.append(kwargs["gram_matrix"])
            checks.append(np.array_equal(grams[-1].view(np.int64), reference.view(np.int64)))
            return result

        return wrapped

    monkeypatch.setattr(solver, "solve_shared_step", checked(solver.solve_shared_step))
    monkeypatch.setattr(solver, "solve_mode_row_step", checked(solver.solve_mode_row_step))
    config = FitConfig(K=2, C=1.0, kernel=kernel, max_iters=3, tol=1e-300, seed=0)
    costs = (0.1, 10.0, 1e3)
    members = fit_many(data, config, costs)
    monkeypatch.undo()
    assert len({id(G) for G in grams}) == 1  # one Gram for every member and step
    assert len(checks) == 3 * (1 + data.grid.n_modes) and all(checks)
    for cost, member in zip(costs, members):
        assert_same_outcome(member, fit(data, replace(config, C=cost)))


@st.composite
def fold_lockstep_fits(draw):
    """Random grids whose task sizes split into folds of two or more block structures.

    Task 1's sample count is never a multiple of the fold count, so
    `kfold_split` gives its first folds one training sample less than the
    others. Both kernels, ranks 1-3, 2-4 costs from 1e-3 to 1e6, tol 1e-3.
    """
    mode_sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    grid = TaskGrid(mode_sizes)
    folds = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(folds, 3 * folds + 1, size=grid.n_tasks)
    sizes[0] = folds * rng.integers(1, 3) + rng.integers(1, folds)
    d = draw(st.sampled_from([2, 4, 9]))
    data = MtlDataset(
        grid,
        tuple(rng.normal(size=(n, d)) for n in sizes),
        tuple(rng.normal(size=n) for n in sizes),
    )
    exponents = draw(st.lists(st.floats(-3.0, 6.0), min_size=2, max_size=4, unique_by=lambda e: 10.0**e))
    costs = tuple(10.0**e for e in exponents)
    kernel = draw(st.sampled_from([KernelSpec("linear"), KernelSpec("rbf", gamma=0.5)]))
    config = FitConfig(
        K=draw(st.integers(1, 3)), C=1.0, kernel=kernel, max_iters=draw(st.integers(1, 12)),
        tol=1e-3, seed=draw(st.integers(0, 9)),
    )
    return data, config, costs, folds, draw(st.integers(0, 99))


def structure_runs(splits) -> list[list]:
    """The training folds in runs of consecutive folds whose tasks have the same sizes."""
    return [[train for train, _ in run] for _, run in itertools.groupby(splits, key=lambda s: s[0].task_sizes)]


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(fold_lockstep_fits())
def test_each_fold_lockstep_member_is_its_lone_fit(case):
    data, config, costs, folds, split_seed = case
    runs = structure_runs(kfold_split(data, folds, split_seed))
    assert len(runs) >= 2
    for trains in runs:
        fits = fit_many(trains, config, costs)
        assert len(fits) == len(trains)
        for train, states in zip(trains, fits):
            assert len(states) == len(costs)
            for cost, member in zip(costs, states):
                assert_same_outcome(member, lone_outcome(train, replace(config, C=cost)))


def test_fit_many_takes_datasets_of_one_block_structure_only():
    rng = np.random.default_rng(3)

    def dataset(n, d):
        inputs = tuple(rng.normal(size=(n, d)) for _ in range(4))
        return MtlDataset(TaskGrid((2, 2)), inputs, tuple(rng.normal(size=n) for _ in range(4)))

    one, more, wider = dataset(3, 2), dataset(4, 2), dataset(3, 3)
    config = FitConfig(K=1, C=1.0, kernel=KernelSpec("linear"), max_iters=2)
    for other in (more, wider):
        with pytest.raises(ValueError, match="share a lockstep only"):
            fit_many([one, other], config, (1.0,))
    (states,) = fit_many([one], config, (1.0, 2.0))
    for cost, member in zip((1.0, 2.0), states):
        assert_same_outcome(member, fit(one, replace(config, C=cost)))


@pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.2)])
def test_one_dataset_given_twice_is_fitted_twice(kernel):
    # the linear fit solves the task-Kronecker ridge (d K <= m): one
    # alternation whose members all hold the one dataset; the RBF fit runs
    # one alternation per dataset given
    data = snr10_dataset()
    config = FitConfig(K=2, C=1.0, kernel=kernel, max_iters=6, tol=1e-3, seed=0)
    costs = (0.1, 10.0, 1e6)
    fits = fit_many([data, data], config, costs)
    assert len(fits) == 2
    for states in fits:
        for cost, member in zip(costs, states, strict=True):
            assert_same_outcome(member, lone_outcome(data, replace(config, C=cost)))


def reference_cv_cells(data, plan: CvPlan, seed: int) -> list[CvCell]:
    """The tensorized grid search fitted fold by fold and cost by cost, each fit alone and scored by its model.

    A cell stops at its first failing fold and keeps that fold's error.
    """
    splits = kfold_split(data, plan.folds, seed)
    gammas = sorted(plan.gammas) if plan.kernel_family == "rbf" else [None]
    cells = []
    for rank, cost, gamma in itertools.product(sorted(plan.ranks), sorted(plan.costs), gammas):
        kernel = plan.kernel(gamma)
        config = FitConfig(K=rank, C=cost, kernel=kernel, max_iters=plan.max_iters, tol=plan.tol, seed=seed)
        rmses, error = [], None
        for train, val in splits:
            try:
                state = fit(train, config)
            except SolverError as exc:
                error = str(exc)
                break
            predicted = np.concatenate(TrainedModel.from_fit(train, state, kernel).predict_dataset(val))
            rmses.append(float(np.sqrt(np.mean((val.stacked_targets() - predicted) ** 2))))
        if error is None:
            cells.append(CvCell(rank, cost, gamma, tuple(rmses), float(np.mean(rmses))))
        else:
            cells.append(CvCell(rank, cost, gamma, None, None, error))
    return cells


def assert_cv_is_the_reference(data, plan: CvPlan, seed: int) -> None:
    result = run_cv(data, METHOD_TENSOR, plan, seed)
    expected = reference_cv_cells(data, plan, seed)
    assert [cell.to_dict() for cell in result.cells] == [cell.to_dict() for cell in expected]
    scored = [cell for cell in expected if cell.error is None]
    assert result.best == min(scored, key=lambda cell: cell.mean_rmse)


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(fold_lockstep_fits())
def test_run_cv_cells_are_those_of_fold_by_fold_lone_fits(case):
    data, config, costs, folds, split_seed = case
    plan = CvPlan(
        kernel_family=config.kernel.family, ranks=(config.K, config.K + 1), costs=costs,
        gammas=(0.5,), folds=folds, max_iters=config.max_iters, tol=config.tol,
    )
    try:
        assert_cv_is_the_reference(data, plan, split_seed)
    except SolverError as exc:  # every cell failed: so does the reference
        assert all(cell.error is not None for cell in reference_cv_cells(data, plan, split_seed)), str(exc)


def test_a_cost_failing_on_middle_folds_keeps_its_first_failing_folds_error():
    # 11 samples per task in 4 folds: folds 1-3 train on 8 samples per task
    # and share one lockstep, fold 4 trains on 9. The linear fit at C=1e6
    # fails on folds 2 and 3 alone, and at 3e5 on fold 2 alone.
    spec = SyntheticSpec(d=6, mode_sizes=(2, 3), k_true=2, train_per_task=11, test_per_task=4, snr=10.0, seed=5)
    train, _, _ = generate_synthetic(spec)
    plan = CvPlan(kernel_family="linear", ranks=(2,), costs=(10.0, 3e5, 1e6), folds=4, max_iters=6, tol=1e-3)
    splits = kfold_split(train, 4, 0)
    assert [len(run) for run in structure_runs(splits)] == [3, 1]
    config = FitConfig(K=2, C=1e6, kernel=KernelSpec("linear"), max_iters=6, tol=1e-3, seed=0)
    lone = [lone_outcome(fold, config) for fold, _ in splits]
    assert [isinstance(outcome, SolverError) for outcome in lone] == [False, True, True, False]
    assert str(lone[1]) != str(lone[2])
    result = run_cv(train, METHOD_TENSOR, plan, seed=0)
    at_3e5 = lone_outcome(splits[1][0], replace(config, C=3e5))
    assert [cell.error for cell in result.cells] == [None, str(at_3e5), str(lone[1])]
    assert_cv_is_the_reference(train, plan, seed=0)


def test_members_whose_owners_leave_a_gap_equal_their_lone_fits():
    # on the fixture above, fold 2 fails alone at C=1e6: its member leaves
    # at iteration 2, and the members of fold 1 before and after it (owners
    # 0 and 2 of the datasets [f1, f2, f1]) run on as two runs of owners
    spec = SyntheticSpec(d=6, mode_sizes=(2, 3), k_true=2, train_per_task=11, test_per_task=4, snr=10.0, seed=5)
    train, _, _ = generate_synthetic(spec)
    (f1, _), (f2, _) = kfold_split(train, 4, 0)[:2]
    config = FitConfig(K=2, C=1e6, kernel=KernelSpec("linear"), max_iters=6, tol=1e-3, seed=0)
    lone = [lone_outcome(fold, config) for fold in (f1, f2, f1)]
    assert str(lone[1]).startswith("iteration 2, ")
    assert [lone[0].iterations, lone[2].iterations] == [3, 3] and lone[0].converged
    members = fit_many([f1, f2, f1], config, (1e6,))
    for (member,), expected in zip(members, lone, strict=True):
        assert_same_outcome(member, expected)
