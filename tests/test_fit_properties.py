"""Property tests of whole fits on random grids, ranks, kernels and costs.

A fit either succeeds with a trace that never rises, or fails with a
SolverError that names the iteration and the failing step once. A fit on
every sample twice is the fit at twice the cost, and a fit whose steps
can interpolate meets the residual bound up to C = 1e8. Each member of a
lockstep fit over several costs (`fit_many`) is its lone fit, bit for bit,
error strings included.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm import solver
from tlssvm.data import MtlDataset
from tlssvm.errors import SolverError
from tlssvm.kernels import KernelSpec, gram
from tlssvm.linsys import RESIDUAL_RTOL
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
