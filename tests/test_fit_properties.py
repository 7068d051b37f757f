"""Property tests of whole fits on random grids, ranks, kernels and costs.

A fit either succeeds with a trace that never rises, or fails with a
SolverError that names the iteration and the failing step once. A fit on
every sample twice is the fit at twice the cost, and a fit whose steps
can interpolate meets the residual bound up to C = 1e8.
"""

from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm.data import MtlDataset
from tlssvm.errors import SolverError
from tlssvm.kernels import KernelSpec
from tlssvm.linsys import RESIDUAL_RTOL
from tlssvm.solver import FitConfig, fit
from tlssvm.taskgrid import TaskGrid

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
