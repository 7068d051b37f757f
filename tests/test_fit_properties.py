"""Property tests of whole fits on random grids, ranks, kernels and costs.

A fit either succeeds with a trace that never rises, or fails with a
SolverError that names the iteration and the failing step once.
"""

from __future__ import annotations

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm.data import MtlDataset
from tlssvm.errors import SolverError
from tlssvm.kernels import KernelSpec
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
