"""Linear fits against an extended-precision reference.

`longdouble_linear_trace` (conftest) runs a linear fit's alternation with
every step a primal centered ridge in np.longdouble. Each trace objective
of `fit` must lie within OBJECTIVE_RTOL of it. The specs are the README's
fit, the benchmark's `cv-small` data under three of its (K, C) cells and
`linear-m3000`-shaped data, each at two seeds.
"""

from __future__ import annotations

import numpy as np
import pytest

from tlssvm.data import SyntheticSpec, generate_synthetic
from tlssvm.kernels import KernelSpec
from tlssvm.solver import FitConfig, fit

from conftest import longdouble_linear_trace

OBJECTIVE_RTOL = 1e-13
LINEAR = KernelSpec("linear")


def _bench_spec(mode_sizes, train_per_task) -> SyntheticSpec:
    return SyntheticSpec(
        d=30, mode_sizes=mode_sizes, k_true=3, train_per_task=train_per_task,
        test_per_task=1, snr=5.0, seed=0,
    )


README_SPEC = SyntheticSpec(
    d=20, mode_sizes=(2, 3), k_true=2, train_per_task=60, test_per_task=1, snr=10.0, seed=0
)
CASES = {
    "readme": (README_SPEC, [dict(K=2, C=100.0, max_iters=100, tol=1e-3)]),
    "cv-small": (
        _bench_spec((3, 4), 30),
        [dict(K=3, C=10.0), dict(K=1, C=0.1), dict(K=2, C=100.0)],
    ),
    "linear-m3000": (_bench_spec((3, 4), 250), [dict(K=3, C=10.0, max_iters=2)]),
}
# the benchmark's fits run a fixed number of iterations
FIXED = dict(max_iters=4, tol=1e-300)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)
@pytest.mark.parametrize("seed", [4242, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_linear_objectives_match_the_longdouble_reference(case, seed):
    spec, configs = CASES[case]
    train, _, _ = generate_synthetic(SyntheticSpec(**{**spec.to_config(), "seed": seed}))
    for settings in configs:
        config = FitConfig(kernel=LINEAR, seed=seed, **{**FIXED, **settings})
        state = fit(train, config)
        reference = longdouble_linear_trace(train, config, state.iterations)
        assert [entry.step for entry in state.trace] == [step for step, _ in reference]
        got = np.array([entry.objective for entry in state.trace])
        expected = np.array([objective for _, objective in reference])
        worst = float(np.max(np.abs(got - expected) / np.abs(expected)))
        assert worst <= OBJECTIVE_RTOL, (settings, worst)
