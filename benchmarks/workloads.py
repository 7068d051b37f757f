"""The benchmark's workloads: seeded synthetic inputs and the work done on them.

Every workload uses d=30 features and rank K=3. The inputs come from
`tlssvm.data.generate_synthetic` with the run's seed, so one seed always
gives the same CSV files. Why each workload was chosen is in
BENCHMARK.json and README.md.

Every fit runs a fixed number of outer iterations (the stopping tolerance
is set out of reach). At the tolerances a user would pick, the number of
iterations to convergence depends on the seed's data (4 to 13 for
`linear-m3000` at tol=1e-3, 24 to 33 for `rbf-3mode`), so `train_s` would
measure the seed rather than the code. With a fixed count, every seed does
the same block solves on the same shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from tlssvm.data import SyntheticSpec
from tlssvm.experiments import CvPlan
from tlssvm.kernels import KernelSpec

# Below any factor change a fit can reach, so fits stop at max_iters.
TOL_OFF = 1e-300
RANK = 3  # K of the single fits; the CV plans search ranks of their own


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec  # its seed is replaced by the run's seed
    iterations: int  # outer iterations of every tensor fit
    # a single fit, or else a grid search of both methods
    kernel: KernelSpec | None = None
    C: float | None = None
    tensor_plan: CvPlan | None = None
    baseline_plan: CvPlan | None = None

    @property
    def is_cv(self) -> bool:
        return self.tensor_plan is not None


def _spec(mode_sizes, train, test, d=30) -> SyntheticSpec:
    return SyntheticSpec(
        d=d, mode_sizes=mode_sizes, k_true=3, train_per_task=train, test_per_task=test,
        snr=5.0, seed=0,
    )


def _cv_plans(iterations, ranks, costs, baseline_costs, folds) -> dict:
    return {
        "tensor_plan": CvPlan(
            kernel_family="linear", ranks=ranks, costs=costs, folds=folds,
            max_iters=iterations, tol=TOL_OFF,
        ),
        "baseline_plan": CvPlan(kernel_family="linear", costs=baseline_costs, folds=folds),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="linear-m3000",
            spec=_spec((3, 4), 250, 100),
            iterations=2,
            kernel=KernelSpec("linear"),
            C=10.0,
        ),
        Workload(
            name="rbf-3mode",
            spec=_spec((2, 3, 4), 75, 50),
            iterations=5,
            kernel=KernelSpec("rbf", 0.01),
            C=10.0,
        ),
        Workload(
            name="cv-small",
            spec=_spec((3, 4), 30, 20),
            iterations=4,
            **_cv_plans(
                4, (1, 2, 3), (0.1, 1.0, 10.0, 100.0), (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0), 5
            ),
        ),
    )
}

# Tiny versions with the same structure, for the benchmark's smoke test.
# Their numbers are not comparable with the full workloads.
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload("linear-m3000", _spec((3, 4), 12, 6, d=5), 2, KernelSpec("linear"), 10.0),
        Workload("rbf-3mode", _spec((2, 3, 2), 8, 5, d=5), 2, KernelSpec("rbf", 0.1), 10.0),
        Workload(
            "cv-small", _spec((2, 2), 9, 4, d=5), 2,
            **_cv_plans(2, (1, 2), (1.0, 10.0), (1.0, 10.0), 3),
        ),
    )
}
