"""End-to-end acceptance checks.

One test per criterion, each printing a single [PASS]/[FAIL] line with the
measured numbers. Criteria marked by runtime limits measure wall time of
the governing fixture. The student-data check skips (with a visible [SKIP]
line) when no local copy of the table is available; point it at one with
TLSSVM_STUDENT_CSV or data/student-mat.csv.
"""

from __future__ import annotations

import json
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from tlssvm.cli import _write_trace
from tlssvm.data import MtlDataset, SyntheticSpec, generate_synthetic
from tlssvm.experiments import (
    METHOD_BASELINE,
    METHOD_TENSOR,
    CvPlan,
    fit_best,
    run_benchmark,
    run_cv,
)
from tlssvm.kernels import KernelSpec
from tlssvm.linsys import RESIDUAL_RTOL
from tlssvm.metrics import evaluate_predictions
from tlssvm.model import TrainedModel, predict_dual, predict_primal
from tlssvm.realdata import load_student_performance
from tlssvm.solver import FitConfig, fit, init_factors, solve_mode_row_step, solve_shared_step
from tlssvm.taskgrid import ModeFactors, TaskGrid, delinearize

from conftest import fit_single, one_member, random_dataset, sweep_row
from test_solver import shared_step_normal_equations

LINEAR = KernelSpec("linear")

RECOVERY_SPEC = SyntheticSpec(
    d=20, mode_sizes=(2, 3), k_true=2, train_per_task=60, test_per_task=20,
    snr=math.inf, seed=29,
)
RECOVERY_FIT = FitConfig(K=2, C=1e3, kernel=LINEAR, max_iters=100, tol=1e-3, seed=0)

ADVANTAGE_TEMPLATE = SyntheticSpec(
    d=30, mode_sizes=(3, 4), k_true=3, train_per_task=30, test_per_task=20,
    snr=5.0, seed=0,
)
ADVANTAGE_SNRS = (5.0, 10.0)
ADVANTAGE_REPS = 10
ADVANTAGE_SEED = 7
ADVANTAGE_PLANS = {
    METHOD_TENSOR: CvPlan(
        kernel_family="linear", ranks=(1, 2, 3), costs=(0.1, 1.0, 10.0, 100.0),
        folds=5, max_iters=60,
    ),
    METHOD_BASELINE: CvPlan(
        kernel_family="linear", costs=(0.01, 0.1, 1.0, 10.0, 100.0, 1000.0), folds=5
    ),
}


def report(capsys, criterion: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def run_recovery():
    train, test, _ = generate_synthetic(RECOVERY_SPEC)
    start = time.perf_counter()
    state = fit(train, RECOVERY_FIT)
    elapsed = time.perf_counter() - start
    model = TrainedModel.from_fit(train, state, RECOVERY_FIT.kernel)
    report_ = evaluate_predictions(test, model.predict_dataset(test))
    return SimpleNamespace(
        train=train, test=test, state=state, model=model, report=report_, elapsed=elapsed
    )


@pytest.fixture(scope="module")
def recovery():
    return run_recovery()


@pytest.fixture(scope="module")
def advantage():
    start = time.perf_counter()
    result = run_benchmark(
        ADVANTAGE_TEMPLATE, ADVANTAGE_SNRS, ADVANTAGE_REPS, ADVANTAGE_SEED, ADVANTAGE_PLANS
    )
    return result, time.perf_counter() - start


def test_criterion_01_generative_recovery(recovery, capsys):
    q2 = recovery.report.q2
    rmse = recovery.report.rmse
    band = 0.1 * float(np.std(recovery.test.stacked_targets()))
    ok = q2 >= 0.99 and rmse <= band and recovery.elapsed < 10.0
    report(
        capsys, 1,
        ok,
        f"noiseless recovery q2={q2:.6f} (>=0.99), rmse={rmse:.3e} (<= {band:.3e}), "
        f"fit took {recovery.elapsed:.2f}s (<10s)",
    )


def test_criterion_02_subproblem_oracles(capsys):
    worst_shared = 0.0
    for seed in range(10):
        data = random_dataset(200 + seed, mode_sizes=(2, 2), d=3, m_t=5)
        factors = init_factors(data.grid, 2, seed=seed)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
        L_oracle, b_oracle = shared_step_normal_equations(data, factors, 10.0)
        worst_shared = max(
            worst_shared,
            float(np.max(np.abs(step.shared.explicit - L_oracle))),
            float(np.max(np.abs(step.biases - b_oracle))),
        )
    grid = TaskGrid((2,))
    data = MtlDataset(
        grid,
        (np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])),
        (np.array([1.5, -0.5]), np.array([2.0, 2.0])),
    )
    z = np.array([[0.8], [-0.3], [0.1], [0.2]])
    C = 4.0
    row = sweep_row(one_member(solve_mode_row_step, data, z, 1, C=C), 1)
    M = np.array(
        [
            [0.0, 1.0, 1.0],
            [1.0, 0.64 + 1 / C, -0.24],
            [1.0, -0.24, 0.09 + 1 / C],
        ]
    )
    sol = np.linalg.solve(M, np.array([0.0, 1.5, -0.5]))
    worst_row = max(
        abs(row.biases[0] - sol[0]),
        float(np.max(np.abs(row.duals - sol[1:]))),
        abs(row.row_values[0] - (0.8 * sol[1] - 0.3 * sol[2])),
    )
    ok = worst_shared < 1e-6 and worst_row < 1e-6
    report(
        capsys, 2,
        ok,
        f"shared step vs normal equations max-abs {worst_shared:.2e} over 10 instances, "
        f"mode-row step vs dense 3x3 solve {worst_row:.2e} (both < 1e-6)",
    )


def test_criterion_03_kkt_residuals(recovery, capsys):
    y_norm = float(np.linalg.norm(recovery.train.stacked_targets()))
    bound = RESIDUAL_RTOL * (1.0 + y_norm)
    sys_res = recovery.state.max_system_residual
    con_res = recovery.state.max_constraint_residual
    ok = sys_res <= bound and con_res <= 1e-8
    report(
        capsys, 3,
        ok,
        f"worst linear-system residual {sys_res:.2e} (<= {bound:.2e}), "
        f"worst per-task dual sum {con_res:.2e} (<= 1e-8) across all block steps",
    )


def test_criterion_04_objective_monotonicity(capsys):
    spec = SyntheticSpec(
        d=20, mode_sizes=(2, 3), k_true=2, train_per_task=60, test_per_task=20,
        snr=10.0, seed=31,
    )
    train, _, _ = generate_synthetic(spec)
    state = fit(train, FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=40, tol=1e-10, seed=0))
    objs = [e.objective for e in state.trace]
    block_steps = len(objs) - 1
    monotone = all(b <= a * (1 + 1e-8) for a, b in zip(objs, objs[1:]))
    initial, final = state.trace[0].train_rmse, state.trace[-1].train_rmse
    ok = block_steps >= 20 and monotone and final < 0.5 * initial
    report(
        capsys, 4,
        ok,
        f"{block_steps} block steps, objective non-increasing={monotone}, "
        f"train rmse {initial:.4f} -> {final:.4f} ({final / initial:.1%} of initial, need <50%)",
    )


def test_criterion_05_prediction_path_equivalence(recovery, capsys):
    rng = np.random.default_rng(97)
    model = recovery.model
    n_tasks = model.grid.n_tasks
    worst = 0.0
    for i in range(1000):
        idx = delinearize(model.grid, 1 + i % n_tasks)
        x = rng.normal(size=model.n_features)
        p = predict_primal(model, idx, x)
        d = predict_dual(model, idx, x)
        worst = max(worst, abs(p - d) / max(1.0, abs(p)))
    ok = worst <= 1e-9
    report(
        capsys, 5,
        ok,
        f"primal vs dual predictions agree to {worst:.2e} over 1000 probes (<= 1e-9)",
    )


def test_criterion_06_single_task_reduction(capsys):
    data = random_dataset(300, mode_sizes=(1,), d=5, m_t=12)
    factors = ModeFactors((np.ones((1, 1)),))
    step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
    single = fit_single(data.inputs[0], data.targets[0], 10.0, LINEAR)
    worst = max(
        float(np.max(np.abs(step.shared.duals - single.duals))),
        abs(float(step.biases[0]) - single.bias),
    )
    ok = worst < 1e-9
    report(
        capsys, 6,
        ok,
        f"single-task shared step matches baseline LSSVM duals/bias to {worst:.2e} (< 1e-9)",
    )


def test_criterion_07_multitask_advantage(advantage, capsys):
    result, elapsed = advantage
    win_counts = {}
    for snr in ADVANTAGE_SNRS:
        wins = 0
        for rep in range(ADVANTAGE_REPS):
            by_method = {
                r.method: r.rmse for r in result.runs if r.snr == snr and r.rep == rep
            }
            if by_method[METHOD_TENSOR] <= by_method[METHOD_BASELINE]:
                wins += 1
        win_counts[snr] = wins
    ok = all(w >= 8 for w in win_counts.values()) and elapsed < 300.0
    detail = ", ".join(
        f"snr={snr:g}: {w}/{ADVANTAGE_REPS} reps at or below baseline"
        for snr, w in win_counts.items()
    )
    report(capsys, 7, ok, f"{detail} (need >=8), benchmark took {elapsed:.0f}s (<300s)")


def _student_csv_path() -> str | None:
    path = os.environ.get("TLSSVM_STUDENT_CSV", os.path.join("data", "student-mat.csv"))
    return path if os.path.exists(path) else None


def test_criterion_08_student_performance_band(capsys):
    path = _student_csv_path()
    if path is None:
        with capsys.disabled():
            print(
                "[SKIP] criterion 8: no local student-performance table; set "
                "TLSSVM_STUDENT_CSV or place data/student-mat.csv"
            )
        pytest.skip("student-performance table not available in this environment")
    train, test = load_student_performance(path, test_fraction=0.2, seed=0)
    tensor_plan = CvPlan(
        kernel_family="rbf", ranks=(2, 3), costs=(1.0, 10.0, 100.0),
        gammas=(0.005, 0.02, 0.1), folds=3, max_iters=20,
    )
    base_plan = CvPlan(
        kernel_family="rbf", costs=(0.1, 1.0, 10.0, 100.0),
        gammas=(0.005, 0.02, 0.1), folds=3,
    )
    tensor_cv = run_cv(train, METHOD_TENSOR, tensor_plan, seed=0)
    tensor_model = fit_best(train, tensor_cv, tensor_plan, seed=0)
    tensor_rmse = evaluate_predictions(test, tensor_model.predict_dataset(test)).rmse
    base_cv = run_cv(train, METHOD_BASELINE, base_plan, seed=0)
    base_model = fit_best(train, base_cv, base_plan, seed=0)
    base_rmse = evaluate_predictions(test, base_model.predict_dataset(test)).rmse
    ok = 2.0 <= tensor_rmse <= 3.3 and tensor_rmse <= base_rmse
    report(
        capsys, 8,
        ok,
        f"rbf multitask test rmse {tensor_rmse:.3f} (band [2.0, 3.3]), "
        f"independent baseline {base_rmse:.3f} (must not beat it)",
    )


def test_criterion_09_convergence_rule(recovery, capsys, tmp_path):
    state = recovery.state
    trace_path = tmp_path / "trace.csv"
    _write_trace(str(trace_path), state.trace)
    last_change = None
    for line in trace_path.read_text().strip().splitlines()[1:]:
        value = line.rsplit(",", 1)[1]
        if value:
            last_change = float(value)
    ok = state.converged and state.iterations < 100 and last_change is not None and last_change < 1e-3
    report(
        capsys, 9,
        ok,
        f"converged={state.converged} after {state.iterations} iterations (<100), "
        f"trace file's last factor change {last_change:.2e} (< 1e-3)",
    )


def test_criterion_10_determinism(recovery, advantage, capsys):
    second = run_recovery()
    first_json = json.dumps(recovery.report.to_dict(), indent=2).encode()
    second_json = json.dumps(second.report.to_dict(), indent=2).encode()
    recovery_same = first_json == second_json

    result, _ = advantage
    rerun = run_benchmark(
        ADVANTAGE_TEMPLATE, ADVANTAGE_SNRS, ADVANTAGE_REPS, ADVANTAGE_SEED, ADVANTAGE_PLANS
    )
    bench_same = (
        json.dumps(result.to_dict(), indent=2).encode()
        == json.dumps(rerun.to_dict(), indent=2).encode()
    )
    ok = recovery_same and bench_same
    report(
        capsys, 10,
        ok,
        f"rerun metric JSON byte-identical: recovery={recovery_same}, benchmark={bench_same}",
    )
