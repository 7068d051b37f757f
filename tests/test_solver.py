from __future__ import annotations

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm import linsys, solver
from tlssvm.baseline import fit_independent
from tlssvm.data import MtlDataset, SyntheticSpec, generate_synthetic
from tlssvm.errors import ConfigError, SolverError
from tlssvm.experiments import CvPlan, fit_best, fit_method, run_cv
from tlssvm.kernels import KernelSpec, gram
from tlssvm.linsys import (
    RESIDUAL_RTOL,
    Blocks,
    CoherenceGram,
    FeatureGram,
    KroneckerGram,
    MemberSolution,
    TaskMoments,
    solve_dual_system,
)
from tlssvm.model import SharedFactor, TrainedModel, load_model, predict_dual, predict_primal, save_model
from tlssvm.solver import (
    FitConfig,
    Members,
    fit,
    fit_many,
    init_factors,
    reduced_features,
    shared_projection,
    solve_mode_row_step,
    solve_shared_step,
)
from tlssvm.taskgrid import (
    ModeFactors,
    TaskGrid,
    delinearize,
    task_vector_table,
)
from conftest import (
    block_constraint_matrix,
    coherence_dense,
    coherence_weighted_gram,
    coslice_tasks,
    evaluate_objective,
    fit_config_dict,
    fit_single,
    high_precision_saddle_solution,
    kernel_eval,
    lone_solve,
    one_member,
    random_dataset,
    saddle_oracle,
    snr10_dataset,
    sweep_row,
    task_offsets,
    without_explicit,
)

LINEAR = KernelSpec("linear")
COSTS = [1e-3, 1.0, 1e3, 1e6]
# the costs whose ridge 1/C is that of COSTS plus 1e-3
SHIFTED_COSTS = [1.0 / (1.0 / C + 1e-3) for C in COSTS]


@pytest.mark.parametrize(
    "entry",
    [FitConfig, CvPlan, solve_dual_system, solve_shared_step, solve_mode_row_step, fit,
     fit_many, fit_single, fit_independent, fit_method, run_cv, fit_best],
    ids=lambda entry: entry.__name__,
)
def test_cost_is_the_only_regularization_parameter(entry):
    # a former jitter j is the cost 1/(1/C + j); no entry point takes it as a second knob
    assert "jitter" not in inspect.signature(entry).parameters


def shared_step_normal_equations(data, factors, C):
    """Independent primal oracle for the shared step (linear kernel).

    Eliminating the residuals turns the step into ridge regression in
    (vec L, b); rows of the design matrix are kron(u_t, x) in column-major
    vec order. Returns (L, biases).
    """
    d = data.n_features
    K = factors.rank
    X = data.stacked_inputs()
    y = data.stacked_targets()
    u_table = task_vector_table(factors)
    tid = data.sample_task_ids()
    m, T = data.n_samples, data.grid.n_tasks
    Psi = np.empty((m, d * K))
    for j in range(m):
        Psi[j] = np.kron(u_table[tid[j]], X[j])
    A = block_constraint_matrix(data.task_sizes)
    H = np.block(
        [
            [np.eye(d * K) + C * Psi.T @ Psi, C * Psi.T @ A],
            [C * A.T @ Psi, C * A.T @ A],
        ]
    )
    rhs = np.concatenate([C * Psi.T @ y, C * A.T @ y])
    sol = np.linalg.solve(H, rhs)
    return sol[: d * K].reshape((d, K), order="F"), sol[d * K :]


def dense_psd(kind: str, m: int, rng) -> np.ndarray:
    """A full-rank M M^T, or an RBF Gram whose spectrum decays to rounding level."""
    if kind == "full":
        M = rng.normal(size=(m, m))
        return M @ M.T
    return gram(KernelSpec("rbf", gamma=0.05), rng.normal(size=(m, 3)))


class TestSolveDualSystem:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            sizes = [3, 2, 4]
            m, T = sum(sizes), len(sizes)
            M = rng.normal(size=(m, m))
            Q = M @ M.T
            y = rng.normal(size=m)
            C = 5.0
            biases, duals, residual, _ = lone_solve(Blocks(sizes), Q, y, C)
            A = block_constraint_matrix(sizes)
            full = np.block([[np.zeros((T, T)), A.T], [A, Q + np.eye(m) / C]])
            expected = np.linalg.solve(full, np.concatenate([np.zeros(T), y]))
            np.testing.assert_allclose(biases, expected[:T], atol=1e-9)
            np.testing.assert_allclose(duals, expected[T:], atol=1e-9)
            assert residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))

    @pytest.mark.parametrize("kind", ["full", "rbf"])
    @pytest.mark.parametrize("C", COSTS + SHIFTED_COSTS)
    def test_uneven_blocks_match_dense_oracle(self, kind, C):
        rng = np.random.default_rng(0)
        sizes = [1, 6, 3, 9]
        for trial in range(3):
            Q = dense_psd(kind, sum(sizes), rng)
            y = rng.normal(size=sum(sizes))
            got = lone_solve(Blocks(sizes), Q, y, C)
            assert_same_solution(got, saddle_oracle(sizes, Q, y, C))
            assert got[2] <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))

    def test_residual_is_that_of_the_saddle_system(self):
        rng = np.random.default_rng(3)
        sizes = [4, 2, 5]
        T, m = len(sizes), sum(sizes)
        Q = dense_psd("rbf", m, rng)
        y = rng.normal(size=m)
        C = 1 / (1 / 50.0 + 1e-4)
        biases, duals, residual, _ = lone_solve(Blocks(sizes), Q, y, C)
        A = block_constraint_matrix(sizes)
        M = np.block([[np.zeros((T, T)), A.T], [A, Q + (1 / C) * np.eye(m)]])
        explicit = np.linalg.norm(M @ np.concatenate([biases, duals]) - np.concatenate([np.zeros(T), y]))
        assert residual == pytest.approx(explicit, abs=1e-13)

    def test_indefinite_q_raises_solver_error(self):
        rng = np.random.default_rng(4)
        U = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        Q = U @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, -4.0]) @ U.T
        with pytest.raises(SolverError, match="not positive definite.*decrease C"):
            lone_solve(Blocks([2, 4]), Q, rng.normal(size=6), 1.0)

    @pytest.mark.parametrize("sizes", [[2, 3], (2, 3), np.array([2, 3])])
    def test_plain_sizes_raise_type_error_naming_blocks(self, sizes):
        rng = np.random.default_rng(5)
        X, U, y = rng.normal(size=(5, 2)), rng.normal(size=(2, 1)), rng.normal(size=5)
        kron = KroneckerGram(U, (TaskMoments(Blocks([2, 3]), X),), (0,))
        for solve, Q in (
            (lone_solve, X @ X.T),
            (lone_solve, FeatureGram(X)),
            (lone_solve, kron),
        ):
            with pytest.raises(TypeError, match="must be a linsys.Blocks"):
                solve(sizes, Q, y, 1.0)

    @pytest.mark.parametrize("C", [math.inf, math.nan])
    def test_non_finite_cost_raises_value_error(self, C):
        message = "C must be positive and finite"
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(5, 2)), rng.normal(size=5)
        U = rng.normal(size=(2, 1))
        blocks = Blocks([2, 3])
        for Q in (X @ X.T, FeatureGram(X), KroneckerGram(U, (TaskMoments(blocks, X),), (0,)),
                  CoherenceGram(U, X @ X.T)):
            with pytest.raises(ValueError, match=message):
                lone_solve(blocks, Q, y, C)

    @pytest.mark.parametrize("C", [10.0, np.float64(10.0), np.array(10.0), np.ones((1, 1)), np.array([])])
    def test_cost_must_be_a_member_array(self, C):
        # the solve takes members only: one cost is the array [C] of one member
        rng = np.random.default_rng(7)
        X, y, U = rng.normal(size=(5, 2)), rng.normal(size=5), rng.normal(size=(1, 2, 1))
        blocks = Blocks([2, 3])
        for Q in (X @ X.T, FeatureGram(X[None]), KroneckerGram(U, (TaskMoments(blocks, X),), (0,)),
                  CoherenceGram(U, X @ X.T)):
            with pytest.raises(ValueError, match=r"C must be a non-empty 1-D array of costs, one per member, got shape"):
                solve_dual_system(blocks, Q, y, C)
            assert isinstance(solve_dual_system(blocks, Q, y, np.array([10.0])), MemberSolution)

    def test_blocks_reject_fractional_sizes_and_group_counts(self):
        with pytest.raises(ValueError, match=r"block sizes must be whole numbers, got \[2\.7, 3\.0\]"):
            Blocks([2.7, 3])
        with pytest.raises(ValueError, match=r"groups must be whole numbers, got \[1\.5, 0\.5\]"):
            Blocks([1, 1], (1.5, 0.5))
        with pytest.raises(ValueError, match="whole numbers"):
            Blocks([2, np.nan])
        whole = Blocks(np.array([2.0, 3.0]), (1.0, 1.0))
        assert whole == Blocks([2, 3], (1, 1)) == (2, 3)
        assert whole.groups.tolist() == [1, 1]

    def test_empty_block_raises_value_error(self):
        with pytest.raises(ValueError, match="at least one sample"):
            lone_solve(Blocks([3, 0]), np.eye(3), np.ones(3), 1.0)

    def test_zero_targets_give_zero_solution(self):
        Q = np.eye(4)
        biases, duals, _, _ = lone_solve(Blocks([2, 2]), Q, np.zeros(4), 10.0)
        np.testing.assert_allclose(biases, 0.0, atol=1e-12)
        np.testing.assert_allclose(duals, 0.0, atol=1e-12)

    def test_constraint_rows_hold(self):
        rng = np.random.default_rng(1)
        sizes = [4, 3]
        M = rng.normal(size=(7, 7))
        _, duals, _, _ = lone_solve(Blocks(sizes), M @ M.T, rng.normal(size=7), 2.0)
        assert abs(duals[:4].sum()) < 1e-9
        assert abs(duals[4:].sum()) < 1e-9

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system_diagnostic_and_smaller_cost_recovery(self):
        # Q + I/C is the all-ones matrix: rank one, saddle system singular
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 2.0])
        with pytest.raises(SolverError, match="decrease C"):
            lone_solve(Blocks([2]), Q, y, 1.0)
        biases, duals, _, _ = lone_solve(Blocks([2]), Q, y, 1 / 1.5)  # ridge 1/C = 1.5
        assert np.all(np.isfinite(biases)) and np.all(np.isfinite(duals))


def assert_same_solution(got, expected, rtol=1e-9):
    """Biases and duals agree to rtol of the larger of 1 and the oracle's largest entry.

    The dense LU's own forward error grows about like C * eps (3e-9 relative
    at C=1e6 on 75 samples, against a 40-digit reference), so the agreement
    is measured on the solution's scale.
    """
    scale = max(1.0, float(np.max(np.abs(expected[0]))), float(np.max(np.abs(expected[1]))))
    for part_got, part_expected in zip(got[:2], expected[:2]):
        assert np.max(np.abs(part_got - part_expected)) <= rtol * scale


class TestFeatureRidge:
    @pytest.mark.parametrize("C", COSTS + SHIFTED_COSTS)
    def test_uneven_blocks_match_dense_oracle(self, C):
        rng = np.random.default_rng(40)
        sizes = [1, 6, 3, 9]
        Phi = rng.normal(size=(sum(sizes), 3))
        y = rng.normal(size=sum(sizes))
        got = lone_solve(Blocks(sizes), FeatureGram(Phi), y, C)
        assert_same_solution(got, lone_solve(Blocks(sizes), Phi @ Phi.T, y, C))
        assert got[2] <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    def test_more_features_than_samples(self, C):
        rng = np.random.default_rng(41)
        sizes = [2, 3]
        Phi = rng.normal(size=(5, 8))
        y = rng.normal(size=5)
        expected = lone_solve(Blocks(sizes), Phi @ Phi.T, y, C)
        assert_same_solution(lone_solve(Blocks(sizes), FeatureGram(Phi), y, C), expected)

    @pytest.mark.parametrize("C", [1.0, 1e3, 1e6])
    def test_duplicated_samples(self, C):
        rng = np.random.default_rng(42)
        base = rng.normal(size=(4, 3))
        # rows repeat within a block and across blocks; targets differ on repeats
        Phi = base[[0, 0, 1, 2, 1, 1, 3, 0, 3]]
        sizes = [3, 4, 2]
        y = rng.normal(size=9)
        got = lone_solve(Blocks(sizes), FeatureGram(Phi), y, C)
        assert_same_solution(got, lone_solve(Blocks(sizes), Phi @ Phi.T, y, C))

    def test_residual_is_that_of_the_saddle_system(self):
        rng = np.random.default_rng(43)
        sizes = [4, 2, 5]
        T, m = len(sizes), sum(sizes)
        Phi = rng.normal(size=(m, 3))
        y = rng.normal(size=m)
        C = 1 / (1 / 50.0 + 1e-4)
        biases, duals, residual, _ = lone_solve(Blocks(sizes), FeatureGram(Phi), y, C)
        A = block_constraint_matrix(sizes)
        M = np.block([[np.zeros((T, T)), A.T], [A, Phi @ Phi.T + (1 / C) * np.eye(m)]])
        explicit = np.linalg.norm(M @ np.concatenate([biases, duals]) - np.concatenate([np.zeros(T), y]))
        assert residual == pytest.approx(explicit, abs=1e-13)

    def test_exact_against_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(44)
        sizes = [3, 7, 5]
        T, m = len(sizes), sum(sizes)
        Phi = rng.normal(size=(m, 4))
        y = rng.normal(size=m)
        C = 1e6
        with mpmath.workdps(40):
            P = mpmath.matrix(Phi.tolist())
            A = block_constraint_matrix(sizes)
            M = mpmath.zeros(T + m)
            Q = P * P.T
            for i in range(m):
                for t in range(T):
                    M[T + i, t] = M[t, T + i] = A[i, t]
                for j in range(m):
                    M[T + i, T + j] = Q[i, j] + (mpmath.mpf(1) / C if i == j else 0)
            exact = mpmath.lu_solve(M, mpmath.matrix([0] * T + y.tolist()))
            expected = np.array([float(v) for v in exact])
        biases, duals, _, _ = lone_solve(Blocks(sizes), FeatureGram(Phi), y, C)
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(np.concatenate([biases, duals]) - expected)) <= 1e-12 * scale

    def test_zero_targets_give_zero_solution(self):
        Phi = np.random.default_rng(45).normal(size=(6, 2))
        biases, duals, residual, _ = lone_solve(Blocks([2, 4]), FeatureGram(Phi), np.zeros(6), 10.0)
        np.testing.assert_array_equal(biases, 0.0)
        np.testing.assert_array_equal(duals, 0.0)
        assert residual == 0.0

    def test_shape_and_value_validation(self):
        Phi = np.ones((4, 2))
        with pytest.raises(ValueError, match="inconsistent"):
            lone_solve(Blocks([2, 2]), FeatureGram(Phi), np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="C must be positive"):
            lone_solve(Blocks([2, 2]), FeatureGram(Phi), np.zeros(4), 0.0)
        with pytest.raises(ValueError, match="at least one sample"):
            lone_solve(Blocks([4, 0]), FeatureGram(Phi), np.zeros(4), 1.0)

    def test_feature_gram_is_the_ridge_for_every_shape(self):
        rng = np.random.default_rng(46)
        y = np.arange(6.0)
        # as many columns as samples, more than the samples, more than each group's
        for blocks, p in ((Blocks([3, 3]), 6), (Blocks([3, 3]), 7), (Blocks([3, 3], (1, 1)), 4)):
            Phi = rng.normal(size=(6, p))
            got = lone_solve(blocks, FeatureGram(Phi), y, 2.0)
            expected = linsys._solve_features(blocks, FeatureGram(Phi[None]), y, np.array([2.0]))
            assert_same_solution(got, (expected.biases[0], expected.duals[0]), rtol=0)
            assert np.array_equal(got.weights, expected.weights[0])


def non_finite_system(case):
    """A lone system with one non-finite entry in Q or y, and a system of two members: (blocks, Q, y, members).

    Member 1 is the lone system and member 0 the same system without the
    non-finite entry; a non-finite y is every member's.
    """
    rng = np.random.default_rng(75)
    blocks = Blocks([3, 4, 2])
    X, y, U = rng.normal(size=(9, 2)), rng.normal(size=9), rng.normal(size=(3, 2))
    if case == "feature-inf":
        bad = X.copy()
        bad[1, 0] = np.inf
        return blocks, FeatureGram(bad), y, FeatureGram(np.stack([X, bad]))
    if case == "coherence-nan-task":
        G = gram(KernelSpec("rbf", gamma=0.3), X)
        bad = U.copy()
        bad[2, 1] = np.nan
        return blocks, CoherenceGram(bad, G), y, CoherenceGram(np.stack([U, bad]), G)
    y = y.copy()
    y[4] = np.nan
    return blocks, FeatureGram(X), y, FeatureGram(np.stack([X, X]))


class TestNonFiniteSystems:
    """A non-finite entry in Q or y is named as such, not blamed on the cost."""

    @pytest.mark.parametrize("case", ["feature-inf", "coherence-nan-task", "y-nan"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lone_solve_names_non_finite_entries(self, case):
        blocks, Q, y, _ = non_finite_system(case)
        with pytest.raises(SolverError) as info:
            lone_solve(blocks, Q, y, 10.0)
        message = str(info.value)
        assert message.startswith("dual system has non-finite entries")
        assert "decrease C" not in message and "exceeds" not in message

    @pytest.mark.parametrize("case", ["feature-inf", "coherence-nan-task", "y-nan"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_member_solve_names_non_finite_entries(self, case):
        blocks, Q, y, members = non_finite_system(case)
        got = solve_dual_system(blocks, members, y, np.array([10.0, 10.0]))
        with pytest.raises(SolverError) as lone:
            lone_solve(blocks, Q, y, 10.0)
        assert str(got.errors[1]) == str(lone.value)
        assert got.errors[1].group == lone.value.group
        if case == "y-nan":  # every member shares y
            assert str(got.errors[0]) == str(lone.value)
        else:
            assert got.errors[0] is None


class TestInitFactors:
    def test_deterministic_and_unit_columns(self):
        grid = TaskGrid((3, 4))
        a = init_factors(grid, 2, seed=7)
        b = init_factors(grid, 2, seed=7)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)
            np.testing.assert_allclose(np.linalg.norm(fa, axis=0), 1.0, atol=1e-12)

    def test_seed_sensitivity(self):
        grid = TaskGrid((3,))
        assert not np.array_equal(
            init_factors(grid, 2, seed=0).factors[0], init_factors(grid, 2, seed=1).factors[0]
        )

    def test_bad_rank(self):
        with pytest.raises(ConfigError):
            init_factors(TaskGrid((2,)), 0, seed=0)


class TestCoherenceWeightedGram:
    def test_unit_vectors_give_plain_gram(self, tiny_dataset):
        factors = ModeFactors((np.ones((2, 1)), np.ones((2, 1))))
        Q = coherence_weighted_gram(tiny_dataset, factors, LINEAR)
        np.testing.assert_array_equal(Q, gram(LINEAR, tiny_dataset.stacked_inputs()))

    def test_orthogonal_tasks_zero_block(self):
        data = random_dataset(3, mode_sizes=(2,), d=3, m_t=4)
        factors = ModeFactors((np.array([[1.0, 0.0], [0.0, 1.0]]),))
        Q = coherence_weighted_gram(data, factors, LINEAR)
        np.testing.assert_array_equal(Q[:4, 4:], np.zeros((4, 4)))
        np.testing.assert_array_equal(Q[4:, :4], np.zeros((4, 4)))

    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec("rbf", gamma=0.6)])
    def test_entrywise_oracle(self, kernel):
        data = random_dataset(4, mode_sizes=(2, 2), d=3, m_t=3)
        rng = np.random.default_rng(8)
        factors = ModeFactors((rng.normal(size=(2, 2)), rng.normal(size=(2, 2))))
        Q = coherence_weighted_gram(data, factors, kernel)
        X = data.stacked_inputs()
        tid = data.sample_task_ids()
        u = task_vector_table(factors)
        for j in range(data.n_samples):
            for p in range(data.n_samples):
                expected = float(u[tid[j]] @ u[tid[p]]) * kernel_eval(kernel, X[j], X[p])
                assert abs(Q[j, p] - expected) < 1e-13

    def test_grid_mismatch(self, tiny_dataset):
        with pytest.raises(ValueError):
            coherence_weighted_gram(tiny_dataset, ModeFactors((np.ones((3, 1)),)), LINEAR)


class TestSharedStep:
    def test_matches_normal_equations_oracle(self):
        # ten random tiny instances, independent primal solve as ground truth
        for seed in range(10):
            data = random_dataset(100 + seed, mode_sizes=(2, 2), d=3, m_t=5)
            factors = init_factors(data.grid, 2, seed=seed)
            C = 10.0
            step = one_member(solve_shared_step, data, factors, LINEAR, C=C)
            L_oracle, b_oracle = shared_step_normal_equations(data, factors, C)
            assert np.max(np.abs(step.shared.explicit - L_oracle)) < 1e-6
            assert np.max(np.abs(step.biases - b_oracle)) < 1e-6

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    def test_primal_path_matches_dense_dual_system(self, C):
        rng = np.random.default_rng(16)
        sizes = (2, 7, 4, 5, 3, 6)
        data = MtlDataset(
            TaskGrid((2, 3)),
            tuple(rng.normal(size=(n, 3)) for n in sizes),
            tuple(rng.normal(size=n) for n in sizes),
        )
        factors = init_factors(data.grid, 2, seed=4)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=C)
        Q = coherence_weighted_gram(data, factors, LINEAR)
        expected = lone_solve(Blocks(data.task_sizes), Q, data.stacked_targets(), C)
        assert_same_solution((step.biases, step.shared.duals), expected)

    def test_more_features_than_samples_uses_dense_path(self, monkeypatch):
        # d*K = 12 features against 8 samples
        data = random_dataset(17, mode_sizes=(2, 2), d=4, m_t=2)
        factors = init_factors(data.grid, 3, seed=5)
        monkeypatch.setattr(linsys, "_solve_features", None)
        G = gram(LINEAR, data.stacked_inputs())
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0, gram_matrix=G)
        L_oracle, b_oracle = shared_step_normal_equations(data, factors, 10.0)
        assert np.max(np.abs(step.shared.explicit - L_oracle)) < 1e-6
        assert np.max(np.abs(step.biases - b_oracle)) < 1e-6

    def test_zero_targets(self):
        data = random_dataset(5, mode_sizes=(2,), d=3, m_t=4)
        data = MtlDataset(data.grid, data.inputs, tuple(np.zeros(4) for _ in range(2)))
        step = one_member(solve_shared_step, data, init_factors(data.grid, 2, 0), LINEAR, C=10.0)
        np.testing.assert_allclose(step.shared.duals, 0.0, atol=1e-10)
        np.testing.assert_allclose(step.biases, 0.0, atol=1e-10)

    def test_single_task_reduces_to_baseline(self):
        # T=1 with u=1 makes the coherence scalar 1: the standard LSSVM system
        data = random_dataset(6, mode_sizes=(1,), d=4, m_t=8)
        factors = ModeFactors((np.ones((1, 1)),))
        step = one_member(solve_shared_step, data, factors, LINEAR, C=25.0)
        single = fit_single(data.inputs[0], data.targets[0], 25.0, LINEAR)
        np.testing.assert_allclose(step.shared.duals, single.duals, atol=1e-9)
        assert abs(step.biases[0] - single.bias) < 1e-9

    def test_constraint_residual_reported(self):
        data = random_dataset(7, mode_sizes=(2, 2), d=3, m_t=5)
        step = one_member(solve_shared_step, data, init_factors(data.grid, 2, 1), LINEAR, C=100.0)
        assert step.constraint_residual < 1e-8
        sums = [step.shared.duals[i * 5 : (i + 1) * 5].sum() for i in range(4)]
        assert max(abs(s) for s in sums) < 1e-8


def kronecker_system(data, K, seed):
    """Random T x K task vectors, the KroneckerGram of the data over them, and its explicit Phi."""
    U = np.random.default_rng(seed).normal(size=(data.grid.n_tasks, K))
    X = data.stacked_inputs()
    blocks = Blocks(data.task_sizes)
    Q = KroneckerGram(U, (TaskMoments(blocks, X),), (0,))
    Phi = (U[data.sample_task_ids()][:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
    return blocks, Q, Phi


class TestKroneckerSharedStep:
    @pytest.mark.parametrize("mode_sizes", [(6,), (2, 3), (2, 3, 2)])
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("C", COSTS + SHIFTED_COSTS)
    def test_matches_explicit_features_and_oracle(self, mode_sizes, K, C):
        # uneven tasks of 1..5 samples, task 1 holding one (its S_t is zero)
        data = uneven_dataset(80 + len(mode_sizes), mode_sizes, max_size=5)
        data = MtlDataset(data.grid, (data.inputs[0][:1],) + data.inputs[1:], (data.targets[0][:1],) + data.targets[1:])
        blocks, Q, Phi = kronecker_system(data, K, seed=K)
        y = data.stacked_targets()
        assert data.n_samples >= Phi.shape[1]  # the ridge form
        got = lone_solve(blocks, Q, y, C)
        assert got[2] <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))
        assert_same_solution(got, lone_solve(Blocks(data.task_sizes), FeatureGram(Phi), y, C))
        if C < 1e6:
            expected = saddle_oracle(data.task_sizes, Phi @ Phi.T, y, C)
        else:  # the assembled oracle's own error exceeds the tolerance here
            expected = high_precision_saddle_solution(data.task_sizes, Phi, y, C)
        assert_same_solution(got, expected)

    def test_operations_equal_those_of_the_explicit_matrix(self):
        # the centered Gram, Phi^T v (plain, and block-centered with the mean
        # term of a right-hand side [g; h]) and Phi w, as the ridge uses them,
        # for one member (the operations carry a leading member axis)
        data = uneven_dataset(85, (2, 3), d=4)
        blocks, Q, Phi = kronecker_system(data, 3, seed=85)
        kron = linsys._KroneckerFeatures(KroneckerGram(Q.task_vectors[None], Q.moments, Q.owner), blocks)
        explicit = linsys._MatrixFeatures(Phi[None], blocks)
        rng = np.random.default_rng(85)
        v, g, w = rng.normal(size=(1, data.n_samples)), rng.normal(size=(1, len(blocks))), rng.normal(size=(1, 12))
        v_c = v - blocks.means(v, axis=1)[:, blocks.of]
        inv_c = np.array([0.3])
        for got, expected in (
            (kron.grams(), explicit.grams()),
            (kron.rmatvec(v), explicit.rmatvec(v)),
            (kron.rhs(v_c, g, inv_c), explicit.rhs(v_c, g, inv_c)),
            ([kron.matvec([w])], [explicit.matvec([w])]),
        ):
            (got,), (expected,) = got, expected
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("C", [1.0, 1e3, 1e6])
    def test_duplicated_samples_and_a_one_sample_task(self, C):
        rng = np.random.default_rng(81)
        base = rng.normal(size=(4, 3))
        picks = ([2], [0, 0, 1, 3], [1, 1, 2], [3, 0, 0, 2, 2])  # repeats within and across tasks
        data = MtlDataset(
            TaskGrid((2, 2)), tuple(base[p] for p in picks), tuple(rng.normal(size=len(p)) for p in picks)
        )
        blocks, Q, Phi = kronecker_system(data, 2, seed=81)
        np.testing.assert_array_equal(Q.moments[0].scatter[0], 0.0)
        y = data.stacked_targets()
        got = lone_solve(blocks, Q, y, C)
        assert_same_solution(got, lone_solve(Blocks(data.task_sizes), FeatureGram(Phi), y, C))
        assert_same_solution(got, high_precision_saddle_solution(data.task_sizes, Phi, y, C))

    @pytest.mark.parametrize("C", [1.0, 1e3])
    def test_wide_shared_step_solves_a_coherence_gram(self, monkeypatch, C):
        # dK > m: the step hands the solver the coherence times the linear Gram
        data = uneven_dataset(82, (2, 2), d=4, max_size=2)
        factors = init_factors(data.grid, 3, seed=82)
        forms = []

        def recording(blocks, Q, y, C):
            forms.append(type(Q))
            return solve_dual_system(blocks, Q, y, C)

        monkeypatch.setattr(solver, "solve_dual_system", recording)
        G = gram(LINEAR, data.stacked_inputs())
        step = one_member(solve_shared_step, data, factors, LINEAR, C=C, gram_matrix=G)
        assert forms == [CoherenceGram]
        U, X, y = task_vector_table(factors), data.stacked_inputs(), data.stacked_targets()
        Phi = (U[data.sample_task_ids()][:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
        assert data.n_samples < Phi.shape[1]
        assert_same_solution((step.biases, step.shared.duals), saddle_oracle(data.task_sizes, Phi @ Phi.T, y, C))

    def test_shared_step_matches_explicit_features(self):
        data = uneven_dataset(83, (3, 2), d=4)
        factors = init_factors(data.grid, 2, seed=83)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
        U = task_vector_table(factors)
        X, y = data.stacked_inputs(), data.stacked_targets()
        Phi = (U[data.sample_task_ids()][:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
        expected = lone_solve(Blocks(data.task_sizes), FeatureGram(Phi), y, 10.0)
        assert_same_solution((step.biases, step.shared.duals), expected)
        # the explicit matrix is Phi^T alpha, column k of L holding features k*d..k*d+d-1
        np.testing.assert_allclose(step.shared.explicit, (Phi.T @ step.shared.duals).reshape(2, 4).T, atol=1e-12)

    def test_linear_fit_builds_no_feature_matrix_of_the_shared_step(self, monkeypatch):
        widths = []

        def recording(features):
            widths.append(np.shape(features)[-1])
            return FeatureGram(features)

        monkeypatch.setattr(solver, "FeatureGram", recording)
        state = fit(snr10_dataset(), FitConfig(K=3, C=10.0, kernel=LINEAR, max_iters=3, seed=0))
        assert state.iterations == 3
        assert set(widths) == {3}  # only the K reduced features of the row steps

    def test_shared_step_allocates_less_than_one_feature_matrix(self):
        tracemalloc = pytest.importorskip("tracemalloc")
        spec = SyntheticSpec(
            d=20, mode_sizes=(2, 3), k_true=2, train_per_task=300, test_per_task=1, snr=10.0, seed=84
        )
        data, _, _ = generate_synthetic(spec)
        factors = init_factors(data.grid, 3, seed=84)
        one_member(solve_shared_step, data, factors, LINEAR, C=10.0)  # builds the plan and loads LAPACK
        tracemalloc.start()
        try:
            one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        phi_bytes = data.n_samples * 20 * 3 * 8
        assert peak < phi_bytes / 2

    def test_dense_form_computes_no_moments(self):
        data = uneven_dataset(86, (2, 2), d=6, max_size=2)
        factors = init_factors(data.grid, 2, seed=86)
        assert data.n_samples < 12  # dK > m: the dense form
        G = gram(LINEAR, data.stacked_inputs())
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0, gram_matrix=G)
        U = task_vector_table(factors)
        X, y = data.stacked_inputs(), data.stacked_targets()
        Phi = (U[data.sample_task_ids()][:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
        assert_same_solution((step.biases, step.shared.duals), saddle_oracle(data.task_sizes, Phi @ Phi.T, y, 10.0))
        assert vars(data.fit_plan.moments).keys().isdisjoint({"means", "scatter"})

    def test_wide_inputs_sum_the_moments_in_runs(self):
        # 12 tasks of 8 samples and d=20 > 2 m_t K: the S_t of all tasks would
        # outgrow Phi and its centered copy, so they are summed 9 tasks at a time
        data = random_dataset(87, mode_sizes=(3, 4), d=20, m_t=8)
        factors = init_factors(data.grid, 1, seed=87)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
        U = task_vector_table(factors)
        X, y = data.stacked_inputs(), data.stacked_targets()
        Phi = U[data.sample_task_ids()] * X
        assert data.n_samples >= Phi.shape[1]  # the ridge form
        assert_same_solution((step.biases, step.shared.duals), lone_solve(Blocks(data.task_sizes), FeatureGram(Phi), y, 10.0))
        assert_same_solution((step.biases, step.shared.duals), saddle_oracle(data.task_sizes, Phi @ Phi.T, y, 10.0))
        assert "scatter" not in vars(data.fit_plan.moments)

    @pytest.mark.parametrize("budget", [1, 2 * 25, 5 * 25, 7 * 25, 10**6])
    def test_weighted_scatter_in_runs_equals_the_full_sum(self, budget):
        data = uneven_dataset(88, (7,), d=5)
        moments = TaskMoments(Blocks(data.task_sizes), data.stacked_inputs())
        weights = np.random.default_rng(88).normal(size=(7, 4))
        got = moments.weighted_scatter(weights, budget)
        expected = np.einsum("tr,tij->rij", weights, moments.scatter).reshape(4, 25)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_wide_inputs_allocate_less_than_the_explicit_features(self):
        tracemalloc = pytest.importorskip("tracemalloc")
        # 50 tasks of 20 samples, d=200 and K=3: Phi is 1000 x 600 (4.8 MB), all
        # S_t together 16 MB
        data = random_dataset(89, mode_sizes=(5, 10), d=200, m_t=20)
        factors = init_factors(data.grid, 3, seed=89)
        X, y = data.stacked_inputs(), data.stacked_targets()
        tid = data.sample_task_ids()

        def explicit_step():
            U = task_vector_table(factors)
            Phi = (U[tid][:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
            return lone_solve(Blocks(data.task_sizes), FeatureGram(Phi), y, 10.0)

        peaks = []
        for step in (explicit_step, lambda: one_member(solve_shared_step, data, factors, LINEAR, C=10.0)):
            step()  # loads LAPACK, builds the plan
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0]
        assert "scatter" not in vars(data.fit_plan.moments)

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3])
    def test_explicit_is_the_ridge_weights_in_kronecker_order(self, C):
        data = uneven_dataset(86, (2, 3), d=4)
        factors = init_factors(data.grid, 3, seed=86)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=C)
        U, X, y = task_vector_table(factors), data.stacked_inputs(), data.stacked_targets()
        blocks = Blocks(data.task_sizes)
        solution = lone_solve(blocks, KroneckerGram(U, (TaskMoments(blocks, X),), (0,)), y, C)
        assert np.array_equal(step.shared.explicit, solution.weights[0].reshape(3, 4).T)
        # the explicit features order column k*d + i as u_k x_i
        Phi = (U[data.sample_task_ids()][:, :, None] * X[:, None, :]).reshape(X.shape[0], -1)
        explicit = lone_solve(blocks, FeatureGram(Phi), y, C).weights[0].reshape(3, 4).T
        scale = float(np.max(np.abs(explicit)))
        assert np.max(np.abs(step.shared.explicit - explicit)) <= 1e-12 * scale
        dual_sum = X.T @ (step.shared.duals[:, None] * U[data.sample_task_ids()])
        assert np.max(np.abs(step.shared.explicit - dual_sum)) <= 1e-9 * scale

    def test_ridge_always_refines_the_duals_it_keeps(self, monkeypatch):
        # the model keeps the shared step's duals, so they always take one step
        data = uneven_dataset(86, (2, 3), d=4)
        factors = init_factors(data.grid, 3, seed=86)
        solves = []
        real_solve = linsys._cho_solve

        def counting(factor, rhs):
            solves.append(factor.shape)
            return real_solve(factor, rhs)

        monkeypatch.setattr(linsys, "_cho_solve", counting)
        one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
        assert solves == [(12, 12), (12, 12)]

    @staticmethod
    def explicit_residual(data, factors, step, C):
        """The shared system's residual at the step's biases and duals, with Phi w for Q alpha."""
        U = task_vector_table(factors)[data.sample_task_ids()]
        blocks, duals = Blocks(data.task_sizes), step.shared.duals
        fitted = np.einsum("jk,jk->j", data.stacked_inputs() @ step.shared.explicit, U)
        top = blocks.sums(duals)
        bottom = step.biases[blocks.of] + fitted + duals / C - data.stacked_targets()
        return np.sqrt(top @ top + bottom @ bottom)

    @pytest.mark.parametrize("C", COSTS)
    def test_explicit_meets_the_bound_with_the_duals_it_keeps(self, C):
        data = uneven_dataset(86, (2, 3), d=4)
        factors = init_factors(data.grid, 3, seed=86)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=C)
        bound = RESIDUAL_RTOL * (1 + np.linalg.norm(data.stacked_targets()))
        assert self.explicit_residual(data, factors, step, C) <= bound

    def test_explicit_missing_the_bound_takes_the_kept_duals(self, monkeypatch):
        data = uneven_dataset(86, (2, 3), d=4)
        factors = init_factors(data.grid, 3, seed=86)
        C = 10.0
        exact = one_member(solve_shared_step, data, factors, LINEAR, C=C)
        real_solve, solves = linsys._cho_solve, []

        def perturbed_first_solve(factor, rhs):
            out = real_solve(factor, rhs)
            solves.append(factor.shape)
            if len(solves) == 1:
                out += 1e-6  # the ridge weights, off by far more than the bound allows
            return out

        monkeypatch.setattr(linsys, "_cho_solve", perturbed_first_solve)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=C)
        assert solves == [(12, 12), (12, 12)]
        bound = RESIDUAL_RTOL * (1 + np.linalg.norm(data.stacked_targets()))
        assert self.explicit_residual(data, factors, step, C) <= bound
        U, X = task_vector_table(factors)[data.sample_task_ids()], data.stacked_inputs()
        scale = float(np.max(np.abs(exact.shared.explicit)))
        dual_sum = X.T @ (step.shared.duals[:, None] * U)
        assert np.max(np.abs(step.shared.explicit - dual_sum)) <= 1e-14 * scale
        assert np.max(np.abs(step.shared.explicit - exact.shared.explicit)) <= 1e-12 * scale

    def test_dense_form_takes_the_explicit_matrix_from_the_duals(self):
        data = random_dataset(87, mode_sizes=(2, 2), d=6, m_t=3)  # dK = 18 > m = 12
        factors = init_factors(data.grid, 3, seed=87)
        G = gram(LINEAR, data.stacked_inputs())
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0, gram_matrix=G)
        U, X = task_vector_table(factors), data.stacked_inputs()
        dual_sum = X.T @ (step.shared.duals[:, None] * U[data.sample_task_ids()])
        assert np.array_equal(step.shared.explicit, dual_sum)

    def test_factor_matrices_must_fit_the_grid_as_member_stacks(self):
        data = random_dataset(90, mode_sizes=(2, 3), d=3, m_t=4)
        mats = tuple(f[None] for f in init_factors(data.grid, 2, seed=90).factors)
        costs = np.array([10.0])
        projection = np.ones((1, data.n_samples, 2))
        solve_shared_step(data, mats, LINEAR, costs)
        bad = (
            (mats[0],),  # one matrix on a 2-mode grid
            (mats[0], mats[1], mats[1]),
            (mats[0], mats[1][:, :2]),  # mode 2 has 3 rows
            (mats[0], mats[1][..., :1]),  # ranks disagree
            (mats[0], np.concatenate([mats[1], mats[1]])),  # member counts disagree
            (mats[0][0], mats[1]),
        )
        for mats_bad in bad:
            with pytest.raises(ValueError, match="do not fit data grid"):
                solve_shared_step(data, mats_bad, LINEAR, costs)
            with pytest.raises(ValueError, match="do not fit data grid"):
                reduced_features(data, mats_bad, 1, projection)
        nan = mats[1].copy()
        nan[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_shared_step(data, (mats[0], nan), LINEAR, costs)

    def test_steps_take_members_only(self):
        # a lone cost, a ModeFactors and lone factor matrices or features are not members
        data = random_dataset(91, mode_sizes=(2, 3), d=3, m_t=4)
        factors = init_factors(data.grid, 2, seed=91)
        mats = tuple(f[None] for f in factors.factors)
        z = np.random.default_rng(91).normal(size=(1, data.n_samples, 2))
        costs = np.array([10.0])
        for given, C in ((mats, 10.0), (factors, costs), (factors.factors, costs)):
            with pytest.raises(ValueError):
                solve_shared_step(data, given, LINEAR, C)
        for given, C in ((z, 10.0), (factors, costs), (z[0], costs)):
            with pytest.raises(ValueError):
                solve_mode_row_step(data, given, 1, C)
        for given in (factors, factors.factors):
            with pytest.raises(ValueError):
                reduced_features(data, given, 1, z)
        with pytest.raises(ValueError, match="gram_matrix is required"):
            solve_shared_step(data, mats, KernelSpec("rbf", gamma=0.5), costs)
        assert solve_shared_step(data, mats, LINEAR, costs).errors == (None,)
        assert solve_mode_row_step(data, z, 1, costs).errors == (None,)

    def test_members_on_several_datasets_share_one_block_structure_and_no_gram(self):
        a = random_dataset(92, mode_sizes=(2, 3), d=3, m_t=4)
        b = random_dataset(93, mode_sizes=(2, 3), d=3, m_t=4)
        rbf = KernelSpec("rbf", gamma=0.5)
        G_a = gram(rbf, a.stacked_inputs())
        mats = tuple(np.repeat(f[None], 2, axis=0) for f in init_factors(a.grid, 2, seed=92).factors)
        costs = np.array([1.0, 10.0])
        # a step through the kernel Gram solves the members of one dataset
        with pytest.raises(ValueError, match="takes one dataset for all members"):
            solve_shared_step(Members((a, b), np.array([0, 1])), mats, rbf, costs, gram_matrix=G_a)
        for given in (a, Members((a,), np.array([0, 0]))):
            assert solve_shared_step(given, mats, rbf, costs, gram_matrix=G_a).errors == (None, None)
        # member 0 is b's, member 1 a's: each member's record holds its own
        # dataset's inputs, never a copy
        step = solve_shared_step(Members((a, b), np.array([1, 0])), mats, LINEAR, costs)
        assert step.errors == (None, None)
        assert len(step.shared.train_inputs) == 2
        for member, own in enumerate((b, a)):
            assert solver._member_record(step.shared, member).train_inputs is own.stacked_inputs()
        longer = random_dataset(94, mode_sizes=(2, 3), d=3, m_t=5)
        z = np.ones((2, a.n_samples, 2))
        with pytest.raises(ValueError, match="share a lockstep only"):
            solve_shared_step(Members((a, longer), np.array([0, 1])), mats, LINEAR, costs)
        with pytest.raises(ValueError, match="share a lockstep only"):
            solve_mode_row_step(Members((a, longer), np.array([0, 1])), z, 1, costs)
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            solve_shared_step(a, mats, rbf, costs, gram_matrix=gram(rbf, longer.stacked_inputs()))

    @pytest.mark.parametrize("kernel", [KernelSpec("rbf", gamma=0.5), LINEAR])
    def test_a_gram_that_is_not_exactly_symmetric_is_refused_and_left_as_it_was(self, kernel):
        # the linear kernel with d K > m solves through the Gram too
        data = random_dataset(95, mode_sizes=(2, 3), d=5, m_t=2)
        mats = tuple(np.repeat(f[None], 2, axis=0) for f in init_factors(data.grid, 3, seed=95).factors)
        costs = np.array([1.0, 10.0])
        G = gram(kernel, data.stacked_inputs())
        G[1, 7] = np.nextafter(G[1, 7], np.inf)
        before = G.tobytes()
        with pytest.raises(ValueError, match="exactly symmetric"):
            solve_shared_step(data, mats, kernel, costs, gram_matrix=G)
        assert G.tobytes() == before

    def test_failed_solve_names_iteration_and_shared_step(self, monkeypatch):
        monkeypatch.setattr(
            linsys._KroneckerFeatures, "grams",
            lambda self: [-np.tile(np.eye(self.width), (len(self.task_vectors), 1, 1))],
        )
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=3, seed=0)
        with pytest.raises(SolverError, match=r"^iteration 1, shared step: feature system is not positive definite"):
            fit(snr10_dataset(), cfg)


def lone_reduced_features(data, shared, factors, mode):
    """`reduced_features` of one member: its factors and linear shared projection, stacked as one member's."""
    projection = shared_projection(shared, LINEAR, data.stacked_inputs())
    return reduced_features(data, [f[None] for f in factors.factors], mode, projection[None])[0]


class TestReducedFeatures:
    def test_single_mode_equals_projection(self):
        data = random_dataset(9, mode_sizes=(3,), d=3, m_t=4)
        factors = init_factors(data.grid, 2, 0)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
        proj = shared_projection(step.shared, LINEAR, data.stacked_inputs())
        z = lone_reduced_features(data, step.shared, factors, mode=1)
        np.testing.assert_array_equal(z, proj)

    def test_zero_duals_give_zero_features(self, tiny_dataset):
        snapshot = np.ones((4, 2))
        shared = SharedFactor(
            np.zeros(tiny_dataset.n_samples), snapshot,
            tiny_dataset.stacked_inputs(), tiny_dataset.sample_task_ids(),
        )
        z = lone_reduced_features(tiny_dataset, shared, init_factors(tiny_dataset.grid, 2, 0), mode=1)
        np.testing.assert_array_equal(z, np.zeros_like(z))

    def test_dual_and_explicit_paths_agree(self):
        data = random_dataset(10, mode_sizes=(2, 3), d=4, m_t=5)
        factors = init_factors(data.grid, 2, 2)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=50.0)
        z_explicit = lone_reduced_features(data, step.shared, factors, mode=2)
        z_dual = lone_reduced_features(data, without_explicit(step.shared), factors, mode=2)
        assert np.max(np.abs(z_explicit - z_dual)) < 1e-10


class TestModeRowStep:
    def test_hand_assembled_three_by_three(self):
        # grid (2,): the row-1 subproblem sees only task 1 and its two samples
        grid = TaskGrid((2,))
        data = MtlDataset(
            grid,
            (np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])),
            (np.array([1.5, -0.5]), np.array([2.0, 2.0])),
        )
        z = np.array([[0.8], [-0.3], [0.1], [0.2]])
        C = 4.0
        result = sweep_row(one_member(solve_mode_row_step, data, z, 1, C=C), 1)
        M = np.array(
            [
                [0.0, 1.0, 1.0],
                [1.0, 0.8 * 0.8 + 1 / C, 0.8 * -0.3],
                [1.0, -0.3 * 0.8, (-0.3) * (-0.3) + 1 / C],
            ]
        )
        sol = np.linalg.solve(M, np.array([0.0, 1.5, -0.5]))
        assert result.tasks.tolist() == [1]
        assert abs(result.biases[0] - sol[0]) < 1e-10
        np.testing.assert_allclose(result.duals, sol[1:], atol=1e-10)
        assert abs(result.row_values[0] - (0.8 * sol[1] - 0.3 * sol[2])) < 1e-10

    @pytest.mark.parametrize("K", [2, 12])  # rows of more samples than K, then of fewer
    def test_all_zero_features_give_zero_rows_and_task_mean_biases(self, tiny_dataset, K):
        z = np.zeros((tiny_dataset.n_samples, K))
        step = one_member(solve_mode_row_step, tiny_dataset, z, 1, C=1.0)
        assert np.array_equal(step.row_values, np.zeros((2, K)))
        means = [tiny_dataset.targets[t - 1].mean() for t in step.layout.tasks]
        np.testing.assert_allclose(step.biases, means, rtol=1e-13, atol=1e-15)
        assert step.system_residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(step.layout.targets))

    def test_row_subproblem_objective_decreases(self):
        data = random_dataset(11, mode_sizes=(2, 3), d=4, m_t=6)
        factors = init_factors(data.grid, 2, 3)
        C = 20.0
        step = one_member(solve_shared_step, data, factors, LINEAR, C=C)
        biases = step.biases
        for mode in (1, 2):
            z = lone_reduced_features(data, step.shared, factors, mode)
            for row in range(1, data.grid.mode_sizes[mode - 1] + 1):
                result = sweep_row(one_member(solve_mode_row_step, data, z, mode, C=C), row)

                def sub_objective(u_row, b_of_task):
                    total = 0.5 * float(u_row @ u_row)
                    for t in result.tasks:
                        sl = slice(
                            task_offsets(data)[t - 1],
                            task_offsets(data)[t - 1] + data.task_sizes[t - 1],
                        )
                        e = data.stacked_targets()[sl] - z[sl] @ u_row - b_of_task[t - 1]
                        total += 0.5 * C * float(e @ e)
                    return total

                old_row = factors.factors[mode - 1][row - 1]
                new_biases = biases.copy()
                new_biases[result.tasks - 1] = result.biases
                assert sub_objective(result.row_values, new_biases) <= sub_objective(
                    old_row, biases
                ) * (1 + 1e-12)

    def test_rank_above_sample_count_matches_the_dense_solve(self):
        # row 1 of mode 1 sees tasks (1,1) and (1,2): 2 + 2 samples, K = 6
        data = random_dataset(14, mode_sizes=(2, 2), d=3, m_t=2)
        z = np.random.default_rng(14).normal(size=(data.n_samples, 6))
        result = sweep_row(one_member(solve_mode_row_step, data, z, 1, C=10.0), 1)
        sel = np.array([0, 1, 4, 5])  # tasks 1 and 3 in linear order
        Z = z[sel]
        biases, duals, _, _ = lone_solve(Blocks([2, 2]), Z @ Z.T, data.stacked_targets()[sel], 10.0)
        np.testing.assert_allclose(result.biases, biases, atol=1e-12)
        np.testing.assert_allclose(result.duals, duals, atol=1e-12)
        np.testing.assert_allclose(result.row_values, Z.T @ duals, atol=1e-12)

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    def test_primal_row_solve_matches_dense_oracle(self, C):
        data = random_dataset(15, mode_sizes=(3, 2), d=3, m_t=6)
        z = np.random.default_rng(15).normal(size=(data.n_samples, 2))
        result = sweep_row(one_member(solve_mode_row_step, data, z, 2, C=C), 2)
        sel = np.concatenate(
            [np.arange(task_offsets(data)[t - 1], task_offsets(data)[t - 1] + 6) for t in result.tasks]
        )
        Z = z[sel]
        expected = lone_solve(Blocks([6, 6, 6]), Z @ Z.T, data.stacked_targets()[sel], C)
        assert_same_solution((result.biases, result.duals), expected)

    def test_stationarity_row_is_dual_weighted_sum(self):
        data = random_dataset(12, mode_sizes=(2, 2), d=3, m_t=4)
        factors = init_factors(data.grid, 2, 1)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
        z = lone_reduced_features(data, step.shared, factors, 1)
        result = sweep_row(one_member(solve_mode_row_step, data, z, 1, C=10.0), 2)
        sel = np.concatenate(
            [
                np.arange(task_offsets(data)[t - 1], task_offsets(data)[t - 1] + 4)
                for t in result.tasks
            ]
        )
        np.testing.assert_allclose(result.row_values, z[sel].T @ result.duals, atol=1e-12)


def uneven_dataset(seed: int, mode_sizes, d: int = 3, max_size: int = 7) -> MtlDataset:
    """Random dataset whose tasks hold 1..max_size samples each."""
    grid = TaskGrid(tuple(mode_sizes))
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, max_size + 1, size=grid.n_tasks)
    return MtlDataset(
        grid,
        tuple(rng.normal(size=(n, d)) for n in sizes),
        tuple(rng.normal(size=n) for n in sizes),
    )


def group_residuals(blocks, Phi, y, C, solution):
    """Each group's saddle residual at the solution's biases and duals, with Phi_g w_g for Q alpha."""
    biases, duals, _, weights = solution
    fitted = np.concatenate([Phi[rows] @ w for w, (rows, _) in zip(weights, blocks.group_slices)])
    top = blocks.sums(duals)
    bottom = biases[blocks.of] + fitted + duals / C - y
    per_group = np.add.reduceat(top**2, blocks.group_blocks)
    per_group += np.add.reduceat(bottom**2, blocks.group_starts)
    return np.sqrt(per_group)


def group_bounds(blocks, y):
    """Each group's residual bound RESIDUAL_RTOL (1 + ||y_g||)."""
    return RESIDUAL_RTOL * (1 + np.sqrt(np.add.reduceat(y**2, blocks.group_starts)))


def row_residuals(step, z, C):
    """Each row's saddle residual at the step's biases and duals, with Z_r row_r for Q alpha."""
    lay = step.layout
    solution = (step.biases, step.duals, None, step.row_values)
    return group_residuals(lay.blocks, z[lay.samples], lay.targets, C, solution)


def row_bounds(step):
    """Each row's residual bound RESIDUAL_RTOL (1 + ||y_r||)."""
    return group_bounds(step.layout.blocks, step.layout.targets)


def row_oracle(data, z, mode, row, C):
    """One row's subproblem as its own assembled saddle system: (biases, duals, tasks, Z)."""
    tasks = coslice_tasks(data.grid, mode, row)
    offsets, sizes = task_offsets(data), data.task_sizes
    sel = np.concatenate([np.arange(offsets[t - 1], offsets[t - 1] + sizes[t - 1]) for t in tasks])
    Z = z[sel]
    block_sizes = [sizes[t - 1] for t in tasks]
    biases, duals = saddle_oracle(block_sizes, Z @ Z.T, data.stacked_targets()[sel], C)
    return biases, duals, tasks, Z


def assert_rows_match_oracle(data, z, mode, C):
    step = one_member(solve_mode_row_step, data, z, mode, C=C)
    for row in range(1, data.grid.mode_sizes[mode - 1] + 1):
        got = sweep_row(step, row)
        biases, duals, tasks, Z = row_oracle(data, z, mode, row, C)
        np.testing.assert_array_equal(got.tasks, tasks)
        assert_same_solution((got.biases, got.duals), (biases, duals))
        # |Z^T (a - a')| <= max_k sum_j |Z_jk| * max_j |a_j - a'_j|
        scale = max(1.0, float(np.max(np.abs(biases))), float(np.max(np.abs(duals))))
        bound = 1e-9 * scale * max(1.0, float(np.abs(Z).sum(axis=0).max()))
        assert np.max(np.abs(got.row_values - Z.T @ duals)) <= bound


def assert_rows_are_their_own_ridges(step, z, C):
    """Each row's values are its lone ridge's weights, bit for bit, and meet the row's bound."""
    lay = step.layout
    Z = z[lay.samples]
    for r, (rows, tasks) in enumerate(lay.blocks.group_slices):
        alone = lone_solve(Blocks(lay.blocks.sizes[tasks]), FeatureGram(Z[rows]), lay.targets[rows], C)
        assert np.array_equal(step.row_values[r], alone.weights[0])
    assert (row_residuals(step, z, C) <= row_bounds(step)).all()


# (seed, grid, samples per task at most, mode) of mode sweeps with K = 8 where
# rows hold fewer samples than K: every row of both modes of the first grid
# (at most 3 * 2 samples), and two of the six rows of the second grid's mode 1
WIDE_ROWS = [(62, (2, 3), 2, 1), (62, (2, 3), 2, 2), (67, (6, 2), 7, 1)]


def wide_rows(seed, mode_sizes, max_size, mode):
    """A WIDE_ROWS case's dataset and K = 8 reduced features."""
    data = uneven_dataset(seed, mode_sizes, max_size=max_size)
    assert (data.fit_plan.layouts[mode - 1].blocks.group_sizes < 8).any()
    return data, np.random.default_rng(seed).normal(size=(data.n_samples, 8))


class TestBatchedModeStep:
    @pytest.mark.parametrize(
        "mode_sizes, modes, K",
        [((4,), (1,), 2), ((3, 2), (1, 2), 2), ((2, 3, 2), (1, 2, 3), 3), ((12, 2), (1,), 3)],
    )
    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    def test_every_row_matches_its_assembled_oracle(self, mode_sizes, modes, K, C):
        data = uneven_dataset(60 + len(mode_sizes), mode_sizes)
        z = np.random.default_rng(61).normal(size=(data.n_samples, K))
        for mode in modes:
            assert_rows_match_oracle(data, z, mode, C)

    def test_large_rows_exact_against_high_precision_reference(self):
        # Mode 2 of the 12 x 2 grid has two rows of 12 tasks (up to 84 samples).
        # At C=1e6 their assembled saddle matrices have condition numbers near
        # 1e8, and np.linalg.solve on them is off by up to 3e-9 of the solution
        # scale, so the reference here is a 40-digit solve.
        mpmath = pytest.importorskip("mpmath")
        data = uneven_dataset(62, (12, 2))
        z = np.random.default_rng(61).normal(size=(data.n_samples, 3))
        C = 1e6
        step = one_member(solve_mode_row_step, data, z, 2, C=C)
        for row in (1, 2):
            got = sweep_row(step, row)
            _, _, tasks, Z = row_oracle(data, z, 2, row, C)
            sizes = [data.task_sizes[t - 1] for t in tasks]
            y = np.concatenate([data.targets[t - 1] for t in tasks])
            T, m = len(sizes), sum(sizes)
            A = block_constraint_matrix(sizes)
            with mpmath.workdps(40):
                Zm = mpmath.matrix(Z.tolist())
                Q = Zm * Zm.T
                M = mpmath.zeros(T + m)
                for i in range(m):
                    for t in range(T):
                        M[T + i, t] = M[t, T + i] = A[i, t]
                    for j in range(m):
                        M[T + i, T + j] = Q[i, j] + (mpmath.mpf(1) / C if i == j else 0)
                exact = mpmath.lu_solve(M, mpmath.matrix([0] * T + y.tolist()))
                expected = np.array([float(v) for v in exact])
            scale = float(np.max(np.abs(expected)))
            assert np.max(np.abs(np.concatenate([got.biases, got.duals]) - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("seed, mode_sizes, max_size, mode", WIDE_ROWS)
    @pytest.mark.parametrize("C", COSTS)
    def test_rows_wider_than_their_samples_match_their_assembled_oracle(
        self, seed, mode_sizes, max_size, mode, C
    ):
        data, z = wide_rows(seed, mode_sizes, max_size, mode)
        assert_rows_match_oracle(data, z, mode, C)

    def test_one_solve_per_mode_with_one_group_per_row(self, monkeypatch):
        data = uneven_dataset(63, (3, 4))
        z = np.random.default_rng(63).normal(size=(data.n_samples, 2))
        calls = []

        def recording(blocks, Q, y, C):
            calls.append((len(blocks), Q.features.shape, tuple(blocks.groups.tolist())))
            return solve_dual_system(blocks, Q, y, C)

        monkeypatch.setattr(solver, "solve_dual_system", recording)
        one_member(solve_mode_row_step, data, z, 2, C=10.0)
        assert calls == [(12, (1, data.n_samples, 2), (3, 3, 3, 3))]

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    def test_row_values_are_each_rows_ridge_weights(self, C):
        data = uneven_dataset(69, (3, 4))
        z = np.random.default_rng(69).normal(size=(data.n_samples, 2))
        assert_rows_are_their_own_ridges(one_member(solve_mode_row_step, data, z, 2, C=C), z, C)

    @pytest.mark.parametrize("seed, mode_sizes, max_size, mode", WIDE_ROWS)
    @pytest.mark.parametrize("C", COSTS)
    def test_rows_wider_than_their_samples_are_their_own_ridge_weights(
        self, seed, mode_sizes, max_size, mode, C
    ):
        data, z = wide_rows(seed, mode_sizes, max_size, mode)
        assert_rows_are_their_own_ridges(one_member(solve_mode_row_step, data, z, mode, C=C), z, C)

    @staticmethod
    def perturbed_second_row(monkeypatch, delta):
        """Add `delta` to row 2's first ridge solve; returns the groups of the solves made."""
        real_cholesky, real_solve = linsys._cholesky, linsys._cho_solve
        factors, solves = [], []

        def recording(H, what, group=0):
            factors.append(real_cholesky(H, what, group))
            return factors[-1]

        def perturbed_first_solve(factor, rhs):
            group = next(g for g, f in enumerate(factors) if f is factor)
            out = real_solve(factor, rhs)
            solves.append(group)
            if solves == [0, 1]:
                out += delta
            return out

        monkeypatch.setattr(linsys, "_cholesky", recording)
        monkeypatch.setattr(linsys, "_cho_solve", perturbed_first_solve)
        return solves

    def test_row_missing_its_bound_is_refined_and_meets_it(self, monkeypatch):
        # grid (2, 2): mode 2's two rows are the two groups; tasks 3 and 4 form row 2
        data = uneven_dataset(71, (2, 2))
        z = np.random.default_rng(71).normal(size=(data.n_samples, 2))
        C = 1.0
        exact = one_member(solve_mode_row_step, data, z, 2, C=C)
        solves = self.perturbed_second_row(monkeypatch, 1e-6)  # far more than the bound allows
        step = one_member(solve_mode_row_step, data, z, 2, C=C)
        assert solves == [0, 1, 0, 1]  # one solve per row, then one refinement step
        assert (row_residuals(step, z, C) <= row_bounds(step)).all()
        assert_same_solution((step.biases, step.duals), (exact.biases, exact.duals))
        (rows_1, tasks_1), (rows_2, _) = step.layout.blocks.group_slices
        # row 1 met its bound and keeps its first solution
        assert np.array_equal(step.row_values[0], exact.row_values[0])
        assert np.array_equal(step.biases[tasks_1], exact.biases[tasks_1])
        assert np.array_equal(step.duals[rows_1], exact.duals[rows_1])
        # row 2's weights miss the bound with its refined duals, so it takes Z_2^T alpha_2
        Z = z[step.layout.samples]
        assert np.array_equal(step.row_values[1], Z[rows_2].T @ step.duals[rows_2])
        np.testing.assert_allclose(step.row_values[1], exact.row_values[1], rtol=0, atol=1e-15)

    def test_row_weights_that_meet_the_bound_survive_a_refinement_step(self, monkeypatch):
        # alpha = C e: at C = 1e4 an error of 1e-10 in row 2's weights puts its dual
        # residual past the bound, while the weights still meet it with the refined duals
        data = uneven_dataset(71, (2, 2))
        z = np.random.default_rng(71).normal(size=(data.n_samples, 2))
        C = 1e4
        exact = one_member(solve_mode_row_step, data, z, 2, C=C)
        solves = self.perturbed_second_row(monkeypatch, 1e-10)
        step = one_member(solve_mode_row_step, data, z, 2, C=C)
        assert solves == [0, 1, 0, 1]
        assert (row_residuals(step, z, C) <= row_bounds(step)).all()
        assert np.array_equal(step.row_values[0], exact.row_values[0])
        assert np.array_equal(step.row_values[1], exact.row_values[1] + 1e-10)

    def test_rows_within_their_bounds_take_no_refinement_step(self, monkeypatch):
        data = uneven_dataset(63, (3, 4))
        z = np.random.default_rng(63).normal(size=(data.n_samples, 2))
        solves = []
        real_solve = linsys._cho_solve

        def counting(factor, rhs):
            solves.append(factor.shape)
            return real_solve(factor, rhs)

        monkeypatch.setattr(linsys, "_cho_solve", counting)
        one_member(solve_mode_row_step, data, z, 2, C=10.0)
        assert solves == [(2, 2)] * 4  # one K x K solve per row

    def test_residual_is_the_worst_row_residual(self):
        data = uneven_dataset(64, (3, 2))
        z = np.random.default_rng(64).normal(size=(data.n_samples, 2))
        C = 50.0
        step = one_member(solve_mode_row_step, data, z, 1, C=C)
        worst = 0.0
        for row in (1, 2, 3):
            got = sweep_row(step, row)
            tasks = got.tasks
            sizes = [data.task_sizes[t - 1] for t in tasks]
            _, _, _, Z = row_oracle(data, z, 1, row, C)
            y = np.concatenate([data.targets[t - 1] for t in tasks])
            T, m = len(sizes), sum(sizes)
            A = block_constraint_matrix(sizes)
            M = np.block([[np.zeros((T, T)), A.T], [A, Z @ Z.T + np.eye(m) / C]])
            r = M @ np.concatenate([got.biases, got.duals]) - np.concatenate([np.zeros(T), y])
            worst = max(worst, float(np.linalg.norm(r)))
            assert got.system_residual == step.system_residual
            assert got.constraint_residual == pytest.approx(np.max(np.abs(A.T @ got.duals)), abs=1e-12)
        assert step.system_residual == pytest.approx(worst, abs=1e-13)

    def test_zero_rows_solve_exactly_beside_the_others(self):
        data = uneven_dataset(65, (3, 2))
        layout = data.fit_plan.layouts[0]
        z = np.random.default_rng(65).normal(size=(data.n_samples, 2))
        z[layout.samples[layout.blocks.group_starts[1] :]] = 0.0  # rows 2 and 3
        step = one_member(solve_mode_row_step, data, z, 1, C=10.0)
        assert np.array_equal(step.row_values[1:], np.zeros((2, 2)))
        for row in (2, 3):
            got = sweep_row(step, row)
            means = [data.targets[t - 1].mean() for t in got.tasks]
            np.testing.assert_allclose(got.biases, means, rtol=1e-13, atol=1e-15)
        biases, duals, _, _ = row_oracle(data, z, 1, 1, 10.0)
        got = sweep_row(step, 1)
        assert_same_solution((got.biases, got.duals), (biases, duals))

    @staticmethod
    def poison_mode_1_rows_2_and_3(monkeypatch, data):
        """Give rows 2 and 3 of mode 1 an infinite reduced feature."""
        layout = data.fit_plan.layouts[0]
        real = solver.reduced_features

        def poisoned(data, factors, mode, projection):
            z = real(data, factors, mode, projection)
            if mode == 1:
                z[:, layout.samples[layout.blocks.group_starts[1] :], 0] = np.inf
            return z

        monkeypatch.setattr(solver, "reduced_features", poisoned)

    @staticmethod
    def perturb_row_2_solves(monkeypatch, data):
        """Add 1e-4 to every solve with a row-2 factor (group 1), so row 2 misses its bound."""
        real_cholesky, real_solve = linsys._cholesky, linsys._cho_solve
        second_row = []

        def recording(H, what, group=0):
            factor = real_cholesky(H, what, group)
            if group == 1:
                second_row.append(factor)
            return factor

        def perturbed(factor, rhs):
            out = real_solve(factor, rhs)
            if any(factor is f for f in second_row):
                out += 1e-4
            return out

        monkeypatch.setattr(linsys, "_cholesky", recording)
        monkeypatch.setattr(linsys, "_cho_solve", perturbed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "failure, K, message",
        [("non-finite", 2, "dual system has non-finite entries"),
         ("non-finite", 8, "dual system has non-finite entries"),  # rows of fewer samples than K
         ("missed-bound", 2, "dual system solve residual .* exceeds .*; decrease C$")],
    )
    def test_fit_names_the_lowest_failing_row_with_the_solvers_message(self, monkeypatch, failure, K, message):
        data = uneven_dataset(66, (3, 2), max_size=3 if K == 8 else 7)
        if failure == "non-finite":
            self.poison_mode_1_rows_2_and_3(monkeypatch, data)
        else:
            self.perturb_row_2_solves(monkeypatch, data)
        with pytest.raises(SolverError) as info:
            fit(data, FitConfig(K=K, C=1.0, kernel=LINEAR, max_iters=3, seed=0))
        cause = info.value.__cause__
        assert str(info.value) == f"iteration 1, mode 1/row 2: {cause}"
        assert cause.group == 1
        assert re.match(message, str(cause))

    def test_fit_names_the_failing_row(self, monkeypatch):
        def fail_row_two(blocks, Q, y, C):
            if isinstance(Q, FeatureGram):
                raise SolverError("residual too large; decrease C", group=1)
            return solve_dual_system(blocks, Q, y, C)

        monkeypatch.setattr(solver, "solve_dual_system", fail_row_two)
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=3, seed=0)
        with pytest.raises(SolverError, match=r"^iteration 1, mode 1/row 2: residual too large; decrease C$"):
            fit(snr10_dataset(), cfg)

    @pytest.mark.parametrize(
        "seed, mode_sizes, max_size, mode, K",
        [(68, (60,), 7, 1, 3)] + [case + (8,) for case in WIDE_ROWS],
    )
    def test_factors_are_per_row(self, monkeypatch, seed, mode_sizes, max_size, mode, K):
        # one K x K ridge factor per row, for rows of more samples than K and of
        # fewer alike (a task of 1 to max_size samples); never one of the mode
        data = uneven_dataset(seed, mode_sizes, max_size=max_size)
        z = np.random.default_rng(seed).normal(size=(data.n_samples, K))
        shapes = []
        real = linsys._cholesky

        def recording(H, what, group=0):
            shapes.append(H.shape)
            return real(H, what, group)

        monkeypatch.setattr(linsys, "_cholesky", recording)
        step = one_member(solve_mode_row_step, data, z, mode, C=10.0)
        rows = data.grid.mode_sizes[mode - 1]
        assert shapes == [(K, K)] * rows
        assert step.row_values.shape == (rows, K)


def two_group_system(rng, block_sizes, width):
    """Features for groups of two blocks each; group 1's targets are 1e4 times larger."""
    sizes = np.array(block_sizes)
    m = int(sizes.sum())
    group_of = np.repeat(np.arange(len(sizes) // 2), sizes.reshape(-1, 2).sum(axis=1))
    Phi = rng.normal(size=(m, width))
    y = rng.normal(size=m) * np.where(group_of == 0, 1e4, 1.0)
    return Phi, y, group_of


def block_diagonal_gram(Phi, group_of):
    Q = np.zeros((Phi.shape[0], Phi.shape[0]))
    for g in np.unique(group_of):
        own = group_of == g
        Q[np.ix_(own, own)] = Phi[own] @ Phi[own].T
    return Q


class TestMemberSolves:
    """A solve for members is each member's lone solve, and a failed member leaves it alone."""

    def members(self, form):
        data = uneven_dataset(72, (3, 4), d=3)
        rng = np.random.default_rng(72)
        X, y = data.stacked_inputs(), data.stacked_targets()
        U = rng.normal(size=(3, data.grid.n_tasks, 2))
        U[1, 4] = np.nan  # member 1 fails
        if form == "features":
            layout = data.fit_plan.layouts[1]
            Z = rng.normal(size=(3, data.n_samples, 2))
            Z[1, 7] = np.inf
            return layout.blocks, lambda b: FeatureGram(Z if b is None else Z[b]), layout.targets
        blocks = Blocks(data.task_sizes)
        if form == "kronecker":
            moments, owner = (TaskMoments(blocks, X),), np.zeros(3, int)
            return blocks, lambda b: (
                KroneckerGram(U, moments, owner) if b is None else KroneckerGram(U[b], moments, owner[:1])
            ), y
        G = gram(KernelSpec("rbf", gamma=0.3), X)
        return blocks, lambda b: CoherenceGram(U if b is None else U[b], G), y

    @pytest.mark.parametrize("form", ["features", "kronecker", "coherence"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the failing member's inf
    def test_members_equal_lone_solves_and_a_failed_member_keeps_its_error(self, form):
        blocks, system, y = self.members(form)
        costs = np.array([0.5, 10.0, 1e3])
        before = system(None)
        G = getattr(before, "gram", None)
        G_bits = None if G is None else G.copy()
        got = solve_dual_system(blocks, before, y, costs)
        assert isinstance(got, MemberSolution) and len(got.errors) == 3
        if G is not None:
            assert np.array_equal(G.view(np.int64), G_bits.view(np.int64))
        with pytest.raises(SolverError) as lone_error:
            lone_solve(blocks, system(1), y, costs[1])
        assert str(got.errors[1]) == str(lone_error.value)
        assert got.errors[1].group == lone_error.value.group
        for b in (0, 2):
            lone = lone_solve(blocks, system(b), y, costs[b])
            assert got.errors[b] is None
            assert got.biases[b].tobytes() == lone.biases.tobytes()
            assert got.duals[b].tobytes() == lone.duals.tobytes()
            assert got.residual[b] == lone.residual
            if lone.weights is not None:
                assert got.weights[b].tobytes() == lone.weights.tobytes()

    def test_a_member_whose_factorization_fails_leaves_the_others_their_solves(self, monkeypatch):
        data = uneven_dataset(74, (3, 4), d=3)
        layout = data.fit_plan.layouts[1]
        Z = np.random.default_rng(74).normal(size=(3, data.n_samples, 2))
        costs = np.array([0.5, 10.0, 1e3])
        lone = [lone_solve(layout.blocks, FeatureGram(Z[b]), layout.targets, costs[b]) for b in (0, 2)]
        real_grams = linsys._MatrixFeatures.grams

        def member_1_not_definite(self):
            grams = real_grams(self)
            if len(grams[2]) == 3:
                grams[2][1] = -np.eye(2)  # member 1, row 3
            return grams

        monkeypatch.setattr(linsys._MatrixFeatures, "grams", member_1_not_definite)
        got = solve_dual_system(layout.blocks, FeatureGram(Z), layout.targets, costs)
        assert str(got.errors[1]) == "feature system is not positive definite (dpotrf info 1); decrease C"
        assert got.errors[1].group == 2
        assert np.isnan(got.biases[1]).all() and np.isnan(got.duals[1]).all()
        for b, expected in zip((0, 2), lone):
            assert got.errors[b] is None
            for part in ("biases", "duals", "weights"):
                assert getattr(got, part)[b].tobytes() == getattr(expected, part).tobytes()

    def dense(self, seed, rank=9):
        """A dense Q = M M^T of rank `rank` on three blocks, and targets."""
        rng = np.random.default_rng(seed)
        blocks = Blocks([2, 3, 4])
        M = rng.normal(size=(blocks.m, rank))
        return blocks, M @ M.T, rng.normal(size=blocks.m)

    def assert_lone(self, got, b, lone):
        assert got.errors[b] is None
        assert got.biases[b].tobytes() == lone.biases.tobytes()
        assert got.duals[b].tobytes() == lone.duals.tobytes()
        assert got.residual[b] == lone.residual

    def test_dense_members_equal_their_lone_solves(self):
        blocks, Q, y = self.dense(73)
        costs = np.array([1e-2, 1.0, 10.0, 1e3, 1e5])
        kept = Q.copy()
        got = solve_dual_system(blocks, Q, y, costs)
        assert isinstance(got, MemberSolution) and got.weights is None and len(got.errors) == 5
        assert Q.tobytes() == kept.tobytes()
        for b, cost in enumerate(costs):
            self.assert_lone(got, b, lone_solve(blocks, Q, y, cost))

    def test_a_dense_member_whose_factorization_fails_keeps_its_error(self):
        # M M^T - eps I of rank 4 < m: H = Q + I/C is positive definite only for 1/C > eps
        blocks, Q, y = self.dense(76, rank=4)
        Q -= 1e-3 * np.eye(blocks.m)
        costs = np.array([1.0, 1e4, 10.0])
        got = solve_dual_system(blocks, Q, y, costs)
        with pytest.raises(SolverError) as lone_error:
            lone_solve(blocks, Q, y, costs[1])
        assert str(got.errors[1]) == str(lone_error.value)
        assert str(got.errors[1]).startswith("Q + I/C is not positive definite (dpotrf info ")
        assert got.errors[1].group == 0 and got.errors[1].__traceback__ is None
        assert np.isnan(got.biases[1]).all() and np.isnan(got.duals[1]).all()
        for b in (0, 2):
            self.assert_lone(got, b, lone_solve(blocks, Q, y, costs[b]))

    def test_only_the_dense_member_that_misses_its_bound_takes_the_step(self, monkeypatch):
        blocks, Q, y = self.dense(77)
        costs = np.array([0.5, 10.0, 1e3])
        lone = [lone_solve(blocks, Q, y, cost) for cost in costs]
        real_cho_solve = linsys._cho_solve
        first_solves = steps = 0

        def member_1_off(factor, rhs):
            nonlocal first_solves, steps
            solution = real_cho_solve(factor, rhs)
            if rhs.ndim == 2:  # a member's first solve, [y | A]
                first_solves += 1
                if first_solves == 2:
                    solution[:, 0] += 1e-3  # H^-1 y, off by far more than the residual bound
            elif len(rhs) == blocks.m:  # a refinement step's H^-1 h
                steps += 1
            return solution

        monkeypatch.setattr(linsys, "_cho_solve", member_1_off)
        got = solve_dual_system(blocks, Q, y, costs)
        assert first_solves == 3 and steps == 1  # member 1's step alone
        for b in (0, 2):  # no step: their first solutions, as alone
            self.assert_lone(got, b, lone[b])
        assert got.errors[1] is None
        np.testing.assert_allclose(got.duals[1], lone[1].duals, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got.biases[1], lone[1].biases, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("form", ["features", "kronecker"])
    def test_members_on_two_datasets_equal_their_lone_solves(self, form):
        # members 0 and 3 solve dataset a, 1 and 2 dataset b: three runs of
        # owners, each reading its owner's moments, never a copy
        a = uneven_dataset(75, (3, 4), d=3)
        rng = np.random.default_rng(75)
        b = MtlDataset(
            a.grid, tuple(X + rng.normal(size=X.shape) for X in a.inputs), tuple(2.0 * y + 1.0 for y in a.targets)
        )
        datasets, of = (a, b), np.array([0, 1, 1, 0])
        blocks = Blocks(a.task_sizes)
        costs = np.array([0.5, 10.0, 1e3, 1e5])
        y = np.stack([datasets[k].stacked_targets() for k in of])
        U = rng.normal(size=(4, a.grid.n_tasks, 2))
        if form == "features":
            blocks = a.fit_plan.layouts[1].blocks
            y = np.stack([datasets[k].fit_plan.layouts[1].targets for k in of])
            Z = rng.normal(size=(4, a.n_samples, 2))
            members, lone = FeatureGram(Z), [FeatureGram(Z[i]) for i in range(4)]
        else:
            moments = tuple(TaskMoments(blocks, data.stacked_inputs()) for data in datasets)
            members = KroneckerGram(U, moments, of)
            lone = [KroneckerGram(U[i], moments, of[i : i + 1]) for i in range(4)]
        assert linsys.member_runs(of) == [slice(0, 1), slice(1, 3), slice(3, 4)]
        got = solve_dual_system(blocks, members, y, costs)
        for i, Q in enumerate(lone):
            expected = lone_solve(blocks, Q, y[i], costs[i])
            assert got.errors[i] is None
            assert got.biases[i].tobytes() == expected.biases.tobytes()
            assert got.duals[i].tobytes() == expected.duals.tobytes()
            assert got.residual[i] == expected.residual
            if expected.weights is not None:
                assert got.weights[i].tobytes() == expected.weights.tobytes()

    def test_member_targets_and_owners_must_match_the_members(self):
        data = uneven_dataset(76, (2, 2), d=3)
        blocks = Blocks(data.task_sizes)
        y = data.stacked_targets()
        U = np.random.default_rng(76).normal(size=(2, data.grid.n_tasks, 2))
        moments = (TaskMoments(blocks, data.stacked_inputs()),)
        costs = np.array([1.0, 10.0])
        for targets, C in ((np.stack([y, y]), costs[:1]), (np.stack([y, y, y]), costs), (y[None, None], costs)):
            with pytest.raises(ValueError):
                solve_dual_system(blocks, KroneckerGram(U, moments, np.zeros(2, int)), targets, C)
        for owner in (np.zeros(3, int), np.zeros(1, int), np.zeros((2, 1), int)):
            with pytest.raises(ValueError, match=rf"owners of shape \({owner.shape[0]},.*\) for 2 members"):
                solve_dual_system(blocks, KroneckerGram(U, moments, owner), y, costs)
        G = gram(KernelSpec("linear"), data.stacked_inputs())
        with pytest.raises(ValueError, match="one per member of a structured Q"):
            solve_dual_system(blocks, G, np.stack([y, y]), costs)
        # a CoherenceGram's members share one Gram, so one dataset and one y
        with pytest.raises(ValueError, match="one per member of a structured Q"):
            solve_dual_system(blocks, CoherenceGram(U, G), np.stack([y, y]), costs)


class TestGroupedSystems:
    def test_each_group_meets_its_own_bound(self):
        rng = np.random.default_rng(70)
        block_sizes = [3, 4, 2, 5]
        Phi, y, group_of = two_group_system(rng, block_sizes, 2)
        C = 1.0
        biases, duals, _, _ = lone_solve(Blocks(block_sizes, (2, 2)), FeatureGram(Phi), y, C)
        duals = duals + 1e-8 * (group_of == 1)  # group 1 (0-based) misses its own bound
        apply_q = lambda v: block_diagonal_gram(Phi, group_of) @ v  # noqa: E731
        no_step = lambda g, h, stepped: (np.zeros_like(g), np.zeros_like(h))  # noqa: E731
        # _refined works on one member here: its arrays carry a leading member axis
        member = (np.array([1 / C]), lambda v: apply_q(v[0]), no_step, biases[None], duals[None], False)
        pooled = linsys.Blocks(block_sizes)
        _, _, residual, _, errors = linsys._refined(pooled, y, *member)
        own_bound = RESIDUAL_RTOL * (1 + np.linalg.norm(y[group_of == 1]))
        assert errors == [None]
        assert own_bound < residual[0] <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))
        grouped = linsys.Blocks(block_sizes, (2, 2))
        (error,) = linsys._refined(grouped, y, *member)[4]
        assert isinstance(error, SolverError) and re.search("residual .* exceeds", str(error))
        assert error.group == 1

    @pytest.mark.parametrize(
        "block_sizes, width", [([3, 4, 2, 5, 1, 3], 2), ([1, 2, 3, 4, 1, 1], 4)]
    )  # every group of more samples than columns, then groups 0 and 2 of fewer
    def test_grouped_matches_block_diagonal_dense_solve(self, block_sizes, width):
        rng = np.random.default_rng(72)
        Phi, y, group_of = two_group_system(rng, block_sizes, width)
        grouped = lone_solve(Blocks(block_sizes, (2, 2, 2)), FeatureGram(Phi), y, 10.0)
        expected = lone_solve(Blocks(block_sizes), block_diagonal_gram(Phi, group_of), y, 10.0)
        assert_same_solution(grouped, expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lowest_failing_group_is_named_across_shapes(self):
        # groups 1 and 2 (0-based) fail; group 1 has fewer samples than columns, group 2 more
        rng = np.random.default_rng(73)
        block_sizes = [4, 4, 1, 1, 3, 3]
        Phi, y, group_of = two_group_system(rng, block_sizes, 3)
        Phi[group_of >= 1, 0] = np.inf
        with pytest.raises(SolverError, match="non-finite entries") as info:
            lone_solve(Blocks(block_sizes, (2, 2, 2)), FeatureGram(Phi), y, 1.0)
        assert info.value.group == 1

    def test_group_validation(self):
        Phi = np.ones((4, 2))
        with pytest.raises(ValueError, match="positive"):
            lone_solve(Blocks([1, 1, 2], (2, 0)), FeatureGram(Phi), np.ones(4), 1.0)
        with pytest.raises(ValueError, match="groups hold 2 blocks"):
            lone_solve(Blocks([1, 1, 2], (1, 1)), FeatureGram(Phi), np.ones(4), 1.0)


@st.composite
def wide_grouped_systems(draw):
    """A grouped FeatureGram system with up to twice as many columns as its largest group has samples."""
    groups = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))  # blocks per group
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = Blocks(rng.integers(1, 5, size=sum(groups)), groups)
    p = draw(st.integers(1, 2 * int(blocks.group_sizes.max())))
    C = 10.0 ** draw(st.floats(-3.0, 4.0))
    return blocks, rng.normal(size=(blocks.m, p)), rng.normal(size=blocks.m), C


# C stops at 1e4: np.linalg.solve on the assembled system is itself only
# accurate to about 1e-9 of the solution at C = 1e6, which the 40-digit test
# below covers instead
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(wide_grouped_systems())
def test_grouped_ridge_matches_the_saddle_oracle_at_every_rank(system):
    blocks, Phi, y, C = system
    got = lone_solve(blocks, FeatureGram(Phi), y, C)
    Q = np.zeros((blocks.m, blocks.m))
    for rows, _ in blocks.group_slices:
        Q[rows, rows] = Phi[rows] @ Phi[rows].T
    assert_same_solution(got, saddle_oracle(blocks, Q, y, C))
    assert (group_residuals(blocks, Phi, y, C, got) <= group_bounds(blocks, y)).all()


def test_groups_wider_than_their_samples_at_cost_1e6_within_the_ridge_conditioning():
    # A group with fewer samples than columns nearly interpolates: its duals are
    # C e for residuals e of about 1/C, so the ridge's forward error is that of
    # a solve with condition number kappa = 1 + C ||Phi~_g||^2 (Phi~_g centered
    # per block), within p kappa eps of the solution's scale (Higham 2002, 7.1).
    rng = np.random.default_rng(74)
    blocks = Blocks([1, 2, 3, 1, 2, 4, 2], (2, 1, 3, 1))  # groups of 3, 3, 7 and 2 samples
    Phi, y, C = rng.normal(size=(blocks.m, 6)), rng.normal(size=blocks.m), 1e6
    got = lone_solve(blocks, FeatureGram(Phi), y, C)
    centered = Phi - blocks.means(Phi)[blocks.of]
    for rows, own in blocks.group_slices:
        expected = high_precision_saddle_solution(blocks.sizes[own], Phi[rows], y[rows], C)
        scale = max(float(np.max(np.abs(part))) for part in expected)
        kappa = 1 + C * np.linalg.norm(centered[rows], 2) ** 2
        tolerance = Phi.shape[1] * kappa * np.finfo(float).eps * scale
        for part_got, part_expected in zip((got.biases[own], got.duals[rows]), expected):
            assert np.max(np.abs(part_got - part_expected)) <= tolerance
    assert (group_residuals(blocks, Phi, y, C, got) <= group_bounds(blocks, y)).all()


class TestEvaluateObjective:
    def test_zero_state_is_half_c_norm(self, tiny_dataset):
        factors = ModeFactors((np.zeros((2, 2)), np.zeros((2, 2))))
        C = 3.0
        J = evaluate_objective(tiny_dataset, None, factors, np.zeros(4), C, LINEAR)
        y = tiny_dataset.stacked_targets()
        assert abs(J - 0.5 * C * float(y @ y)) < 1e-12

    def test_dual_and_explicit_paths_agree(self):
        data = random_dataset(13, mode_sizes=(2, 2), d=3, m_t=5)
        factors = init_factors(data.grid, 2, 0)
        step = one_member(solve_shared_step, data, factors, LINEAR, C=10.0)
        J_explicit = evaluate_objective(data, step.shared, factors, step.biases, 10.0, LINEAR)
        J_dual = evaluate_objective(
            data, without_explicit(step.shared), factors, step.biases, 10.0, LINEAR
        )
        assert abs(J_explicit - J_dual) < 1e-9 * max(1.0, abs(J_explicit))

    def test_nonnegative(self):
        for seed in range(5):
            data = random_dataset(seed, mode_sizes=(2,), d=2, m_t=4)
            factors = init_factors(data.grid, 1, seed)
            rng = np.random.default_rng(seed)
            J = evaluate_objective(data, None, factors, rng.normal(size=2), 1.0, LINEAR)
            assert J >= 0.0


def assert_collapsed_model_predicts(data, state, kernel, tmp_path, biases):
    """A fit whose mode factors are zero predicts each task's bias on every path, after a reload too."""
    model = TrainedModel.from_fit(data, state, kernel)
    save_model(model, str(tmp_path / "model.json"))
    reloaded = load_model(str(tmp_path / "model.json"))
    X = data.stacked_inputs()
    tid = data.sample_task_ids()
    expected = biases[tid]
    indices = [delinearize(data.grid, int(t) + 1) for t in tid]
    for m in (model, reloaded):
        assert np.array_equal(np.concatenate(m.predict_dataset(data)), np.concatenate(model.predict_dataset(data)))
        np.testing.assert_allclose(np.concatenate(m.predict_dataset(data)), expected, rtol=1e-13, atol=0)
        dual = [predict_dual(m, idx, x) for idx, x in zip(indices, X)]
        np.testing.assert_allclose(dual, expected, rtol=1e-13, atol=0)
        if kernel.has_feature_map:
            primal = [predict_primal(m, idx, x) for idx, x in zip(indices, X)]
            np.testing.assert_allclose(primal, expected, rtol=1e-13, atol=0)


class TestFit:
    def test_tol_inf_runs_one_iteration(self):
        data = snr10_dataset()
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=50, tol=math.inf, seed=0)
        state = fit(data, cfg)
        assert state.iterations == 1
        assert state.converged
        assert max(e.iteration for e in state.trace) == 1

    def test_trace_monotone_and_rmse_drops(self):
        data = snr10_dataset()
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=60, tol=1e-10, seed=0)
        state = fit(data, cfg)
        objs = [e.objective for e in state.trace]
        assert len(objs) >= 21
        for a, b in zip(objs, objs[1:]):
            assert b <= a * (1 + 1e-8)
        assert state.trace[-1].train_rmse < state.trace[0].train_rmse

    def test_factor_change_recorded_at_iteration_ends(self):
        data = snr10_dataset()
        state = fit(data, FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=5, tol=1e-12, seed=0))
        per_iter = {}
        for e in state.trace:
            if e.factor_change is not None:
                per_iter[e.iteration] = e.factor_change
        assert set(per_iter) == set(range(1, state.iterations + 1))
        last_steps = {e.iteration: e.step for e in state.trace if e.factor_change is not None}
        assert all(step.startswith("mode") for step in last_steps.values())

    def test_deterministic(self):
        data = snr10_dataset()
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=20, tol=1e-6, seed=5)
        a, b = fit(data, cfg), fit(data, cfg)
        for fa, fb in zip(a.factors.factors, b.factors.factors):
            np.testing.assert_array_equal(fa, fb)
        np.testing.assert_array_equal(a.biases, b.biases)
        np.testing.assert_array_equal(a.shared.duals, b.shared.duals)
        assert [e.objective for e in a.trace] == [e.objective for e in b.trace]

    def test_kkt_conditions_after_fit(self):
        data = snr10_dataset()
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=30, tol=1e-8, seed=1)
        state = fit(data, cfg)
        y = data.stacked_targets()
        assert state.max_system_residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))
        offsets = task_offsets(data)
        for t in range(data.grid.n_tasks):
            assert abs(state.shared.duals[offsets[t] : offsets[t] + data.task_sizes[t]].sum()) < 1e-8
        # equality constraints: a shared solve at the final factors must
        # recover its residuals as duals / C
        step = one_member(solve_shared_step, data, state.factors, LINEAR, C=cfg.C)
        proj = shared_projection(step.shared, LINEAR, data.stacked_inputs())
        tid = data.sample_task_ids()
        yhat = np.sum(proj * step.shared.task_vector_snapshot[tid], axis=1) + step.biases[tid]
        np.testing.assert_allclose(y - yhat, step.shared.duals / cfg.C, atol=1e-8)

    def test_rbf_fit_converges_and_has_no_explicit(self):
        data = snr10_dataset()
        cfg = FitConfig(K=2, C=10.0, kernel=KernelSpec("rbf", gamma=0.2), max_iters=40, tol=1e-4, seed=0)
        state = fit(data, cfg)
        assert state.shared.explicit is None
        objs = [e.objective for e in state.trace]
        for a, b in zip(objs, objs[1:]):
            assert b <= a * (1 + 1e-8)

    def test_rbf_fit_predicts_like_assembled_lu_reference(self, monkeypatch):
        data = snr10_dataset()
        kernel = KernelSpec("rbf", gamma=0.2)
        cfg = FitConfig(K=2, C=10.0, kernel=kernel, max_iters=6, tol=1e-12, seed=0)
        state = fit(data, cfg)
        objs = [e.objective for e in state.trace]
        for a, b in zip(objs, objs[1:]):
            assert b <= a * (1 + 1e-12)

        dense_solves = []

        def lu_reference(block_sizes, Q, y, C):
            if isinstance(Q, FeatureGram):
                return solve_dual_system(block_sizes, Q, y, C)
            # the fit solves its one member: task vectors 1 x T x K, costs [C]
            (C,) = C
            Q = coherence_dense(CoherenceGram(Q.task_vectors[0], Q.gram), block_sizes)
            dense_solves.append(Q.shape)
            biases, duals = saddle_oracle(block_sizes, Q, y, C)
            return MemberSolution(biases[None], duals[None], np.zeros(1), None, (None,))

        monkeypatch.setattr(solver, "solve_dual_system", lu_reference)
        reference = fit(data, cfg)
        assert len(dense_solves) == state.iterations == 6
        got = np.concatenate(TrainedModel.from_fit(data, state, kernel).predict_dataset(data))
        expected = np.concatenate(TrainedModel.from_fit(data, reference, kernel).predict_dataset(data))
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)

    def test_large_cost_linear_fit_meets_residual_bound(self):
        data = snr10_dataset()
        state = fit(data, FitConfig(K=2, C=1e5, kernel=LINEAR, max_iters=10, tol=1e-8, seed=0))
        y = data.stacked_targets()
        assert state.max_system_residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))

    @pytest.mark.xfail(
        strict=True,
        raises=SolverError,
        reason="at C=1e6 the row-step duals C*e reach 2e7 and the saddle residual of "
        "their double-precision values, about eps*||Q||*||alpha||, exceeds the absolute "
        "bound RESIDUAL_RTOL*(1+||y||), which does not grow with C; any backward-stable "
        "solve of these systems, not only the Cholesky one, leaves a residual of that size",
    )
    def test_cost_1e6_linear_fit_meets_residual_bound(self):
        data = snr10_dataset()
        state = fit(data, FitConfig(K=2, C=1e6, kernel=LINEAR, max_iters=10, tol=1e-8, seed=0))
        y = data.stacked_targets()
        assert state.max_system_residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))

    def test_linear_fit_builds_no_gram(self, monkeypatch):
        def no_gram(*args, **kwargs):
            raise AssertionError("the linear fit assembled a Gram matrix")

        monkeypatch.setattr(solver, "gram", no_gram)
        state = fit(snr10_dataset(), FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=3, seed=0))
        assert state.iterations == 3

    def test_solver_error_names_iteration_and_shared_step(self, monkeypatch):
        calls = []
        real_step = solver.solve_shared_step

        def fail_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise SolverError("dual system solve residual too large; decrease C")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_shared_step", fail_third)
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=10, tol=1e-12, seed=0)
        with pytest.raises(SolverError, match=r"^iteration 3, shared step: dual system solve residual too large; decrease C$"):
            fit(snr10_dataset(), cfg)

    def test_zero_targets_fit_the_zero_model(self, tmp_path):
        # every step's right-hand side is zero, so every solve returns exact zeros
        grid = TaskGrid((2,))
        rng = np.random.default_rng(0)
        data = MtlDataset(
            grid, (rng.normal(size=(4, 2)), rng.normal(size=(4, 2))), (np.zeros(4), np.zeros(4))
        )
        state = fit(data, FitConfig(K=1, C=10.0, kernel=LINEAR, max_iters=5, tol=1e-3, seed=0))
        assert state.converged and state.iterations == 2  # the second change is 0/0 -> 0
        assert not any(f.any() for f in state.factors.factors)
        assert not state.shared.explicit.any() and not state.shared.duals.any() and not state.biases.any()
        assert [entry.objective for entry in state.trace if entry.iteration == 2] == [0.0] * 3
        assert_collapsed_model_predicts(data, state, LINEAR, tmp_path, np.zeros(2))

    @pytest.mark.parametrize("kernel", [LINEAR, KernelSpec("rbf", gamma=0.2)], ids=["linear", "rbf"])
    def test_small_cost_fit_collapses_to_the_task_means(self, kernel, tmp_path):
        # at C=1e-3 the factors shrink by orders of magnitude per iteration
        # until they underflow to zero; the rows then solve to exact zeros
        data = snr10_dataset()
        state = fit(data, FitConfig(K=2, C=1e-3, kernel=kernel, max_iters=60, tol=1e-3, seed=0))
        assert state.converged
        assert not any(f.any() for f in state.factors.factors)
        assert any("collapsed to zero" in warning for warning in state.warnings)
        objectives = [entry.objective for entry in state.trace]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(objectives, objectives[1:]))
        means = np.array([y.mean() for y in data.targets])
        np.testing.assert_allclose(state.biases, means, rtol=1e-13)
        assert_collapsed_model_predicts(data, state, kernel, tmp_path, means)

    @pytest.mark.parametrize(
        "bad, message",
        [({"C": math.inf}, "C must be positive and finite"),
         ({"C": math.nan}, "C must be positive and finite")],
    )
    def test_config_rejects_non_finite_cost(self, bad, message):
        with pytest.raises(ConfigError, match=message):
            FitConfig(**{"K": 1, "C": 1.0, "kernel": LINEAR, **bad})
        assert FitConfig(K=1, C=1.0, kernel=LINEAR, tol=math.inf).tol == math.inf

    def test_config_rejects_fractional_rank_and_non_numeric_values(self):
        with pytest.raises(ConfigError, match="whole number"):
            FitConfig(K=1.7, C=1.0, kernel=LINEAR)
        assert FitConfig(K=2.0, C=1.0, kernel=LINEAR).K == 2
        cfg = {"K": 2, "C": 1.0, "kernel": {"family": "linear"}}
        for bad, message in (({"K": 1.7}, "whole number"), ({"C": "abc"}, "C must be positive and finite"),
                             ({"tol": None}, "tol must be positive"), ({"K": math.inf}, "rank K must be a whole number")):
            with pytest.raises(ConfigError, match=message):
                FitConfig.from_config({**cfg, **bad})

    def test_config_validation_and_roundtrip(self):
        with pytest.raises(ConfigError):
            FitConfig(K=0, C=1.0, kernel=LINEAR)
        with pytest.raises(ConfigError):
            FitConfig(K=1, C=-1.0, kernel=LINEAR)
        C = 1 / (1 / 5.0 + 1e-9)
        cfg = FitConfig(K=2, C=C, kernel=KernelSpec("rbf", gamma=0.1), max_iters=7, tol=1e-4, seed=3)
        assert FitConfig.from_config(fit_config_dict(cfg)) == cfg
        with pytest.raises(ConfigError):
            FitConfig.from_config({"K": 1})
        bad = fit_config_dict(cfg)
        bad["momentum"] = 0.9
        with pytest.raises(ConfigError):
            FitConfig.from_config(bad)
