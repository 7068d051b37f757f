from __future__ import annotations

import math

import numpy as np
import pytest

from tlssvm import linsys, solver
from tlssvm.baseline import fit_single
from tlssvm.data import MtlDataset, SyntheticSpec, generate_synthetic
from tlssvm.errors import ConfigError, SolverError
from tlssvm.kernels import KernelSpec, gram, kernel_eval
from tlssvm.linsys import (
    RESIDUAL_RTOL,
    FeatureGram,
    solve_dual_system,
    solve_feature_system,
)
from tlssvm.model import TrainedModel
from tlssvm.solver import (
    FitConfig,
    coherence_weighted_gram,
    evaluate_objective,
    fit,
    init_factors,
    reduced_features,
    shared_projection,
    solve_mode_row_step,
    solve_shared_step,
)
from tlssvm.taskgrid import (
    ModeFactors,
    SharedFactor,
    TaskGrid,
    coslice_tasks,
    delinearize,
    task_vector,
    task_vector_table,
)
from conftest import block_constraint_matrix, random_dataset, saddle_oracle, without_explicit

LINEAR = KernelSpec("linear")


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
            biases, duals, residual = solve_dual_system(sizes, Q, y, C)
            A = block_constraint_matrix(sizes)
            full = np.block([[np.zeros((T, T)), A.T], [A, Q + np.eye(m) / C]])
            expected = np.linalg.solve(full, np.concatenate([np.zeros(T), y]))
            np.testing.assert_allclose(biases, expected[:T], atol=1e-9)
            np.testing.assert_allclose(duals, expected[T:], atol=1e-9)
            assert residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))

    @pytest.mark.parametrize("kind", ["full", "rbf"])
    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    def test_uneven_blocks_match_dense_oracle(self, kind, C, jitter):
        rng = np.random.default_rng(0)
        sizes = [1, 6, 3, 9]
        for trial in range(3):
            Q = dense_psd(kind, sum(sizes), rng)
            y = rng.normal(size=sum(sizes))
            got = solve_dual_system(sizes, Q, y, C, jitter)
            assert_same_solution(got, saddle_oracle(sizes, Q, y, C, jitter))
            assert got[2] <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))

    def test_residual_is_that_of_the_saddle_system(self):
        rng = np.random.default_rng(3)
        sizes = [4, 2, 5]
        T, m = len(sizes), sum(sizes)
        Q = dense_psd("rbf", m, rng)
        y = rng.normal(size=m)
        C, jitter = 50.0, 1e-4
        biases, duals, residual = solve_dual_system(sizes, Q, y, C, jitter)
        A = block_constraint_matrix(sizes)
        M = np.block([[np.zeros((T, T)), A.T], [A, Q + (1 / C + jitter) * np.eye(m)]])
        explicit = np.linalg.norm(M @ np.concatenate([biases, duals]) - np.concatenate([np.zeros(T), y]))
        assert residual == pytest.approx(explicit, abs=1e-13)

    def test_indefinite_q_raises_solver_error(self):
        rng = np.random.default_rng(4)
        U = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        Q = U @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, -4.0]) @ U.T
        with pytest.raises(SolverError, match="not positive definite.*jitter"):
            solve_dual_system([2, 4], Q, rng.normal(size=6), 1.0)

    def test_empty_block_raises_value_error(self):
        with pytest.raises(ValueError, match="at least one sample"):
            solve_dual_system([3, 0], np.eye(3), np.ones(3), 1.0)

    def test_zero_targets_give_zero_solution(self):
        Q = np.eye(4)
        biases, duals, _ = solve_dual_system([2, 2], Q, np.zeros(4), 10.0)
        np.testing.assert_allclose(biases, 0.0, atol=1e-12)
        np.testing.assert_allclose(duals, 0.0, atol=1e-12)

    def test_constraint_rows_hold(self):
        rng = np.random.default_rng(1)
        sizes = [4, 3]
        M = rng.normal(size=(7, 7))
        _, duals, _ = solve_dual_system(sizes, M @ M.T, rng.normal(size=7), 2.0)
        assert abs(duals[:4].sum()) < 1e-9
        assert abs(duals[4:].sum()) < 1e-9

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_system_diagnostic_and_jitter_recovery(self):
        # Q + I/C is the all-ones matrix: rank one, saddle system singular
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([1.0, 2.0])
        with pytest.raises(SolverError, match="jitter"):
            solve_dual_system([2], Q, y, 1.0)
        biases, duals, _ = solve_dual_system([2], Q, y, 1.0, jitter=0.5)
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


class TestSolveFeatureSystem:
    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("jitter", [0.0, 1e-3])
    def test_uneven_blocks_match_dense_oracle(self, C, jitter):
        rng = np.random.default_rng(40)
        sizes = [1, 6, 3, 9]
        Phi = rng.normal(size=(sum(sizes), 3))
        y = rng.normal(size=sum(sizes))
        got = solve_feature_system(sizes, Phi, y, C, jitter)
        assert_same_solution(got, solve_dual_system(sizes, Phi @ Phi.T, y, C, jitter))
        assert got[2] <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    def test_more_features_than_samples(self, C):
        rng = np.random.default_rng(41)
        sizes = [2, 3]
        Phi = rng.normal(size=(5, 8))
        y = rng.normal(size=5)
        expected = solve_dual_system(sizes, Phi @ Phi.T, y, C)
        assert_same_solution(solve_feature_system(sizes, Phi, y, C), expected)
        assert_same_solution(solve_dual_system(sizes, FeatureGram(Phi), y, C), expected)

    @pytest.mark.parametrize("C", [1.0, 1e3, 1e6])
    def test_duplicated_samples(self, C):
        rng = np.random.default_rng(42)
        base = rng.normal(size=(4, 3))
        # rows repeat within a block and across blocks; targets differ on repeats
        Phi = base[[0, 0, 1, 2, 1, 1, 3, 0, 3]]
        sizes = [3, 4, 2]
        y = rng.normal(size=9)
        got = solve_feature_system(sizes, Phi, y, C)
        assert_same_solution(got, solve_dual_system(sizes, Phi @ Phi.T, y, C))

    def test_residual_is_that_of_the_saddle_system(self):
        rng = np.random.default_rng(43)
        sizes = [4, 2, 5]
        T, m = len(sizes), sum(sizes)
        Phi = rng.normal(size=(m, 3))
        y = rng.normal(size=m)
        C, jitter = 50.0, 1e-4
        biases, duals, residual = solve_feature_system(sizes, Phi, y, C, jitter)
        A = block_constraint_matrix(sizes)
        M = np.block([[np.zeros((T, T)), A.T], [A, Phi @ Phi.T + (1 / C + jitter) * np.eye(m)]])
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
        biases, duals, _ = solve_feature_system(sizes, Phi, y, C)
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(np.concatenate([biases, duals]) - expected)) <= 1e-12 * scale

    def test_zero_targets_give_zero_solution(self):
        Phi = np.random.default_rng(45).normal(size=(6, 2))
        biases, duals, residual = solve_feature_system([2, 4], Phi, np.zeros(6), 10.0)
        np.testing.assert_array_equal(biases, 0.0)
        np.testing.assert_array_equal(duals, 0.0)
        assert residual == 0.0

    def test_shape_and_value_validation(self):
        Phi = np.ones((4, 2))
        with pytest.raises(ValueError, match="inconsistent"):
            solve_feature_system([2, 2], Phi, np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="C must be positive"):
            solve_feature_system([2, 2], Phi, np.zeros(4), 0.0)
        with pytest.raises(ValueError, match="at least one sample"):
            solve_feature_system([4, 0], Phi, np.zeros(4), 1.0)

    def test_feature_gram_selects_form_by_shape(self, monkeypatch):
        rng = np.random.default_rng(46)
        calls = []

        def recording(*args):
            calls.append(args[1].shape)
            return solve_feature_system(*args)

        monkeypatch.setattr(linsys, "solve_feature_system", recording)
        tall, wide = rng.normal(size=(6, 6)), rng.normal(size=(6, 7))
        got = solve_dual_system([3, 3], FeatureGram(tall), np.arange(6.0), 2.0)
        assert calls == [(6, 6)]
        assert_same_solution(got, solve_feature_system([3, 3], tall, np.arange(6.0), 2.0), rtol=0)
        solve_dual_system([3, 3], FeatureGram(wide), np.arange(6.0), 2.0)
        assert calls == [(6, 6)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_features_raise_solver_error(self):
        Phi = np.ones((4, 2))
        Phi[1, 0] = np.inf
        with pytest.raises(SolverError, match="jitter"):
            solve_feature_system([2, 2], Phi, np.ones(4), 1.0)


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
            step = solve_shared_step(data, factors, LINEAR, C)
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
        step = solve_shared_step(data, factors, LINEAR, C)
        Q = coherence_weighted_gram(data, factors, LINEAR)
        expected = solve_dual_system(data.task_sizes, Q, data.stacked_targets(), C)
        assert_same_solution((step.biases, step.shared.duals), expected)

    def test_more_features_than_samples_uses_dense_path(self, monkeypatch):
        # d*K = 12 features against 8 samples
        data = random_dataset(17, mode_sizes=(2, 2), d=4, m_t=2)
        factors = init_factors(data.grid, 3, seed=5)
        monkeypatch.setattr(linsys, "solve_feature_system", None)
        step = solve_shared_step(data, factors, LINEAR, 10.0)
        L_oracle, b_oracle = shared_step_normal_equations(data, factors, 10.0)
        assert np.max(np.abs(step.shared.explicit - L_oracle)) < 1e-6
        assert np.max(np.abs(step.biases - b_oracle)) < 1e-6

    def test_zero_targets(self):
        data = random_dataset(5, mode_sizes=(2,), d=3, m_t=4)
        data = MtlDataset(data.grid, data.inputs, tuple(np.zeros(4) for _ in range(2)))
        step = solve_shared_step(data, init_factors(data.grid, 2, 0), LINEAR, 10.0)
        np.testing.assert_allclose(step.shared.duals, 0.0, atol=1e-10)
        np.testing.assert_allclose(step.biases, 0.0, atol=1e-10)

    def test_single_task_reduces_to_baseline(self):
        # T=1 with u=1 makes the coherence scalar 1: the standard LSSVM system
        data = random_dataset(6, mode_sizes=(1,), d=4, m_t=8)
        factors = ModeFactors((np.ones((1, 1)),))
        step = solve_shared_step(data, factors, LINEAR, 25.0)
        single = fit_single(data.inputs[0], data.targets[0], 25.0, LINEAR)
        np.testing.assert_allclose(step.shared.duals, single.duals, atol=1e-9)
        assert abs(step.biases[0] - single.bias) < 1e-9

    def test_constraint_residual_reported(self):
        data = random_dataset(7, mode_sizes=(2, 2), d=3, m_t=5)
        step = solve_shared_step(data, init_factors(data.grid, 2, 1), LINEAR, 100.0)
        assert step.constraint_residual < 1e-8
        sums = [step.shared.duals[i * 5 : (i + 1) * 5].sum() for i in range(4)]
        assert max(abs(s) for s in sums) < 1e-8


class TestReducedFeatures:
    def test_single_mode_equals_projection(self):
        data = random_dataset(9, mode_sizes=(3,), d=3, m_t=4)
        factors = init_factors(data.grid, 2, 0)
        step = solve_shared_step(data, factors, LINEAR, 10.0)
        proj = shared_projection(step.shared, LINEAR, data.stacked_inputs())
        z = reduced_features(data, step.shared, factors, LINEAR, mode=1)
        np.testing.assert_array_equal(z, proj)

    def test_zero_duals_give_zero_features(self, tiny_dataset):
        snapshot = np.ones((4, 2))
        shared = SharedFactor(np.zeros(tiny_dataset.n_samples), snapshot, tiny_dataset)
        z = reduced_features(
            tiny_dataset, shared, init_factors(tiny_dataset.grid, 2, 0), LINEAR, mode=1
        )
        np.testing.assert_array_equal(z, np.zeros_like(z))

    def test_dual_and_explicit_paths_agree(self):
        data = random_dataset(10, mode_sizes=(2, 3), d=4, m_t=5)
        factors = init_factors(data.grid, 2, 2)
        step = solve_shared_step(data, factors, LINEAR, 50.0)
        z_explicit = reduced_features(data, step.shared, factors, LINEAR, mode=2)
        z_dual = reduced_features(
            data, without_explicit(step.shared), factors, LINEAR, mode=2
        )
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
        result = solve_mode_row_step(data, z, mode=1, C=C).row(1)
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

    def test_all_zero_features_degenerate(self, tiny_dataset):
        z = np.zeros((tiny_dataset.n_samples, 2))
        with pytest.raises(SolverError, match="degenerate"):
            solve_mode_row_step(tiny_dataset, z, mode=1, C=1.0).row(1)

    def test_row_subproblem_objective_decreases(self):
        data = random_dataset(11, mode_sizes=(2, 3), d=4, m_t=6)
        factors = init_factors(data.grid, 2, 3)
        C = 20.0
        step = solve_shared_step(data, factors, LINEAR, C)
        biases = step.biases
        for mode in (1, 2):
            z = reduced_features(data, step.shared, factors, LINEAR, mode)
            for row in range(1, data.grid.mode_sizes[mode - 1] + 1):
                result = solve_mode_row_step(data, z, mode, C).row(row)

                def sub_objective(u_row, b_of_task):
                    total = 0.5 * float(u_row @ u_row)
                    for t in result.tasks:
                        sl = slice(
                            data.task_offsets()[t - 1],
                            data.task_offsets()[t - 1] + data.task_sizes[t - 1],
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

    def test_rank_above_sample_count_falls_back_to_dense(self, monkeypatch):
        # row 1 of mode 1 sees tasks (1,1) and (1,2): 2 + 2 samples, K = 6
        data = random_dataset(14, mode_sizes=(2, 2), d=3, m_t=2)
        z = np.random.default_rng(14).normal(size=(data.n_samples, 6))
        monkeypatch.setattr(linsys, "solve_feature_system", None)
        result = solve_mode_row_step(data, z, mode=1, C=10.0).row(1)
        sel = np.array([0, 1, 4, 5])  # tasks 1 and 3 in linear order
        Z = z[sel]
        biases, duals, _ = solve_dual_system([2, 2], Z @ Z.T, data.stacked_targets()[sel], 10.0)
        np.testing.assert_allclose(result.biases, biases, atol=1e-12)
        np.testing.assert_allclose(result.duals, duals, atol=1e-12)

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    def test_primal_row_solve_matches_dense_oracle(self, C):
        data = random_dataset(15, mode_sizes=(3, 2), d=3, m_t=6)
        z = np.random.default_rng(15).normal(size=(data.n_samples, 2))
        result = solve_mode_row_step(data, z, mode=2, C=C).row(2)
        sel = np.concatenate(
            [np.arange(data.task_offsets()[t - 1], data.task_offsets()[t - 1] + 6) for t in result.tasks]
        )
        Z = z[sel]
        expected = solve_dual_system([6, 6, 6], Z @ Z.T, data.stacked_targets()[sel], C)
        assert_same_solution((result.biases, result.duals), expected)

    def test_stationarity_row_is_dual_weighted_sum(self):
        data = random_dataset(12, mode_sizes=(2, 2), d=3, m_t=4)
        factors = init_factors(data.grid, 2, 1)
        step = solve_shared_step(data, factors, LINEAR, 10.0)
        z = reduced_features(data, step.shared, factors, LINEAR, 1)
        result = solve_mode_row_step(data, z, 1, 10.0).row(2)
        sel = np.concatenate(
            [
                np.arange(data.task_offsets()[t - 1], data.task_offsets()[t - 1] + 4)
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


def row_oracle(data, z, mode, row, C):
    """One row's subproblem as its own assembled saddle system: (biases, duals, tasks, Z)."""
    tasks = coslice_tasks(data.grid, mode, row)
    offsets, sizes = data.task_offsets(), data.task_sizes
    sel = np.concatenate([np.arange(offsets[t - 1], offsets[t - 1] + sizes[t - 1]) for t in tasks])
    Z = z[sel]
    block_sizes = [sizes[t - 1] for t in tasks]
    biases, duals = saddle_oracle(block_sizes, Z @ Z.T, data.stacked_targets()[sel], C)
    return biases, duals, tasks, Z


def assert_rows_match_oracle(data, z, mode, C):
    step = solve_mode_row_step(data, z, mode, C)
    for row in range(1, data.grid.mode_sizes[mode - 1] + 1):
        got = step.row(row)
        biases, duals, tasks, Z = row_oracle(data, z, mode, row, C)
        np.testing.assert_array_equal(got.tasks, tasks)
        assert_same_solution((got.biases, got.duals), (biases, duals))
        # |Z^T (a - a')| <= max_k sum_j |Z_jk| * max_j |a_j - a'_j|
        scale = max(1.0, float(np.max(np.abs(biases))), float(np.max(np.abs(duals))))
        bound = 1e-9 * scale * max(1.0, float(np.abs(Z).sum(axis=0).max()))
        assert np.max(np.abs(got.row_values - Z.T @ duals)) <= bound


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
        step = solve_mode_row_step(data, z, 2, C)
        for row in (1, 2):
            got = step.row(row)
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

    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e3, 1e6])
    def test_rank_above_row_sample_counts_uses_dense_form(self, monkeypatch, C):
        # every row sees at most 3 * 2 samples against K = 8
        data = uneven_dataset(62, (2, 3), max_size=2)
        z = np.random.default_rng(62).normal(size=(data.n_samples, 8))
        monkeypatch.setattr(linsys, "solve_feature_system", None)
        for mode in (1, 2):
            assert_rows_match_oracle(data, z, mode, C)

    def test_one_solve_per_mode_with_one_group_per_row(self, monkeypatch):
        data = uneven_dataset(63, (3, 4))
        z = np.random.default_rng(63).normal(size=(data.n_samples, 2))
        calls = []

        def recording(block_sizes, Q, y, C, jitter=0.0):
            calls.append((len(block_sizes), Q.features.shape, Q.groups))
            return solve_dual_system(block_sizes, Q, y, C, jitter)

        monkeypatch.setattr(solver, "solve_dual_system", recording)
        solve_mode_row_step(data, z, 2, 10.0)
        assert calls == [(12, (data.n_samples, 2), (3, 3, 3, 3))]

    def test_residual_is_the_worst_row_residual(self):
        data = uneven_dataset(64, (3, 2))
        z = np.random.default_rng(64).normal(size=(data.n_samples, 2))
        C = 50.0
        step = solve_mode_row_step(data, z, 1, C)
        worst = 0.0
        for row in (1, 2, 3):
            got = step.row(row)
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

    def test_degenerate_error_names_lowest_zero_row(self):
        data = uneven_dataset(65, (3, 2))
        layout = data.mode_layout(1)
        z = np.random.default_rng(65).normal(size=(data.n_samples, 2))
        z[layout.samples[layout.row_starts[1] :]] = 0.0  # rows 2 and 3
        with pytest.raises(SolverError, match=r"^mode 1 row 2: .*degenerate") as info:
            solve_mode_row_step(data, z, 1, 10.0)
        assert info.value.group == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("K", [2, 8])  # the ridge form, then the dense one
    def test_non_finite_error_names_lowest_failing_row(self, K):
        data = uneven_dataset(66, (3, 2), max_size=3 if K == 8 else 7)
        layout = data.mode_layout(1)
        z = np.random.default_rng(66).normal(size=(data.n_samples, K))
        z[layout.samples[layout.row_starts[1] :], 0] = np.inf  # rows 2 and 3
        with pytest.raises(SolverError, match=r"^mode 1 row 2: .*jitter") as info:
            solve_mode_row_step(data, z, 1, 10.0)
        assert info.value.group == 1

    def test_fit_names_the_failing_row(self, monkeypatch):
        def fail_row_two(block_sizes, Q, y, C, jitter=0.0):
            if isinstance(Q, FeatureGram) and Q.groups is not None:
                raise SolverError("residual too large; increase jitter", group=1)
            return solve_dual_system(block_sizes, Q, y, C, jitter)

        monkeypatch.setattr(solver, "solve_dual_system", fail_row_two)
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=3, seed=0)
        with pytest.raises(SolverError, match=r"^iteration 1, mode 1/row 2: mode 1 row 2: .*jitter"):
            fit(snr10_dataset(), cfg)

    @pytest.mark.parametrize("C", [1.0, 1e3])
    def test_each_row_takes_its_own_form(self, monkeypatch, C):
        # K = 8: rows of mode 1 hold 6 to 11 samples, so two take the dense form
        data = uneven_dataset(67, (6, 2))
        z = np.random.default_rng(67).normal(size=(data.n_samples, 8))
        counts = np.diff(data.mode_layout(1).row_starts)
        assert (counts < 8).sum() == 2
        ridge_groups = []

        def recording(block_sizes, Phi, y, C, jitter=0.0, groups=None):
            ridge_groups.append(len(groups))
            return solve_feature_system(block_sizes, Phi, y, C, jitter, groups)

        monkeypatch.setattr(linsys, "solve_feature_system", recording)
        assert_rows_match_oracle(data, z, 1, C)
        assert ridge_groups == [4]

    def test_factors_are_per_row(self, monkeypatch):
        # 60 rows of K = 3, one task each: per row a 3 x 3 ridge factor, or for
        # rows under 3 samples a dense one of at most 2 x 2; never one of the mode
        data = uneven_dataset(68, (60,))
        z = np.random.default_rng(68).normal(size=(data.n_samples, 3))
        shapes = []
        real = linsys._cholesky

        def recording(H, what, group=0):
            shapes.append(H.shape)
            return real(H, what, group)

        monkeypatch.setattr(linsys, "_cholesky", recording)
        step = solve_mode_row_step(data, z, 1, 10.0)
        assert len(shapes) >= 60
        assert max(s[0] for s in shapes) <= 3
        assert step.row_values.shape == (60, 3)


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


class TestGroupedSystems:
    def test_each_group_meets_its_own_bound(self):
        rng = np.random.default_rng(70)
        block_sizes = [3, 4, 2, 5]
        Phi, y, group_of = two_group_system(rng, block_sizes, 2)
        C = 1.0
        biases, duals, _ = solve_dual_system(block_sizes, FeatureGram(Phi, (2, 2)), y, C)
        duals = duals + 1e-8 * (group_of == 1)  # group 1 (0-based) misses its own bound
        apply_q = lambda v: block_diagonal_gram(Phi, group_of) @ v  # noqa: E731
        no_step = lambda g, h: (np.zeros_like(g), np.zeros_like(h))  # noqa: E731
        m = len(y)
        pooled = linsys._Blocks(block_sizes, m, C, 0.0)
        _, _, residual = linsys._refined(pooled, y, 1 / C, apply_q, no_step, biases, duals, False)
        own_bound = RESIDUAL_RTOL * (1 + np.linalg.norm(y[group_of == 1]))
        assert own_bound < residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))
        grouped = linsys._Blocks(block_sizes, m, C, 0.0, (2, 2))
        with pytest.raises(SolverError, match="residual .* exceeds") as info:
            linsys._refined(grouped, y, 1 / C, apply_q, no_step, biases, duals, False)
        assert info.value.group == 1

    def test_row_missing_its_bound_is_named(self, monkeypatch):
        # grid (2, 2): mode 2's two rows are the two groups; tasks 3 and 4 form row 2
        rng = np.random.default_rng(71)
        data = uneven_dataset(71, (2, 2))
        z = rng.normal(size=(data.n_samples, 2))
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
                out += 1e-4  # the weights of row 2
            return out

        monkeypatch.setattr(linsys, "_cholesky", recording)
        monkeypatch.setattr(linsys, "_cho_solve", perturbed)
        with pytest.raises(SolverError, match=r"^mode 2 row 2: .*exceeds") as info:
            solve_mode_row_step(data, z, 2, 1.0)
        assert info.value.group == 1

    @pytest.mark.parametrize(
        "block_sizes, width", [([3, 4, 2, 5, 1, 3], 2), ([1, 2, 3, 4, 1, 1], 4)]
    )  # every group ridge, then groups 0 and 2 dense
    def test_grouped_matches_block_diagonal_dense_solve(self, block_sizes, width):
        rng = np.random.default_rng(72)
        Phi, y, group_of = two_group_system(rng, block_sizes, width)
        grouped = solve_dual_system(block_sizes, FeatureGram(Phi, (2, 2, 2)), y, 10.0)
        expected = solve_dual_system(block_sizes, block_diagonal_gram(Phi, group_of), y, 10.0)
        assert_same_solution(grouped, expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lowest_failing_group_is_named_across_forms(self):
        # groups 1 and 2 (0-based) fail; group 1 takes the dense form, group 2 the ridge one
        rng = np.random.default_rng(73)
        block_sizes = [4, 4, 1, 1, 3, 3]
        Phi, y, group_of = two_group_system(rng, block_sizes, 3)
        Phi[group_of >= 1, 0] = np.inf
        with pytest.raises(SolverError, match="jitter") as info:
            solve_dual_system(block_sizes, FeatureGram(Phi, (2, 2, 2)), y, 1.0)
        assert info.value.group == 1

    def test_group_validation(self):
        Phi = np.ones((4, 2))
        with pytest.raises(ValueError, match="positive"):
            FeatureGram(Phi, (2, 0))
        with pytest.raises(ValueError, match="groups hold 2 blocks"):
            solve_dual_system([1, 1, 2], FeatureGram(Phi, (1, 1)), np.ones(4), 1.0)


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
        step = solve_shared_step(data, factors, LINEAR, 10.0)
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


def snr10_dataset():
    spec = SyntheticSpec(
        d=6, mode_sizes=(2, 3), k_true=2, train_per_task=12, test_per_task=4,
        snr=10.0, seed=21,
    )
    train, _, _ = generate_synthetic(spec)
    return train


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
        np.testing.assert_array_equal(a.duals, b.duals)
        assert [e.objective for e in a.trace] == [e.objective for e in b.trace]

    def test_kkt_conditions_after_fit(self):
        data = snr10_dataset()
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=30, tol=1e-8, seed=1)
        state = fit(data, cfg)
        y = data.stacked_targets()
        assert state.max_system_residual <= RESIDUAL_RTOL * (1 + np.linalg.norm(y))
        offsets = data.task_offsets()
        for t in range(data.grid.n_tasks):
            assert abs(state.duals[offsets[t] : offsets[t] + data.task_sizes[t]].sum()) < 1e-8
        # equality constraints: a shared solve at the final factors must
        # recover its residuals as duals / C
        step = solve_shared_step(data, state.factors, LINEAR, cfg.C)
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

        def lu_reference(block_sizes, Q, y, C, jitter=0.0):
            if isinstance(Q, FeatureGram):
                return solve_dual_system(block_sizes, Q, y, C, jitter)
            dense_solves.append(Q.shape)
            biases, duals = saddle_oracle(block_sizes, Q, y, C, jitter)
            return biases, duals, 0.0

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
        "bound RESIDUAL_RTOL*(1+||y||); the dense LU fails here as well",
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

    def test_solver_error_names_iteration_and_row_step(self):
        grid = TaskGrid((2,))
        rng = np.random.default_rng(0)
        data = MtlDataset(
            grid, (rng.normal(size=(4, 2)), rng.normal(size=(4, 2))), (np.zeros(4), np.zeros(4))
        )
        with pytest.raises(SolverError, match=r"^iteration 1, mode 1/row 1: .*degenerate"):
            fit(data, FitConfig(K=1, C=10.0, kernel=LINEAR, max_iters=5, tol=1e-3, seed=0))

    def test_solver_error_names_iteration_and_shared_step(self, monkeypatch):
        calls = []
        real_step = solver.solve_shared_step

        def fail_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise SolverError("dual system solve residual too large; increase jitter")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_shared_step", fail_third)
        cfg = FitConfig(K=2, C=10.0, kernel=LINEAR, max_iters=10, tol=1e-12, seed=0)
        with pytest.raises(SolverError, match=r"^iteration 3, shared step: .*jitter"):
            fit(snr10_dataset(), cfg)

    def test_all_zero_targets_surface_solver_error(self):
        grid = TaskGrid((2,))
        rng = np.random.default_rng(0)
        data = MtlDataset(
            grid, (rng.normal(size=(4, 2)), rng.normal(size=(4, 2))), (np.zeros(4), np.zeros(4))
        )
        with pytest.raises(SolverError):
            fit(data, FitConfig(K=1, C=10.0, kernel=LINEAR, max_iters=5, tol=1e-3, seed=0))

    def test_config_validation_and_roundtrip(self):
        with pytest.raises(ConfigError):
            FitConfig(K=0, C=1.0, kernel=LINEAR)
        with pytest.raises(ConfigError):
            FitConfig(K=1, C=-1.0, kernel=LINEAR)
        cfg = FitConfig(K=2, C=5.0, kernel=KernelSpec("rbf", gamma=0.1), max_iters=7, tol=1e-4, jitter=1e-9, seed=3)
        assert FitConfig.from_config(cfg.to_config()) == cfg
        with pytest.raises(ConfigError):
            FitConfig.from_config({"K": 1})
        bad = cfg.to_config()
        bad["momentum"] = 0.9
        with pytest.raises(ConfigError):
            FitConfig.from_config(bad)
