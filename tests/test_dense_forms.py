"""The dense form of the saddle solve: the buffer it factors and the forms that fill it.

A CoherenceGram (the shared step of an RBF fit, and of a linear fit with
more features than samples) and a dense Q (the single-task baseline) are
solved by a Cholesky factorization of H = Q + I/C. The solve factors H in
place: for a CoherenceGram in the upper triangle of the caller's Gram,
which it gives back bit for bit, and for a dense Q in a copy that each
member (one per cost) owns.
A FeatureGram never takes this form, whatever its shape (see the grouped
ridge tests in test_solver.py).
"""

from __future__ import annotations

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm.kernels import KernelSpec, gram
from tlssvm.linsys import (
    Blocks,
    CoherenceGram,
    solve_dual_system,
)
from tlssvm import linsys, solver
from tlssvm.errors import SolverError
from tlssvm.data import kfold_split
from tlssvm.solver import FitConfig, fit, fit_many, init_factors, solve_shared_step
from conftest import coherence_dense, one_member, random_dataset, saddle_oracle

LINEAR = KernelSpec("linear")
RBF = KernelSpec("rbf", gamma=0.1)


def same_solution(got, expected, rtol=1e-9):
    """Biases and duals agree to rtol of the larger of 1 and the oracle's largest entry."""
    scale = max(1.0, *(float(np.max(np.abs(part))) for part in expected))
    return all(np.max(np.abs(g - e)) <= rtol * scale for g, e in zip(got[:2], expected))


class TestCoherenceGram:
    def test_dense_is_the_expanded_coherence_times_the_gram(self):
        rng = np.random.default_rng(90)
        sizes = [3, 1, 4, 2]
        U = rng.normal(size=(4, 3))
        G = gram(RBF, rng.normal(size=(10, 2)))
        coherence = U @ U.T
        coherence = 0.5 * (coherence + coherence.T)
        expected = np.repeat(np.repeat(coherence, sizes, axis=0), sizes, axis=1)
        expected *= G
        blocks = Blocks(sizes)
        Q = coherence_dense(CoherenceGram(U, G), blocks)
        assert Q.flags.c_contiguous
        np.testing.assert_array_equal(Q, expected)
        for shift in (0.5, 1e-3 + 1e-8):
            np.testing.assert_array_equal(
                coherence_dense(CoherenceGram(U, G), blocks, shift), expected + shift * np.eye(10)
            )

    def test_matvec_is_q_times_v(self):
        rng = np.random.default_rng(91)
        blocks = Blocks([2, 5, 3])
        form = CoherenceGram(rng.normal(size=(3, 2)), gram(RBF, rng.normal(size=(10, 3))))
        v = rng.normal(size=10)
        np.testing.assert_allclose(
            form.matvec(blocks, v), coherence_dense(form, blocks) @ v, rtol=1e-13, atol=1e-13
        )

    def test_shape_checks(self):
        rng = np.random.default_rng(92)
        G = gram(RBF, rng.normal(size=(5, 2)))
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            solve_dual_system(Blocks([2, 3]), CoherenceGram(np.ones((3, 1)), G), np.ones(5), 1.0)
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            solve_dual_system(Blocks([2, 2]), CoherenceGram(np.ones((2, 1)), G[:4, :5]), np.ones(4), 1.0)
        with pytest.raises(ValueError, match="single group"):
            solve_dual_system(Blocks([2, 3], (1, 1)), CoherenceGram(np.ones((2, 1)), G), np.ones(5), 1.0)

    def test_rbf_shared_step_allocates_no_system_matrix(self):
        data = random_dataset(93, mode_sizes=(2, 3), d=5, m_t=100)
        m = data.n_samples
        G = gram(RBF, data.stacked_inputs())
        factors = init_factors(data.grid, 3, seed=1)
        first = one_member(solve_shared_step, data, factors, RBF, C=10.0, gram_matrix=G)  # loads LAPACK, builds the plan
        tracemalloc.start()
        try:
            again = one_member(solve_shared_step, data, factors, RBF, C=10.0, gram_matrix=G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * m * m * 8
        np.testing.assert_array_equal(again.shared.duals, first.shared.duals)

    def test_rbf_fit_allocates_one_m_by_m_array(self):
        data = random_dataset(94, mode_sizes=(2, 3), d=5, m_t=100)
        m = data.n_samples
        cfg = FitConfig(K=3, C=10.0, kernel=RBF, max_iters=3, tol=1e-300, seed=2)
        first = fit(data, cfg)  # loads LAPACK, builds the plan
        tracemalloc.start()
        try:
            again = fit(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * m * m * 8
        np.testing.assert_array_equal(again.shared.duals, first.shared.duals)

    def test_wide_linear_fit_builds_one_gram_and_allocates_one_m_by_m_array(self, monkeypatch):
        # dK = 630 > m = 600: every shared step solves the coherence times X X^T
        data = random_dataset(96, mode_sizes=(2, 3), d=210, m_t=100)
        m = data.n_samples
        cfg = FitConfig(K=3, C=10.0, kernel=LINEAR, max_iters=3, tol=1e-300, seed=3)
        first = fit(data, cfg)  # loads LAPACK, builds the plan
        grams = []

        def counting_gram(*args):
            grams.append(args)
            return gram(*args)

        monkeypatch.setattr(solver, "gram", counting_gram)
        tracemalloc.start()
        try:
            again = fit(data, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.iterations == 3
        assert len(grams) == 1 and grams[0][1] is data.stacked_inputs()  # once per fit
        assert peak <= 1.25 * m * m * 8
        np.testing.assert_array_equal(again.shared.duals, first.shared.duals)
        assert vars(data.fit_plan.moments).keys().isdisjoint({"means", "scatter"})


class TestGramWorkspace:
    """The coherence solve factors Q + I/C in its Gram's upper triangle and gives G back."""

    def system(self, seed=95, sizes=(30, 50, 20, 40)):
        rng = np.random.default_rng(seed)
        blocks = Blocks(sizes)
        G = gram(RBF, rng.normal(size=(blocks.m, 3)))
        return blocks, CoherenceGram(rng.normal(size=(len(sizes), 2)), G), rng.normal(size=blocks.m)

    def test_gram_comes_back_after_a_solve(self):
        blocks, Q, y = self.system()
        G = Q.gram.copy()
        got = solve_dual_system(blocks, Q, y, 10.0)
        assert np.array_equal(Q.gram, G)
        assert same_solution(got, saddle_oracle(blocks, coherence_dense(Q, blocks), y, 10.0))

    def test_gram_comes_back_after_a_failed_factorization(self):
        blocks, _, y = self.system()
        G = -np.eye(blocks.m)
        Q = CoherenceGram(np.ones((len(blocks), 1)), G)
        with pytest.raises(SolverError, match="Q \\+ I/C is not positive definite"):
            solve_dual_system(blocks, Q, y, 10.0)
        assert np.array_equal(G, -np.eye(blocks.m))

    def test_refinement_refactors_in_the_gram_and_gives_it_back(self, monkeypatch):
        blocks, Q, y = self.system(sizes=(150, 110, 40))  # m = 300, three strips
        G = Q.gram.copy()
        factored, solves = [], 0
        real_cholesky, real_cho_solve = linsys._cholesky, linsys._cho_solve

        def counting_cholesky(H, what, group=0):
            factored.append(what)
            return real_cholesky(H, what, group)

        def perturbed_first_solve(factor, rhs):
            nonlocal solves
            solution = real_cho_solve(factor, rhs)
            solves += 1
            if solves == 1:
                solution[:, 0] += 1e-3  # H^-1 y, off by far more than the residual bound
            return solution

        monkeypatch.setattr(linsys, "_cholesky", counting_cholesky)
        monkeypatch.setattr(linsys, "_cho_solve", perturbed_first_solve)
        got = solve_dual_system(blocks, Q, y, 10.0)
        # H, the Schur complement, then H again for the refinement step
        assert factored == ["Q + I/C", "Schur complement A^T H^-1 A", "Q + I/C"]
        assert np.array_equal(Q.gram, G)
        assert same_solution(got, saddle_oracle(blocks, coherence_dense(Q, blocks), y, 10.0))

    def test_gram_must_be_a_writable_c_ordered_float_array(self):
        blocks, Q, y = self.system()
        read_only = Q.gram.copy()
        read_only.flags.writeable = False
        single = Q.gram.astype(np.float32)
        for G in (read_only, np.asfortranarray(Q.gram), single, Q.gram.tolist()):
            with pytest.raises(ValueError, match="writable, C-contiguous float64"):
                solve_dual_system(blocks, CoherenceGram(Q.task_vectors, G), y, 10.0)

    def test_a_fit_compares_each_grams_triangles_once(self, monkeypatch):
        # when it builds the Gram: its shared steps, 3 per member here, trust it
        compared = []

        def counted(G):
            compared.append(G.tobytes())
            real(G)

        real = linsys.check_symmetric
        monkeypatch.setattr(linsys, "check_symmetric", counted)
        monkeypatch.setattr(solver, "check_symmetric", counted)
        data = random_dataset(96, mode_sizes=(2, 2), d=3, m_t=9)
        folds = [train for train, _ in kfold_split(data, 3, 0)]  # 6 samples per task each
        config = FitConfig(K=2, C=1.0, kernel=RBF, max_iters=3, tol=1e-300)
        fit(data, config)
        assert len(compared) == 1
        fit_many(folds, config, (0.1, 10.0))
        assert len(compared) == 4 and len(set(compared[1:])) == 3

    def test_a_fit_of_several_datasets_holds_one_gram_at_a_time(self, monkeypatch):
        # each fold's members run their own alternation, in their fold's Gram,
        # which is let go before the next fold's is built, also by the error
        # of a member whose factorization failed in it
        built = []

        def tracked(*args):
            assert all(ref() is None for ref in built)
            G = real(*args)
            built.append(weakref.ref(G))
            return G

        real = solver.gram
        monkeypatch.setattr(solver, "gram", tracked)
        data = random_dataset(97, mode_sizes=(2, 2), d=3, m_t=9)
        folds = [train for train, _ in kfold_split(data, 3, 0)]
        wide = KernelSpec("rbf", gamma=1e-6)  # a Gram near rank one
        config = FitConfig(K=2, C=1.0, kernel=wide, max_iters=3, tol=1e-300)
        fits = fit_many(folds, config, (0.1, 1e16))
        assert len(built) == 3 and all(ref() is None for ref in built)
        assert "Q + I/C is not positive definite" in str(fits[0][1])
        monkeypatch.undo()
        for fold, (state, failed) in zip(folds, fits):
            lone = fit(fold, replace(config, C=0.1))
            assert state.biases.tobytes() == lone.biases.tobytes()
            assert state.shared.duals.tobytes() == lone.shared.duals.tobytes()
            with pytest.raises(SolverError) as lone_error:
                fit(fold, replace(config, C=1e16))
            assert str(failed) == str(lone_error.value)

    def test_gram_must_be_exactly_symmetric(self):
        blocks, Q, y = self.system()
        upper, lower, signed_zero = Q.gram.copy(), Q.gram.copy(), Q.gram.copy()
        upper[0, 139] = 0.5  # right of the first strip's diagonal tile
        lower[77, 3] = 0.5
        signed_zero[5, 6], signed_zero[6, 5] = 0.0, -0.0  # equal as numbers, not as bits
        for G in (upper, lower, signed_zero):
            before = G.tobytes()
            with pytest.raises(ValueError, match="exactly symmetric"):
                solve_dual_system(blocks, CoherenceGram(Q.task_vectors, G), y, 10.0)
            assert G.tobytes() == before


@st.composite
def dense_systems(draw):
    """A random dense-form system of each kind, with its dense Q and block structure."""
    mode_sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    T = int(np.prod(mode_sizes))
    K = draw(st.integers(1, 4))
    C = 10.0 ** draw(st.floats(-3.0, 4.0))
    kernel = draw(st.sampled_from([LINEAR, RBF]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, 5, size=T)
    blocks = Blocks(sizes)
    m = blocks.m
    y = rng.normal(size=m)
    U = rng.normal(size=(T, K))
    X = rng.normal(size=(m, 3))
    coherence = CoherenceGram(U, gram(kernel, X))
    # a linear shared step with more features than samples (d K > m): the
    # coherence times X X^T is Phi Phi^T for the features u_t(j) kron x_j
    wide = rng.normal(size=(m, m // K + 1))
    kron_features = (U[blocks.of][:, :, None] * wide[:, None, :]).reshape(m, -1)
    wide_linear = CoherenceGram(U, gram(LINEAR, wide))
    M = rng.normal(size=(m, m))
    dense = M @ M.T  # the single-task baseline's form, a plain matrix
    # the baseline solves every cost of a task as a member of one call
    costs = np.array([C] + [10.0**e for e in draw(st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=2))])
    return [
        (blocks, coherence, coherence_dense(coherence, blocks), y, C),
        (blocks, wide_linear, kron_features @ kron_features.T, y, C),
        (blocks, dense, dense, y, costs),
    ]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(dense_systems())
def test_dense_forms_match_the_saddle_oracle(systems):
    for blocks, form, Q, y, C in systems:
        kept = form.gram.copy() if isinstance(form, CoherenceGram) else None
        got = solve_dual_system(blocks, form, y, C)
        if np.ndim(C):
            assert all(error is None for error in got.errors)
            for b, cost in enumerate(C):
                member = (got.biases[b], got.duals[b])
                assert same_solution(member, saddle_oracle(blocks, Q, y, cost))
                lone = solve_dual_system(blocks, form, y, cost)
                assert member[0].tobytes() == lone.biases.tobytes() and member[1].tobytes() == lone.duals.tobytes()
        else:
            assert same_solution(got, saddle_oracle(blocks, Q, y, C))
        if kept is not None:
            assert form.gram.tobytes() == kept.tobytes()

