"""The dense form of the saddle solve: the buffer it factors and the forms that fill it.

A CoherenceGram, a KroneckerGram with more features than samples, and the
groups of a FeatureGram with more columns than rows are all solved by a
Cholesky factorization of H = Q + I/C_eff. The solve factors H in the one
m x m buffer the form builds and checks its residual through the form's
own operator, so no copy of Q is kept beside it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlssvm.kernels import KernelSpec, gram
from tlssvm.linsys import (
    Blocks,
    CoherenceGram,
    FeatureGram,
    KroneckerGram,
    TaskMoments,
    solve_dual_system,
)
from tlssvm.solver import init_factors, solve_shared_step
from conftest import random_dataset, saddle_oracle

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
        Q = CoherenceGram(U, G).dense(blocks)
        assert Q.flags.c_contiguous
        np.testing.assert_array_equal(Q, expected)
        for shift in (0.5, 1e-3 + 1e-8):
            np.testing.assert_array_equal(
                CoherenceGram(U, G).dense(blocks, shift), expected + shift * np.eye(10)
            )

    def test_matvec_is_q_times_v(self):
        rng = np.random.default_rng(91)
        blocks = Blocks([2, 5, 3])
        form = CoherenceGram(rng.normal(size=(3, 2)), gram(RBF, rng.normal(size=(10, 3))))
        v = rng.normal(size=10)
        np.testing.assert_allclose(form.matvec(blocks, v), form.dense(blocks) @ v, rtol=1e-13, atol=1e-13)

    def test_shape_checks(self):
        rng = np.random.default_rng(92)
        G = gram(RBF, rng.normal(size=(5, 2)))
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            solve_dual_system(Blocks([2, 3]), CoherenceGram(np.ones((3, 1)), G), np.ones(5), 1.0)
        with pytest.raises(ValueError, match="inconsistent system shapes"):
            solve_dual_system(Blocks([2, 2]), CoherenceGram(np.ones((2, 1)), G[:4, :5]), np.ones(4), 1.0)
        with pytest.raises(ValueError, match="single group"):
            solve_dual_system(Blocks([2, 3], (1, 1)), CoherenceGram(np.ones((2, 1)), G), np.ones(5), 1.0)

    def test_rbf_shared_step_allocates_one_system_matrix(self):
        data = random_dataset(93, mode_sizes=(2, 3), d=5, m_t=100)
        m = data.n_samples
        G = gram(RBF, data.stacked_inputs())
        factors = init_factors(data.grid, 3, seed=1)
        first = solve_shared_step(data, factors, RBF, 10.0, gram_matrix=G)  # loads LAPACK, builds the plan
        tracemalloc.start()
        try:
            again = solve_shared_step(data, factors, RBF, 10.0, gram_matrix=G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * m * m * 8
        np.testing.assert_array_equal(again.shared.duals, first.shared.duals)


@st.composite
def dense_systems(draw):
    """A random dense-form system of each kind, with its dense Q and block structure."""
    mode_sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    T = int(np.prod(mode_sizes))
    K = draw(st.integers(1, 4))
    C = 10.0 ** draw(st.floats(-3.0, 4.0))
    kernel = draw(st.sampled_from([KernelSpec("linear"), RBF]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, 5, size=T)
    blocks = Blocks(sizes)
    m = blocks.m
    y = rng.normal(size=m)
    U = rng.normal(size=(T, K))
    X = rng.normal(size=(m, 3))
    coherence = CoherenceGram(U, gram(kernel, X))
    # more features than samples: d K > m
    wide = rng.normal(size=(m, m // K + 1))
    kron = KroneckerGram(U, TaskMoments(blocks, wide))
    # one group per task; the smallest takes the dense form
    grouped = Blocks(sizes, (1,) * T)
    Phi = rng.normal(size=(m, K + int(sizes.min())))
    blockdiag = np.zeros((m, m))
    for rows, _ in grouped.group_slices:
        blockdiag[rows, rows] = Phi[rows] @ Phi[rows].T
    return [
        (blocks, coherence, coherence.dense(blocks), y, C),
        (blocks, kron, kron.dense(blocks), y, C),
        (grouped, FeatureGram(Phi), blockdiag, y, C),
    ]


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(dense_systems())
def test_dense_forms_match_the_saddle_oracle(systems):
    for blocks, form, Q, y, C in systems:
        got = solve_dual_system(blocks, form, y, C)
        assert same_solution(got, saddle_oracle(blocks, Q, y, C))

