from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tlssvm.errors import ConfigError, UnsupportedOperation
from tlssvm.kernels import KernelSpec, feature_map, gram, sq_norms
from conftest import feature_dim, kernel_eval


class TestKernelSpec:
    def test_rbf_requires_positive_gamma(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        with pytest.raises(ValueError):
            KernelSpec("rbf", gamma=-1.0)
        for gamma in (math.inf, math.nan):
            with pytest.raises(ConfigError, match="finite gamma > 0"):
                KernelSpec("rbf", gamma=gamma)

    def test_linear_forbids_gamma(self):
        with pytest.raises(ValueError):
            KernelSpec("linear", gamma=0.5)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec("polynomial")

    def test_config_roundtrip(self):
        for spec in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.25)):
            assert KernelSpec.from_config(spec.to_config()) == spec

    def test_config_unknown_key(self):
        with pytest.raises(ConfigError):
            KernelSpec.from_config({"family": "linear", "degree": 3})

    def test_feature_map_flags(self):
        assert KernelSpec("linear").has_feature_map
        assert not KernelSpec("rbf", gamma=1.0).has_feature_map


class TestEval:
    def test_rbf_zero_distance(self):
        x = np.array([1.0, -2.0, 0.5])
        assert kernel_eval(KernelSpec("rbf", gamma=3.0), x, x) == 1.0

    def test_linear_dot_product(self):
        assert kernel_eval(KernelSpec("linear"), [1.0, 2.0], [3.0, -1.0]) == 1.0

    def test_rbf_direct_substitution(self):
        # gamma=0.5 and squared distance 2 gives e^{-1}
        val = kernel_eval(KernelSpec("rbf", gamma=0.5), [1.0, 1.0], [0.0, 0.0])
        assert abs(val - math.exp(-1.0)) < 1e-15

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelSpec("linear"), [1.0, 2.0], [1.0])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = rng.normal(size=4), rng.normal(size=4)
            assert kernel_eval(KernelSpec("linear"), x, y) == kernel_eval(
                KernelSpec("linear"), y, x
            )
            r = KernelSpec("rbf", gamma=0.7)
            assert abs(kernel_eval(r, x, y) - kernel_eval(r, y, x)) < 1e-15

    def test_rbf_bounds(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec("rbf", gamma=0.3)
        for _ in range(50):
            x, y = rng.normal(size=3), rng.normal(size=3)
            v = kernel_eval(spec, x, y)
            assert 0.0 < v <= 1.0
            assert (v == 1.0) == bool(np.array_equal(x, y))


class TestGram:
    def test_single_sample_rbf(self):
        G = gram(KernelSpec("rbf", gamma=2.0), np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(G, [[1.0]])

    def test_linear_identity_rows(self):
        X = np.eye(4)
        np.testing.assert_array_equal(gram(KernelSpec("linear"), X), np.eye(4))

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.4)])
    def test_entrywise_oracle(self, spec):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(3, 2))
        Y = rng.normal(size=(4, 2))
        G = gram(spec, X, Y)
        assert G.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                assert abs(G[i, j] - kernel_eval(spec, X[i], Y[j])) < 1e-14

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.9)])
    def test_gram_symmetric_and_psd(self, spec):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(12, 4))
        G = gram(spec, X)
        np.testing.assert_array_equal(G, G.T)
        np.linalg.cholesky(G + 1e-10 * np.eye(12))

    @pytest.mark.parametrize("gamma", [1e-3, 0.4, 1.0])
    def test_rbf_matches_textbook_formula(self, gamma):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(40, 5))
        X[7] = X[3]  # a duplicate sample: distance zero
        Y = np.vstack([rng.normal(size=(25, 5)), X[:2]])
        spec = KernelSpec("rbf", gamma=gamma)

        def textbook(A, B):
            return np.exp(-gamma * ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))

        for G, expected in ((gram(spec, X, Y), textbook(X, Y)), (gram(spec, X), textbook(X, X))):
            assert np.max(np.abs(G - expected)) <= 1e-14
            assert np.all((G >= 0.0) & (G <= 1.0))

    def test_shape_error(self):
        with pytest.raises(ValueError):
            gram(KernelSpec("linear"), np.ones((3, 2)), np.ones((3, 4)))

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.3)])
    @pytest.mark.parametrize("m", [1, 255, 256, 257, 513])
    def test_symmetric_gram_is_the_whole_matrix_formula(self, spec, m):
        X = np.random.default_rng(m).normal(size=(m, 4))
        # the symmetrization as whole-matrix operations, which make an m x m temporary
        expected = X @ X.T
        if spec.family == "rbf":
            expected *= -2.0
            expected += (X * X).sum(axis=1)[:, None]
            expected += (X * X).sum(axis=1)[None, :]
            np.maximum(expected, 0.0, out=expected)
            expected *= -spec.gamma
            np.exp(expected, out=expected)
        expected += expected.T
        expected *= 0.5
        assert gram(spec, X).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", gamma=0.3)])
    def test_symmetric_gram_allocates_one_matrix(self, spec):
        # m large enough that numpy's fixed-size ufunc buffers (about 0.26 MB)
        # stay below the 0.1 m^2 floats of slack
        m = 1000
        X = np.random.default_rng(7).normal(size=(m, 4))
        tracemalloc.start()
        try:
            gram(spec, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * m * m * 8


class TestGivenNorms:
    def test_sq_norms_is_the_row_sum_of_squares(self):
        X = np.random.default_rng(3).normal(size=(17, 5))
        assert sq_norms(X).tobytes() == (X * X).sum(axis=1).tobytes()

    @pytest.mark.parametrize("shape", [(3,), (5,), (4, 1)])
    def test_norms_of_the_wrong_shape_raise(self, shape):
        with pytest.raises(ValueError, match="row norms for 4 samples"):
            gram(KernelSpec("rbf", gamma=0.5), np.ones((4, 2)), np.ones((3, 2)), np.ones(shape))

    def test_linear_gram_never_reads_the_norms(self):
        X = np.random.default_rng(4).normal(size=(6, 3))
        Y = X[:2]
        # norms with the right shape and wrong values change nothing
        assert gram(KernelSpec("linear"), X, Y, np.zeros(6)).tobytes() == gram(KernelSpec("linear"), X, Y).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    st.integers(1, 40),
    st.integers(0, 12),
    st.integers(1, 8),
    st.sampled_from([KernelSpec("linear"), KernelSpec("rbf", gamma=1e-3), KernelSpec("rbf", gamma=0.7)]),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, 30, KernelSpec("rbf", gamma=0.7), 1.0, 0)
@example(1, 0, 3, KernelSpec("rbf", gamma=0.7), 1.0, 1)
def test_given_norms_give_the_same_bits(m, n_query, d, spec, scale, seed):
    """n_query 0 is the symmetric Gram; m 1 is a single training row."""
    rng = np.random.default_rng(seed)
    X = scale * rng.normal(size=(m, d))
    X_other = None if n_query == 0 else scale * rng.normal(size=(n_query, d))
    assert gram(spec, X, X_other, sq_norms(X)).tobytes() == gram(spec, X, X_other).tobytes()


class TestFeatureMap:
    def test_linear_identity(self):
        np.testing.assert_array_equal(
            feature_map(KernelSpec("linear"), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]
        )

    def test_reproducing_property(self):
        rng = np.random.default_rng(7)
        spec = KernelSpec("linear")
        for _ in range(10):
            x, y = rng.normal(size=5), rng.normal(size=5)
            assert abs(feature_map(spec, x) @ feature_map(spec, y) - kernel_eval(spec, x, y)) < 1e-12

    def test_rbf_unsupported(self):
        with pytest.raises(UnsupportedOperation):
            feature_map(KernelSpec("rbf", gamma=1.0), [1.0])

    def test_feature_dim(self):
        assert feature_dim(KernelSpec("linear"), 6) == 6
        with pytest.raises(UnsupportedOperation):
            feature_dim(KernelSpec("rbf", gamma=1.0), 6)
