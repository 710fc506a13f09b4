"""Random feature expansion: frozen arithmetic, keying, and immutability."""

import numpy as np
import pytest

from gclstream.expansion import RandomExpansion
from gclstream.errors import ShapeError

from oracles import gaussian_columns_ref


def _with_weights(weights: np.ndarray):
    """An expansion whose projection is pinned to a hand-written matrix."""
    weights = np.asarray(weights, dtype=np.float64)
    exp = RandomExpansion(weights.shape[0], weights.shape[1], seed=0)
    weights = weights.copy()
    weights.setflags(write=False)
    exp._weights = weights
    return exp


class TestExpansionArithmetic:
    """The map is ReLU(h @ R) with hand-checkable numbers."""

    def test_rectifier_passes_positive_kills_negative(self):
        exp = _with_weights([[1.0, -1.0, 2.0], [0.0, 1.0, -1.0]])
        np.testing.assert_array_equal(exp(np.array([1.0, 1.0])),
                                      [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(exp(np.array([-1.0, 0.0])),
                                      [0.0, 1.0, 0.0])

    def test_zero_row_maps_to_zero_row(self):
        exp = RandomExpansion(5, 16, seed=3)
        np.testing.assert_array_equal(exp(np.zeros((1, 5))), np.zeros((1, 16)))

    def test_output_is_the_rectified_projection(self):
        """Large inputs of either sign come out as max(h @ R, 0), bit for
        bit: nothing bounds or rescales them."""
        exp = RandomExpansion(4, 32, seed=1)
        X = np.random.default_rng(0).standard_normal((8, 4)) * 50.0
        out = exp(X)
        np.testing.assert_array_equal(out, np.maximum(X @ exp.weights, 0.0))
        assert (out == 0.0).any() and out.max() > 1.0

    def test_batch_equals_row_by_row(self):
        # batching only reorders the dot-product summation (gemm vs gemv)
        exp = RandomExpansion(6, 24, seed=9)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 6))
        stacked = np.stack([exp(X[i]) for i in range(5)])
        np.testing.assert_allclose(exp(X), stacked, rtol=1e-12, atol=1e-14)


class TestExpansionKeying:
    """Weights are a pure function of (seed, column); width never reshuffles."""

    def test_same_seed_same_weights(self):
        a = RandomExpansion(7, 20, seed=42)
        b = RandomExpansion(7, 20, seed=42)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_different_seed_different_weights(self):
        a = RandomExpansion(7, 20, seed=42)
        b = RandomExpansion(7, 20, seed=43)
        assert np.abs(a.weights - b.weights).max() > 1e-3

    def test_prefix_stability_under_width_growth(self):
        """Growing M keeps every existing column bit-identical, so width
        sweeps compare routers over nested feature sets."""
        small = RandomExpansion(5, 8, seed=11)
        large = RandomExpansion(5, 64, seed=11)
        np.testing.assert_array_equal(large.weights[:, :8], small.weights)

    @pytest.mark.parametrize("d, M, seed", [
        (1, 1, 0), (3, 1, 9), (16, 40, 12345), (5, 7, 2**63 - 1),
        (4, 3, 2**63 + 11), (2, 5, 2**64 - 1)])
    def test_weights_equal_one_generator_per_column(self, d, M, seed):
        """Re-keying one generator per column draws what a new generator
        per column draws."""
        np.testing.assert_array_equal(RandomExpansion(d, M, seed).weights,
                                      gaussian_columns_ref(d, M, seed))

    def test_weights_are_read_only(self):
        exp = RandomExpansion(3, 4, seed=0)
        with pytest.raises(ValueError):
            exp.weights[0, 0] = 1.0

    def test_weight_distribution_is_standard_normal(self):
        exp = RandomExpansion(64, 512, seed=5)
        w = exp.weights.ravel()
        assert abs(w.mean()) < 0.02
        assert abs(w.std() - 1.0) < 0.02


class TestExpansionKernel:
    @pytest.mark.parametrize("M", [4096, 16384])
    def test_gram_converges_to_the_arc_cosine_kernel(self, M):
        """(1/M) ΦΦᵀ lies within 4/√M of the degree-1 arc-cosine kernel
        k(x, y) = ‖x‖‖y‖(sin θ + (π − θ) cos θ)/(2π), in units of ‖x‖‖y‖
        (measured 2-3/√M); without the ReLU, or with W scaled by 1.1, the
        error is 37/√M and 9/√M at M = 4096."""
        X = np.random.default_rng(0).standard_normal((30, 32))
        norms = np.linalg.norm(X, axis=1)
        scale = np.outer(norms, norms)
        theta = np.arccos(np.clip(X @ X.T / scale, -1.0, 1.0))
        kernel = scale * (np.sin(theta) + (np.pi - theta) * np.cos(theta)) \
            / (2 * np.pi)
        phi = RandomExpansion(32, M, seed=0)(X)
        error = np.abs(phi @ phi.T / M - kernel) / scale
        assert error.max() < 4 / np.sqrt(M)


class TestExpansionValidation:
    def test_wrong_input_width_raises(self):
        exp = RandomExpansion(4, 8, seed=0)
        with pytest.raises(ShapeError):
            exp(np.zeros((2, 5)))

    def test_nonpositive_dimensions_raise(self):
        with pytest.raises(ShapeError):
            RandomExpansion(0, 8, seed=0)
        with pytest.raises(ShapeError):
            RandomExpansion(4, 0, seed=0)

    def test_activation_is_not_a_parameter(self):
        """The expansion is keyed by (d, M, seed) alone."""
        with pytest.raises(TypeError):
            RandomExpansion(4, 8, seed=0, activation="relu")

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError):
            RandomExpansion(4, 8, seed=-1)
