"""Unit tests for the synthetic data generators."""

import numpy as np
import pytest

from repro.data.generators import (
    low_rank_plus_noise,
    random_dense,
    random_gaussian,
    random_nonnegative,
    random_sparse,
    regression_dataset,
    stochastic_adjacency,
)
from repro.errors import ValidationError


class TestRandomDense:
    def test_shape_and_range(self):
        matrix = random_dense("A", 30, 20, seed=1)
        data = matrix.to_numpy()
        assert data.shape == (30, 20)
        assert (data >= 0).all() and (data < 1).all()

    def test_seed_reproducibility(self):
        a = random_dense("A", 10, 10, seed=42).to_numpy()
        b = random_dense("A", 10, 10, seed=42).to_numpy()
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_dense("A", 10, 10, seed=1).to_numpy()
        b = random_dense("A", 10, 10, seed=2).to_numpy()
        assert not np.array_equal(a, b)

    def test_scale(self):
        data = random_dense("A", 20, 20, seed=1, scale=5.0).to_numpy()
        assert data.max() > 1.0

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            random_dense("A", 5, 5, seed=1, scale=0.0)


class TestRandomGaussian:
    def test_roughly_standard(self):
        data = random_gaussian("G", 100, 100, seed=3).to_numpy()
        assert abs(data.mean()) < 0.05
        assert abs(data.std() - 1.0) < 0.05


class TestRandomSparse:
    def test_density_respected(self):
        matrix = random_sparse("S", 100, 100, density=0.05, seed=5)
        density = np.count_nonzero(matrix.to_numpy()) / (100 * 100)
        assert density == pytest.approx(0.05, abs=0.02)

    def test_invalid_density(self):
        with pytest.raises(ValidationError):
            random_sparse("S", 10, 10, density=1.5, seed=1)
        with pytest.raises(ValidationError):
            random_sparse("S", 10, 10, density=-0.1, seed=1)

    def test_zero_density(self):
        matrix = random_sparse("S", 10, 10, density=0.0, seed=1)
        assert not matrix.to_numpy().any()


class TestRandomNonnegative:
    def test_strictly_positive(self):
        data = random_nonnegative("N", 40, 30, seed=2).to_numpy()
        assert (data > 0).all()


class TestRegressionDataset:
    def test_shapes(self):
        x, y, w = regression_dataset(50, 5, seed=1)
        assert x.shape == (50, 5)
        assert y.shape == (50, 1)
        assert w.shape == (5,)

    def test_recoverable_weights(self):
        x, y, w_true = regression_dataset(500, 4, seed=2, noise=0.01)
        x_np, y_np = x.to_numpy(), y.to_numpy()
        w_hat = np.linalg.lstsq(x_np, y_np.ravel(), rcond=None)[0]
        np.testing.assert_allclose(w_hat, w_true, atol=0.05)

    def test_invalid_dimensions(self):
        with pytest.raises(ValidationError):
            regression_dataset(0, 5, seed=1)


class TestLowRank:
    def test_planted_rank_dominates(self):
        matrix = low_rank_plus_noise("L", 60, 40, rank=3, seed=4, noise=1e-6)
        singular_values = np.linalg.svd(matrix.to_numpy(), compute_uv=False)
        assert singular_values[2] > 1e3 * singular_values[3]

    def test_invalid_rank(self):
        with pytest.raises(ValidationError):
            low_rank_plus_noise("L", 10, 10, rank=0, seed=1)
        with pytest.raises(ValidationError):
            low_rank_plus_noise("L", 10, 10, rank=11, seed=1)


class TestStochasticAdjacency:
    def test_columns_sum_to_one(self):
        matrix = stochastic_adjacency("A", 50, avg_degree=5, seed=6)
        sums = matrix.to_numpy().sum(axis=0)
        np.testing.assert_allclose(sums, np.ones(50))

    def test_no_dangling_columns(self):
        matrix = stochastic_adjacency("A", 30, avg_degree=0.5, seed=7)
        assert (matrix.to_numpy().sum(axis=0) > 0).all()

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            stochastic_adjacency("A", 0, avg_degree=2, seed=1)
        with pytest.raises(ValidationError):
            stochastic_adjacency("A", 10, avg_degree=0, seed=1)
