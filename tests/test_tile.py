"""Unit tests for tiles and tile-level kernels."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import ShapeError, ValidationError
from repro.matrix.tile import (
    SPARSE_THRESHOLD,
    Tile,
    TileId,
    densify,
    matmul_flops,
    maybe_sparsify,
    tile_matmul,
)
from repro.matrix.tiled import TileGrid, TiledMatrix


class TestTileId:
    def test_key_is_stable(self):
        assert TileId("A", 2, 3).key() == "A/tile_2_3"

    def test_equality(self):
        assert TileId("A", 0, 0) == TileId("A", 0, 0)
        assert TileId("A", 0, 0) != TileId("B", 0, 0)

    def test_negative_indices_rejected(self):
        with pytest.raises(ValidationError):
            TileId("A", -1, 0)
        with pytest.raises(ValidationError):
            TileId("A", 0, -2)

    def test_hashable(self):
        assert len({TileId("A", 0, 0), TileId("A", 0, 0)}) == 1


class TestTile:
    def test_dense_tile_shape(self):
        tile = Tile(TileId("A", 0, 0), np.ones((3, 4)))
        assert tile.shape == (3, 4)
        assert not tile.is_sparse

    def test_1d_input_promoted_to_2d(self):
        tile = Tile(TileId("A", 0, 0), np.arange(4.0))
        assert tile.shape == (1, 4)

    def test_3d_input_rejected(self):
        with pytest.raises(ShapeError):
            Tile(TileId("A", 0, 0), np.zeros((2, 2, 2)))

    def test_sparse_tile(self):
        payload = sparse.csr_matrix(np.eye(5))
        tile = Tile(TileId("A", 0, 0), payload)
        assert tile.is_sparse
        assert tile.shape == (5, 5)
        assert tile.nnz == 5

    def test_nnz_dense(self):
        data = np.zeros((4, 4))
        data[0, 0] = data[1, 2] = 1.0
        assert Tile(TileId("A", 0, 0), data).nnz == 2

    def test_nbytes_dense(self):
        tile = Tile(TileId("A", 0, 0), np.ones((10, 10)))
        assert tile.nbytes() == 800

    def test_nbytes_sparse_smaller_for_sparse_data(self):
        data = np.zeros((100, 100))
        data[0, 0] = 1.0
        dense_tile = Tile(TileId("A", 0, 0), data)
        sparse_tile = Tile(TileId("A", 0, 0), maybe_sparsify(data))
        assert sparse_tile.is_sparse
        assert sparse_tile.nbytes() < dense_tile.nbytes()

    def test_nbytes_has_floor(self):
        tile = Tile(TileId("A", 0, 0), np.zeros((1, 1)))
        assert tile.nbytes() >= 64

    def test_to_dense_roundtrip(self):
        data = np.arange(12.0).reshape(3, 4)
        tile = Tile(TileId("A", 0, 0), data)
        np.testing.assert_array_equal(tile.to_dense(), data)

    def test_compacted_keeps_dense_when_dense(self):
        matrix = TiledMatrix("A", TileGrid(8, 8, 8))
        matrix.put_tile(0, 0, np.ones((8, 8)))
        assert not matrix.get_tile(0, 0).is_sparse

    def test_compacted_preserves_values(self):
        data = np.zeros((20, 20))
        data[3, 7] = 2.5
        matrix = TiledMatrix("A", TileGrid(20, 20, 20))
        matrix.put_tile(0, 0, data)
        tile = matrix.get_tile(0, 0)
        assert tile.is_sparse
        np.testing.assert_array_equal(tile.to_dense(), data)


class TestSparsify:
    def test_below_threshold_becomes_sparse(self):
        data = np.zeros((10, 10))
        data[0, 0] = 1.0
        assert sparse.issparse(maybe_sparsify(data))

    def test_dense_data_stays_dense(self):
        assert not sparse.issparse(maybe_sparsify(np.ones((10, 10))))

    def test_threshold_boundary(self):
        n = 100
        data = np.zeros((n, 1))
        count = int(n * SPARSE_THRESHOLD)
        data[:count, 0] = 1.0
        # Exactly at threshold: stays dense (strict less-than).
        assert not sparse.issparse(maybe_sparsify(data))

    def test_empty_array(self):
        result = maybe_sparsify(np.zeros((0, 0)))
        assert result.size == 0

    def test_densify_sparse(self):
        data = sparse.csr_matrix(np.eye(3))
        out = densify(data)
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, np.eye(3))


class TestKernels:
    def test_matmul_dense(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(tile_matmul(a, b), a @ b)

    def test_matmul_sparse_sparse_stays_sparse(self):
        a = sparse.csr_matrix(np.eye(3))
        b = sparse.csr_matrix(np.eye(3) * 2)
        result = tile_matmul(a, b)
        assert sparse.issparse(result)
        np.testing.assert_allclose(densify(result), np.eye(3) * 2)

    def test_matmul_mixed_densifies(self):
        a = sparse.csr_matrix(np.eye(3))
        b = np.ones((3, 2))
        result = tile_matmul(a, b)
        assert isinstance(result, np.ndarray)
        np.testing.assert_allclose(result, np.ones((3, 2)))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tile_matmul(np.ones((2, 3)), np.ones((2, 3)))


class TestFlopCounts:
    def test_matmul_flops(self):
        assert matmul_flops(10, 20, 30) == 2 * 10 * 20 * 30
