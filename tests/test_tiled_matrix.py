"""Unit tests for tile grids and tiled matrices."""

import numpy as np
import pytest

from repro.errors import ShapeError, StorageError, ValidationError
from repro.matrix.tiled import DenseBacking, TileGrid, TiledMatrix


class TestTileGrid:
    def test_exact_division(self):
        grid = TileGrid(100, 60, 20)
        assert grid.tile_rows == 5
        assert grid.tile_cols == 3
        assert grid.num_tiles == 15

    def test_ragged_edges(self):
        grid = TileGrid(105, 61, 20)
        assert grid.tile_rows == 6
        assert grid.tile_cols == 4
        assert grid.tile_shape(5, 3) == (5, 1)

    def test_full_tile_shape(self):
        grid = TileGrid(105, 61, 20)
        assert grid.tile_shape(0, 0) == (20, 20)

    def test_tile_larger_than_matrix(self):
        grid = TileGrid(5, 7, 100)
        assert grid.num_tiles == 1
        assert grid.tile_shape(0, 0) == (5, 7)

    def test_invalid_shape(self):
        with pytest.raises(ValidationError):
            TileGrid(0, 10, 5)
        with pytest.raises(ValidationError):
            TileGrid(10, -1, 5)

    def test_invalid_tile_size(self):
        with pytest.raises(ValidationError):
            TileGrid(10, 10, 0)

    def test_position_bounds_checked(self):
        grid = TileGrid(40, 40, 20)
        with pytest.raises(ValidationError):
            grid.tile_shape(2, 0)
        with pytest.raises(ValidationError):
            grid.check_position(0, 5)
        with pytest.raises(ValidationError):
            TiledMatrix("A", grid).put_tile(0, 5, np.zeros((20, 20)))

    def test_positions_cover_grid(self):
        grid = TileGrid(50, 30, 20)
        positions = list(grid.positions())
        assert len(positions) == grid.num_tiles
        assert len(set(positions)) == grid.num_tiles

    def test_slices_partition_matrix(self):
        data = np.arange(45.0 * 33).reshape(45, 33)
        matrix = TiledMatrix.from_numpy("A", data, 16)
        covered = np.zeros((45, 33), dtype=int)
        for row, col in matrix.grid.positions():
            height, width = matrix.grid.tile_shape(row, col)
            rows = slice(row * 16, row * 16 + height)
            cols = slice(col * 16, col * 16 + width)
            np.testing.assert_array_equal(
                matrix.get_tile(row, col).to_dense(), data[rows, cols])
            covered[rows, cols] += 1
        assert (covered == 1).all()

    @pytest.mark.parametrize("axis, start, stop, runs", [
        (0, 0, 3, ((4, 2), (2, 1))),   # 10 rows: two full tiles, edge 2
        (0, 1, 2, ((4, 1),)),          # interior range: no edge tile
        (0, 2, 3, ((2, 1),)),          # only the ragged edge
        (0, 3, 3, ()),                 # empty range
        (1, 0, 2, ((4, 2),)),          # 8 cols: the last tile is full
    ])
    def test_extents_are_run_lengths(self, axis, start, stop, runs):
        assert TileGrid(10, 8, 4).extents(axis, start, stop) == runs

    def test_extents_range_checked(self):
        with pytest.raises(ValidationError):
            TileGrid(10, 8, 4).extents(0, 2, 4)


class TestTiledMatrix:
    def test_roundtrip(self):
        data = np.arange(35.0).reshape(5, 7)
        matrix = TiledMatrix.from_numpy("A", data, tile_size=3)
        np.testing.assert_array_equal(matrix.to_numpy(), data)

    def test_roundtrip_single_tile(self):
        data = np.eye(4)
        matrix = TiledMatrix.from_numpy("A", data, tile_size=100)
        np.testing.assert_array_equal(matrix.to_numpy(), data)

    def test_name_required(self):
        with pytest.raises(ValidationError):
            TiledMatrix("", TileGrid(4, 4, 2))

    def test_put_tile_wrong_shape_rejected(self):
        matrix = TiledMatrix.from_numpy("A", np.zeros((6, 6)), tile_size=3)
        with pytest.raises(ShapeError):
            matrix.put_tile(0, 0, np.zeros((2, 2)))

    def test_get_missing_tile_raises(self):
        matrix = TiledMatrix("A", TileGrid(4, 4, 2), DenseBacking())
        # The same error family as TileStore's miss, not a ShapeError.
        with pytest.raises(StorageError):
            matrix.get_tile(0, 0)
        with pytest.raises(KeyError):
            matrix.get_tile(0, 0)

    def test_tiles_iteration_order(self):
        matrix = TiledMatrix.from_numpy("A", np.arange(16.0).reshape(4, 4), 2)
        ids = [tile.tile_id for tile in matrix.tiles()]
        assert [(t.row, t.col) for t in ids] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_nbytes_positive(self):
        matrix = TiledMatrix.from_numpy("A", np.ones((10, 10)), 4)
        assert matrix.nbytes() >= 800

    def test_density(self):
        data = np.zeros((10, 10))
        data[0, :5] = 1.0
        matrix = TiledMatrix.from_numpy("A", data, 5)
        assert sum(tile.nnz for tile in matrix.tiles()) == 5

    def test_density_empty_matrix_is_zero_free(self):
        matrix = TiledMatrix.from_numpy("A", np.zeros((4, 4)), 2)
        assert all(tile.is_sparse and tile.nnz == 0
                   for tile in matrix.tiles())

    def test_sparse_tiles_compact_automatically(self):
        data = np.zeros((100, 100))
        data[0, 0] = 1.0
        matrix = TiledMatrix.from_numpy("A", data, 50)
        assert matrix.get_tile(0, 0).is_sparse
        np.testing.assert_array_equal(matrix.to_numpy(), data)

    def test_shared_backing(self):
        backing = DenseBacking()
        TiledMatrix.from_numpy("A", np.ones((4, 4)), 2, backing)
        TiledMatrix.from_numpy("B", np.zeros((4, 4)), 2, backing)
        assert len(backing) == 8

    def test_1d_input_promoted(self):
        matrix = TiledMatrix.from_numpy("v", np.arange(5.0), 2)
        assert matrix.shape == (1, 5)
