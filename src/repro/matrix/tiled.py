"""Tiled matrices: logical shape plus a grid of tiles.

:class:`TiledMatrix` owns only *metadata* — the logical shape, the tile size,
and the name under which tiles are stored.  The tile payloads themselves live
in a :class:`repro.hdfs.tilestore.TileStore`, mirroring Cumulon where matrices
are HDFS directories of tile files.  For convenience (tests, examples) a
matrix can also be materialized fully in memory via :class:`DenseBacking`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import FileNotFoundInHDFSError, ShapeError, ValidationError
from repro.matrix.tile import Tile, TileId, maybe_sparsify

#: Default tile side, matching Cumulon's "a few thousand" squared tiles,
#: scaled down so laptop-scale tests stay fast.
DEFAULT_TILE_SIZE = 256


@dataclass(frozen=True)
class TileGrid:
    """Geometry of a tiled matrix: logical shape and tile side length."""

    rows: int
    cols: int
    tile_size: int = DEFAULT_TILE_SIZE

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValidationError(f"matrix shape must be positive, got {self.shape}")
        if self.tile_size <= 0:
            raise ValidationError(f"tile size must be positive, got {self.tile_size}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def tile_rows(self) -> int:
        """Number of tile rows."""
        return math.ceil(self.rows / self.tile_size)

    @property
    def tile_cols(self) -> int:
        """Number of tile columns."""
        return math.ceil(self.cols / self.tile_size)

    @property
    def num_tiles(self) -> int:
        return self.tile_rows * self.tile_cols

    def tile_shape(self, tile_row: int, tile_col: int) -> tuple[int, int]:
        """Shape of the tile at grid position (tile_row, tile_col)."""
        self.check_position(tile_row, tile_col)
        height = min(self.tile_size, self.rows - tile_row * self.tile_size)
        width = min(self.tile_size, self.cols - tile_col * self.tile_size)
        return (height, width)

    def extents(self, axis: int, start: int,
                stop: int) -> tuple[tuple[int, int], ...]:
        """Tile lengths along ``axis`` (0 rows, 1 cols) over tile indices
        ``[start, stop)`` as ``(length, count)`` runs: every tile is
        ``tile_size`` long except possibly the grid's last."""
        size = self.shape[axis]
        tiles = -(-size // self.tile_size)
        if not 0 <= start <= stop <= tiles:
            raise ValidationError(
                f"tile range [{start}, {stop}) outside axis {axis} "
                f"of {tiles} tiles")
        edge = size - (tiles - 1) * self.tile_size
        ragged = start < stop == tiles and edge != self.tile_size
        full = stop - start - ragged
        runs = ((self.tile_size, full),) if full else ()
        return runs + ((edge, 1),) if ragged else runs

    def check_position(self, tile_row: int, tile_col: int) -> None:
        if not (0 <= tile_row < self.tile_rows and 0 <= tile_col < self.tile_cols):
            raise ValidationError(
                f"tile position ({tile_row}, {tile_col}) outside grid "
                f"{self.tile_rows}x{self.tile_cols}"
            )

    def positions(self):
        """Iterate all (tile_row, tile_col) grid positions in row-major order."""
        for tile_row in range(self.tile_rows):
            for tile_col in range(self.tile_cols):
                yield (tile_row, tile_col)


def _blocks(grid: TileGrid):
    """Iterate ``(tile_row, tile_col, rows, cols)`` over ``grid`` in
    row-major order; ``rows``/``cols`` slice that tile out of the assembled
    matrix (numpy clips the last strip to the ragged edge)."""
    size = grid.tile_size
    for tile_row, row in enumerate(range(0, grid.rows, size)):
        rows = slice(row, row + size)
        for tile_col, col in enumerate(range(0, grid.cols, size)):
            yield tile_row, tile_col, rows, slice(col, col + size)


class TileBacking:
    """Interface for where a matrix's tile payloads live."""

    def get(self, tile_id: TileId) -> Tile:
        raise NotImplementedError

    def put(self, tile: Tile) -> None:
        raise NotImplementedError


class DenseBacking(TileBacking):
    """In-memory backing: a plain dict from tile key to Tile."""

    def __init__(self) -> None:
        self._tiles: dict[str, Tile] = {}

    def get(self, tile_id: TileId) -> Tile:
        try:
            return self._tiles[tile_id.key()]
        except KeyError:
            raise FileNotFoundInHDFSError(
                f"tile {tile_id.key()} was never written") from None

    def put(self, tile: Tile) -> None:
        self._tiles[tile.tile_id.key()] = tile

    def __len__(self) -> int:
        return len(self._tiles)


class TiledMatrix:
    """A named matrix partitioned into tiles held by a backing store."""

    def __init__(self, name: str, grid: TileGrid, backing: TileBacking | None = None):
        if not name:
            raise ValidationError("matrix name must be non-empty")
        self.name = name
        self.grid = grid
        self.backing = backing if backing is not None else DenseBacking()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_numpy(cls, name: str, array: np.ndarray,
                   tile_size: int = DEFAULT_TILE_SIZE,
                   backing: TileBacking | None = None) -> "TiledMatrix":
        """Partition a dense numpy array into tiles.

        Each stored dense tile is a view of ``array`` (of the float64 copy
        when ``array`` needed converting), not a copy of it.
        """
        array = np.atleast_2d(np.asarray(array, dtype=np.float64))
        if array.ndim != 2:
            raise ShapeError(f"expected 2-D array, got {array.ndim}-D")
        grid = TileGrid(array.shape[0], array.shape[1], tile_size)
        matrix = cls(name, grid, backing)
        for tile_row, tile_col, rows, cols in _blocks(grid):
            matrix.backing.put(Tile(TileId(name, tile_row, tile_col),
                                    maybe_sparsify(array[rows, cols])))
        return matrix

    # -- tile access ---------------------------------------------------------

    def tile_id(self, tile_row: int, tile_col: int) -> TileId:
        self.grid.check_position(tile_row, tile_col)
        return TileId(self.name, tile_row, tile_col)

    def get_tile(self, tile_row: int, tile_col: int) -> Tile:
        return self.backing.get(self.tile_id(tile_row, tile_col))

    def put_tile(self, tile_row: int, tile_col: int, payload, *,
                 nnz: int | None = None) -> None:
        """Store one tile in its cheaper representation (dense or CSR, see
        :func:`maybe_sparsify`); ``nnz`` optionally pre-counts nonzeros
        (kernel workers count while the result is cache-hot) without
        changing that choice."""
        expected = self.grid.tile_shape(tile_row, tile_col)  # checks position
        tile = Tile(TileId(self.name, tile_row, tile_col), payload)
        if tile.shape != expected:
            raise ShapeError(
                f"tile {tile.tile_id.key()} has shape {tile.shape}, "
                f"expected {expected}"
            )
        tile.data = maybe_sparsify(tile.to_dense(), nnz=nnz)
        self.backing.put(tile)

    def tiles(self):
        """Iterate all tiles in row-major order."""
        for tile_row, tile_col in self.grid.positions():
            yield self.get_tile(tile_row, tile_col)

    # -- whole-matrix views ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def to_numpy(self) -> np.ndarray:
        """Assemble the full dense matrix (tests / small matrices only)."""
        result = np.zeros(self.shape)
        for tile_row, tile_col, rows, cols in _blocks(self.grid):
            tile = self.backing.get(TileId(self.name, tile_row, tile_col))
            result[rows, cols] = tile.to_dense()
        return result

    def nbytes(self) -> int:
        """Total serialized bytes across all tiles."""
        return sum(tile.nbytes() for tile in self.tiles())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TiledMatrix({self.name!r}, shape={self.shape}, "
                f"tile_size={self.grid.tile_size})")

