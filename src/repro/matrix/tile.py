"""Tiles: the unit of storage and computation in Cumulon.

A matrix is partitioned into fixed-size square tiles (the last tile in each
row/column strip may be smaller).  Each tile carries a dense numpy array or a
scipy CSR sparse payload; all tile-level kernels accept either and return the
cheaper representation.

Cumulon stores tiles as HDFS file blocks; here a :class:`Tile` also knows its
serialized size in bytes so the storage and cost layers can reason about I/O
volume without actually serializing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.errors import ShapeError, ValidationError

#: Fraction of nonzero elements below which a result tile is stored sparse.
SPARSE_THRESHOLD = 0.25

#: Bytes per stored element (float64 value); sparse adds index overhead.
DENSE_ELEMENT_BYTES = 8
SPARSE_ELEMENT_BYTES = 16  # value + column index + amortized row pointer


def _is_sparse(data) -> bool:
    return sparse.issparse(data)


def densify(data) -> np.ndarray:
    """Return ``data`` as a dense 2-D float64 ndarray."""
    if _is_sparse(data):
        return np.asarray(data.todense(), dtype=np.float64)
    return np.asarray(data, dtype=np.float64)


def maybe_sparsify(array: np.ndarray, nnz: int | None = None):
    """Convert a dense array to CSR if it is sparse enough to pay off.

    ``nnz`` is an optional precomputed nonzero count — kernel-pool workers
    count nonzeros while the result is still in their cache, so the parent
    process can skip the recount without changing the sparsify decision.
    """
    if _is_sparse(array):
        return array
    size = array.size
    if size == 0:
        return array
    if nnz is None:
        nnz = np.count_nonzero(array)
    if nnz / size < SPARSE_THRESHOLD:
        return sparse.csr_matrix(array)
    return array


@dataclass(frozen=True)
class TileId:
    """Identifies one tile of a named matrix: row index, column index."""

    matrix: str
    row: int
    col: int

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise ValidationError(
                f"tile indices must be non-negative, got ({self.row}, {self.col})"
            )

    def key(self) -> str:
        """Stable string key, usable as an HDFS path component."""
        return f"{self.matrix}/tile_{self.row}_{self.col}"


@dataclass
class Tile:
    """One tile of a matrix: payload plus enough metadata for cost modeling."""

    tile_id: TileId
    data: object  # np.ndarray or scipy.sparse matrix
    _shape: tuple[int, int] = field(init=False)

    def __post_init__(self) -> None:
        data = self.data
        # A 2-D float64 ndarray (every stored dense tile) is kept as it is.
        if not (type(data) is np.ndarray and data.ndim == 2
                and data.dtype == np.float64):
            if not _is_sparse(data):
                data = self.data = np.atleast_2d(
                    np.asarray(data, dtype=np.float64))
            if data.ndim != 2:
                raise ShapeError(f"tile payload must be 2-D, got {data.ndim}-D")
        self._shape = (int(data.shape[0]), int(data.shape[1]))

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape

    @property
    def is_sparse(self) -> bool:
        return _is_sparse(self.data)

    @property
    def nnz(self) -> int:
        """Number of stored nonzero elements."""
        if self.is_sparse:
            return int(self.data.nnz)
        return int(np.count_nonzero(self.data))

    def nbytes(self) -> int:
        """Serialized size used by the storage and cost layers."""
        if self.is_sparse:
            return max(64, self.nnz * SPARSE_ELEMENT_BYTES)
        rows, cols = self.shape
        return max(64, rows * cols * DENSE_ELEMENT_BYTES)

    def to_dense(self) -> np.ndarray:
        return densify(self.data)


# ---------------------------------------------------------------------------
# Tile-level kernels.  These are the leaf computations every physical
# operator is built from; the cost model charges flops/bytes for them.
# ---------------------------------------------------------------------------

def tile_matmul(left, right) -> np.ndarray:
    """Multiply two tile payloads, staying sparse when both inputs are."""
    if left.shape[1] != right.shape[0]:
        raise ShapeError(
            f"cannot multiply tile payloads of shapes {left.shape} and {right.shape}"
        )
    if _is_sparse(left) and _is_sparse(right):
        return left @ right
    return densify(left) @ densify(right)


def matmul_flops(rows: int, inner: int, cols: int) -> int:
    """Floating-point operations for a dense (rows x inner) @ (inner x cols)."""
    return 2 * rows * inner * cols
