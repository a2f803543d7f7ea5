"""Property-based tests: tiled-matrix algebra is equivalent to numpy, and
the grid-walking tile paths store exactly what a per-tile reference stores.

The reference tiles below decide dense vs CSR with their own copy of the
``SPARSE_THRESHOLD`` test, so a changed comparison in the stored path (``<=``
for ``<``) fails the exact-threshold examples.  Tier-1 runs small example
counts; ``REPRO_SLOW_TESTS=1`` runs the large ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core.compiler import CompilerParams
from repro.core.executor import run_program
from repro.core.physical import MatMulParams
from repro.core.program import Program
from repro.matrix.tile import SPARSE_THRESHOLD, Tile, TileId
from repro.matrix.tiled import TiledMatrix

DIMS = st.integers(min_value=1, max_value=24)
TILES = st.integers(min_value=1, max_value=9)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def array(rows, cols, seed, sparse_fraction=0.0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, cols))
    if sparse_fraction > 0:
        mask = rng.random((rows, cols)) < sparse_fraction
        data[mask] = 0.0
    return data


@given(rows=DIMS, cols=DIMS, tile=TILES, seed=SEEDS,
       sparse_fraction=st.sampled_from([0.0, 0.5, 0.95]))
@settings(max_examples=60, deadline=None)
def test_roundtrip_any_shape(rows, cols, tile, seed, sparse_fraction):
    data = array(rows, cols, seed, sparse_fraction)
    matrix = TiledMatrix.from_numpy("A", data, tile)
    np.testing.assert_array_equal(matrix.to_numpy(), data)


@given(rows=DIMS, inner=DIMS, cols=DIMS, tile=TILES, seed=SEEDS,
       ci=st.integers(1, 3), cj=st.integers(1, 3), ks=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_matmul_equivalent_to_numpy(rows, inner, cols, tile, seed, ci, cj, ks):
    a = array(rows, inner, seed)
    b = array(inner, cols, seed + 1)
    program = Program("prop")
    va = program.declare_input("A", rows, inner)
    vb = program.declare_input("B", inner, cols)
    program.assign("C", va @ vb)
    program.mark_output("C")
    params = CompilerParams(matmul=MatMulParams(ci, cj, ks))
    result = run_program(program, {"A": a, "B": b}, tile_size=tile,
                         compiler_params=params, max_workers=1)
    np.testing.assert_allclose(result.output("C"), a @ b, atol=1e-9)


@given(rows=DIMS, cols=DIMS, tile=TILES, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_elementwise_equivalent_to_numpy(rows, cols, tile, seed):
    a = array(rows, cols, seed)
    b = array(rows, cols, seed + 1)
    program = Program("prop")
    va = program.declare_input("A", rows, cols)
    vb = program.declare_input("B", rows, cols)
    program.assign("C", (va + vb) * 2.0 - va * vb)
    program.mark_output("C")
    result = run_program(program, {"A": a, "B": b}, tile_size=tile,
                         max_workers=1)
    np.testing.assert_allclose(result.output("C"), (a + b) * 2 - a * b,
                               atol=1e-9)


@given(rows=DIMS, cols=DIMS, tile=TILES, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_transpose_equivalent_to_numpy(rows, cols, tile, seed):
    a = array(rows, cols, seed)
    program = Program("prop")
    va = program.declare_input("A", rows, cols)
    program.assign("AtA", va.T @ va)
    program.mark_output("AtA")
    result = run_program(program, {"A": a}, tile_size=tile, max_workers=1)
    np.testing.assert_allclose(result.output("AtA"), a.T @ a, atol=1e-9)


@given(rows=DIMS, cols=DIMS, tile=TILES, seed=SEEDS,
       sparse_fraction=st.sampled_from([0.8, 0.95, 1.0]))
@settings(max_examples=30, deadline=None)
def test_sparse_tiles_preserve_values(rows, cols, tile, seed, sparse_fraction):
    data = array(rows, cols, seed, sparse_fraction)
    matrix = TiledMatrix.from_numpy("S", data, tile)
    assert sum(tile.nnz for tile in matrix.tiles()) == np.count_nonzero(data)
    np.testing.assert_array_equal(matrix.to_numpy(), data)


# -- the grid-walking tile paths against a per-tile reference -------------------

#: Values a nonzero element takes (NaN counts as nonzero) and a zero takes.
NONZEROS = np.array([1.5, -2.0, np.nan, 1e-300, -7.25])
ZEROS = np.array([0.0, -0.0])


@st.composite
def tiled_arrays(draw):
    """``(array, tile)``: ragged, ``1 x n``/``n x 1`` and tile-larger-than-
    matrix shapes; each tile's nonzero count is drawn around the sparse
    threshold, hitting it exactly whenever the tile's size allows."""
    rows = draw(st.one_of(st.just(1), st.integers(1, 14)))
    cols = draw(st.one_of(st.just(1), st.integers(1, 14)))
    tile = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    array = rng.choice(ZEROS, size=(rows, cols))
    for row in range(0, rows, tile):
        for col in range(0, cols, tile):
            block = array[row:row + tile, col:col + tile]
            cut = SPARSE_THRESHOLD * block.size
            near = (math.floor(cut) - 1, math.floor(cut), math.ceil(cut),
                    math.ceil(cut) + 1)
            count = draw(st.sampled_from(sorted(
                {0, block.size} | {k for k in near if 0 <= k <= block.size})))
            cells = rng.choice(block.size, size=count, replace=False)
            block[np.unravel_index(cells, block.shape)] = rng.choice(
                NONZEROS, size=count)
    return array, tile


def reference_tiles(name, array, tile):
    """Per position: ``Tile(TileId, array[slice])`` made CSR when its
    nonzero fraction is below ``SPARSE_THRESHOLD``."""
    rows, cols = array.shape
    for tile_row in range(-(-rows // tile)):
        for tile_col in range(-(-cols // tile)):
            region = (slice(tile_row * tile, min(rows, (tile_row + 1) * tile)),
                      slice(tile_col * tile, min(cols, (tile_col + 1) * tile)))
            block = array[region]
            if np.count_nonzero(block) / block.size < SPARSE_THRESHOLD:
                block = sparse.csr_matrix(block)
            yield region, Tile(TileId(name, tile_row, tile_col), block)


def tile_bytes(tile):
    data = tile.data
    if tile.is_sparse:
        return (data.data.tobytes(), data.indices.tobytes(),
                data.indptr.tobytes())
    return data.tobytes()


def assert_same_tile(stored, expected):
    assert stored.tile_id == expected.tile_id
    assert stored.is_sparse == expected.is_sparse
    assert stored.shape == expected.shape
    assert tile_bytes(stored) == tile_bytes(expected)
    assert stored.nbytes() == expected.nbytes()


def check_stored_paths(array, tile):
    matrix = TiledMatrix.from_numpy("A", array, tile)
    hinted = TiledMatrix("H", matrix.grid)
    plain = TiledMatrix("H", matrix.grid)
    assembled = np.zeros(array.shape)
    for region, expected in reference_tiles("A", array, tile):
        stored = matrix.backing.get(expected.tile_id)
        assert_same_tile(stored, expected)
        if not stored.is_sparse:  # a view of the caller's array, not a copy
            assert np.shares_memory(stored.data, array)
        row, col = expected.tile_id.row, expected.tile_id.col
        block = array[region]
        hinted.put_tile(row, col, block, nnz=int(np.count_nonzero(block)))
        plain.put_tile(row, col, block)
        assert_same_tile(hinted.get_tile(row, col), plain.get_tile(row, col))
        assembled[region] = expected.to_dense()
    assert matrix.to_numpy().tobytes() == assembled.tobytes()


@settings(max_examples=80, deadline=None)
@given(tiled_arrays())
def test_stored_tiles_match_the_per_tile_reference(case):
    check_stored_paths(*case)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None)
@given(tiled_arrays())
def test_stored_tiles_match_the_per_tile_reference_many(case):
    check_stored_paths(*case)
