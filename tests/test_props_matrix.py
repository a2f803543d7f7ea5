"""Property-based tests: tiled-matrix algebra is equivalent to numpy."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompilerParams
from repro.core.executor import run_program
from repro.core.physical import MatMulParams
from repro.core.program import Program
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
    assert matrix.nnz() == np.count_nonzero(data)
    np.testing.assert_array_equal(matrix.to_numpy(), data)
