"""E10 — Effect of input sparsity on the multiply.

Cumulon stores sparse tiles compactly and its cost scales with nonzeros.
This sweep multiplies a sparse A by a dense B at decreasing density.
Expected shape: time falls as density falls (less I/O, fewer effective
flops), with diminishing returns once fixed per-task overheads dominate.
A correctness run at small scale confirms sparse execution is exact.
"""

import numpy as np

from repro.core.executor import run_program
from repro.core.physical import (
    MatMulParams,
    MatrixInfo,
    Operand,
    PhysicalContext,
    build_matmul_jobs,
)
from repro.core.simcost import simulate_program
from repro.hadoop.job import JobDag
from repro.matrix.tiled import TileGrid
from repro.workloads.chains import build_multiply_program

from benchmarks.common import Table, reference_model, reference_spec, report

TILE = 2048
DIMENSION = 16384
DENSITIES = [1.0, 0.3, 0.1, 0.01, 0.001]


def time_for_density(density: float) -> float:
    context = PhysicalContext(TILE)
    left = Operand(MatrixInfo("A", TileGrid(DIMENSION, DIMENSION, TILE),
                              density=density))
    right = Operand(MatrixInfo("B", TileGrid(DIMENSION, DIMENSION, TILE)))
    jobs = build_matmul_jobs("mm", left, right, "C", context,
                             MatMulParams(1, 1, 1))
    return simulate_program(JobDag(jobs.jobs()), reference_spec(),
                            reference_model()).seconds


def build_series():
    dense_time = time_for_density(1.0)
    return [[density, time_for_density(density),
             dense_time / time_for_density(density)]
            for density in DENSITIES]


def test_e10_sparsity_sweep(benchmark):
    rows = benchmark(build_series)
    report(Table(
        experiment="E10",
        title="16384^2 multiply: sparse A (density sweep) x dense B",
        headers=["density_A", "time_s", "speedup_vs_dense"],
        rows=rows,
    ))
    times = [row[1] for row in rows]
    assert times == sorted(times, reverse=True), \
        "time must fall with density"
    assert rows[-1][2] > 1.5, "high sparsity must pay off"
    # Diminishing returns: the 0.01 -> 0.001 step gains less than 1.0 -> 0.1.
    gain_high = times[0] / times[2]
    gain_low = times[3] / times[4]
    assert gain_high > gain_low


def test_e10_sparse_execution_correct():
    rng = np.random.default_rng(9)
    a = rng.random((96, 64))
    a[rng.random((96, 64)) < 0.95] = 0.0  # ~5% density
    b = rng.random((64, 80))
    program = build_multiply_program(96, 64, 80, left_density=0.05)
    result = run_program(program, {"A": a, "B": b}, tile_size=16)
    np.testing.assert_allclose(result.output("C"), a @ b, atol=1e-9)
