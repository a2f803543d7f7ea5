"""E17 — Storage tile-size sweep (another tuned knob).

Cumulon stores matrices as fixed-size tiles; the tile side trades per-tile
framework overhead and task-count granularity (small tiles) against task
memory footprint and lost parallelism (huge tiles).  Expected shape: a
U-curve over tile sizes for a fixed multiply and cluster, with the optimizer
(given ``tile_size_options``) picking a near-optimal size automatically.
"""

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.physical import MatMulParams
from repro.core.search import SearchSpec, search
from repro.workloads.chains import build_multiply_program

from benchmarks.common import Table, report

DIMENSION = 32768
TILE_SIZES = [512, 1024, 2048, 4096, 8192, 16384]


def build_series():
    from repro.core.compiler import CompilerParams
    program = build_multiply_program(DIMENSION, DIMENSION, DIMENSION)
    optimizer = DeploymentOptimizer(program, tile_size=2048)
    spec = ClusterSpec(get_instance_type("m1.large"), 8, 2)
    params = CompilerParams(matmul=MatMulParams(1, 1, 1))
    rows = []
    for tile_size in TILE_SIZES:
        plan = search(optimizer, SearchSpec(
            objective="evaluate", cluster=spec, compiler_params=params,
            tile_size=tile_size)).plan
        rows.append([tile_size, (DIMENSION // tile_size) ** 2,
                     plan.estimated_seconds])
    # What would the optimizer pick, given the choice?
    tuned_space = SearchSpace(matmul_options=(MatMulParams(1, 1, 1),),
                              tile_size_options=tuple(TILE_SIZES))
    chosen = optimizer.best_params_for(spec, tuned_space)
    return rows, chosen


def test_e17_tile_size_sweep(benchmark):
    rows, chosen = benchmark.pedantic(build_series, rounds=1, iterations=1)
    rows_out = rows + [[f"chosen={chosen.tile_size}", "-",
                        chosen.estimated_seconds]]
    report(Table(
        experiment="E17",
        title="32768^2 multiply: storage tile-size sweep (8 x m1.large)",
        headers=["tile_size", "output_tiles", "time_s"],
        rows=rows_out,
    ))
    times = {tile: seconds for tile, __, seconds in rows}
    best_tile = min(times, key=times.get)
    # U-curve: both extremes lose to the best interior size.
    assert times[TILE_SIZES[0]] > times[best_tile]
    assert times[TILE_SIZES[-1]] > times[best_tile]
    # The optimizer with tile_size_options picks the sweep's optimum.
    assert chosen.tile_size == best_tile
    assert chosen.estimated_seconds <= times[best_tile] + 1e-6
