"""Benchmarking: fitting the cost model's coefficients.

Cumulon fits per-operator time models from benchmark runs on the target
hardware, then reuses them inside the optimizer.  We do the same: tiny timed
numpy kernels measure the local machine's dense-multiply flop rate and
element-wise throughput, producing a :class:`HardwareCoefficients` that the
cost model combines with the per-instance-type catalog figures.

Two profiles matter:

* :func:`fit_local_coefficients` — measured on *this* machine; used by the
  model-accuracy experiment (E4) where predictions are compared against real
  local executions.
* :data:`REFERENCE_COEFFICIENTS` — fixed constants calibrated to a 2013-era
  cloud core (a JVM doing tile multiplies at roughly 1.5 GFLOP/s sustained).
  All simulation experiments use these so results are deterministic across
  machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError


@dataclass(frozen=True)
class HardwareCoefficients:
    """Fitted per-reference-core compute rates plus fixed overheads."""

    #: Seconds per dense-multiply floating point operation.
    seconds_per_flop: float
    #: Seconds per element-wise operation (memory-bandwidth bound).
    seconds_per_element_op: float
    #: Fixed seconds per tile-level kernel invocation (framework overhead:
    #: (de)serialization, buffer management, bookkeeping per tile touched).
    seconds_per_tile_op: float
    #: Fixed seconds to launch one task (JVM reuse made this ~1s in Hadoop).
    task_startup_seconds: float
    #: Fixed seconds to submit/tear down one map-only job.
    map_only_job_overhead: float
    #: Fixed seconds for a full MapReduce job (adds sort/reduce setup).
    mapreduce_job_overhead: float

    def __post_init__(self) -> None:
        values = (self.seconds_per_flop, self.seconds_per_element_op)
        if min(values) <= 0:
            raise ValidationError("compute rates must be positive")
        overheads = (self.seconds_per_tile_op, self.task_startup_seconds,
                     self.map_only_job_overhead, self.mapreduce_job_overhead)
        if min(overheads) < 0:
            raise ValidationError("overheads must be >= 0")


#: Calibrated to 2013 cloud hardware running JVM linear algebra: ~1.5 GFLOP/s
#: dense multiply per core, ~350M element ops/s, ~5ms of bookkeeping per tile
#: touched, 1s task start, 6s/12s job submission for map-only/MapReduce jobs.
REFERENCE_COEFFICIENTS = HardwareCoefficients(
    seconds_per_flop=1.0 / 1.5e9,
    seconds_per_element_op=1.0 / 3.5e8,
    seconds_per_tile_op=0.005,
    task_startup_seconds=1.0,
    map_only_job_overhead=6.0,
    mapreduce_job_overhead=12.0,
)


def measure_matmul_rate(tile_size: int = 256, repeats: int = 3,
                        seed: int = 7) -> float:
    """Measured seconds-per-flop of a dense tile multiply on this machine."""
    if tile_size <= 0 or repeats <= 0:
        raise ValidationError("tile_size and repeats must be positive")
    rng = np.random.default_rng(seed)
    left = rng.random((tile_size, tile_size))
    right = rng.random((tile_size, tile_size))
    left @ right  # warm up BLAS
    total = 0.0
    for __ in range(repeats):
        started = time.perf_counter()
        left @ right
        total += time.perf_counter() - started
    flops = 2 * tile_size ** 3
    return max(total / repeats / flops, 1e-13)


def measure_elementwise_rate(tile_size: int = 512, repeats: int = 3,
                             seed: int = 7) -> float:
    """Measured seconds-per-element of a fused a*b+c pass on this machine."""
    if tile_size <= 0 or repeats <= 0:
        raise ValidationError("tile_size and repeats must be positive")
    rng = np.random.default_rng(seed)
    a = rng.random((tile_size, tile_size))
    b = rng.random((tile_size, tile_size))
    c = rng.random((tile_size, tile_size))
    a * b + c  # warm up
    total = 0.0
    for __ in range(repeats):
        started = time.perf_counter()
        a * b + c
        total += time.perf_counter() - started
    ops = 2 * tile_size ** 2
    return max(total / repeats / ops, 1e-13)


def measure_tile_op_overhead(tile_size: int = 64, repeats: int = 50,
                             seed: int = 7) -> float:
    """Measured fixed cost of one tile-level operation on this machine.

    Times the real tile hot path — backing read, kernel dispatch, tile
    construction and write-back — for a single-tile multiply, then subtracts
    the pure BLAS time so only the framework overhead remains.
    """
    if tile_size <= 0 or repeats <= 0:
        raise ValidationError("tile_size and repeats must be positive")
    # Imported here to avoid a cycle (tiled -> tile -> benchmarking users).
    from repro.matrix.tile import Tile, TileId, maybe_sparsify, tile_matmul
    from repro.matrix.tiled import DenseBacking

    rng = np.random.default_rng(seed)
    backing = DenseBacking()
    left_id, right_id = TileId("bl", 0, 0), TileId("br", 0, 0)
    backing.put(Tile(left_id, rng.random((tile_size, tile_size))))
    backing.put(Tile(right_id, rng.random((tile_size, tile_size))))
    started = time.perf_counter()
    for index in range(repeats):
        left = backing.get(left_id)
        right = backing.get(right_id)
        product = tile_matmul(left.data, right.data)
        backing.put(Tile(TileId("bo", 0, 0), maybe_sparsify(product)))
    elapsed = time.perf_counter() - started
    blas_seconds = repeats * 2 * tile_size ** 3 * measure_matmul_rate(
        tile_size, repeats=1, seed=seed)
    # 4 tile ops per cycle: two reads, one multiply, one write.
    per_op = max(0.0, (elapsed - blas_seconds)) / (repeats * 4)
    return per_op


def fit_local_coefficients(tile_size: int = 256,
                           repeats: int = 3) -> HardwareCoefficients:
    """Benchmark this machine and return coefficients for E4 predictions.

    Task/job overheads are zero because the local executor has no JVM or
    job-submission latency to model; per-tile framework overhead is fitted
    because the Python tile path has real bookkeeping costs.
    """
    return HardwareCoefficients(
        seconds_per_flop=measure_matmul_rate(tile_size, repeats),
        seconds_per_element_op=measure_elementwise_rate(2 * tile_size, repeats),
        seconds_per_tile_op=measure_tile_op_overhead(min(tile_size, 128)),
        task_startup_seconds=0.0,
        map_only_job_overhead=0.0,
        mapreduce_job_overhead=0.0,
    )
