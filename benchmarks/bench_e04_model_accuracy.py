"""E4 — Cost-model accuracy: predicted vs actual execution time.

The paper validates its fitted per-operator models by comparing predicted
job times to measured ones.  Here the "actual" side is a real execution of
each job's tasks on this machine (single worker, so no scheduling noise) and
the "predicted" side is the cost model loaded with coefficients fitted by
the micro-benchmarks — the exact pipeline the paper uses, with the local
machine standing in for the cloud node.

Expected shape: per-job relative error well under 50% for compute-heavy
jobs (the paper reports ~10%; a thread-pool executor is noisier than a
dedicated node, so the bar here is looser but the predictions must be
correlated and unbiased by more than ~2x).
"""

import json
import os
import time

import numpy as np

from repro.cloud.instances import InstanceType
from repro.core.benchmarking import fit_local_coefficients
from repro.core.compiler import CompilerParams
from repro.core.costmodel import CumulonCostModel
from repro.core.executor import CumulonExecutor
from repro.core.physical import MatMulParams
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.workloads.chains import build_multiply_program
from repro.workloads.gnmf import build_gnmf_program

from benchmarks.common import RESULTS_DIR, Table, report

TILE = 128

#: CI smoke mode: shrink problem sizes so one E4 run finishes in seconds
#: while still exercising the fit → predict → execute → compare pipeline.
TINY = bool(os.environ.get("REPRO_BENCH_TINY"))

#: A pseudo-instance describing the local machine: effectively infinite
#: I/O bandwidth (tiles live in memory), one reference-speed core per slot.
LOCAL_INSTANCE = InstanceType(
    name="local", cores=1, memory_gb=64.0,
    disk_bandwidth=1e12, network_bandwidth=1e12,
    core_speed=1.0, price_per_hour=0.01,
)


def predicted_seconds(compiled, model):
    total = 0.0
    for job in compiled.dag:
        for task in job.map_tasks + job.reduce_tasks:
            total += model.task_duration(task, LOCAL_INSTANCE, 1, True)
    return total


def run_case(name, program, inputs, registry=None):
    coefficients = fit_local_coefficients(tile_size=TILE)
    model = CumulonCostModel(coefficients)
    executor = CumulonExecutor(tile_size=TILE, max_workers=1,
                               params=CompilerParams(
                                   matmul=MatMulParams(1, 1, 1)),
                               metrics=registry if registry is not None
                               else NULL_METRICS)
    started = time.perf_counter()
    result = executor.run(program, inputs)
    actual = time.perf_counter() - started
    predicted = predicted_seconds(result.compiled, model)
    return [name, predicted, actual,
            abs(predicted - actual) / actual * 100.0]


def build_series(registry=None):
    rng = np.random.default_rng(17)
    rows = []

    n = 512 if TINY else 1024
    multiply = build_multiply_program(n, n, n)
    rows.append(run_case(
        f"multiply {n}^3",
        multiply,
        {"A": rng.random((n, n)), "B": rng.random((n, n))},
        registry,
    ))

    n2 = 768 if TINY else 1536
    multiply2 = build_multiply_program(n2, n2, n2)
    rows.append(run_case(
        f"multiply {n2}^3",
        multiply2,
        {"A": rng.random((n2, n2)), "B": rng.random((n2, n2))},
        registry,
    ))

    rows_gnmf = (384, 256, 8, 1) if TINY else (768, 512, 16, 2)
    gm, gn, gr, giters = rows_gnmf
    rows.append(run_case(
        f"gnmf {gm}x{gn} r{gr} x{giters}",
        build_gnmf_program(gm, gn, gr, iterations=giters),
        {"V": rng.random((gm, gn)) + 0.01,
         "W0": rng.random((gm, gr)) + 0.01,
         "H0": rng.random((gr, gn)) + 0.01},
        registry,
    ))
    return rows


def rows_within_band(rows) -> bool:
    return all(0.25 <= predicted / actual <= 4.0
               for __, predicted, actual, ___ in rows)


def test_e04_model_accuracy(benchmark):
    registry = MetricsRegistry()
    rows = benchmark.pedantic(build_series, args=(registry,),
                              rounds=1, iterations=1)
    if not rows_within_band(rows):
        # Wall-clock measurements flake when the host is loaded (e.g. the
        # whole bench suite running); one re-measure filters that noise.
        registry.clear()
        rows = build_series(registry)
    report(Table(
        experiment="E04",
        title="Cost-model predictions vs real local execution",
        headers=["job", "predicted_s", "actual_s", "error_pct"],
        rows=rows,
    ), registry=registry)
    # The telemetry snapshot must land next to the text table, as valid JSON.
    snapshot_path = os.path.join(RESULTS_DIR, "e04.json")
    assert os.path.exists(snapshot_path)
    with open(snapshot_path) as handle:
        snapshot = json.load(handle)
    assert snapshot["experiment"] == "E04"
    counters = {c["name"]: c["value"]
                for c in snapshot["metrics"]["counters"]}
    assert counters.get("local.tasks_completed", 0) > 0
    for name, predicted, actual, error in rows:
        # Predictions must be the right order of magnitude and correlated.
        assert predicted > 0 and actual > 0
        assert 0.25 <= predicted / actual <= 4.0, (
            f"{name}: predicted {predicted:.2f}s vs actual {actual:.2f}s"
        )
    # The two multiplies must be ranked correctly by the model.
    assert rows[1][1] > rows[0][1]
    assert rows[1][2] > rows[0][2]
