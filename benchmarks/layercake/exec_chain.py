"""``exec_fine`` / ``exec_coarse``: really execute a multiply chain.

One op = ``CumulonExecutor.run(program, inputs)`` on one long-lived
process-backend executor.  The two workloads differ only in the matmul
split, which moves the same program from 288 one-tile dispatches per op
(fine) to 2 whole-grid dispatches (coarse).
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from repro.api import CompilerParams, CumulonExecutor, MetricsRegistry
from repro.core.physical import MatMulParams
from repro.observability.metrics import NULL_METRICS
from repro.workloads.chains import build_chain_program

from benchmarks.layercake import harness
from benchmarks.layercake.harness import OpFailed

#: Layer-metric suffix per workload.
SUFFIX = {"exec_fine": "fine", "exec_coarse": "coarse"}


def chain_inputs(program, seed: int) -> dict[str, np.ndarray]:
    """Seeded dense inputs, one per declared matrix."""
    rng = np.random.default_rng(seed)
    return {name: rng.random(variable.shape)
            for name, variable in program.inputs.items()}


def make_executor(definition: dict, threads: int, backend: str | None = None,
                  metrics: MetricsRegistry = NULL_METRICS) -> CumulonExecutor:
    return CumulonExecutor(
        tile_size=definition["tile_size"], max_workers=threads,
        backend=backend or definition["backend"],
        compiler_params=CompilerParams(
            matmul=MatMulParams(*definition["matmul"])),
        metrics=metrics)


def counter_total(registry: MetricsRegistry, name: str) -> float:
    """Sum of one counter over all its label sets."""
    return sum(entry["value"] for entry in registry.snapshot()["counters"]
               if entry["name"] == name)


def expected_dispatches(definition: dict) -> int:
    """Kernel dispatches one op must make: one per mult task."""
    tiles = -(-definition["dimension"] // definition["tile_size"])
    split_i, split_j, __ = definition["matmul"]
    per_multiply = -(-tiles // split_i) * -(-tiles // split_j)
    return (definition["length"] - 1) * per_multiply


def run(config: dict) -> dict:
    definition = config["definition"]
    workload = config["workload"]
    traced = config["traced"]
    threads = config["threads"]
    tracer = harness.Tracer(traced)
    program = build_chain_program(dimension=definition["dimension"],
                                  length=definition["length"])
    inputs = chain_inputs(program, config["seed"])
    reference = inputs["M0"]
    for index in range(1, definition["length"]):
        reference = reference @ inputs[f"M{index}"]
    ops = harness.scaled_count(
        definition["quick_ops_per_block" if config["quick"]
                   else "ops_per_block"], config["scale"])
    sequence = list(range(ops))
    registry = MetricsRegistry() if traced else NULL_METRICS
    digests: set[str] = set()
    dag_seconds: list[float] = []
    outside_seconds: list[float] = []
    task_counts: set[int] = set()

    executor = make_executor(definition, threads, metrics=registry)
    try:
        def run_op(index: int):
            with tracer.span("core.executor.run"):
                return executor.run(program, inputs)

        def check_op(index: int, result, block: int, position: int,
                     elapsed: float) -> None:
            output = result.output("C")
            digests.add(hashlib.sha256(output.tobytes()).hexdigest())
            if len(digests) > 1:
                raise OpFailed("output bytes differ between ops")
            if position in (0, ops - 1) and not np.allclose(output,
                                                            reference):
                raise OpFailed("output is not numpy's A @ B @ C")
            if block > 0:
                dag = result.report.total_seconds
                dag_seconds.append(dag)
                outside_seconds.append(elapsed - dag)
                task_counts.add(sum(report.num_tasks for report
                                    in result.report.job_reports))

        run = harness.run_sync_blocks(sequence, run_op, check_op,
                                      config["blocks"], tracer,
                                      config["op_timeout_s"])
        peak_rss = harness.peak_rss_mib()
    finally:
        executor.close()
    errors = run.errors

    # Exact counts, taken after timing on a metered twin of the executor:
    # one op's kernel dispatches and request bytes never vary.
    meter = MetricsRegistry()
    with make_executor(definition, threads, metrics=meter) as twin:
        twin.run(program, inputs)
    dispatches = counter_total(meter, "procpool.dispatches")
    if dispatches != expected_dispatches(definition):
        errors.append(f"one op made {dispatches:.0f} kernel dispatches, "
                      f"expected {expected_dispatches(definition)}")
    if len(task_counts) > 1:
        errors.append(f"task count varied between ops: {sorted(task_counts)}")
    exact = {
        "output_digest": next(iter(digests)) if len(digests) == 1 else "",
        "hadoop.procpool.dispatches_per_op": dispatches,
        "hadoop.procpool.request_bytes_per_op":
            counter_total(meter, "procpool.request_bytes"),
        "hadoop.local.tasks_per_op": max(task_counts, default=0),
    }
    layer = {}
    if traced:
        suffix = SUFFIX[workload]
        total_ops = ops * (len(run.blocks) + 1)
        dag_ms = statistics.median(dag_seconds) * 1e3
        layer = {
            f"hadoop.local.dag_ms.{suffix}": dag_ms,
            f"hadoop.local.outside_dag_ms.{suffix}":
                statistics.median(outside_seconds) * 1e3,
            f"hadoop.local.tasks_per_s.{suffix}":
                exact["hadoop.local.tasks_per_op"] / (dag_ms / 1e3),
            f"hadoop.local.task_retries.{suffix}":
                counter_total(registry, "local.task_retries")
                + counter_total(registry, "local.task_failures"),
            f"hadoop.procpool.dispatches_per_op.{suffix}":
                counter_total(registry, "procpool.dispatches") / total_ops,
            f"hadoop.procpool.request_bytes_per_op.{suffix}":
                counter_total(registry, "procpool.request_bytes")
                / total_ops,
        }
        tracer.write(harness.OUT_DIR / f"trace-{workload}.json")
    return harness.result_doc(
        workload=workload, quick=config["quick"], traced=traced,
        seed=config["seed"],
        setup_s=run.ready - config["t_spawn"],
        timed=run.blocks, probes=run.probes, peak_rss=peak_rss,
        errors=errors, exact=exact, layer=layer, tracer=tracer)
