"""Cross-backend differential harness: thread vs. process execution.

The process backend's contract is *indistinguishability*: offloading tile
kernels to a worker pool may change wall-clock time and nothing else.  This
harness runs the same workloads on both backends and asserts

* **bit-identical tile outputs** — every output tile equal via
  ``np.array_equal`` (no tolerance), with matching sparse/dense storage;
* **identical trace-event multisets** modulo timing — same (job, task,
  phase, attempt, status, bytes, label) tuples, ignoring start/end/slot.

Everything here spawns real worker processes, so the whole module rides
the ``process_backend`` gate (see tests/conftest.py) and runs in CI's
dedicated differential job rather than in tier 1.
"""

import itertools
import os
import signal

import numpy as np
import pytest

from repro.core.compiler import CompilerParams, compile_program
from repro.core.executor import CumulonExecutor
from repro.core.physical import MatMulParams, PhysicalContext
from repro.core.program import Program
from repro.errors import ExecutionError
from repro.hadoop.kernels import BlockPlan, KernelCall
from repro.hadoop.local import LocalExecutor
from repro.hadoop.procpool import (
    KERNEL_JOB_ID,
    KernelPool,
    ProcessDispatcher,
)
from repro.matrix.tiled import DenseBacking, TiledMatrix
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import SOURCE_ACTUAL, InMemoryRecorder
from repro.observability.profiling import WORKER_LANE_PREFIX, profile_trace
from repro.workloads.chains import build_chain_program
from repro.workloads.gnmf import build_gnmf_program

pytestmark = pytest.mark.process_backend

BACKENDS = ("thread", "process")
RNG_SEED = 1302  # any fixed seed; both backends must agree on *any* input


def run_on(backend, program, inputs, tile_size=16, max_workers=4,
           compiler_params=None):
    """One instrumented run; returns (ExecutionResult, trace)."""
    recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
    with CumulonExecutor(tile_size=tile_size, max_workers=max_workers,
                         compiler_params=compiler_params,
                         recorder=recorder, backend=backend) as executor:
        result = executor.run(program, inputs)
    return result, recorder.trace()


def wrap_kernels(dag, before):
    """Make every kernel task of ``dag`` call ``before(task)`` at the top
    of its ``kernel()`` — which the feeder calls between ``acquire`` and
    ``revive`` + ``send``, so a test can break a borrowed worker there."""
    for job in dag:
        for task in [*job.map_tasks, *job.reduce_tasks]:
            if task.kernel is not None:
                def kernel(task=task, inner=task.kernel):
                    before(task)
                    return inner()

                task.kernel = kernel


def kill_at_call(at_call, kill):
    """A :func:`wrap_kernels` hook that calls ``kill()`` on the
    ``at_call``-th ``kernel()`` call of the run."""
    calls = itertools.count(1)

    def before(task):
        if next(calls) == at_call:
            kill()

    return before


def timing_free_events(trace):
    """The trace as a multiset with clocks and slot assignment erased.

    Slot choice and start/end times are scheduling noise; everything else
    — which tasks ran, in which phase, how many attempts, with what status
    and declared IO — must match across backends.
    """
    return sorted((e.job_id, e.task_id, e.phase, e.attempt, e.status,
                   e.bytes_read, e.bytes_written, e.label)
                  for e in trace.task_events())


def assert_tiles_bit_identical(left, right, context):
    """Every tile equal bit for bit, with matching storage format."""
    assert left.grid == right.grid, context
    for row, col in left.grid.positions():
        lt = left.get_tile(row, col)
        rt = right.get_tile(row, col)
        assert lt.is_sparse == rt.is_sparse, \
            f"{context}: tile ({row},{col}) storage format differs"
        ld = lt.data.toarray() if lt.is_sparse else np.asarray(lt.data)
        rd = rt.data.toarray() if rt.is_sparse else np.asarray(rt.data)
        assert np.array_equal(ld, rd), \
            f"{context}: tile ({row},{col}) differs"


def make_inputs(program, rng, positive=False):
    raw = {name: rng.random(var.shape) for name, var in
           program.inputs.items()}
    if positive:
        raw = {name: value * 0.9 + 0.1 for name, value in raw.items()}
    return raw


def assert_backends_agree(program, inputs, **kwargs):
    results = {}
    traces = {}
    for backend in BACKENDS:
        results[backend], traces[backend] = run_on(backend, program,
                                                   inputs, **kwargs)
    thread, process = (results[b] for b in BACKENDS)
    for name in thread.outputs:
        assert np.array_equal(thread.outputs[name],
                              process.outputs[name]), name
        assert_tiles_bit_identical(thread.tiled_outputs[name],
                                   process.tiled_outputs[name],
                                   context=f"output {name}")
    assert timing_free_events(traces["thread"]) \
        == timing_free_events(traces["process"])
    return results, traces


class TestWorkloadEquivalence:
    def test_multiply_chain(self):
        rng = np.random.default_rng(RNG_SEED)
        program = build_chain_program(dimension=96, length=4)
        assert_backends_agree(program, make_inputs(program, rng),
                              tile_size=32)

    def test_multiply_chain_with_deep_splits(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        program = build_chain_program(dimension=64, length=3)
        params = CompilerParams(matmul=MatMulParams(2, 2, 4))
        assert_backends_agree(program, make_inputs(program, rng),
                              tile_size=8, compiler_params=params)

    def test_gnmf(self):
        rng = np.random.default_rng(RNG_SEED + 2)
        program = build_gnmf_program(rows=48, cols=40, rank=4, iterations=3)
        assert_backends_agree(program,
                              make_inputs(program, rng, positive=True),
                              tile_size=16)

    def test_transposes_and_elementwise(self):
        program = Program("mixed")
        a = program.declare_input("A", 40, 24)
        b = program.declare_input("B", 40, 24)
        d = program.assign("D", (a.T @ b) * 0.25 + (b.T @ a))
        program.assign("E", (d @ d.T).apply("sqrt"))
        program.mark_output("D", "E")
        rng = np.random.default_rng(RNG_SEED + 3)
        assert_backends_agree(program,
                              make_inputs(program, rng, positive=True),
                              tile_size=8)

    def test_sparse_tiles_fall_back_identically(self):
        # Mostly-zero inputs sparsify below the storage threshold; the
        # process backend must agree even where it declines to offload.
        program = Program("sparse")
        a = program.declare_input("A", 64, 64)
        b = program.declare_input("B", 64, 64)
        program.assign("C", a @ b)
        program.mark_output("C")
        rng = np.random.default_rng(RNG_SEED + 4)
        dense_a = rng.random((64, 64))
        sparse_b = np.zeros((64, 64))
        sparse_b[rng.integers(0, 64, 40), rng.integers(0, 64, 40)] = \
            rng.random(40)
        assert_backends_agree(program, {"A": dense_a, "B": sparse_b},
                              tile_size=16)


# -- observability equivalence -------------------------------------------------

def run_instrumented(backend, program, inputs, **kwargs):
    """Like :func:`run_on` but with live metrics; returns the registry too."""
    recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
    registry = MetricsRegistry()
    with CumulonExecutor(tile_size=kwargs.pop("tile_size", 16),
                         max_workers=kwargs.pop("max_workers", 4),
                         recorder=recorder, metrics=registry,
                         backend=backend, **kwargs) as executor:
        result = executor.run(program, inputs)
    return result, recorder.trace(), registry


def metric_total(registry, name):
    """Sum of a metric's value across its label combinations."""
    return sum(metric.value for metric in registry.metrics()
               if metric.name == name)


class TestTraceEquivalence:
    """Worker-lane spans must not break thread/process comparability."""

    def make_runs(self):
        rng = np.random.default_rng(RNG_SEED + 20)
        program = build_gnmf_program(rows=48, cols=40, rank=4, iterations=2)
        inputs = make_inputs(program, rng, positive=True)
        return {backend: run_instrumented(backend, program, inputs)
                for backend in BACKENDS}

    def test_kernel_spans_only_on_process_worker_lanes(self):
        runs = self.make_runs()
        __, thread_trace, __ = runs["thread"]
        __, process_trace, process_registry = runs["process"]
        # Task-level multisets still agree even though the process trace
        # carries extra kernel-span events: kernel events never enter
        # task_events(), so comparability is preserved by construction.
        assert timing_free_events(thread_trace) \
            == timing_free_events(process_trace)
        assert thread_trace.kernel_events() == []
        kernels = process_trace.kernel_events()
        assert kernels, "process trace must carry worker kernel spans"
        lanes = {event.slot for event in kernels}
        assert lanes and all(lane.startswith(WORKER_LANE_PREFIX)
                             for lane in lanes)
        assert lanes <= {f"{WORKER_LANE_PREFIX}{i}" for i in range(4)}
        for event in kernels:
            assert event.job_id == KERNEL_JOB_ID
            assert event.end >= event.start
            assert event.label in {"block", "grid",
                                   "shm-attach", "shm-grow"}
        # Pool health metrics populate only when the pool actually runs.
        assert metric_total(process_registry, "procpool.dispatches") > 0
        assert metric_total(process_registry, "procpool.request_bytes") > 0
        assert metric_total(runs["thread"][2], "procpool.dispatches") == 0

    def test_worker_spans_cover_execution_wall_time(self):
        # Acceptance: on a compute-dominant GNMF run the summed per-worker
        # kernel-span time accounts for >=90% of the execution-only wall
        # time (it can exceed 100% because worker lanes run in parallel).
        # Best-of-3 so a loaded CI machine cannot flake the gate; a
        # systematic accounting bug (missing spans, wrong clock mapping)
        # fails every attempt.
        coverages = []
        for attempt in range(3):
            program = build_gnmf_program(rows=2048, cols=1024, rank=128,
                                         iterations=2)
            rng = np.random.default_rng(RNG_SEED + attempt)
            inputs = make_inputs(program, rng, positive=True)
            result, trace, registry = run_instrumented(
                "process", program, inputs, tile_size=512, max_workers=4)
            profile = profile_trace(
                trace, wall_seconds=result.report.total_seconds,
                registry=registry)
            lanes = [lane for lane in profile.lanes if lane.is_pool_worker]
            assert lanes, "expected per-worker lanes in the profile"
            coverages.append(profile.kernel_coverage)
            if profile.kernel_coverage >= 0.9:
                break
        assert max(coverages) >= 0.9, coverages


def dispatch_counts_by_plan(registry):
    """``procpool.dispatches`` per plan-kind label."""
    return {metric.label_dict()["plan"]: metric.value
            for metric in registry.metrics()
            if metric.name == "procpool.dispatches"}


class TestPlanRouting:
    """The process-gated twin of tests/test_kernel_routing.py: what the
    pool is actually sent.  Two plan kinds exist and the mult runner picks
    between them once, so these are the only labels a run can produce."""

    def test_pool_sees_exactly_grid_and_block(self):
        rng = np.random.default_rng(RNG_SEED + 40)
        # A k-split multiply: uniform mult tasks (grid) + add chunks (block).
        split = build_chain_program(dimension=64, length=2)
        params = CompilerParams(matmul=MatMulParams(2, 2, 2))
        __, __, split_registry = run_instrumented(
            "process", split, make_inputs(split, rng), tile_size=16,
            compiler_params=params)
        # A ragged chain (100 = 3 x 32 + 4): whole-matrix tasks mix tile
        # shapes, so every mult task is a block plan.
        ragged = build_chain_program(dimension=100, length=3)
        __, __, ragged_registry = run_instrumented(
            "process", ragged, make_inputs(ragged, rng), tile_size=32,
            compiler_params=CompilerParams(matmul=MatMulParams(4, 4, 1)))
        # 2 segments x 2 x 2 uniform mult tasks, 16 output tiles in add
        # chunks of 4.
        assert dispatch_counts_by_plan(split_registry) \
            == {"grid": 8, "block": 4}
        assert set(dispatch_counts_by_plan(ragged_registry)) == {"block"}


class TestPoolLifecycle:
    def test_acquire_after_close_is_refused(self):
        # close() stops every worker but leaves the handles on the free
        # list; acquire() used to pop one, find it dead and respawn a
        # worker that nothing would ever stop.
        pool = KernelPool(1)
        handle = pool._handles[0]
        pool.close()
        try:
            with pytest.raises(ExecutionError, match="kernel pool is closed"):
                pool.acquire()
            assert not handle.alive
        finally:
            handle.stop()  # reap the leaked worker where the bug exists


class TestWorkerDeath:
    """Dead workers: attributable errors, counted respawns, surviving lanes."""

    @staticmethod
    def make_plan_and_payloads(rng):
        plan = BlockPlan(transposed=(False, False),
                         outputs=(((0, 1),),),
                         out_shapes=((16, 16),))
        return plan, [rng.random((16, 16)), rng.random((16, 16))]

    def test_mid_plan_death_is_attributable_and_counted(self):
        registry = MetricsRegistry()
        pool = KernelPool(1, metrics=registry)
        try:
            dispatcher = ProcessDispatcher(pool, metrics=registry)
            rng = np.random.default_rng(RNG_SEED + 30)
            plan, payloads = self.make_plan_and_payloads(rng)
            dispatcher.run_plan(payloads, plan)  # warm buffers + worker
            handle = pool.acquire()
            pid = handle.pid
            os.kill(pid, signal.SIGKILL)
            handle.process.join(timeout=5)
            with pytest.raises(ExecutionError) as excinfo:
                dispatcher.send(handle, KernelCall(plan, payloads, list))
            message = str(excinfo.value)
            assert "kernel worker 0" in message
            assert str(pid) in message
            assert "died mid-plan" in message
            assert "last plan kind: block" in message
            assert metric_total(registry, "procpool.worker_deaths") == 1
            pool.release(handle)
            # The pool heals on the next acquire, and counts the respawn.
            results = dispatcher.run_plan(payloads, plan)
            assert metric_total(registry, "procpool.respawns") == 1
            expected = payloads[0] @ payloads[1]
            assert np.array_equal(results[0][0], expected)
        finally:
            pool.close()

    def test_lanes_survive_mid_job_worker_death(self):
        # The test's kernel() wrapper SIGKILLs the pool's one worker while
        # the feeder holds it for the fourth kernel task *inside* one run
        # of a compiled GNMF DAG: revive() respawns it before the send,
        # the job completes with bit-identical outputs, and worker lane 0
        # keeps accumulating spans across the death (lane identity is the
        # pool index, not the pid).
        rng = np.random.default_rng(RNG_SEED + 31)
        program = build_gnmf_program(rows=48, cols=40, rank=4, iterations=3)
        inputs = make_inputs(program, rng, positive=True)
        backing = DenseBacking()
        for name, array in inputs.items():
            TiledMatrix.from_numpy(name, array, 16, backing)
        compiled = compile_program(
            program, PhysicalContext(16, backing, attach_run=True))
        recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
        registry = MetricsRegistry()
        executor = LocalExecutor(max_workers=1, recorder=recorder,
                                 metrics=registry, backend="process")
        killed = []

        def kill():
            handle = executor.kernel_pool()._handles[0]
            os.kill(handle.pid, signal.SIGKILL)
            handle.process.join(timeout=5)
            killed.append(recorder.now())

        wrap_kernels(compiled.dag, kill_at_call(4, kill))
        try:
            executor.run(compiled.dag)
        finally:
            executor.close()
        assert killed, "the kill never fired"
        assert metric_total(registry, "procpool.respawns") == 1
        assert metric_total(registry, "local.task_failures") == 0
        lane0 = [event for event in recorder.trace().kernel_events()
                 if event.slot == f"{WORKER_LANE_PREFIX}0"]
        assert any(e.end <= killed[0] for e in lane0), \
            "expected spans recorded before the worker died"
        assert any(e.start >= killed[0] for e in lane0), \
            "expected lane 0 to keep recording after the respawn"
        # And the run the death interrupted still matches the thread
        # backend bit for bit.
        thread_result, __ = run_on("thread", program, inputs, tile_size=16)
        for name, expected in thread_result.outputs.items():
            info = compiled.output_info(name)
            actual = TiledMatrix(info.name, info.grid, backing).to_numpy()
            assert np.array_equal(expected, actual), name
