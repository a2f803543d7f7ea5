"""Property tests: a phase shipped by the feeder loop is still "a phase".

Under ``backend="process"`` a phase whose tasks all declare a ``kernel``
runs in one thread that keeps every pool worker fed
(``LocalExecutor._feed_phase``) instead of on a thread pool.  What a phase
promises must not depend on which of the two ran it:

* every task ends with exactly one ``success`` event, or the run raises the
  error of the first task to fail — nothing is retried;
* nothing starts after the failure that ends the run, and every attempt
  that was begun is closed (plans in flight drain);
* outputs, completed task ids, the timing-free trace and the ``local.*``
  counters equal the thread backend's.

The generated phases run fork-free — the real :class:`KernelPool`,
:class:`ProcessDispatcher` and ``_worker_main`` loop over real pipes and
shared memory, with a thread standing in for each worker process — so they
are tier-1.  Worker deaths are caused from the test's own ``kernel()``
wrapper (:func:`~tests.test_backend_differential.wrap_kernels`), which the
feeder calls between ``acquire`` and ``revive`` + ``send``; a real SIGKILL
with plans in flight rides the ``process_backend`` gate.
"""

import itertools
import os
import signal
import threading
import time
from multiprocessing import Pipe
from multiprocessing.connection import Connection
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExecutionError
from repro.hadoop import procpool
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.kernels import BlockPlan, GridMultPlan, KernelCall
from repro.hadoop.local import LocalExecutor
from repro.hadoop.procpool import KernelPool
from repro.hadoop.task import TaskWork, make_map_task
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import InMemoryRecorder
from repro.observability.profiling import WORKER_LANE_PREFIX
from tests.test_backend_differential import (
    kill_at_call,
    metric_total,
    timing_free_events,
    wrap_kernels,
)
from tests.test_procpool_observability import (
    SpyConnection,
    _TripwireClocks,
    _TripwireRecorder,
)

POOL_WORKERS = 3

#: Seconds an in-thread worker sits on a request before serving it — the
#: "kernel time" that keeps plans in flight while the feeder moves on.  The
#: n-th worker spawned takes 1 + n % 3 of these, so replies to plans sent
#: together arrive apart.
KERNEL_SECONDS = 0.001


class SlowConnection(Connection):
    delay = KERNEL_SECONDS

    def recv(self):
        request = super().recv()
        time.sleep(self.delay)
        return request


class ThreadProcess:
    """A ``multiprocessing.Process`` look-alike that runs the worker loop
    in a thread of this process.  ``kill()`` is a worker death as the
    parent sees one: the loop is gone and its pipe end is closed."""

    _pids = itertools.count(1)

    def __init__(self, target, args, name, daemon):
        (conn,) = args
        # spawn() closes "the child's end" in the parent; a thread shares
        # the parent's descriptors, so the loop gets a duplicate to keep.
        self._conn = SlowConnection(os.dup(conn.fileno()))
        self._thread = threading.Thread(target=self._serve, args=(target,),
                                        name=name, daemon=daemon)
        self.pid = next(self._pids)
        self._conn.delay = KERNEL_SECONDS * (1 + self.pid % 3)

    def _serve(self, target):
        try:
            target(self._conn)
        finally:
            self._conn.close()

    def start(self):
        self._thread.start()

    def is_alive(self):
        return self._thread.is_alive()

    def join(self, timeout=None):
        self._thread.join(timeout)

    def kill(self, parent_conn):
        parent_conn.send(None)  # the loop's own stop signal
        self._thread.join(5)
        assert not self._thread.is_alive()


@pytest.fixture(scope="module")
def thread_pool():
    """One real KernelPool whose "processes" are threads, shared by every
    example (an executor of 1-3 workers just keeps fewer of them busy)."""
    context = SimpleNamespace(Pipe=Pipe, Process=ThreadProcess)
    with mock.patch.object(procpool.multiprocessing, "get_context",
                           return_value=context):
        pool = KernelPool(POOL_WORKERS)
    yield pool
    pool.close()
    assert not any(handle.alive for handle in pool._handles)


def make_phase(count, declines=(), fails=None, seed=5, size=4):
    """``count`` hand-built kernel tasks, each one ``size``-square product
    written into the returned ``outputs`` dict; tasks in ``declines`` answer
    ``kernel()`` with ``None`` and so run inline.

    ``fails`` maps a task index to where that task raises: in ``kernel()``
    (``"kernel"``, before anything is sent) or while its reply is stored
    (``"reply"``, after the worker ran the plan).  A failing task also
    raises in ``run()``, so it fails on every path, declined or not.
    """
    fails = fails or {}
    rng = np.random.default_rng(seed)
    outputs = {}
    tasks = []
    shape = (size, size)
    for index in range(count):
        left, right = rng.random(shape), rng.random(shape)
        if index % 2:
            plan = GridMultPlan(1, 1, 1, shape, shape, False, False, shape)
        else:
            plan = BlockPlan((False, False), (((0, 1),),), (shape,))
        site = fails.get(index)

        def store(results, index=index, site=site):
            if site == "reply":
                raise RuntimeError(f"t{index} fails in its reply")
            [(array, nnz)] = results
            outputs[index] = (array, nnz)

        def run(index=index, left=left, right=right, site=site):
            if site is not None:
                raise RuntimeError(f"t{index} fails inline")
            product = left @ right
            outputs[index] = (product, int(np.count_nonzero(product)))

        def kernel(index=index, plan=plan, left=left, right=right,
                   store=store, site=site):
            if index in declines:
                return None
            if site == "kernel":
                raise RuntimeError(f"t{index} fails in kernel()")
            return KernelCall(plan, [left, right], store)

        tasks.append(make_map_task(f"t{index}", TaskWork(bytes_read=index),
                                   run=run, label=f"product {index}",
                                   kernel=kernel))
    return JobDag([Job("phase", JobKind.MAP_ONLY, tasks)]), outputs


def run_phase(backend, workers, pool=None, before=None, **phase):
    """One instrumented run; returns (outputs, trace, registry, error).

    ``before(task)`` runs at the top of every ``kernel()`` call.
    """
    dag, outputs = make_phase(**phase)
    if before is not None:
        wrap_kernels(dag, before)
    recorder = InMemoryRecorder()
    registry = MetricsRegistry()
    executor = LocalExecutor(max_workers=workers, recorder=recorder,
                             metrics=registry, backend=backend)
    if pool is not None:
        executor._kernel_pool = pool
        pool.metrics = registry
    error = None
    try:
        executor.run(dag)
    except ExecutionError as exc:
        error = exc
    if pool is not None:
        # Whatever happened, the pool is whole again: every worker back on
        # the free list, no reply left unread in any pipe.
        assert len(pool._free) == pool.workers
        assert not any(handle.conn.poll(0) for handle in pool._handles)
    return outputs, recorder.trace(), registry, error


PHASES = st.integers(1, 40).flatmap(lambda count: st.fixed_dictionaries({
    "count": st.just(count),
    "workers": st.integers(1, 3),
    "fails": st.dictionaries(st.integers(0, count - 1),
                             st.sampled_from(["kernel", "reply"]),
                             max_size=3),
    "declines": st.sets(st.integers(0, count - 1), max_size=count // 3),
}))


def check_generated_phase(pool, count, workers, fails, declines):
    begun = []
    outputs, trace, registry, error = run_phase(
        "process", workers, pool=pool, before=begun.append,
        count=count, fails=fails, declines=declines)
    events = trace.task_events()
    # One attempt per task, and every attempt that was begun was closed.
    assert all(event.attempt == 0 for event in events)
    assert sorted(event.task_id for event in events) \
        == sorted(task.task_id for task in begun)
    assert registry.gauge("local.inflight_tasks").value == 0
    if fails:
        assert error is not None
        failed = [event for event in events if event.status == "failed"]
        fatal = min(failed, key=lambda event: event.end)
        assert f"task {fatal.task_id} of job phase failed" in str(error)
        assert all(event.start <= fatal.end for event in events)
        assert metric_total(registry, "local.task_failures") == len(failed)
        return
    assert error is None
    assert len(trace.successful_task_events()) == count
    # A decline ships nothing: one dispatch per task that did not decline.
    assert metric_total(registry, "procpool.dispatches") == count - len(declines)
    reference_outputs, reference_trace, reference_registry, __ = run_phase(
        "thread", workers, count=count)
    assert outputs.keys() == reference_outputs.keys()
    for index, (array, nnz) in reference_outputs.items():
        assert np.array_equal(outputs[index][0], array), index
        assert outputs[index][1] == nnz, index
    assert ({event.task_id for event in trace.successful_task_events()}
            == {event.task_id
                for event in reference_trace.successful_task_events()})
    assert timing_free_events(trace) == timing_free_events(reference_trace)
    for name in ("local.tasks_completed", "local.task_failures",
                 "local.bytes_read", "local.bytes_written"):
        assert metric_total(registry, name) == metric_total(reference_registry, name)
    assert metric_total(reference_registry, "procpool.dispatches") == 0


@settings(max_examples=60, deadline=None)
@given(PHASES)
def test_generated_phases_keep_the_phase_contract(thread_pool, phase):
    check_generated_phase(thread_pool, **phase)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(PHASES)
def test_generated_phases_keep_the_phase_contract_many(thread_pool, phase):
    check_generated_phase(thread_pool, **phase)


def test_plans_in_flight_drain_when_a_task_exhausts(thread_pool):
    # t0 and t1 are with their workers when t2's kernel() raises: both
    # plans are received and stored, their attempts closed as successes,
    # and nothing else starts.
    begun = []
    outputs, trace, registry, error = run_phase(
        "process", 3, pool=thread_pool, before=begun.append, count=6,
        fails={2: "kernel"})
    assert "task t2 of job phase failed: t2 fails in kernel()" in str(error)
    assert [task.task_id for task in begun] == ["t0", "t1", "t2"]
    assert [(event.task_id, event.status) for event in sorted(
        trace.task_events(), key=lambda event: event.task_id)] \
        == [("t0", "success"), ("t1", "success"), ("t2", "failed")]
    assert sorted(outputs) == [0, 1]
    assert registry.gauge("local.inflight_tasks").value == 0


def test_feeder_reads_no_clock_and_ships_no_telemetry_when_off(
        thread_pool):
    dag, outputs = make_phase(count=5)
    executor = LocalExecutor(max_workers=2, metrics=_TripwireClocks(),
                             recorder=_TripwireRecorder(),
                             backend="process")
    executor._kernel_pool = thread_pool
    thread_pool.metrics = executor.metrics
    spies = [SpyConnection(handle.conn) for handle in thread_pool._handles]
    for handle, spy in zip(thread_pool._handles, spies):
        handle.conn = spy
    try:
        executor.run(dag)
    finally:
        for handle, spy in zip(thread_pool._handles, spies):
            handle.conn = spy.conn
    assert sorted(outputs) == list(range(5))
    requests = [request for spy in spies for request in spy.sent]
    replies = [reply for spy in spies for reply in spy.received]
    assert len(requests) == len(replies) == 5
    assert all(request[4] is False for request in requests)
    assert all(reply[2] is None for reply in replies)


def test_worker_found_dead_is_replaced_before_the_send(thread_pool):
    # The third task's kernel() runs between acquire() and send(): the one
    # worker the feeder has borrowed dies in that window.  The per-send
    # liveness check replaces it, so no attempt fails.
    def kill():
        [handle] = [handle for handle in thread_pool._handles
                    if handle not in thread_pool._free]
        handle.process.kill(handle.conn)

    outputs, trace, registry, error = run_phase(
        "process", 1, pool=thread_pool, before=kill_at_call(3, kill),
        count=6)
    assert error is None
    assert metric_total(registry, "procpool.respawns") == 1
    assert metric_total(registry, "local.task_failures") == 0
    assert len(trace.successful_task_events()) == 6
    reference, *__ = run_phase("thread", 1, count=6)
    for index, (array, __) in reference.items():
        assert np.array_equal(outputs[index][0], array)


@pytest.mark.process_backend
def test_sigkill_with_two_plans_in_flight_fails_only_its_attempt():
    # Three workers, LIFO hand-out: t0 goes to worker 2, t1 to worker 1;
    # when t2's kernel() runs both plans are in flight (each is a
    # 700-square product, tens of milliseconds) and worker 2 is SIGKILLed.
    # t0's attempt fails naming the worker; t1 (and t2, already prepared)
    # drain as successes; nothing else starts.
    recorder = InMemoryRecorder()
    registry = MetricsRegistry()
    executor = LocalExecutor(max_workers=3, recorder=recorder,
                             metrics=registry, backend="process")
    killed = {}

    def kill():
        handle = executor.kernel_pool()._handles[2]
        killed.update(pid=handle.pid, at=recorder.now())
        os.kill(handle.pid, signal.SIGKILL)
        handle.process.join(timeout=5)

    dag, __ = make_phase(count=6, size=700)
    wrap_kernels(dag, kill_at_call(3, kill))
    try:
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(dag)
        message = str(excinfo.value)
        assert "kernel worker 2" in message
        assert str(killed["pid"]) in message
        assert [(event.task_id, event.status) for event in sorted(
            recorder.trace().task_events(), key=lambda event: event.task_id)] \
            == [("t0", "failed"), ("t1", "success"), ("t2", "success")]
        assert metric_total(registry, "procpool.worker_deaths") == 1
        # The dead worker is respawned on the next acquire, and the same
        # executor's next run matches the thread backend bit for bit.
        again, outputs = make_phase(count=6, size=700)
        executor.run(again)
        assert executor.kernel_pool()._handles[2].pid != killed["pid"]
    finally:
        executor.close()
    assert metric_total(registry, "procpool.respawns") == 1
    lane = [event for event in recorder.trace().kernel_events()
            if event.slot == f"{WORKER_LANE_PREFIX}2"
            and event.label in ("block", "grid")]
    assert any(event.start >= killed["at"] for event in lane), \
        "lane 2 must keep recording after the respawn"
    reference_dag, reference = make_phase(count=6, size=700)
    LocalExecutor(max_workers=3).run(reference_dag)
    for index, (array, nnz) in reference.items():
        assert np.array_equal(outputs[index][0], array)
        assert outputs[index][1] == nnz
