"""Property tests: a phase shipped by the feeder loop is still "a phase".

Under ``backend="process"`` a phase whose tasks all declare a ``kernel``
runs in one thread that keeps every pool worker fed
(``LocalExecutor._feed_phase``) instead of on a thread pool.  What a phase
promises must not depend on which of the two ran it:

* every task ends with exactly one ``success`` event, or the run raises the
  error of the first task to exhaust its attempts;
* a task's attempts are numbered 0..k and every one before the last failed;
* nothing starts after the failure that ends the run, and every attempt
  that was begun is closed (plans in flight drain);
* a retry's backoff delays that task alone;
* outputs, completed task ids, the timing-free trace and
  ``local.tasks_completed`` equal the thread backend's.

The generated phases run fork-free — the real :class:`KernelPool`,
:class:`ProcessDispatcher` and ``_worker_main`` loop over real pipes and
shared memory, with a thread standing in for each worker process — so they
are tier-1.  Real worker deaths (SIGKILL with plans in flight) ride the
``process_backend`` gate.
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
from repro.hadoop.local import (
    FaultInjector,
    LocalExecutor,
    RetryPolicy,
    ScriptedFaults,
)
from repro.hadoop.procpool import KernelPool
from repro.hadoop.task import TaskWork, make_map_task
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import InMemoryRecorder
from repro.observability.profiling import WORKER_LANE_PREFIX
from tests.test_backend_differential import metric_total, timing_free_events
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


class CountingFaults(ScriptedFaults):
    """Scripted faults that also count how many attempts were begun."""

    def __init__(self, failures=()):
        super().__init__(set(failures))
        self.calls = 0

    def before_attempt(self, task_id, attempt):
        self.calls += 1
        super().before_attempt(task_id, attempt)


def make_phase(count, declines=(), seed=5, size=4):
    """``count`` hand-built kernel tasks, each one ``size``-square product
    written into the returned ``outputs`` dict; tasks in ``declines`` answer
    ``kernel()`` with ``None`` and so run inline."""
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

        def store(results, index=index):
            [(array, nnz)] = results
            outputs[index] = (array, nnz)

        def run(index=index, left=left, right=right):
            product = left @ right
            outputs[index] = (product, int(np.count_nonzero(product)))

        def kernel(index=index, plan=plan, left=left, right=right,
                   store=store):
            if index in declines:
                return None
            return KernelCall(plan, [left, right], store)

        tasks.append(make_map_task(f"t{index}", TaskWork(bytes_read=index),
                                   run=run, label=f"product {index}",
                                   kernel=kernel))
    return JobDag([Job("phase", JobKind.MAP_ONLY, tasks)]), outputs


def run_phase(backend, workers, policy, injector, pool=None, **phase):
    """One instrumented run; returns (outputs, trace, registry, error)."""
    dag, outputs = make_phase(**phase)
    recorder = InMemoryRecorder()
    registry = MetricsRegistry()
    executor = LocalExecutor(max_workers=workers, recorder=recorder,
                             metrics=registry, retry_policy=policy,
                             fault_injector=injector, backend=backend)
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


def check_attempt_ladders(trace, max_attempts):
    """Attempts of a task are 0..k; all but the last failed."""
    by_task = {}
    for event in trace.task_events():
        by_task.setdefault(event.task_id, []).append(event)
    for task_id, events in by_task.items():
        events.sort(key=lambda event: event.attempt)
        assert [event.attempt for event in events] \
            == list(range(len(events))), task_id
        assert len(events) <= max_attempts, task_id
        assert all(event.status == "failed" for event in events[:-1]), \
            task_id
    return by_task


PHASES = st.integers(1, 40).flatmap(lambda count: st.fixed_dictionaries({
    "count": st.just(count),
    "workers": st.integers(1, 3),
    "max_attempts": st.integers(1, 3),
    "backoff": st.sampled_from([0.0, 0.002]),
    "faults": st.sets(st.tuples(st.integers(0, count - 1),
                                st.integers(0, 2)), max_size=6),
    "declines": st.sets(st.integers(0, count - 1), max_size=count // 3),
}))


def check_generated_phase(pool, count, workers, max_attempts, backoff,
                          faults, declines):
    policy = RetryPolicy(max_attempts=max_attempts, backoff_seconds=backoff)
    script = {(f"t{index}", attempt) for index, attempt in faults}
    exhausted = {index for index in range(count)
                 if all((f"t{index}", attempt) in script
                        for attempt in range(max_attempts))}
    injector = CountingFaults(script)
    outputs, trace, registry, error = run_phase(
        "process", workers, policy, injector, pool=pool,
        count=count, declines=declines)
    events = trace.task_events()
    by_task = check_attempt_ladders(trace, max_attempts)
    # Every attempt that was begun was also closed.
    assert len(events) == injector.calls
    assert registry.gauge("local.inflight_tasks").value == 0
    if not exhausted:
        assert error is None
        assert all(by_task[f"t{index}"][-1].status == "success"
                   for index in range(count))
        assert len(trace.successful_task_events()) == count
    else:
        assert error is not None
        fatal = min((event for event in events
                     if event.status == "failed"
                     and event.attempt == max_attempts - 1),
                    key=lambda event: event.end)
        assert f"task {fatal.task_id} attempt {fatal.attempt}" in str(error)
        assert all(event.start <= fatal.end for event in events)
        return
    # A fault-free decline still ships nothing: one dispatch per task that
    # did not decline, on its successful attempt.
    assert metric_total(registry, "procpool.dispatches") == count - len(declines)
    reference_outputs, reference_trace, reference_registry, __ = run_phase(
        "thread", workers, policy, ScriptedFaults(script), count=count)
    assert outputs.keys() == reference_outputs.keys()
    for index, (array, nnz) in reference_outputs.items():
        assert np.array_equal(outputs[index][0], array), index
        assert outputs[index][1] == nnz, index
    assert trace.task_ids() == reference_trace.task_ids()
    assert timing_free_events(trace) == timing_free_events(reference_trace)
    for name in ("local.tasks_completed", "local.task_failures",
                 "local.task_retries", "local.bytes_read"):
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


@settings(max_examples=8, deadline=None)
@given(st.integers(4, 12), st.integers(1, 3),
       st.sets(st.integers(0, 3), min_size=2, max_size=3))
def test_backoff_delays_only_the_retried_task(thread_pool, count, workers,
                                              victims):
    # Backoffs overlap each other and everyone else's work: a feeder that
    # slept through each one would take len(victims) backoffs, and would
    # finish the untouched tasks after the first of them.
    backoff = 0.08
    policy = RetryPolicy(max_attempts=2, backoff_seconds=backoff,
                         jitter_fraction=0.0)
    script = {(f"t{index}", 0) for index in victims}
    started = time.perf_counter()
    __, trace, __, error = run_phase("process", workers, policy,
                                     ScriptedFaults(script),
                                     pool=thread_pool, count=count)
    elapsed = time.perf_counter() - started
    assert error is None
    assert elapsed < 1.5 * backoff
    retries = [event for event in trace.task_events() if event.attempt == 1]
    assert len(retries) == len(victims)
    first_retry = min(event.start for event in retries)
    for event in trace.task_events():
        if event.attempt == 0:
            assert event.end <= first_retry, event.task_id
    for event in retries:
        [failed] = [other for other in trace.task_events()
                    if other.task_id == event.task_id and other.attempt == 0]
        assert event.start - failed.end >= 0.9 * backoff


def test_plans_in_flight_drain_when_a_task_exhausts(thread_pool):
    # t0 and t1 are with their workers when t2's only attempt is killed at
    # its begin: both plans are received and stored, their attempts closed
    # as successes, and nothing else starts.
    injector = CountingFaults({("t2", 0)})
    outputs, trace, registry, error = run_phase(
        "process", 3, RetryPolicy(), injector, pool=thread_pool, count=6)
    assert "task t2 attempt 0" in str(error)
    assert injector.calls == 3
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


class KillWorker(FaultInjector):
    """At the ``at_call``-th attempt begun, kill one pool worker."""

    def __init__(self, at_call, kill):
        self.at_call = at_call
        self.kill = kill
        self.calls = 0

    def before_attempt(self, task_id, attempt):
        self.calls += 1
        if self.calls == self.at_call:
            self.kill()


def test_worker_found_dead_is_replaced_before_the_send(thread_pool):
    # The fault hook fires between acquire() and send(): the one worker
    # the feeder has borrowed dies in that window.  The per-send liveness
    # check replaces it, so no attempt fails even with a single attempt
    # allowed.
    def kill():
        [handle] = [handle for handle in thread_pool._handles
                    if handle not in thread_pool._free]
        handle.process.kill(handle.conn)

    injector = KillWorker(3, kill)
    outputs, trace, registry, error = run_phase(
        "process", 1, RetryPolicy(), injector, pool=thread_pool, count=6)
    assert error is None
    assert metric_total(registry, "procpool.respawns") == 1
    assert metric_total(registry, "local.task_failures") == 0
    assert len(trace.successful_task_events()) == 6
    reference, *__ = run_phase("thread", 1, RetryPolicy(), None, count=6)
    for index, (array, __) in reference.items():
        assert np.array_equal(outputs[index][0], array)


@pytest.mark.process_backend
def test_sigkill_with_two_plans_in_flight_fails_only_its_attempt():
    # Three workers, LIFO hand-out: t0 goes to worker 2, t1 to worker 1;
    # when the third attempt is begun both plans are in flight (each is a
    # 700-square product, tens of milliseconds) and worker 2 is SIGKILLed.
    registry_box = {}

    def kill():
        handle = registry_box["pool"]._handles[2]
        registry_box["pid"] = handle.pid
        registry_box["at"] = registry_box["recorder"].now()
        os.kill(handle.pid, signal.SIGKILL)
        handle.process.join(timeout=5)

    dag, outputs = make_phase(count=6, size=700)
    recorder = InMemoryRecorder()
    registry = MetricsRegistry()
    executor = LocalExecutor(max_workers=3, recorder=recorder,
                             metrics=registry,
                             retry_policy=RetryPolicy(max_attempts=2),
                             fault_injector=KillWorker(3, kill),
                             backend="process")
    try:
        registry_box.update(pool=executor.kernel_pool(), recorder=recorder)
        executor.run(dag)
        assert executor.kernel_pool()._handles[2].pid != registry_box["pid"]
    finally:
        executor.close()
    trace = recorder.trace()
    failed = [(event.task_id, event.attempt)
              for event in trace.task_events() if event.status == "failed"]
    assert failed == [("t0", 0)]
    assert trace.task_ids() == {f"t{index}" for index in range(6)}
    assert metric_total(registry, "procpool.worker_deaths") == 1
    assert metric_total(registry, "procpool.respawns") == 1
    lane = [event for event in trace.kernel_events()
            if event.slot == f"{WORKER_LANE_PREFIX}2"
            and event.label in ("block", "grid")]
    assert any(event.start >= registry_box["at"] for event in lane), \
        "lane 2 must keep recording after the respawn"
    reference_dag, reference = make_phase(count=6, size=700)
    LocalExecutor(max_workers=3).run(reference_dag)
    for index, (array, nnz) in reference.items():
        assert np.array_equal(outputs[index][0], array)
        assert outputs[index][1] == nnz
