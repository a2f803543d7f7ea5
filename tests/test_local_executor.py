"""Unit tests for the local (real-execution) engine.

Every test that runs a DAG is parametrized over both executor backends:
orchestration semantics — ordering, failure propagation, tracing — must
be backend-invariant, because the process backend only offloads tile
kernels and leaves the scheduling loop on the thread path.  The process parametrization rides the tier-2 gate
(tests/conftest.py).
"""

import threading
import time

import pytest

from repro.errors import ExecutionError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.local import LocalExecutor
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.observability.trace import (
    SOURCE_ACTUAL,
    STATUS_FAILED,
    STATUS_SUCCESS,
    InMemoryRecorder,
)

BACKENDS = ["thread",
            pytest.param("process", marks=pytest.mark.process_backend)]


@pytest.fixture(params=BACKENDS)
def local_executor(request):
    """Factory for a LocalExecutor pinned to the parametrized backend."""
    made = []

    def factory(**kwargs):
        executor = LocalExecutor(backend=request.param, **kwargs)
        made.append(executor)
        return executor

    yield factory
    for executor in made:
        executor.close()


def counting_task(task_id, counter, lock):
    def run():
        with lock:
            counter.append(task_id)

    return make_map_task(task_id, TaskWork(), run=run)


class TestLocalExecutor:
    def test_runs_all_tasks(self, local_executor):
        counter, lock = [], threading.Lock()
        tasks = [counting_task(f"t{i}", counter, lock) for i in range(10)]
        dag = JobDag([Job("j", JobKind.MAP_ONLY, tasks)])
        report = local_executor(max_workers=4).run(dag)
        assert sorted(counter) == sorted(f"t{i}" for i in range(10))
        assert report.total_seconds > 0

    def test_single_worker_sequential(self, local_executor):
        counter, lock = [], threading.Lock()
        tasks = [counting_task(f"t{i}", counter, lock) for i in range(5)]
        dag = JobDag([Job("j", JobKind.MAP_ONLY, tasks)])
        local_executor(max_workers=1).run(dag)
        assert counter == [f"t{i}" for i in range(5)]

    def test_dependency_order(self, local_executor):
        order, lock = [], threading.Lock()
        dag = JobDag([
            Job("a", JobKind.MAP_ONLY, [counting_task("a-t", order, lock)]),
            Job("b", JobKind.MAP_ONLY, [counting_task("b-t", order, lock)],
                depends_on={"a"}),
        ])
        local_executor(max_workers=4).run(dag)
        assert order == ["a-t", "b-t"]

    def test_reduce_phase_after_map_phase(self, local_executor):
        order, lock = [], threading.Lock()

        def tracked(task_id, factory):
            def run():
                with lock:
                    order.append(task_id)
            return factory(task_id, TaskWork(), run=run)

        job = Job("mr", JobKind.MAPREDUCE,
                  [tracked(f"m{i}", make_map_task) for i in range(4)],
                  [tracked("r0", make_reduce_task)])
        local_executor(max_workers=4).run(JobDag([job]))
        assert order[-1] == "r0"

    def test_task_failure_wrapped(self, local_executor):
        def boom():
            raise RuntimeError("kaput")

        task = make_map_task("bad", TaskWork(), run=boom)
        dag = JobDag([Job("j", JobKind.MAP_ONLY, [task])])
        with pytest.raises(ExecutionError, match="bad"):
            local_executor(max_workers=2).run(dag)

    def test_tasks_without_run_are_skipped(self, local_executor):
        dag = JobDag([Job("j", JobKind.MAP_ONLY,
                          [make_map_task("t", TaskWork())])])
        report = local_executor().run(dag)
        assert report.job_reports[0].num_tasks == 1

    def test_invalid_workers(self):
        with pytest.raises(ExecutionError):
            LocalExecutor(max_workers=0)

    def test_invalid_backend(self):
        from repro.errors import ValidationError
        with pytest.raises(ValidationError, match="backend"):
            LocalExecutor(backend="gpu")

    def test_report_per_job(self, local_executor):
        dag = JobDag([
            Job("a", JobKind.MAP_ONLY, []),
            Job("b", JobKind.MAP_ONLY, [], depends_on={"a"}),
        ])
        report = local_executor().run(dag)
        assert [r.job_id for r in report.job_reports] == ["a", "b"]


class TestFailurePaths:
    """Regression tests: exceptions mid-pool must neither hang nor corrupt
    the trace (previously untested under concurrency)."""

    @staticmethod
    def failing_task(task_id="bad"):
        def boom():
            raise RuntimeError(f"{task_id} kaput")

        return make_map_task(task_id, TaskWork(), run=boom)

    @staticmethod
    def slow_task(task_id, ran, lock, seconds=0.05):
        def run():
            with lock:
                ran.append(task_id)
            time.sleep(seconds)

        return make_map_task(task_id, TaskWork(), run=run)

    def test_mid_pool_failure_propagates_without_hanging(self, local_executor):
        ran, lock = [], threading.Lock()
        tasks = [self.failing_task("t0-bad")] + [
            self.slow_task(f"t{i}", ran, lock) for i in range(1, 20)
        ]
        dag = JobDag([Job("j", JobKind.MAP_ONLY, tasks)])
        started = time.perf_counter()
        with pytest.raises(ExecutionError, match="t0-bad"):
            local_executor(max_workers=2).run(dag)
        elapsed = time.perf_counter() - started
        # 19 slow tasks at 50ms on 2 workers would take ~0.5s; a prompt
        # cancellation finishes far sooner (in-flight tasks drain only).
        assert elapsed < 0.5

    def test_queued_tasks_cancelled_after_failure(self, local_executor):
        ran, lock = [], threading.Lock()
        tasks = [self.failing_task("t0-bad")] + [
            self.slow_task(f"t{i}", ran, lock) for i in range(1, 20)
        ]
        dag = JobDag([Job("j", JobKind.MAP_ONLY, tasks)])
        with pytest.raises(ExecutionError):
            local_executor(max_workers=2).run(dag)
        # The failure fires immediately; only tasks already dispatched may
        # have started — the long tail must have been cancelled.
        assert len(ran) < 19

    def test_failure_in_reduce_phase(self, local_executor):
        def fine():
            pass

        job = Job("mr", JobKind.MAPREDUCE,
                  [make_map_task(f"m{i}", TaskWork(), run=fine)
                   for i in range(4)],
                  [make_reduce_task("r-bad", TaskWork(),
                                    run=self.failing_task().run)])
        with pytest.raises(ExecutionError, match="r-bad"):
            local_executor(max_workers=3).run(JobDag([job]))

    def test_partial_trace_well_formed_after_failure(self, local_executor):
        ran, lock = [], threading.Lock()
        tasks = [self.slow_task(f"t{i}", ran, lock, seconds=0.01)
                 for i in range(4)] + [self.failing_task("t-bad")]
        dag = JobDag([Job("j", JobKind.MAP_ONLY, tasks)])
        recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
        with pytest.raises(ExecutionError, match="t-bad"):
            local_executor(max_workers=2, recorder=recorder).run(dag)
        trace = recorder.trace()
        statuses = {event.task_id: event.status
                    for event in trace.task_events()}
        assert statuses["t-bad"] == STATUS_FAILED
        assert all(event.end >= event.start for event in trace.events)
        assert trace.slot_overlaps() == []
        # Completed tasks kept their success events despite the failure.
        assert all(status == STATUS_SUCCESS
                   for task_id, status in statuses.items()
                   if task_id != "t-bad")

    def test_failure_does_not_leak_slots(self, local_executor):
        """The pool stays usable for subsequent runs after a failure."""
        executor = local_executor(max_workers=2)
        bad = JobDag([Job("j", JobKind.MAP_ONLY, [self.failing_task()])])
        with pytest.raises(ExecutionError):
            executor.run(bad)
        ran, lock = [], threading.Lock()
        good = JobDag([Job("k", JobKind.MAP_ONLY,
                           [self.slow_task(f"g{i}", ran, lock, seconds=0.001)
                            for i in range(6)])])
        executor.run(good)
        assert len(ran) == 6
