"""Unit tests for the local (real-execution) engine.

Every test that runs a DAG is parametrized over both executor backends:
orchestration semantics — ordering, failure propagation, retries, fault
injection, tracing — must be backend-invariant, because the process
backend only offloads tile kernels and leaves the scheduling loop on the
thread path.  The process parametrization rides the tier-2 gate
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


class TestRetryPolicy:
    """The real retry loop: backoff, determinism, timeouts, injection."""

    @staticmethod
    def run_with(local_executor, tasks, policy=None, injector=None,
                 workers=2):
        dag = JobDag([Job("j", JobKind.MAP_ONLY, tasks)])
        return local_executor(max_workers=workers, retry_policy=policy,
                              fault_injector=injector).run(dag)

    def test_injected_fault_retried_to_success(self, local_executor):
        from repro.hadoop.local import RetryPolicy, ScriptedFaults
        counter, lock = [], threading.Lock()
        tasks = [counting_task(f"t{i}", counter, lock) for i in range(4)]
        self.run_with(local_executor, tasks, RetryPolicy(max_attempts=3),
                      ScriptedFaults({("t0", 0), ("t2", 0), ("t2", 1)}))
        # Every task's real work ran exactly once — the injector killed
        # attempts *before* the work started.
        assert sorted(counter) == ["t0", "t1", "t2", "t3"]

    def test_exhausted_attempts_raise(self, local_executor):
        from repro.hadoop.local import RetryPolicy, ScriptedFaults
        from repro.errors import FaultInjectionError
        counter, lock = [], threading.Lock()
        tasks = [counting_task("t0", counter, lock)]
        with pytest.raises(ExecutionError, match="injected fault"):
            self.run_with(local_executor, tasks, RetryPolicy(max_attempts=2),
                          ScriptedFaults({("t0", 0), ("t0", 1)}))
        assert issubclass(FaultInjectionError, ExecutionError)
        assert counter == []

    def test_default_policy_fails_fast(self, local_executor):
        from repro.hadoop.local import ScriptedFaults
        counter, lock = [], threading.Lock()
        with pytest.raises(ExecutionError, match="injected fault"):
            self.run_with(local_executor,
                          [counting_task("t0", counter, lock)],
                          injector=ScriptedFaults({("t0", 0)}))

    def test_backoff_deterministic_and_bounded(self):
        from repro.hadoop.local import RetryPolicy
        policy = RetryPolicy(max_attempts=5, backoff_seconds=1.0,
                             backoff_factor=2.0, jitter_fraction=0.1,
                             max_backoff_seconds=3.0, seed=7)
        delays = [policy.delay_before("t", a) for a in range(5)]
        assert delays == [policy.delay_before("t", a) for a in range(5)]
        assert delays[0] == 0.0  # no sleep before the first attempt
        for attempt, delay in enumerate(delays[1:], start=1):
            base = min(1.0 * 2.0 ** (attempt - 1), 3.0)
            assert base * 0.9 <= delay <= base * 1.1
        other = RetryPolicy(max_attempts=5, backoff_seconds=1.0, seed=8)
        assert other.delay_before("t", 1) != policy.delay_before("t", 1)

    def test_timeout_enforced_post_hoc(self, local_executor):
        from repro.hadoop.local import RetryPolicy
        from repro.errors import TaskTimeoutError

        def slow():
            time.sleep(0.05)

        task = make_map_task("slow", TaskWork(), run=slow)
        with pytest.raises(TaskTimeoutError, match="timeout"):
            self.run_with(local_executor, [task],
                          RetryPolicy(timeout_seconds=0.01))

    def test_timeout_within_budget_passes(self, local_executor):
        from repro.hadoop.local import RetryPolicy
        counter, lock = [], threading.Lock()
        self.run_with(local_executor, [counting_task("t0", counter, lock)],
                      RetryPolicy(timeout_seconds=30.0))
        assert counter == ["t0"]

    def test_crash_after_calls_counts_down(self, local_executor):
        from repro.hadoop.local import CrashAfterCalls, RetryPolicy
        counter, lock = [], threading.Lock()
        tasks = [counting_task(f"t{i}", counter, lock) for i in range(6)]
        injector = CrashAfterCalls(3)
        with pytest.raises(ExecutionError, match="injected crash"):
            self.run_with(local_executor, tasks, injector=injector, workers=1)
        assert len(counter) == 3
        injector.reset()
        counter2, lock2 = [], threading.Lock()
        with pytest.raises(ExecutionError):
            self.run_with(local_executor,
                          [counting_task(f"u{i}", counter2, lock2)
                           for i in range(6)], injector=injector, workers=1)
        assert len(counter2) == 3

    def test_policy_validation(self):
        from repro.hadoop.local import RetryPolicy
        from repro.errors import ValidationError
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_seconds=-1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(jitter_fraction=2.0)
        with pytest.raises(ValidationError):
            RetryPolicy(timeout_seconds=0.0)

    def test_retries_counted_in_metrics(self, local_executor):
        from repro.hadoop.local import RetryPolicy, ScriptedFaults
        from repro.observability.metrics import MetricsRegistry
        registry = MetricsRegistry()
        counter, lock = [], threading.Lock()
        dag = JobDag([Job("j", JobKind.MAP_ONLY,
                          [counting_task("t0", counter, lock)])])
        local_executor(max_workers=1,
                       retry_policy=RetryPolicy(max_attempts=3),
                       fault_injector=ScriptedFaults({("t0", 0)}),
                       metrics=registry).run(dag)
        assert registry.counter("local.task_retries").value == 1
