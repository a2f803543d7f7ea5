"""Property-based tests: trace invariants over seeded random job DAGs.

Whatever DAG shape the strategies generate, a trace must be *complete*
(every runnable task yields exactly one successful event), *monotone*
(non-negative, ordered timestamps; no slot runs two attempts at once), and
the recorder must stay consistent under the executor's thread pool.
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.hadoop.faults import RandomFailures
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.local import LocalExecutor
from repro.hadoop.simulator import ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.hadoop.timemodel import FixedTimeModel
from repro.observability.trace import (
    SOURCE_ACTUAL,
    SOURCE_SIMULATED,
    STATUS_FAILED,
    STATUS_SUCCESS,
    InMemoryRecorder,
)


def spec(nodes, slots):
    return ClusterSpec(get_instance_type("m1.large"), nodes, slots)


def random_dag(shape, with_reduces, runnable=False, sink=None, lock=None):
    """Build a chain-dependency DAG from a list of per-job task counts."""
    dag = JobDag()
    previous = None
    for job_index, num_tasks in enumerate(shape):
        def make_run(task_id):
            if not runnable:
                return None

            def run():
                with lock:
                    sink.append(task_id)
            return run

        maps = [
            make_map_task(f"j{job_index}m{i}", TaskWork(bytes_read=10),
                          run=make_run(f"j{job_index}m{i}"))
            for i in range(num_tasks)
        ]
        reduces = []
        kind = JobKind.MAP_ONLY
        if with_reduces and job_index % 2 == 1:
            kind = JobKind.MAPREDUCE
            reduces = [make_reduce_task(f"j{job_index}r0", TaskWork(),
                                        run=make_run(f"j{job_index}r0"))]
        deps = {f"job{previous}"} if previous is not None else set()
        dag.add(Job(f"job{job_index}", kind, maps, reduces,
                    depends_on=deps))
        previous = job_index
    return dag


SHAPES = st.lists(st.integers(min_value=1, max_value=10),
                  min_size=1, max_size=4)


@given(shape=SHAPES, with_reduces=st.booleans(),
       nodes=st.integers(1, 4), slots=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_simulated_trace_completeness(shape, with_reduces, nodes, slots):
    dag = random_dag(shape, with_reduces)
    recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
    ClusterSimulator(spec(nodes, slots), FixedTimeModel(1.0),
                     recorder=recorder).run(dag)
    trace = recorder.trace()
    all_tasks = {task.task_id for job in dag for task in job.all_tasks()}
    successes = [event for event in trace.task_events()
                 if event.status == STATUS_SUCCESS]
    # Exactly one successful event per runnable task, never more.
    assert sorted(event.task_id for event in successes) == sorted(all_tasks)


@given(shape=SHAPES, with_reduces=st.booleans(),
       nodes=st.integers(1, 4), slots=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_simulated_trace_monotone_and_disjoint(shape, with_reduces, nodes,
                                               slots):
    dag = random_dag(shape, with_reduces)
    recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
    ClusterSimulator(spec(nodes, slots), FixedTimeModel(1.0),
                     recorder=recorder).run(dag)
    trace = recorder.trace()
    assert all(event.start >= 0 and event.end >= event.start
               for event in trace.events)
    starts = [event.start for event in trace.events]
    assert starts == sorted(starts)  # trace() returns time order
    assert trace.slot_overlaps() == []
    assert trace.barrier_violations() == []


@given(shape=SHAPES, probability=st.floats(0.0, 0.6),
       seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_simulated_retries_recorded(shape, probability, seed):
    """Under random failures: one success per task, and its attempt number
    equals the count of its recorded failed attempts."""
    dag = random_dag(shape, with_reduces=False)
    recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
    failures = RandomFailures(probability, seed=seed, max_attempts=50)
    ClusterSimulator(spec(2, 2), FixedTimeModel(1.0), failures=failures,
                     recorder=recorder).run(dag)
    trace = recorder.trace()
    by_task = {}
    for event in trace.task_events():
        by_task.setdefault(event.task_id, []).append(event)
    for task_id, events in by_task.items():
        successes = [e for e in events if e.status == STATUS_SUCCESS]
        failed = [e for e in events if e.status == STATUS_FAILED]
        assert len(successes) == 1, task_id
        assert successes[0].attempt == len(failed)
        assert sorted(e.attempt for e in events) == list(range(len(events)))


@given(shape=SHAPES, workers=st.integers(2, 8), seed=st.integers(0, 99))
@settings(max_examples=25, deadline=None)
def test_local_recorder_thread_safe(shape, workers, seed):
    """Concurrency must lose no events and corrupt no slots."""
    sink, lock = [], threading.Lock()
    dag = random_dag(shape, with_reduces=True, runnable=True,
                     sink=sink, lock=lock)
    recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
    LocalExecutor(max_workers=workers, recorder=recorder).run(dag)
    trace = recorder.trace()
    all_tasks = {task.task_id for job in dag for task in job.all_tasks()}
    # Every task ran exactly once, and every run produced exactly one event.
    assert sorted(sink) == sorted(all_tasks)
    assert sorted(event.task_id for event in trace.task_events()) \
        == sorted(all_tasks)
    assert trace.slot_overlaps() == []
    assert trace.barrier_violations() == []
    # All events landed on slots the pool actually owns.
    assert {event.slot for event in trace.task_events()} \
        <= {f"worker:{i}" for i in range(workers)}


@given(shape=SHAPES)
@settings(max_examples=20, deadline=None)
def test_null_recorder_changes_nothing(shape):
    """The default null recorder must not alter simulation results."""
    dag_a = random_dag(shape, with_reduces=True)
    dag_b = random_dag(shape, with_reduces=True)
    plain = ClusterSimulator(spec(2, 2), FixedTimeModel(1.0)).run(dag_a)
    recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
    traced = ClusterSimulator(spec(2, 2), FixedTimeModel(1.0),
                              recorder=recorder).run(dag_b)
    assert plain.makespan == traced.makespan
    assert {job_id: timeline.duration
            for job_id, timeline in plain.job_timelines.items()} \
        == {job_id: timeline.duration
            for job_id, timeline in traced.job_timelines.items()}
