"""Property-based tests: simulator invariants under failures/speculation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import SchedulingError
from repro.hadoop.faults import RandomFailures
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import (
    FAILED,
    KILLED,
    SUCCESS,
    ClusterSimulator,
)
from repro.hadoop.task import TaskWork, make_map_task
from repro.hadoop.timemodel import FixedTimeModel


def build_dag(n_tasks):
    tasks = [make_map_task(f"t{i}", TaskWork()) for i in range(n_tasks)]
    return JobDag([Job("j", JobKind.MAP_ONLY, tasks)])


def spec(nodes, slots):
    return ClusterSpec(get_instance_type("m1.large"), nodes, min(slots, 4))


@given(n_tasks=st.integers(1, 30), nodes=st.integers(1, 4),
       slots=st.integers(1, 4), probability=st.floats(0.0, 0.4),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_every_task_succeeds_exactly_once_despite_failures(
        n_tasks, nodes, slots, probability, seed):
    failures = RandomFailures(probability=probability, seed=seed,
                              max_attempts=50)
    sim = ClusterSimulator(spec(nodes, slots), FixedTimeModel(1.0),
                           failures=failures)
    result = sim.run(build_dag(n_tasks))
    timeline = result.job("j")
    successes = timeline.attempts_with_status(SUCCESS)
    assert sorted(a.task.task_id for a in successes) \
        == sorted(f"t{i}" for i in range(n_tasks))


@given(n_tasks=st.integers(1, 30), probability=st.floats(0.01, 0.4),
       seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_failures_never_speed_things_up(n_tasks, probability, seed):
    cluster = spec(2, 2)
    clean = ClusterSimulator(cluster, FixedTimeModel(1.0)).run(
        build_dag(n_tasks)).makespan
    failures = RandomFailures(probability=probability, seed=seed,
                              max_attempts=50)
    faulty = ClusterSimulator(cluster, FixedTimeModel(1.0),
                              failures=failures).run(
        build_dag(n_tasks)).makespan
    assert faulty >= clean - 1e-9


@given(n_tasks=st.integers(1, 20), nodes=st.integers(1, 4),
       slots=st.integers(1, 3),
       slow_factor=st.floats(1.0, 20.0), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_speculation_invariants(n_tasks, nodes, slots, slow_factor, seed):
    """With speculation on: every task succeeds exactly once, killed
    attempts never exceed successes, and no slot is oversubscribed."""
    cluster = spec(nodes, slots)
    slow = {cluster.node_names()[seed % nodes]: slow_factor}
    sim = ClusterSimulator(cluster, FixedTimeModel(2.0), speculative=True,
                           slow_nodes=slow)
    result = sim.run(build_dag(n_tasks))
    timeline = result.job("j")
    successes = timeline.attempts_with_status(SUCCESS)
    assert len(successes) == n_tasks
    assert len({a.task.task_id for a in successes}) == n_tasks
    assert result.count_attempts(KILLED) <= n_tasks
    # slot occupancy invariant across all attempt kinds
    events = []
    for attempt in timeline.attempts:
        events.append((attempt.start, 1, attempt.node))
        events.append((attempt.end, -1, attempt.node))
    events.sort(key=lambda e: (e[0], e[1]))
    load = {}
    for __, delta, node in events:
        load[node] = load.get(node, 0) + delta
        assert load[node] <= cluster.slots_per_node


@given(n_tasks=st.integers(1, 15), probability=st.floats(0.05, 0.3),
       seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_failed_attempts_counted_consistently(n_tasks, probability, seed):
    failures = RandomFailures(probability=probability, seed=seed,
                              max_attempts=50)
    sim = ClusterSimulator(spec(2, 2), FixedTimeModel(1.0),
                           failures=failures)
    result = sim.run(build_dag(n_tasks))
    total = sum(len(t.attempts) for t in result.job_timelines.values())
    assert total == (result.count_attempts(SUCCESS)
                     + result.count_attempts(FAILED)
                     + result.count_attempts(KILLED))
    assert result.count_attempts(SUCCESS) == n_tasks


@given(probability=st.floats(0.9, 0.99), seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_hopeless_failure_rates_abort(probability, seed):
    """With very high failure probability and few attempts allowed, the
    job either aborts with a clear error or (rarely) completes."""
    failures = RandomFailures(probability=probability, seed=seed,
                              max_attempts=2)
    sim = ClusterSimulator(spec(2, 2), FixedTimeModel(1.0),
                           failures=failures)
    try:
        result = sim.run(build_dag(10))
    except SchedulingError as error:
        assert "failed 2 times" in str(error)
    else:
        assert result.count_attempts(SUCCESS) == 10


# ---------------------------------------------------------------------------
# Node-level failures.
# ---------------------------------------------------------------------------

from repro.errors import QuorumLostError  # noqa: E402
from repro.hadoop.faults import (  # noqa: E402
    RandomNodeFailures,
    TargetedNodeFailures,
)
from repro.hadoop.simulator import LOST  # noqa: E402
from repro.hdfs.datanode import DataNode  # noqa: E402
from repro.hdfs.namenode import NameNode  # noqa: E402
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import InMemoryRecorder


def _run_with_node_failures(n_tasks, nodes, slots, rate, seed):
    """One full traced simulation; everything rebuilt from seeds."""
    cluster = spec(nodes, slots)
    namenode = NameNode(replication=2)
    for name in cluster.node_names():
        namenode.register_datanode(DataNode(name, 10**12))
    namenode.create("/input/X", 256 * 2**20, writer=cluster.node_names()[0])
    recorder = InMemoryRecorder()
    metrics = MetricsRegistry()
    sim = ClusterSimulator(
        cluster, FixedTimeModel(1.0), recorder=recorder, metrics=metrics,
        node_failures=RandomNodeFailures(rate, seed=seed),
        namenode=namenode)
    try:
        result = sim.run(build_dag(n_tasks))
    except QuorumLostError as error:
        return ("aborted", str(error))
    events = sorted((e.phase, e.task_id, e.start, e.end, e.status, e.slot)
                    for e in recorder.trace().events)
    return (
        result.makespan,
        [(f.node, f.at, f.cause) for f in result.lost_nodes],
        result.rereplicated_bytes,
        result.reexecuted_tasks,
        result.count_attempts(SUCCESS),
        result.count_attempts(LOST),
        events,
    )


@given(n_tasks=st.integers(1, 25), nodes=st.integers(2, 4),
       slots=st.integers(1, 3), rate=st.floats(0.0, 400.0),
       seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_node_failure_simulation_replays_identically(
        n_tasks, nodes, slots, rate, seed):
    """Same seeds -> byte-for-byte identical timeline, traffic, and trace
    (the abort branch included)."""
    assert _run_with_node_failures(n_tasks, nodes, slots, rate, seed) \
        == _run_with_node_failures(n_tasks, nodes, slots, rate, seed)


@given(n_tasks=st.integers(1, 25), nodes=st.integers(2, 4),
       slots=st.integers(1, 3), seed=st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_losing_all_but_one_node_degrades_not_crashes(
        n_tasks, nodes, slots, seed):
    """Concurrently killing every node but one — as many as (or more than)
    the HDFS replication factor — must degrade the run onto the survivor,
    never crash it."""
    cluster = spec(nodes, slots)
    names = cluster.node_names()
    survivor = names[seed % nodes]
    victims = {name: 0.5 for name in names if name != survivor}
    namenode = NameNode(replication=min(2, nodes))
    for name in names:
        namenode.register_datanode(DataNode(name, 10**12))
    namenode.create("/input/X", 256 * 2**20, writer=names[0])
    sim = ClusterSimulator(cluster, FixedTimeModel(1.0),
                           node_failures=TargetedNodeFailures(victims),
                           namenode=namenode)
    result = sim.run(build_dag(n_tasks))
    assert result.count_attempts(SUCCESS) == n_tasks
    assert len(result.lost_nodes) == nodes - 1
    late = [a for a in result.job("j").attempts
            if a.start > 0.5 and a.status == SUCCESS]
    assert all(a.node == survivor for a in late)


# ---------------------------------------------------------------------------
# In-flight bookkeeping: speculation, task failures and a node loss at once.
# ---------------------------------------------------------------------------

from collections import Counter, defaultdict  # noqa: E402

from repro.hadoop.task import Task, TaskKind  # noqa: E402
from repro.observability.trace import PHASE_REEXEC  # noqa: E402

#: One job: MapReduce or not, map and reduce task counts (no maps = the
#: degenerate job that ends right after its overhead), dependency picks.
MIXED_JOB = st.tuples(st.booleans(), st.integers(0, 8), st.integers(0, 3),
                      st.lists(st.integers(0, 10**6), max_size=2))

#: ``aim``: kill the node of an attempt a twin beat in the fault-free run,
#: between the twin's success and the loser's scheduled end (the
#: KILLED-then-LOST window); otherwise node ``slow + victim`` dies at a
#: fraction of the fault-free makespan.
IN_FLIGHT_CASE = dict(
    jobs=st.lists(MIXED_JOB, min_size=1, max_size=4),
    nodes=st.integers(2, 5), slots=st.integers(1, 3),
    speculative=st.booleans(), slow=st.integers(0, 4),
    slow_factor=st.floats(1.5, 8.0), probability=st.floats(0.0, 0.3),
    seed=st.integers(0, 10_000), aim=st.booleans(),
    victim=st.integers(0, 4), loss_at=st.floats(0.0, 1.0))


def build_mixed_dag(jobs):
    dag = JobDag()
    for number, (mapreduce, maps, reduces, dep_picks) in enumerate(jobs):
        def tasks(count, kind):
            return [Task(f"j{number}-{kind.value}-{index}", kind, TaskWork())
                    for index in range(count)]
        dag.add(Job(f"j{number}",
                    JobKind.MAPREDUCE if mapreduce else JobKind.MAP_ONLY,
                    tasks(maps, TaskKind.MAP),
                    tasks(reduces, TaskKind.REDUCE) if mapreduce else [],
                    {f"j{pick % number}" for pick in dep_picks}
                    if number else set()))
    return dag


def beaten_attempts(result):
    """``(node, start, end)``: when each KILLED attempt holds its slot after
    its twin's success, up to the end of the run (a later loss is ignored,
    since all work is done)."""
    windows = []
    for timeline in result.job_timelines.values():
        won = {attempt.task.task_id: attempt.end
               for attempt in timeline.attempts_with_status(SUCCESS)}
        for attempt in timeline.attempts_with_status(KILLED):
            start = won[attempt.task.task_id]
            end = min(attempt.end, result.makespan)
            if start < end:
                windows.append((attempt.node, start, end))
    return windows


def check_in_flight_bookkeeping(jobs, nodes, slots, speculative, slow,
                                slow_factor, probability, seed, aim, victim,
                                loss_at):
    """A slow node provokes speculative twins, attempts fail at random, and
    one node dies, so attempts are killed, lost, and killed then lost."""
    cluster = spec(nodes, slots)
    names = cluster.node_names()
    dag = build_mixed_dag(jobs)
    model = FixedTimeModel(1.0, 0.25)
    slow_nodes = {names[slow % nodes]: slow_factor}
    calm = ClusterSimulator(cluster, model, speculative=speculative,
                            slow_nodes=slow_nodes).run(dag)
    windows = beaten_attempts(calm)
    if aim and windows:
        node, start, end = windows[victim % len(windows)]
        loss = {node: start + loss_at * (end - start)}
    else:
        loss = {names[(slow + victim) % nodes]: loss_at * calm.makespan}
    recorder = InMemoryRecorder()
    sim = ClusterSimulator(
        cluster, model, speculative=speculative, slow_nodes=slow_nodes,
        failures=RandomFailures(probability, seed=seed, max_attempts=6),
        node_failures=TargetedNodeFailures(loss), recorder=recorder)
    try:
        result = sim.run(dag)
    except SchedulingError:
        return  # a task used up its attempts: the one allowed way out
    events = recorder.trace().events
    attempts = [attempt for timeline in result.job_timelines.values()
                for attempt in timeline.attempts]
    # Every task succeeds once, plus once per loss of its map output (a
    # job without maps ends after its overhead and runs nothing).
    reexecuted = Counter(event.task_id for event in events
                         if event.phase == PHASE_REEXEC)
    assert sum(reexecuted.values()) == result.reexecuted_tasks
    assert Counter(attempt.task.task_id for attempt in attempts
                   if attempt.status == SUCCESS) == Counter(
        {task.task_id: 1 + reexecuted[task.task_id]
         for job in dag if job.map_tasks for task in job.all_tasks()})
    # No node:slot lane holds two attempts at once.
    lanes = defaultdict(list)
    for event in events:
        if event.slot:
            lanes[event.slot].append((event.start, event.end))
    for spans in lanes.values():
        spans.sort()
        for (__, end), (start, __) in zip(spans, spans[1:]):
            assert start >= end
    # A lost attempt ends when, and where, a node was lost.
    losses = {(failure.node, failure.at) for failure in result.lost_nodes}
    for attempt in attempts:
        if attempt.status == LOST:
            assert (attempt.node, attempt.end) in losses
    if not speculative:
        assert result.count_attempts(KILLED) == 0


@given(**IN_FLIGHT_CASE)
@settings(max_examples=60, deadline=None)
def test_in_flight_bookkeeping_under_every_fault(**case):
    check_in_flight_bookkeeping(**case)


@pytest.mark.slow
@given(**IN_FLIGHT_CASE)
@settings(max_examples=3000, deadline=None)
def test_in_flight_bookkeeping_under_every_fault_many(**case):
    check_in_flight_bookkeeping(**case)
