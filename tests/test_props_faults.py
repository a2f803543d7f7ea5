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
