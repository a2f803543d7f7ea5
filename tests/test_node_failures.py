"""Unit tests: node-level faults — crashes, revocation waves, chaos harness.

Covers the failure mode task-attempt injection cannot: a whole node leaving
the cluster mid-run, taking its slots, its running attempts, its map
outputs, and its HDFS replicas with it.
"""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import (
    QuorumLostError,
    SchedulingError,
    ValidationError,
)
from repro.hadoop.faults import (
    CAUSE_CRASH,
    CAUSE_REVOCATION,
    CompositeNodeFailures,
    NodeFailure,
    NoNodeFailures,
    RandomNodeFailures,
    SpotRevocationWaves,
    TargetedFailures,
    TargetedNodeFailures,
)
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import (
    FAILED,
    LOST,
    SUCCESS,
    ClusterSimulator,
)
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.hadoop.timemodel import FixedTimeModel
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import (
    PHASE_NODE,
    PHASE_REEXEC,
    PHASE_REREPLICATION,
    STATUS_LOST,
    STATUS_REVOKED,
    InMemoryRecorder,
)


def spec(nodes=2, slots=2):
    return ClusterSpec(get_instance_type("m1.large"), nodes, slots)


def map_only(job_id, n_tasks, bytes_read=1):
    tasks = [make_map_task(f"{job_id}-t{i}", TaskWork(bytes_read=bytes_read))
             for i in range(n_tasks)]
    return Job(job_id, JobKind.MAP_ONLY, tasks)


def cluster_hdfs(node_names, replication=2, file_bytes=256 * 2**20):
    namenode = NameNode(replication=replication)
    for name in node_names:
        namenode.register_datanode(DataNode(name, 10**12))
    namenode.create("/input/X", file_bytes, writer=node_names[0])
    return namenode


class TestNodeFailureModels:
    def test_no_node_failures(self):
        assert NoNodeFailures().failures(["a", "b"]) == []

    def test_targeted_filters_unknown_nodes(self):
        model = TargetedNodeFailures({"a": 5.0, "ghost": 1.0})
        events = model.failures(["a", "b"])
        assert [(e.node, e.at) for e in events] == [("a", 5.0)]

    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            NodeFailure("a", -1.0)

    def test_unknown_cause_rejected(self):
        with pytest.raises(ValidationError):
            NodeFailure("a", 1.0, cause="gremlins")

    def test_random_crashes_deterministic(self):
        model = RandomNodeFailures(rate_per_hour=0.5, seed=3)
        names = [f"n{i}" for i in range(6)]
        assert model.failures(names) == model.failures(names)
        assert RandomNodeFailures(0.0).failures(names) == []

    def test_spot_wave_is_correlated(self):
        model = SpotRevocationWaves(bid_fraction=0.35, seed=4,
                                    victim_fraction=0.5, hour_seconds=1.0)
        names = [f"n{i}" for i in range(8)]
        events = model.failures(names)
        assert len(events) == 4  # ceil(0.5 * 8) victims
        assert len({e.at for e in events}) == 1  # all at the same instant
        assert all(e.cause == CAUSE_REVOCATION for e in events)
        assert events == model.failures(names)

    def test_spot_wave_time_follows_price_path(self):
        model = SpotRevocationWaves(bid_fraction=0.35, seed=4,
                                    victim_fraction=1.0, hour_seconds=2.0)
        hour = model.first_wave_hour()
        assert hour is not None and hour >= 1
        events = model.failures(["n0"])
        assert events[0].at == pytest.approx(hour * 2.0)

    def test_composite_earliest_death_wins(self):
        model = CompositeNodeFailures([
            TargetedNodeFailures({"a": 10.0, "b": 3.0}),
            TargetedNodeFailures({"a": 4.0}, cause=CAUSE_REVOCATION),
        ])
        events = {e.node: e for e in model.failures(["a", "b"])}
        assert events["a"].at == 4.0
        assert events["a"].cause == CAUSE_REVOCATION
        assert events["b"].at == 3.0


class TestNodeLossInSimulator:
    def test_running_attempts_lost_and_job_completes_on_survivors(self):
        # 8 x 10s tasks on 2x2 slots: both of node-0's running attempts die
        # with it at t=5, are requeued, and everything lands on node-1.
        clean = ClusterSimulator(spec(), FixedTimeModel(10.0)).run(
            JobDag([map_only("j", 8)])).makespan
        sim = ClusterSimulator(
            spec(), FixedTimeModel(10.0),
            node_failures=TargetedNodeFailures({"m1.large-0": 5.0}))
        result = sim.run(JobDag([map_only("j", 8)]))
        timeline = result.job("j")
        assert len(timeline.attempts_with_status(LOST)) == 2
        succeeded = {a.task.task_id
                     for a in timeline.attempts_with_status(SUCCESS)}
        assert succeeded == {f"j-t{i}" for i in range(8)}
        assert result.makespan > clean

    def test_lost_nodes_reported(self):
        sim = ClusterSimulator(
            spec(), FixedTimeModel(10.0),
            node_failures=TargetedNodeFailures({"m1.large-0": 5.0}))
        result = sim.run(JobDag([map_only("j", 4)]))
        assert [(f.node, f.cause) for f in result.lost_nodes] \
            == [("m1.large-0", CAUSE_CRASH)]

    def test_dead_node_gets_no_new_work(self):
        sim = ClusterSimulator(
            spec(), FixedTimeModel(10.0),
            node_failures=TargetedNodeFailures({"m1.large-0": 5.0}))
        result = sim.run(JobDag([map_only("j", 12)]))
        for attempt in result.job("j").attempts:
            if attempt.start > 5.0:
                assert attempt.node != "m1.large-0"

    def test_lost_attempts_do_not_count_against_max_attempts(self):
        # max_attempts=1 would abort on the first *failure*; a node loss is
        # not the task's fault, so the rerun must still be allowed.
        failures = TargetedFailures(set(), max_attempts=1)
        sim = ClusterSimulator(
            spec(), FixedTimeModel(10.0), failures=failures,
            node_failures=TargetedNodeFailures({"m1.large-0": 5.0}))
        result = sim.run(JobDag([map_only("j", 8)]))
        assert result.count_attempts(SUCCESS) == 8

    def test_retry_of_a_lost_twin_never_reruns_a_finished_task(self):
        # node-0 runs 2x slower, so j-t0's straggler there gets a
        # speculative twin on node-1.  node-1 dies with the twin at 2.25,
        # the instant the straggler finishes: the retry queued for the
        # twin must not run the finished task a second time.
        sim = ClusterSimulator(
            spec(), FixedTimeModel(1.0, 0.25), speculative=True,
            slow_nodes={"m1.large-0": 2.0},
            node_failures=TargetedNodeFailures({"m1.large-1": 2.25}))
        result = sim.run(JobDag([map_only("j", 5)]))
        succeeded = [a.task.task_id
                     for a in result.job("j").attempts_with_status(SUCCESS)]
        assert sorted(succeeded) == [f"j-t{i}" for i in range(5)]

    def test_quorum_loss_aborts(self):
        sim = ClusterSimulator(
            spec(nodes=2), FixedTimeModel(10.0), min_live_nodes=2,
            node_failures=TargetedNodeFailures({"m1.large-0": 5.0}))
        with pytest.raises(QuorumLostError, match="quorum"):
            sim.run(JobDag([map_only("j", 8)]))

    def test_quorum_error_is_a_scheduling_error(self):
        assert issubclass(QuorumLostError, SchedulingError)

    def test_losing_every_node_aborts_even_with_min_quorum(self):
        sim = ClusterSimulator(
            spec(nodes=2), FixedTimeModel(10.0),
            node_failures=TargetedNodeFailures({"m1.large-0": 5.0,
                                                "m1.large-1": 5.0}))
        with pytest.raises(QuorumLostError):
            sim.run(JobDag([map_only("j", 8)]))

    def test_failure_after_completion_is_harmless(self):
        clean = ClusterSimulator(spec(), FixedTimeModel(10.0)).run(
            JobDag([map_only("j", 4)]))
        late = ClusterSimulator(
            spec(), FixedTimeModel(10.0),
            node_failures=TargetedNodeFailures({"m1.large-0": 10_000.0}))
        result = late.run(JobDag([map_only("j", 4)]))
        assert result.makespan == pytest.approx(clean.makespan)
        assert result.lost_nodes == []

    def test_min_live_nodes_validated(self):
        with pytest.raises(ValidationError):
            ClusterSimulator(spec(), FixedTimeModel(1.0), min_live_nodes=0)

    def test_trace_and_metrics_record_the_loss(self):
        recorder = InMemoryRecorder()
        registry = MetricsRegistry()
        sim = ClusterSimulator(
            spec(), FixedTimeModel(10.0), recorder=recorder, metrics=registry,
            node_failures=TargetedNodeFailures(
                {"m1.large-0": 5.0}, cause=CAUSE_REVOCATION))
        sim.run(JobDag([map_only("j", 8)]))
        node_events = [e for e in recorder.trace().events
                       if e.phase == PHASE_NODE]
        assert len(node_events) == 1
        assert node_events[0].status == STATUS_REVOKED
        assert node_events[0].task_id == "m1.large-0"
        lost_events = [e for e in recorder.trace().events
                       if e.status == STATUS_LOST]
        assert len(lost_events) == 2
        assert registry.counter("sim.nodes_lost").value == 1
        assert registry.counter("sim.revocations").value == 1
        assert registry.counter("sim.attempts_lost").value == 2


class TestMapOutputInvalidation:
    def mr_job(self, shuffle_bytes):
        maps = [make_map_task(f"m{i}", TaskWork(shuffle_bytes=shuffle_bytes))
                for i in range(4)]
        reduces = [make_reduce_task("r0", TaskWork())]
        return Job("mr", JobKind.MAPREDUCE, maps, reduces)

    def test_map_outputs_on_dead_node_are_reexecuted(self):
        # 2 nodes x 1 slot, 10s tasks: maps finish at t=20, then a long
        # shuffle (2 GB over 2x80 MB/s ~ 13s).  Killing node-0 at t=25 —
        # after its maps finished but before the shuffle completed —
        # invalidates the two map outputs parked on its local disk.
        cluster = spec(slots=1)
        clean = ClusterSimulator(cluster, FixedTimeModel(10.0)).run(
            JobDag([self.mr_job(2**29)])).makespan
        sim = ClusterSimulator(
            cluster, FixedTimeModel(10.0),
            node_failures=TargetedNodeFailures({"m1.large-0": 25.0}))
        result = sim.run(JobDag([self.mr_job(2**29)]))
        assert result.reexecuted_tasks == 2
        assert result.makespan > clean
        # The re-executed maps succeed a second time before the reduce runs.
        successes = [a.task.task_id for a in
                     result.job("mr").attempts_with_status(SUCCESS)]
        assert successes.count("r0") == 1
        assert len(successes) == 4 + 2 + 1

    def test_reexec_traced(self):
        recorder = InMemoryRecorder()
        sim = ClusterSimulator(
            spec(slots=1), FixedTimeModel(10.0), recorder=recorder,
            node_failures=TargetedNodeFailures({"m1.large-0": 25.0}))
        sim.run(JobDag([self.mr_job(2**29)]))
        reexec = [e for e in recorder.trace().events
                  if e.phase == PHASE_REEXEC]
        assert len(reexec) == 2

    def test_no_reexec_once_shuffle_done(self):
        # Tiny shuffle: it completes right after the maps, so a later node
        # loss can no longer invalidate map outputs.
        sim = ClusterSimulator(
            spec(slots=1), FixedTimeModel(10.0),
            node_failures=TargetedNodeFailures({"m1.large-0": 25.0}))
        result = sim.run(JobDag([self.mr_job(8)]))
        assert result.reexecuted_tasks == 0
        assert result.count_attempts(SUCCESS) >= 5


class TestHdfsBlastRadius:
    def test_node_loss_bills_rereplication(self):
        cluster = spec(nodes=3)
        namenode = cluster_hdfs(cluster.node_names())
        recorder = InMemoryRecorder()
        sim = ClusterSimulator(
            cluster, FixedTimeModel(10.0), recorder=recorder,
            namenode=namenode,
            node_failures=TargetedNodeFailures({"m1.large-0": 5.0}))
        result = sim.run(JobDag([map_only("j", 6)]))
        assert result.rereplicated_bytes > 0
        assert not namenode.has_datanode("m1.large-0")
        spans = [e for e in recorder.trace().events
                 if e.phase == PHASE_REREPLICATION]
        assert len(spans) == 1
        assert spans[0].end > spans[0].start  # billed in virtual time

    def test_under_replicated_recorded_when_no_spare_capacity(self):
        # Three nodes, but the only spare has no room for the copies: the
        # run degrades and the blocks are *recorded* as under-replicated
        # instead of raising mid-simulation.
        cluster = spec(nodes=3)
        names = cluster.node_names()
        namenode = NameNode(replication=2)
        namenode.register_datanode(DataNode(names[0], 10**12))
        namenode.register_datanode(DataNode(names[1], 10**12))
        namenode.register_datanode(DataNode(names[2], 1))  # full
        namenode.create("/input/X", 256 * 2**20, writer=names[0])
        sim = ClusterSimulator(
            cluster, FixedTimeModel(10.0), namenode=namenode,
            node_failures=TargetedNodeFailures({names[0]: 5.0}))
        result = sim.run(JobDag([map_only("j", 6)]))
        assert result.count_attempts(SUCCESS) == 6
        assert namenode.under_replicated()

    def test_concurrent_loss_of_replication_datanodes_degrades(self):
        # Losing as many nodes at once as the replication factor must
        # degrade the run, not crash it (satellite requirement).
        cluster = spec(nodes=4)
        namenode = cluster_hdfs(cluster.node_names(), replication=2)
        sim = ClusterSimulator(
            cluster, FixedTimeModel(10.0), namenode=namenode,
            node_failures=TargetedNodeFailures({"m1.large-0": 5.0,
                                                "m1.large-1": 5.0}))
        result = sim.run(JobDag([map_only("j", 8)]))
        assert result.count_attempts(SUCCESS) == 8
        assert len(result.lost_nodes) == 2


class TestSpotWaveInSimulator:
    def test_wave_revokes_half_the_cluster_and_run_degrades(self):
        cluster = spec(nodes=4, slots=1)
        hour = SpotRevocationWaves(bid_fraction=0.35,
                                   seed=4).first_wave_hour()
        model = SpotRevocationWaves(bid_fraction=0.35, seed=4,
                                    victim_fraction=0.5,
                                    hour_seconds=15.0 / hour)
        result = ClusterSimulator(
            cluster, FixedTimeModel(10.0),
            node_failures=model).run(JobDag([map_only("j", 12)]))
        assert len(result.lost_nodes) == 2
        assert {f.cause for f in result.lost_nodes} == {CAUSE_REVOCATION}
        assert len({f.at for f in result.lost_nodes}) == 1
        assert result.count_attempts(SUCCESS) == 12
