"""Unit tests for the chaos harness and the checkpoint-interval advisor."""

import math

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.provisioning import provision
from repro.cloud.spot import SpotMarket
from repro.core.advisor import (
    advise_checkpoint_interval,
    revocation_probability,
)
from repro.core.chaos import (
    RECOVERY_RESTART,
    RECOVERY_RESUME,
    SCENARIO_FLAKY_TASKS,
    SCENARIO_NODE_CRASH,
    SCENARIO_REVOCATION_WAVE,
    SCENARIOS,
    build_scenario,
    run_chaos,
)
from repro.errors import ValidationError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.task import TaskWork, make_map_task
from repro.hadoop.timemodel import FixedTimeModel
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import PHASE_NODE, InMemoryRecorder


def spec(nodes=2, slots=2):
    return ClusterSpec(get_instance_type("m1.large"), nodes, slots)


def busy_dag(n_tasks=8):
    tasks = [make_map_task(f"t{i}", TaskWork(bytes_read=1))
             for i in range(n_tasks)]
    return JobDag([Job("j", JobKind.MAP_ONLY, tasks)])


class TestBuildScenario:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError, match="unknown scenario"):
            build_scenario("meteor-strike", 0, spec(), 100.0)

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValidationError):
            build_scenario(SCENARIO_NODE_CRASH, 0, spec(), 0.0)

    def test_node_crash_lands_mid_run(self):
        __, node_failures = build_scenario(SCENARIO_NODE_CRASH, 3, spec(),
                                           100.0)
        events = node_failures.failures(spec().node_names())
        assert len(events) == 1
        assert 0 < events[0].at < 100.0

    def test_flaky_tasks_is_task_level(self):
        failures, node_failures = build_scenario(SCENARIO_FLAKY_TASKS, 0,
                                                 spec(), 100.0)
        assert failures is not None
        assert node_failures is None


class TestBuildHdfs:
    """The HDFS a chaos run reads its inputs from (``provision``)."""

    def test_inputs_spread_across_nodes(self):
        cluster = spec(nodes=4)
        namenode = provision(cluster, input_files={"/input/A": 2**28,
                                                   "/input/B": 2**28})
        # Each file's writer takes its first replica, and the least-loaded
        # nodes the rest, so every node ends up holding input blocks.
        assert namenode.replica_nodes("/input/A") \
            | namenode.replica_nodes("/input/B") == set(cluster.node_names())

    def test_replication_capped_by_cluster_size(self):
        namenode = provision(spec(nodes=1), input_files={"/input/A": 2**20})
        assert namenode.replication == 1


class TestRunChaos:
    def test_node_crash_hits_running_work(self):
        # 4 nodes with 3-way replication: losing any node leaves blocks
        # under target, so the crash visibly bills re-replication traffic.
        report = run_chaos(busy_dag(16), spec(nodes=4), FixedTimeModel(10.0),
                           SCENARIO_NODE_CRASH, seed=0,
                           input_files={"/input/X": 2**28})
        assert report.completed
        assert report.attempts_lost >= 1
        assert report.overhead_seconds >= 0
        assert report.rereplicated_bytes > 0
        assert report.cost >= report.baseline_cost
        assert "chaos scenario" in report.describe()

    def test_revocation_wave_is_correlated(self):
        report = run_chaos(busy_dag(16), spec(nodes=4), FixedTimeModel(10.0),
                           SCENARIO_REVOCATION_WAVE, seed=0)
        assert report.completed
        assert len(report.nodes_lost) == 2
        assert len({f.at for f in report.nodes_lost}) == 1

    def test_restart_never_beats_resume(self):
        resume = run_chaos(busy_dag(), spec(), FixedTimeModel(10.0),
                           SCENARIO_NODE_CRASH, seed=0)
        restart = run_chaos(busy_dag(), spec(), FixedTimeModel(10.0),
                            SCENARIO_NODE_CRASH, seed=0,
                            recovery=RECOVERY_RESTART)
        assert resume.completed and restart.completed
        assert resume.makespan_seconds <= restart.makespan_seconds
        assert resume.cost <= restart.cost

    def test_quorum_loss_reports_abort(self):
        report = run_chaos(busy_dag(), spec(), FixedTimeModel(10.0),
                           SCENARIO_NODE_CRASH, seed=0, min_live_nodes=2)
        assert not report.completed
        assert report.abort_reason
        assert math.isinf(report.overhead_seconds)
        assert "ABORTED" in report.describe()

    def test_flaky_tasks_complete_with_retries(self):
        report = run_chaos(busy_dag(20), spec(), FixedTimeModel(10.0),
                           SCENARIO_FLAKY_TASKS, seed=1)
        assert report.completed
        assert report.overhead_seconds >= 0

    def test_invalid_recovery_rejected(self):
        with pytest.raises(ValidationError, match="recovery"):
            run_chaos(busy_dag(), spec(), FixedTimeModel(10.0),
                      SCENARIO_NODE_CRASH, recovery="prayer")

    def test_telemetry_flows_through(self):
        recorder = InMemoryRecorder()
        registry = MetricsRegistry()
        run_chaos(busy_dag(), spec(), FixedTimeModel(10.0),
                  SCENARIO_NODE_CRASH, seed=0, recorder=recorder,
                  metrics=registry)
        assert any(e.phase == PHASE_NODE for e in recorder.trace().events)
        assert registry.counter("sim.nodes_lost").value >= 1

    def test_scenarios_replay_deterministically(self):
        for scenario in SCENARIOS:
            one = run_chaos(busy_dag(), spec(), FixedTimeModel(10.0),
                            scenario, seed=5)
            two = run_chaos(busy_dag(), spec(), FixedTimeModel(10.0),
                            scenario, seed=5)
            assert one.makespan_seconds == two.makespan_seconds
            assert one.attempts_lost == two.attempts_lost
            assert one.nodes_lost == two.nodes_lost
            assert one.cost == two.cost


class TestCheckpointAdvisor:
    def test_hazard_in_unit_interval_and_deterministic(self):
        market = SpotMarket()
        hazard = revocation_probability(market, 0.35)
        assert 0.0 <= hazard <= 1.0
        assert hazard == revocation_probability(market, 0.35)

    def test_higher_bid_lowers_hazard(self):
        market = SpotMarket()
        assert revocation_probability(market, 0.9) \
            <= revocation_probability(market, 0.25)

    def test_unbeatable_bid_means_no_checkpointing(self):
        advice = advise_checkpoint_interval(SpotMarket(), bid_fraction=100.0,
                                            checkpoint_seconds=10.0)
        assert advice.revocation_probability_per_hour == 0.0
        assert math.isinf(advice.mtbf_seconds)
        assert advice.expected_overhead_fraction == 0.0
        assert "optional" in advice.describe()

    def test_young_daly_shape(self):
        cheap = advise_checkpoint_interval(SpotMarket(), 0.35,
                                           checkpoint_seconds=1.0)
        dear = advise_checkpoint_interval(SpotMarket(), 0.35,
                                          checkpoint_seconds=100.0)
        # interval = sqrt(2 C MTBF): pricier snapshots -> checkpoint less.
        assert dear.interval_seconds > cheap.interval_seconds
        assert cheap.interval_seconds \
            == pytest.approx(math.sqrt(2.0 * 1.0 * cheap.mtbf_seconds))
        assert 0 < cheap.expected_overhead_fraction < 1

    def test_work_seconds_clamps_interval(self):
        advice = advise_checkpoint_interval(SpotMarket(), 0.35,
                                            checkpoint_seconds=100.0,
                                            work_seconds=50.0)
        assert advice.interval_seconds == 50.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            advise_checkpoint_interval(SpotMarket(), 0.35,
                                       checkpoint_seconds=0.0)
        with pytest.raises(ValidationError):
            revocation_probability(SpotMarket(), 0.0)
        with pytest.raises(ValidationError):
            revocation_probability(SpotMarket(), 0.35, sample_hours=0)
