"""Unit tests for the metrics layer: registry, exporters, cost meter,
and producer instrumentation (simulator, local executor, tile store)."""

import json

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.pricing import HourlyBilling, PerSecondBilling
from repro.errors import ValidationError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.local import LocalExecutor
from repro.hadoop.faults import TargetedFailures, TargetedNodeFailures
from repro.hadoop.simulator import FAILED, ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.hadoop.timemodel import FixedTimeModel
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.tilestore import TileStore
from repro.matrix.tile import Tile, TileId
from repro.observability.cost import (
    COST_SERIES,
    OVERRUN_BUDGET,
    OVERRUN_DEADLINE,
    CostMeter,
)
from repro.observability.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.observability.metrics_export import (
    metrics_to_json,
    render_dashboard,
    render_sparkline,
    to_prometheus,
)
from repro.service.jobs import JobService
from repro.workloads.catalog import build_workload

import numpy as np


def spec(nodes=2, slots=2, instance="m1.large"):
    return ClusterSpec(get_instance_type(instance), nodes, slots)


def hdfs_store(metrics):
    namenode = NameNode(replication=2)
    for index in range(2):
        namenode.register_datanode(DataNode(f"node-{index}", 10**9))
    return TileStore(namenode, metrics=metrics)


def uniform_dag(n_tasks=8, seconds=2.0, nbytes=1000):
    work = TaskWork(bytes_read=nbytes, bytes_written=nbytes // 2)
    tasks = [make_map_task(f"t{i}", work) for i in range(n_tasks)]
    return JobDag([Job("j", JobKind.MAP_ONLY, tasks)])


def every_event_kind_dag():
    """A map-only job, a map -> shuffle -> reduce job and an empty job."""
    work = TaskWork(bytes_read=1000, shuffle_bytes=1000)
    return JobDag([
        Job("m", JobKind.MAP_ONLY,
            [make_map_task(f"m{i}", work) for i in range(6)]),
        Job("mr", JobKind.MAPREDUCE,
            [make_map_task(f"mr-m{i}", work) for i in range(4)],
            [make_reduce_task(f"mr-r{i}", work) for i in range(2)],
            depends_on={"m"}),
        Job("empty", JobKind.MAP_ONLY, [], depends_on={"mr"}),
    ])


class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("x", 2)
        registry.inc("x")
        assert registry.counter("x").value == 3.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.counter("x").inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value == 3.0

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.bucket_counts == [1, 2, 3]
        assert hist.count == 3
        assert hist.mean == pytest.approx(55.5 / 3)
        assert hist.min == 0.5 and hist.max == 50.0

    def test_series_ring_buffer_caps(self):
        registry = MetricsRegistry(max_samples=4)
        for t in range(10):
            registry.sample("s", float(t), t=float(t))
        samples = registry.series("s").samples()
        assert len(samples) == 4
        assert samples[0] == (6.0, 6.0)

    def test_same_name_different_kind_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValidationError, match="already registered"):
            registry.gauge("x")

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.inc("x", 1, labels={"node": "a"})
        registry.inc("x", 5, labels={"node": "b"})
        assert registry.counter("x", labels={"node": "a"}).value == 1.0
        assert registry.counter("x", labels={"node": "b"}).value == 5.0

    def test_snapshot_round_trips_as_json(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 2)
        registry.observe("h", 0.5)
        registry.sample("s", 1.0, t=0.0)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["counters"][0]["name"] == "c"
        assert snapshot["series"][0]["samples"] == [[0.0, 1.0]]

    def test_null_registry_discards_everything(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.inc("x")
        NULL_METRICS.set_gauge("g", 1)
        NULL_METRICS.observe("h", 1)
        NULL_METRICS.sample("s", 1)
        assert NULL_METRICS.snapshot() == {
            "counters": [], "gauges": [], "histograms": [], "series": []}


class _TripwireRegistry(NullMetricsRegistry):
    """Disabled registry whose instrument paths blow up when touched.

    If a hot path respects the ``metrics.enabled`` gate, none of these
    ever run; any unguarded instrument access fails the test loudly.
    """

    def _get(self, kind, cls, name, labels, help, **kwargs):
        raise AssertionError("disabled metrics path allocated an instrument")

    def inc(self, name, amount=1.0, labels=None):
        raise AssertionError("disabled metrics path called inc()")

    def set_gauge(self, name, value, labels=None):
        raise AssertionError("disabled metrics path called set_gauge()")

    def observe(self, name, value, labels=None):
        raise AssertionError("disabled metrics path called observe()")

    def sample(self, name, value, t=None, labels=None):
        raise AssertionError("disabled metrics path called sample()")


class TestDisabledHotPath:
    def test_simulator_pays_only_attribute_check(self):
        simulator = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                     metrics=_TripwireRegistry())
        result = simulator.run(uniform_dag())
        assert result.makespan > 0

    def test_simulator_event_kinds_pay_only_attribute_check(self):
        """Every event kind the simulator counts (``sim.events``) runs
        under the tripwire: retries, a shuffle, speculation wake-ups, a
        node loss and an empty job."""
        simulator = ClusterSimulator(
            spec(nodes=3), FixedTimeModel(1.0), speculative=True,
            slow_nodes={"m1.large-1": 5.0},
            failures=TargetedFailures({("m0", 0)}),
            node_failures=TargetedNodeFailures({"m1.large-2": 1.5}),
            metrics=_TripwireRegistry())
        result = simulator.run(every_event_kind_dag())
        assert len(result.lost_nodes) == 1
        assert result.count_attempts(FAILED) == 1

    def test_local_executor_pays_only_attribute_check(self):
        executor = LocalExecutor(max_workers=2,
                                 metrics=_TripwireRegistry())
        done = []
        tasks = [make_map_task(f"t{i}", TaskWork(),
                               run=lambda i=i: done.append(i))
                 for i in range(4)]
        executor.run(JobDag([Job("j", JobKind.MAP_ONLY, tasks)]))
        assert sorted(done) == [0, 1, 2, 3]

    def test_tilestore_pays_only_attribute_check(self):
        store = hdfs_store(_TripwireRegistry())
        tile = Tile(TileId("m", 0, 0), np.ones((2, 2)))
        store.put(tile)
        assert store.get(tile.tile_id) is not None

    def test_job_service_pays_only_attribute_check(self):
        service = JobService(spec(), tune_physical=False,
                             metrics=_TripwireRegistry())
        service.add_tenant("acme")
        program, tile = build_workload("multiply", "tiny")
        handles = [service.submit(program, "acme", tile_size=tile)
                   for __ in range(3)]
        handles[0].cancel()
        service.drain()
        assert [handle.status for handle in handles] == [
            "cancelled", "completed", "completed"]


class TestSimulatorInstrumentation:
    def test_counters_match_simulation_result(self):
        registry = MetricsRegistry()
        simulator = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                     metrics=registry)
        result = simulator.run(uniform_dag(n_tasks=8, nbytes=1000))
        assert registry.counter("sim.tasks_completed").value == 8
        assert registry.counter("sim.tasks_started").value == 8
        assert registry.counter("sim.jobs_completed").value == 1
        assert registry.counter("sim.bytes_read").value == 8 * 1000
        assert registry.counter("sim.bytes_written").value == 8 * 500
        assert registry.histogram("sim.task_seconds").count == 8
        assert result.makespan == pytest.approx(2.0)

    def test_event_counts_by_kind(self):
        registry = MetricsRegistry()
        simulator = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                     speculative=True,
                                     slow_nodes={"m1.large-1": 5.0},
                                     metrics=registry)
        simulator.run(every_event_kind_dag())

        def events(kind):
            return registry.counter("sim.events",
                                    labels={"kind": kind}).value

        # Fault-free: every task-done is a completion or a speculative
        # loser being reaped, and nothing else is.
        killed = registry.counter("sim.tasks_killed").value
        assert killed > 0, "the slow node never provoked a duplicate"
        assert events("task-done") \
            == registry.counter("sim.tasks_completed").value + killed
        assert events("job-ready") == 2
        assert events("job-empty") == 1
        assert events("shuffle-done") == 1
        assert events("spec-check") > 0
        assert events("task-failed") == events("node-lost") == 0
        # 2x2 slots: at most four completions in flight, plus the pending
        # job activations and one speculation wake-up.
        assert 4 <= registry.gauge("sim.event_heap_peak").value <= 8

    def test_series_on_virtual_clock_monotonic(self):
        registry = MetricsRegistry()
        simulator = ClusterSimulator(spec(), FixedTimeModel(1.0),
                                     metrics=registry)
        result = simulator.run(uniform_dag(n_tasks=8))
        samples = registry.series("sim.running_slots").samples()
        assert samples, "simulator recorded no slot samples"
        times = [t for t, __ in samples]
        assert times == sorted(times)
        assert times[-1] <= result.makespan + 1e-9
        assert max(value for __, value in samples) <= spec().total_slots

    def test_queue_drains_to_zero(self):
        registry = MetricsRegistry()
        ClusterSimulator(spec(), FixedTimeModel(1.0),
                         metrics=registry).run(uniform_dag(n_tasks=8))
        depth = registry.series("sim.queue_depth").samples()
        assert depth[-1][1] == 0


class TestLocalExecutorInstrumentation:
    def test_counts_tasks_and_jobs(self):
        registry = MetricsRegistry()
        executor = LocalExecutor(max_workers=2, metrics=registry)
        tasks = [make_map_task(f"t{i}", TaskWork(bytes_read=10),
                               run=lambda: None) for i in range(6)]
        executor.run(JobDag([Job("j", JobKind.MAP_ONLY, tasks)]))
        assert registry.counter("local.tasks_completed").value == 6
        assert registry.counter("local.jobs_completed").value == 1
        assert registry.counter("local.bytes_read").value == 60
        assert registry.histogram("local.task_seconds").count == 6
        assert registry.gauge("local.inflight_tasks").value == 0


class TestTileStoreInstrumentation:
    def test_hits_misses_and_bytes(self):
        registry = MetricsRegistry()
        store = hdfs_store(registry)
        tile = Tile(TileId("m", 0, 0), np.ones((4, 4)))
        store.put(tile)
        store.get(tile.tile_id)
        with pytest.raises(Exception):
            store.get(TileId("m", 9, 9))
        assert registry.counter("tilestore.puts").value == 1
        assert registry.counter("tilestore.hits").value == 1
        assert registry.counter("tilestore.misses").value == 1
        assert registry.counter("tilestore.bytes_read").value \
            == tile.nbytes()


class TestPrometheusExporter:
    def test_shape_help_type_and_counter_suffix(self):
        registry = MetricsRegistry()
        registry.inc("sim.tasks", 3)
        text = to_prometheus(registry)
        assert "# HELP sim_tasks_total" in text
        assert "# TYPE sim_tasks_total counter" in text
        assert "sim_tasks_total 3\n" in text
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative_plus_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        text = to_prometheus(registry)
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="10"} 2' in text
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_sum 5.5" in text
        assert "h_count 2" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.inc("x", 1, labels={"path": 'a\\b"c\nd'})
        text = to_prometheus(registry)
        assert r'path="a\\b\"c\nd"' in text

    def test_empty_registry_is_valid_empty_document(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_series_exports_last_sample_as_gauge(self):
        registry = MetricsRegistry()
        registry.sample("s", 1.0, t=0.0)
        registry.sample("s", 7.0, t=1.0)
        text = to_prometheus(registry)
        assert "# TYPE s gauge" in text
        assert "s 7\n" in text


class TestDegenerateExporters:
    """Empty registry / empty series / single sample all stay valid."""

    def _degenerate_registries(self):
        empty = MetricsRegistry()
        empty_series = MetricsRegistry()
        empty_series.series("s")
        single = MetricsRegistry()
        single.sample("s", 1.5, t=0.0)
        return [empty, empty_series, single]

    def test_json_valid(self):
        for registry in self._degenerate_registries():
            document = json.loads(metrics_to_json(registry))
            assert set(document) >= {"counters", "gauges",
                                     "histograms", "series"}

    def test_prometheus_valid(self):
        for registry in self._degenerate_registries():
            text = to_prometheus(registry)
            for line in text.splitlines():
                assert line.startswith("#") or " " in line

    def test_dashboard_valid(self):
        assert render_dashboard(MetricsRegistry()) \
            == "(no metrics recorded)"
        for registry in self._degenerate_registries():
            assert isinstance(render_dashboard(registry), str)


class TestSparkline:
    def test_empty(self):
        assert render_sparkline([]) == ""

    def test_single_sample_flat(self):
        assert render_sparkline([5.0]) == "▁"

    def test_resamples_to_width(self):
        line = render_sparkline([float(i) for i in range(1000)], width=20)
        assert len(line) == 20
        assert line[0] == "▁" and line[-1] == "█"

    def test_rejects_bad_width(self):
        with pytest.raises(ValidationError):
            render_sparkline([1.0], width=0)


class TestCostMeter:
    def test_hourly_billing_is_step_function(self):
        meter = CostMeter(spec(nodes=1, slots=1), billing=HourlyBilling())
        rate = spec(nodes=1).instance_type.price_per_hour
        meter.observe(10.0)
        assert meter.accrued_dollars == pytest.approx(rate)
        meter.observe(3599.0)
        assert meter.accrued_dollars == pytest.approx(rate)
        meter.observe(3601.0)
        assert meter.accrued_dollars == pytest.approx(2 * rate)

    def test_never_runs_backwards(self):
        meter = CostMeter(spec(), billing=PerSecondBilling())
        meter.observe(100.0)
        meter.observe(50.0)
        assert meter.elapsed_seconds == 100.0

    def test_budget_overrun_flags_once(self):
        rate = spec(nodes=1).instance_type.price_per_hour
        meter = CostMeter(spec(nodes=1, slots=1), billing=HourlyBilling(),
                          budget_dollars=rate * 1.5)
        assert meter.observe(10.0) == []
        new = meter.observe(3700.0)
        assert len(new) == 1 and new[0].kind == OVERRUN_BUDGET
        assert meter.over_budget
        assert meter.observe(7300.0) == []  # flags at most once
        assert len(meter.overruns) == 1

    def test_deadline_overrun_counts_startup_offset(self):
        meter = CostMeter(spec(), deadline_seconds=100.0,
                          offset_seconds=90.0)
        new = meter.observe(20.0)
        assert len(new) == 1 and new[0].kind == OVERRUN_DEADLINE
        assert meter.past_deadline

    def test_samples_series_into_registry(self):
        registry = MetricsRegistry()
        # Zero minimum: every observation moves the per-second bill.
        meter = CostMeter(spec(), billing=PerSecondBilling(0.0),
                          registry=registry)
        meter.observe(10.0)
        meter.observe(20.0)
        samples = registry.series(COST_SERIES).samples()
        assert len(samples) == 2
        assert samples[1][1] > samples[0][1]

    def test_agrees_with_plan_pricing_during_simulation(self):
        """Meter total == what the optimizer's plan pricing charges."""
        from repro.cloud.provisioning import DEFAULT_STARTUP_SECONDS

        cluster = spec()
        billing = HourlyBilling()
        meter = CostMeter(cluster, billing=billing,
                          offset_seconds=DEFAULT_STARTUP_SECONDS)
        simulator = ClusterSimulator(cluster, FixedTimeModel(1.0),
                                     cost_meter=meter)
        result = simulator.run(uniform_dag(n_tasks=16))
        expected = billing.cost(cluster,
                                result.makespan + DEFAULT_STARTUP_SECONDS)
        assert meter.accrued_dollars == pytest.approx(expected)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValidationError):
            CostMeter(spec(), budget_dollars=0)
        with pytest.raises(ValidationError):
            CostMeter(spec(), deadline_seconds=-1)
        with pytest.raises(ValidationError):
            CostMeter(spec(), offset_seconds=-1)

    def test_summary_and_describe(self):
        meter = CostMeter(spec(), budget_dollars=0.01,
                          billing=PerSecondBilling())
        meter.observe(3600.0)
        summary = meter.summary()
        assert summary["over_budget"] is True
        assert "budget" in meter.describe()
