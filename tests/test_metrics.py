"""Unit tests for the simulation metrics and timeline rendering."""

import json

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import ValidationError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.metrics import (
    UtilizationReport,
    render_timeline,
    straggler_report,
    utilization,
)
from repro.hadoop.simulator import ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task
from repro.hadoop.timemodel import FixedTimeModel, TaskTimeModel
from repro.observability.export import to_chrome_events, validate_chrome_trace
from repro.observability.trace import NULL_RECORDER, InMemoryRecorder


def spec(nodes=2, slots=2):
    return ClusterSpec(get_instance_type("m1.large"), nodes, slots)


def run_uniform(n_tasks=8, nodes=2, slots=2, seconds=2.0,
                recorder=NULL_RECORDER):
    tasks = [make_map_task(f"t{i}", TaskWork()) for i in range(n_tasks)]
    dag = JobDag([Job("j", JobKind.MAP_ONLY, tasks)])
    return ClusterSimulator(spec(nodes, slots), FixedTimeModel(seconds),
                            recorder=recorder).run(dag)


class TestUtilization:
    def test_full_waves_high_utilization(self):
        result = run_uniform(n_tasks=8, nodes=2, slots=2)
        report = utilization(result)
        assert report.utilization == pytest.approx(1.0)

    def test_ragged_wave_lower_utilization(self):
        result = run_uniform(n_tasks=5, nodes=2, slots=2)
        report = utilization(result)
        assert report.utilization < 0.8

    def test_idle_plus_busy_equals_total(self):
        result = run_uniform(n_tasks=5)
        report = utilization(result)
        assert report.busy_slot_seconds + report.idle_slot_seconds \
            == pytest.approx(report.total_slot_seconds)

    def test_per_node_accounting(self):
        result = run_uniform(n_tasks=8, nodes=2, slots=2)
        report = utilization(result)
        assert set(report.per_node_busy) == set(result.spec.node_names())
        assert sum(report.per_node_busy.values()) \
            == pytest.approx(report.busy_slot_seconds)

    def test_loaded_nodes(self):
        result = run_uniform(n_tasks=5, nodes=2, slots=2)
        report = utilization(result)
        assert report.per_node_busy[report.most_loaded_node()] \
            >= report.per_node_busy[report.least_loaded_node()]

    def test_loaded_nodes_on_empty_report_raise_cleanly(self):
        report = UtilizationReport(0.0, 0.0, 0.0, {})
        with pytest.raises(ValidationError, match="no nodes"):
            report.most_loaded_node()
        with pytest.raises(ValidationError, match="no nodes"):
            report.least_loaded_node()


class TestStragglers:
    class SkewModel(TaskTimeModel):
        def task_duration(self, task, instance, concurrency, local):
            return 20.0 if task.task_id == "t0" else 1.0

        def job_overhead(self, job):
            return 0.0

    def run_skewed(self):
        tasks = [make_map_task(f"t{i}", TaskWork()) for i in range(8)]
        dag = JobDag([Job("j", JobKind.MAP_ONLY, tasks)])
        return ClusterSimulator(spec(), self.SkewModel()).run(dag)

    def test_detects_straggler(self):
        report = straggler_report(self.run_skewed())
        assert report
        assert report[0][1] == "t0"
        assert report[0][2] > 5.0

    def test_uniform_run_has_no_stragglers(self):
        assert straggler_report(run_uniform()) == []

    def test_threshold_validation(self):
        with pytest.raises(ValidationError):
            straggler_report(run_uniform(), threshold=0.0)


class TestTimeline:
    def test_one_row_per_node(self):
        result = run_uniform(nodes=3)
        text = render_timeline(result)
        for name in result.spec.node_names():
            assert name in text

    def test_occupancy_bounded_by_slots(self):
        result = run_uniform(n_tasks=16, nodes=2, slots=2)
        text = render_timeline(result)
        body = [line for line in text.splitlines() if "|" in line]
        for line in body:
            cells = line.split("|")[1]
            for cell in cells:
                assert cell in " 12"

    def test_scale_line_has_makespan(self):
        result = run_uniform()
        assert f"{result.makespan:.0f}s" in render_timeline(result)

    def test_width_validation(self):
        with pytest.raises(ValidationError):
            render_timeline(run_uniform(), width=0)

    def test_busy_cluster_renders_dense(self):
        result = run_uniform(n_tasks=32, nodes=1, slots=2)
        text = render_timeline(result, width=40)
        assert "2" in text


class TestChromeTrace:
    """A simulated run's Chrome export, through the one exporter
    (``repro.observability.export``): the recorder carries the exact
    ``node:slot`` lane of every attempt, so nothing is re-derived."""

    @staticmethod
    def export(n_tasks):
        """(result, complete events, all events) of a 2x2 simulated run."""
        recorder = InMemoryRecorder()
        result = run_uniform(n_tasks=n_tasks, recorder=recorder)
        events = to_chrome_events(recorder.trace())
        return result, [e for e in events if e["ph"] == "X"], events

    def test_event_per_attempt(self):
        result, complete, __ = self.export(n_tasks=6)
        total_attempts = sum(len(t.attempts)
                             for t in result.job_timelines.values())
        assert len(complete) == total_attempts

    def test_event_schema(self):
        __, complete, events = self.export(n_tasks=4)
        assert {e["ph"] for e in events} == {"X", "M"}
        for event in complete:
            assert event["dur"] > 0
            assert event["ts"] >= 0
            assert "status" in event["args"]

    def test_json_serializable(self):
        __, __, events = self.export(n_tasks=4)
        text = json.dumps({"traceEvents": events})
        assert '"ph": "X"' in text
        assert validate_chrome_trace(text) == len(events)

    def test_lanes_never_overlap(self):
        __, complete, __ = self.export(n_tasks=16)
        by_lane = {}
        for event in complete:
            by_lane.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], event["ts"] + event["dur"]))
        for intervals in by_lane.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-6

    def test_lane_count_bounded_by_slots(self):
        __, complete, events = self.export(n_tasks=20)
        names = {e["tid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M"}
        lanes_per_node = {}
        for event in complete:
            node = names[event["tid"]].rsplit(":", 1)[0]
            lanes_per_node.setdefault(node, set()).add(event["tid"])
        assert len(lanes_per_node) == 2
        for lanes in lanes_per_node.values():
            assert len(lanes) <= 2
