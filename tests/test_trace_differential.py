"""Differential tests: one DAG, two execution paths, one trace schema.

The contract under test is the heart of the observability layer: running the
same :class:`~repro.hadoop.job.JobDag` through the discrete-event simulator
and through the real thread-pool ``LocalExecutor`` must yield traces that

* use the identical :class:`TraceEvent` schema,
* cover the identical set of tasks,
* satisfy the structural invariants of a real execution (no two events
  overlap on one slot, reduces never start before their job's maps finish,
  task durations account for the job's wall time), and
* align under :func:`trace_diff` with full coverage and finite errors.
"""

import time

import numpy as np
import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.executor import CumulonExecutor
from repro.core.program import Program
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.local import LocalExecutor
from repro.hadoop.simulator import ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.hadoop.timemodel import FixedTimeModel
from repro.observability.diff import trace_diff
from repro.observability.trace import (
    PHASE_SHUFFLE,
    SOURCE_ACTUAL,
    SOURCE_SIMULATED,
    InMemoryRecorder,
    TraceEvent,
)


def task_ids(trace):
    """Ids of the tasks that completed successfully in ``trace``."""
    return {event.task_id for event in trace.successful_task_events()}


def job_ids(trace):
    """Ids of the jobs with at least one task attempt in ``trace``."""
    return {event.job_id for event in trace.task_events()}


def spec(nodes=2, slots=2):
    return ClusterSpec(get_instance_type("m1.large"), nodes, slots)


def busy_task_factory(seconds=0.002):
    def run():
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass

    return run


def synthetic_dag():
    """A two-job DAG: a MapReduce job feeding a map-only job."""
    maps = [make_map_task(f"m{i}", TaskWork(bytes_read=100, shuffle_bytes=10),
                          run=busy_task_factory()) for i in range(6)]
    reduces = [make_reduce_task(f"r{i}", TaskWork(bytes_written=50),
                                run=busy_task_factory()) for i in range(2)]
    follow = [make_map_task(f"f{i}", TaskWork(bytes_read=50),
                            run=busy_task_factory()) for i in range(3)]
    return JobDag([
        Job("mr", JobKind.MAPREDUCE, maps, reduces),
        Job("post", JobKind.MAP_ONLY, follow, depends_on={"mr"}),
    ])


def run_both(dag, max_workers=2, nodes=2, slots=2):
    simulated = InMemoryRecorder(source=SOURCE_SIMULATED)
    ClusterSimulator(spec(nodes, slots), FixedTimeModel(1.0),
                     recorder=simulated).run(dag)
    actual = InMemoryRecorder(source=SOURCE_ACTUAL)
    report = LocalExecutor(max_workers=max_workers, recorder=actual).run(dag)
    return simulated.trace(), actual.trace(), report


class TestSchemaAndCoverage:
    def test_same_schema_both_paths(self):
        predicted, actual, __ = run_both(synthetic_dag())
        for trace in (predicted, actual):
            assert trace.events, "both paths must emit events"
            for event in trace.events:
                assert type(event) is TraceEvent

    def test_same_task_coverage(self):
        dag = synthetic_dag()
        predicted, actual, __ = run_both(dag)
        all_tasks = {task.task_id for job in dag for task in job.all_tasks()}
        assert task_ids(predicted) == all_tasks
        assert task_ids(actual) == all_tasks

    def test_same_job_coverage(self):
        predicted, actual, __ = run_both(synthetic_dag())
        assert job_ids(predicted) == job_ids(actual) == {"mr", "post"}

    def test_phases_agree_per_task(self):
        predicted, actual, __ = run_both(synthetic_dag())
        predicted_phases = {event.task_id: event.phase
                            for event in predicted.task_events()}
        actual_phases = {event.task_id: event.phase
                         for event in actual.task_events()}
        assert predicted_phases == actual_phases


class TestStructuralInvariants:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_no_slot_overlap(self, workers):
        predicted, actual, __ = run_both(synthetic_dag(),
                                         max_workers=workers)
        assert predicted.slot_overlaps() == []
        assert actual.slot_overlaps() == []

    def test_map_reduce_barrier_both_paths(self):
        predicted, actual, __ = run_both(synthetic_dag())
        assert predicted.barrier_violations() == []
        assert actual.barrier_violations() == []

    def test_simulated_shuffle_between_phases(self):
        predicted, __, ___ = run_both(synthetic_dag())
        shuffles = [event for event in predicted.events
                    if event.phase == PHASE_SHUFFLE]
        assert len(shuffles) == 1
        last_map = max(event.end for event in predicted.task_events()
                       if event.phase == "map" and event.job_id == "mr")
        first_reduce = min(event.start for event in predicted.task_events()
                           if event.phase == "reduce")
        assert last_map <= shuffles[0].start + 1e-9
        assert shuffles[0].end <= first_reduce + 1e-9

    def test_durations_account_for_job_time(self):
        """Sequential execution: task durations must sum to the job's wall
        time, up to dispatch overhead."""
        dag = synthetic_dag()
        __, actual, report = run_both(dag, max_workers=1)
        for job_report in report.job_reports:
            events = [event for event in actual.task_events()
                      if event.job_id == job_report.job_id]
            total = sum(event.duration for event in events)
            assert total <= job_report.seconds + 1e-6
            # Dispatch overhead is small; the bulk of the wall time must be
            # accounted for by the per-task events.
            assert total >= 0.5 * job_report.seconds

    def test_simulated_durations_exact_on_one_slot(self):
        maps = [make_map_task(f"m{i}", TaskWork()) for i in range(5)]
        dag = JobDag([Job("solo", JobKind.MAP_ONLY, maps)])
        recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
        result = ClusterSimulator(spec(nodes=1, slots=1), FixedTimeModel(2.0),
                                  recorder=recorder).run(dag)
        trace = recorder.trace()
        assert sum(event.duration for event in trace.task_events()) \
            == pytest.approx(result.job("solo").duration)


class TestTraceDiff:
    def test_full_coverage_and_finite_errors(self):
        predicted, actual, __ = run_both(synthetic_dag())
        diff = trace_diff(predicted, actual)
        assert diff.task_coverage == 1.0
        assert not diff.only_predicted and not diff.only_actual
        assert set(diff.task_diffs) == task_ids(predicted)
        for task_diff in diff.task_diffs.values():
            assert task_diff.predicted_seconds > 0
            assert task_diff.actual_seconds > 0
            assert np.isfinite(task_diff.relative_error)
        assert diff.predicted_makespan > 0
        assert diff.actual_makespan > 0

    def test_per_job_errors_reported(self):
        predicted, actual, __ = run_both(synthetic_dag())
        diff = trace_diff(predicted, actual)
        assert set(diff.job_diffs) == {"mr", "post"}
        for job_diff in diff.job_diffs.values():
            assert job_diff.predicted_seconds > 0
            assert job_diff.actual_seconds > 0

    def test_detects_missing_tasks(self):
        dag = synthetic_dag()
        predicted, actual, __ = run_both(dag)
        truncated = type(actual)(source=actual.source,
                                 events=[event for event in actual.events
                                         if event.task_id != "m0"])
        diff = trace_diff(predicted, truncated)
        assert diff.only_predicted == {"m0"}
        assert diff.task_coverage < 1.0

    def test_describe_mentions_jobs(self):
        predicted, actual, __ = run_both(synthetic_dag())
        text = trace_diff(predicted, actual).describe()
        assert "mr" in text and "post" in text
        assert "coverage 100%" in text


class TestCompiledProgramDifferential:
    """The same invariants on a *compiled* program, not a synthetic DAG."""

    def build(self):
        program = Program("difftest")
        a = program.declare_input("A", 96, 96)
        b = program.declare_input("B", 96, 96)
        c = program.assign("C", a @ b)
        program.assign("D", (c + a) * 0.5)
        program.mark_output("D")
        rng = np.random.default_rng(3)
        inputs = {"A": rng.random((96, 96)), "B": rng.random((96, 96))}
        return program, inputs

    def test_compiled_program_traces_align(self):
        program, inputs = self.build()
        recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
        executor = CumulonExecutor(tile_size=32, max_workers=2,
                                   recorder=recorder)
        result = executor.run(program, inputs)
        actual = recorder.trace()

        simulated = InMemoryRecorder(source=SOURCE_SIMULATED)
        ClusterSimulator(spec(), FixedTimeModel(1.0),
                         recorder=simulated).run(result.compiled.dag)
        predicted = simulated.trace()

        assert task_ids(predicted) == task_ids(actual)
        assert predicted.slot_overlaps() == []
        assert actual.slot_overlaps() == []
        diff = trace_diff(predicted, actual)
        assert diff.task_coverage == 1.0
        # Numeric result is still correct with tracing on.
        expected = (inputs["A"] @ inputs["B"] + inputs["A"]) * 0.5
        np.testing.assert_allclose(result.output("D"), expected)

    def test_execution_result_carries_trace(self):
        program, inputs = self.build()
        recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
        result = CumulonExecutor(tile_size=32, max_workers=2,
                                 recorder=recorder).run(program, inputs)
        assert result.trace is not None
        assert result.trace.task_events()
        assert {event.task_id for event in result.trace.span_events()} >= {
            f"compile:{program.name}", f"execute:{program.name}"}

    def test_null_recorder_produces_no_trace(self):
        program, inputs = self.build()
        result = CumulonExecutor(tile_size=32, max_workers=2).run(
            program, inputs)
        assert result.trace is None
