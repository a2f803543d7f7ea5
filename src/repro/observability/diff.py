"""Trace alignment: per-task and per-job predicted-vs-actual error.

This is the measurement half of experiments E4 (model accuracy) and E9
(simulation fidelity): given a *predicted* trace from the discrete-event
simulator and an *actual* trace from the local executor — both in the
unified :class:`~repro.observability.trace.TraceEvent` schema —
:func:`trace_diff` aligns them task by task and job by job and reports
relative errors plus any coverage mismatch (tasks present on one side only).

Durations, not absolute timestamps, are compared: the two traces run on
different clocks (virtual vs wall), but a task's duration means the same
thing in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.observability.trace import PHASE_SHUFFLE, Trace, TraceEvent


def _relative_error(predicted: float, actual: float) -> float:
    """Signed relative error; ``inf`` when actual is ~zero but predicted isn't."""
    if actual > 0.0:
        return (predicted - actual) / actual
    return 0.0 if predicted == 0.0 else math.inf


@dataclass(frozen=True)
class TaskDiff:
    """Predicted vs actual duration of one task."""

    task_id: str
    job_id: str
    predicted_seconds: float
    actual_seconds: float

    @property
    def relative_error(self) -> float:
        return _relative_error(self.predicted_seconds, self.actual_seconds)

    @property
    def abs_relative_error(self) -> float:
        return abs(self.relative_error)


@dataclass(frozen=True)
class JobDiff:
    """Predicted vs actual span (first event start to last event end) of a job."""

    job_id: str
    predicted_seconds: float
    actual_seconds: float
    num_tasks: int

    @property
    def relative_error(self) -> float:
        return _relative_error(self.predicted_seconds, self.actual_seconds)


@dataclass
class TraceDiff:
    """Full alignment of a predicted trace against an actual trace."""

    task_diffs: dict[str, TaskDiff] = field(default_factory=dict)
    job_diffs: dict[str, JobDiff] = field(default_factory=dict)
    #: Task ids completed in exactly one of the two traces.
    only_predicted: set[str] = field(default_factory=set)
    only_actual: set[str] = field(default_factory=set)
    predicted_makespan: float = 0.0
    actual_makespan: float = 0.0

    @property
    def task_coverage(self) -> float:
        """Fraction of all observed tasks present in both traces."""
        matched = len(self.task_diffs)
        total = matched + len(self.only_predicted) + len(self.only_actual)
        return 1.0 if total == 0 else matched / total

    @property
    def makespan_error(self) -> float:
        return _relative_error(self.predicted_makespan, self.actual_makespan)

    def mean_abs_task_error(self) -> float:
        if not self.task_diffs:
            return 0.0
        finite = [diff.abs_relative_error for diff in self.task_diffs.values()
                  if math.isfinite(diff.abs_relative_error)]
        return sum(finite) / len(finite) if finite else 0.0

    def worst_task(self) -> TaskDiff | None:
        if not self.task_diffs:
            return None
        return max(self.task_diffs.values(),
                   key=lambda diff: diff.abs_relative_error)

    def describe(self) -> str:
        lines = [
            f"trace diff: {len(self.task_diffs)} matched tasks, "
            f"coverage {self.task_coverage:.0%}",
            f"  makespan: predicted {self.predicted_makespan:.3f}s vs "
            f"actual {self.actual_makespan:.3f}s "
            f"({self.makespan_error:+.0%})",
            f"  mean |task error|: {self.mean_abs_task_error():.0%}",
        ]
        worst = self.worst_task()
        if worst is not None:
            lines.append(
                f"  worst task: {worst.task_id} "
                f"predicted {worst.predicted_seconds:.3f}s vs "
                f"actual {worst.actual_seconds:.3f}s"
            )
        for job_id in sorted(self.job_diffs):
            diff = self.job_diffs[job_id]
            lines.append(
                f"  job {job_id}: predicted {diff.predicted_seconds:.3f}s "
                f"vs actual {diff.actual_seconds:.3f}s "
                f"({diff.relative_error:+.0%}, {diff.num_tasks} tasks)"
            )
        if self.only_predicted:
            lines.append(
                f"  only in predicted: {sorted(self.only_predicted)}")
        if self.only_actual:
            lines.append(f"  only in actual: {sorted(self.only_actual)}")
        return "\n".join(lines)


def _successful_by_task(trace: Trace) -> dict[str, TraceEvent]:
    """Last successful attempt per task (the one whose duration counts)."""
    events: dict[str, TraceEvent] = {}
    for event in trace.successful_task_events():
        held = events.get(event.task_id)
        if held is None or event.end > held.end:
            events[event.task_id] = event
    return events


def _job_spans(trace: Trace) -> dict[str, tuple[float, float, int]]:
    """Per job: (first event start, last event end, successful task count).

    Shuffle intervals count toward the span (they are part of the job's
    critical path) but not toward the task count.
    """
    spans: dict[str, tuple[float, float, int]] = {}
    for event in trace.events:
        is_task = event.is_task()
        if not (is_task or event.phase == PHASE_SHUFFLE):
            continue
        start, end, count = spans.get(
            event.job_id, (event.start, event.end, 0))
        spans[event.job_id] = (
            min(start, event.start),
            max(end, event.end),
            count + (1 if is_task and event.status == "success" else 0),
        )
    return spans


def trace_diff(predicted: Trace, actual: Trace) -> TraceDiff:
    """Align two traces of the same DAG and quantify prediction error."""
    predicted_tasks = _successful_by_task(predicted)
    actual_tasks = _successful_by_task(actual)
    matched = set(predicted_tasks) & set(actual_tasks)

    task_diffs = {
        task_id: TaskDiff(
            task_id=task_id,
            job_id=predicted_tasks[task_id].job_id,
            predicted_seconds=predicted_tasks[task_id].duration,
            actual_seconds=actual_tasks[task_id].duration,
        )
        for task_id in matched
    }

    predicted_jobs = _job_spans(predicted)
    actual_jobs = _job_spans(actual)
    job_diffs = {
        job_id: JobDiff(
            job_id=job_id,
            predicted_seconds=(predicted_jobs[job_id][1]
                               - predicted_jobs[job_id][0]),
            actual_seconds=actual_jobs[job_id][1] - actual_jobs[job_id][0],
            num_tasks=actual_jobs[job_id][2],
        )
        for job_id in set(predicted_jobs) & set(actual_jobs)
    }

    return TraceDiff(
        task_diffs=task_diffs,
        job_diffs=job_diffs,
        only_predicted=set(predicted_tasks) - matched,
        only_actual=set(actual_tasks) - matched,
        predicted_makespan=predicted.makespan,
        actual_makespan=actual.makespan,
    )
