"""Post-simulation metrics: utilization, stragglers, and timeline rendering.

Turns a :class:`~repro.hadoop.simulator.SimulationResult` into the numbers a
cluster operator looks at — per-node busy fractions, wave structure, money
wasted on idle slots — plus an ASCII Gantt chart for quick inspection in a
terminal or a report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.hadoop.simulator import SUCCESS, SimulationResult


@dataclass
class UtilizationReport:
    """Slot-time accounting over a simulation."""

    makespan: float
    total_slot_seconds: float
    busy_slot_seconds: float
    per_node_busy: dict[str, float]

    @property
    def utilization(self) -> float:
        """Busy fraction of all slot-time over the makespan."""
        if self.total_slot_seconds == 0:
            return 0.0
        return self.busy_slot_seconds / self.total_slot_seconds

    @property
    def idle_slot_seconds(self) -> float:
        return self.total_slot_seconds - self.busy_slot_seconds

    def most_loaded_node(self) -> str:
        if not self.per_node_busy:
            raise ValidationError("utilization report has no nodes")
        return max(self.per_node_busy, key=self.per_node_busy.get)

    def least_loaded_node(self) -> str:
        if not self.per_node_busy:
            raise ValidationError("utilization report has no nodes")
        return min(self.per_node_busy, key=self.per_node_busy.get)


def utilization(result: SimulationResult) -> UtilizationReport:
    """Compute slot utilization over the whole simulated run."""
    makespan = result.makespan
    per_node: dict[str, float] = {name: 0.0
                                  for name in result.spec.node_names()}
    for timeline in result.job_timelines.values():
        for attempt in timeline.attempts:
            per_node[attempt.node] = (per_node.get(attempt.node, 0.0)
                                      + attempt.duration)
    total = makespan * result.spec.total_slots
    busy = sum(per_node.values())
    return UtilizationReport(
        makespan=makespan,
        total_slot_seconds=total,
        busy_slot_seconds=busy,
        per_node_busy=per_node,
    )


def straggler_report(result: SimulationResult,
                     threshold: float = 1.5) -> list[tuple[str, str, float]]:
    """Successful attempts slower than ``threshold`` x their job's mean.

    Returns (job_id, task_id, slowdown-vs-mean), worst first.
    """
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    stragglers = []
    for job_id, timeline in result.job_timelines.items():
        successes = timeline.attempts_with_status(SUCCESS)
        if not successes:
            continue
        mean = sum(a.duration for a in successes) / len(successes)
        if mean == 0:
            continue
        for attempt in successes:
            ratio = attempt.duration / mean
            if ratio > threshold:
                stragglers.append((job_id, attempt.task.task_id, ratio))
    stragglers.sort(key=lambda item: -item[2])
    return stragglers


def render_timeline(result: SimulationResult, width: int = 72) -> str:
    """ASCII Gantt chart: one row per node, one column per time bucket.

    Each cell shows how many attempts overlapped that node/time bucket
    (' ' idle, '1'-'9', then '+').
    """
    if width <= 0:
        raise ValidationError("width must be positive")
    makespan = result.makespan
    if makespan <= 0:
        return "(empty timeline)"
    bucket = makespan / width
    rows = []
    node_names = result.spec.node_names()
    label_width = max(len(name) for name in node_names)
    occupancy: dict[str, list[int]] = {name: [0] * width
                                       for name in node_names}
    for timeline in result.job_timelines.values():
        for attempt in timeline.attempts:
            first = min(width - 1, int(attempt.start / bucket))
            last = min(width - 1, int(max(attempt.start, attempt.end - 1e-9)
                                      / bucket))
            for index in range(first, last + 1):
                occupancy[attempt.node][index] += 1
    for name in node_names:
        cells = "".join(" " if count == 0
                        else (str(count) if count <= 9 else "+")
                        for count in occupancy[name])
        rows.append(f"{name:<{label_width}} |{cells}|")
    scale = (f"{'':<{label_width}}  0s{'':<{max(0, width - 12)}}"
             f"{makespan:8.0f}s")
    return "\n".join(rows + [scale])
