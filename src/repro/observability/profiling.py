"""Execution profiles from unified traces: where did the wall time go?

A :class:`~repro.observability.trace.Trace` from an instrumented run holds
the raw timeline — task attempts on ``worker:N`` thread lanes, and (process
backend) kernel-plan spans on ``procworker:N`` worker lanes.  This module
rolls that timeline up into the summary the ``repro profile`` command
prints:

* **top plans by cumulative time** — kernel spans grouped by the task/plan
  label, ranked by total seconds, with call counts and tile totals;
* **per-worker utilization** — each lane's busy fraction of the profiled
  window, separating parent thread lanes from process-pool worker lanes;
* **coverage** — what fraction of execution-only wall time the summed
  worker-side kernel spans account for (the process backend's "are we
  actually measuring the work?" number; > 1.0 means worker lanes ran in
  parallel);
* **parent dispatch phases** — where the parent spent each kernel
  dispatch: packing the request, waiting for the reply, storing the
  results (from the run's ``procpool.*_seconds`` histograms).

Everything here is pure trace arithmetic: no execution, no clocks, no
backend knowledge beyond the lane-name conventions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.observability.trace import PHASE_KERNEL, Trace

#: Lane-name prefix of process-pool worker lanes (see ``procpool``).
WORKER_LANE_PREFIX = "procworker:"

#: Parent-side phases of a kernel dispatch, in the order they happen; each
#: is the ``procpool.<phase>_seconds`` histogram of the run's registry, and
#: ``dispatch`` is the whole of which the other three are parts.
DISPATCH_PHASES = ("dispatch", "pack", "wait", "store")

#: Kernel-event labels that are bookkeeping, not plan evaluation.
_NON_PLAN_LABELS = frozenset({"shm-attach", "shm-grow"})


@dataclass
class PlanProfile:
    """Cumulative cost of one plan kind (or task group) across a run."""

    key: str
    count: int = 0
    seconds: float = 0.0
    tiles: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def mean_seconds(self) -> float:
        """Average seconds per occurrence."""
        return self.seconds / self.count if self.count else 0.0


@dataclass
class LaneProfile:
    """Busy time of one execution lane over the profiled window."""

    lane: str
    busy_seconds: float = 0.0
    events: int = 0
    #: Busy fraction of the profiled window (0 when the window is empty).
    utilization: float = 0.0

    @property
    def is_pool_worker(self) -> bool:
        """Whether this is a process-pool worker lane."""
        return self.lane.startswith(WORKER_LANE_PREFIX)


@dataclass
class ExecutionProfile:
    """The rolled-up profile ``repro profile`` renders."""

    #: Kernel-plan groups, most expensive first.
    plans: list[PlanProfile] = field(default_factory=list)
    #: Task-label groups on parent lanes, most expensive first.
    tasks: list[PlanProfile] = field(default_factory=list)
    #: Per-lane utilization, pool workers first, then thread lanes.
    lanes: list[LaneProfile] = field(default_factory=list)
    #: Summed worker-side kernel-span seconds.
    kernel_seconds: float = 0.0
    #: Execution-only wall seconds the profile is normalized against.
    wall_seconds: float = 0.0
    #: Parent seconds per :data:`DISPATCH_PHASES` entry, summed over the
    #: run's dispatches (empty without a registry or without a pool).
    dispatch_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def kernel_coverage(self) -> float:
        """Summed kernel-span time over wall time (0 when wall unknown)."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.kernel_seconds / self.wall_seconds

    def to_document(self) -> dict:
        """JSON-able form (the ``repro profile --json`` payload)."""
        return {
            "wall_seconds": self.wall_seconds,
            "kernel_seconds": self.kernel_seconds,
            "kernel_coverage": self.kernel_coverage,
            "dispatch_seconds": dict(self.dispatch_seconds),
            "plans": [vars(plan).copy() for plan in self.plans],
            "tasks": [vars(task).copy() for task in self.tasks],
            "lanes": [
                {"lane": lane.lane, "busy_seconds": lane.busy_seconds,
                 "events": lane.events, "utilization": lane.utilization}
                for lane in self.lanes
            ],
        }


def _accumulate(groups: dict[str, PlanProfile], key: str, event) -> None:
    group = groups.get(key)
    if group is None:
        group = groups[key] = PlanProfile(key=key)
    group.count += 1
    group.seconds += event.duration
    group.bytes_read += event.bytes_read
    group.bytes_written += event.bytes_written


def profile_trace(trace: Trace, wall_seconds: float | None = None,
                  registry=None) -> ExecutionProfile:
    """Roll ``trace`` up into an :class:`ExecutionProfile`.

    ``wall_seconds`` is the execution-only wall time to normalize
    coverage/utilization against (the local run report's total); when
    omitted, the trace's own makespan is used.  ``registry`` (a
    :class:`~repro.observability.metrics.MetricsRegistry` from the same
    run) supplies what the trace events do not carry: per-plan tile totals
    (``procpool.plan_tiles``) and the parent's dispatch-phase seconds.
    """
    plans: dict[str, PlanProfile] = {}
    tasks: dict[str, PlanProfile] = {}
    lanes: dict[str, LaneProfile] = {}
    kernel_seconds = 0.0
    for event in trace.events:
        if event.phase == PHASE_KERNEL:
            if event.label in _NON_PLAN_LABELS:
                continue
            _accumulate(plans, event.label or event.task_id, event)
            kernel_seconds += event.duration
        elif event.is_task():
            _accumulate(tasks, _task_group(event.task_id), event)
        else:
            continue
        lane = lanes.get(event.slot)
        if lane is None:
            lane = lanes[event.slot] = LaneProfile(lane=event.slot)
        lane.busy_seconds += event.duration
        lane.events += 1
    window = wall_seconds if wall_seconds and wall_seconds > 0 \
        else trace.makespan
    for lane in lanes.values():
        lane.utilization = lane.busy_seconds / window if window > 0 else 0.0
    dispatch_seconds: dict[str, float] = {}
    if registry is not None and getattr(registry, "enabled", False):
        phases = {f"procpool.{phase}_seconds": phase
                  for phase in DISPATCH_PHASES}
        for metric in registry.metrics():
            if metric.name in phases:
                phase = phases[metric.name]
                dispatch_seconds[phase] = dispatch_seconds.get(phase, 0.0) \
                    + metric.sum
            elif metric.name == "procpool.plan_tiles":
                kind = metric.label_dict().get("plan", "")
                if kind in plans:
                    plans[kind].tiles = int(metric.value)
    ordered_lanes = sorted(lanes.values(),
                           key=lambda lane: (not lane.is_pool_worker,
                                             lane.lane))
    return ExecutionProfile(
        plans=sorted(plans.values(), key=lambda p: -p.seconds),
        tasks=sorted(tasks.values(), key=lambda p: -p.seconds),
        lanes=ordered_lanes,
        kernel_seconds=kernel_seconds,
        wall_seconds=window,
        dispatch_seconds=dispatch_seconds,
    )


_TASK_INDEX = re.compile(r"-[mr]\d+$")


def _task_group(task_id: str) -> str:
    """Collapse per-tile task ids into their job-stage family.

    Local task ids look like ``j2-mul-VHt_0@1-m1`` — job 2's mult stage,
    map task 1.  Dropping the trailing task index groups the stage's tasks
    into one profile row (``j2-mul-VHt_0@1``); ids without an index pass
    through unchanged.
    """
    return _TASK_INDEX.sub("", task_id)


def render_profile(profile: ExecutionProfile, top: int = 10) -> str:
    """The human-facing ``repro profile`` report."""
    lines = []
    lines.append(f"wall time (execution only): {profile.wall_seconds:.4f}s")
    if profile.kernel_seconds > 0:
        lines.append(
            f"worker kernel time: {profile.kernel_seconds:.4f}s "
            f"({profile.kernel_coverage:.0%} of wall; >100% means "
            f"parallel worker lanes)")
    if profile.dispatch_seconds:
        lines.append("parent time in kernel dispatches: " + "  ".join(
            f"{phase} {profile.dispatch_seconds.get(phase, 0.0):.4f}s"
            for phase in DISPATCH_PHASES))
    if profile.plans:
        lines.append("")
        lines.append("top kernel plans by cumulative time:")
        lines.append(f"  {'plan':<12} {'calls':>6} {'tiles':>7} "
                     f"{'total_s':>9} {'mean_ms':>9} {'MB_in':>8} "
                     f"{'MB_out':>8}")
        for plan in profile.plans[:top]:
            lines.append(
                f"  {plan.key:<12} {plan.count:>6} {plan.tiles:>7} "
                f"{plan.seconds:>9.4f} "
                f"{plan.mean_seconds * 1e3:>9.3f} "
                f"{plan.bytes_read / 2**20:>8.1f} "
                f"{plan.bytes_written / 2**20:>8.1f}")
    if profile.tasks:
        lines.append("")
        lines.append("top task groups by cumulative time:")
        lines.append(f"  {'task':<12} {'count':>6} {'total_s':>9} "
                     f"{'mean_ms':>9}")
        for task in profile.tasks[:top]:
            lines.append(
                f"  {task.key:<12} {task.count:>6} {task.seconds:>9.4f} "
                f"{task.mean_seconds * 1e3:>9.3f}")
    if profile.lanes:
        lines.append("")
        lines.append("per-lane utilization:")
        for lane in profile.lanes:
            kind = "pool" if lane.is_pool_worker else "thread"
            bar = _bar(lane.utilization)
            lines.append(
                f"  {lane.lane:<14} {kind:<7} {lane.busy_seconds:>8.4f}s "
                f"{min(lane.utilization, 9.99):>5.0%} {bar}")
    return "\n".join(lines)


def _bar(fraction: float, width: int = 20) -> str:
    """A crude utilization bar, clipped at 100%."""
    filled = int(round(min(max(fraction, 0.0), 1.0) * width))
    return "#" * filled + "." * (width - filled)
