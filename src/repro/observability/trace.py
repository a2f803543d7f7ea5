"""The unified trace schema shared by simulation and real execution.

Cumulon's benchmark-and-simulate thesis is only testable if a *predicted*
run and an *actual* run describe themselves in the same vocabulary.  This
module defines that vocabulary: a :class:`TraceEvent` records one occupied
slot-interval (task attempt, shuffle, or profiling span) with its job, task,
phase, slot, time bounds, I/O volumes, and retry count — whether the times
are virtual (discrete-event simulator) or wall-clock (thread-pool executor).

Recorders are the emission side:

* :data:`NULL_RECORDER` — the default everywhere; every hook is a no-op and
  call sites guard event construction on ``recorder.enabled``, so tracing
  costs nothing when off.
* :class:`InMemoryRecorder` — thread-safe accumulation, wall-clock ``now()``
  relative to recorder creation, and ``span()`` context managers for
  profiling compiler/optimizer/executor stages.

The resulting :class:`Trace` offers the structural queries the differential
test suite and the diff/export utilities build on.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import ValidationError

#: Phases a trace event can describe.
PHASE_MAP = "map"
PHASE_REDUCE = "reduce"
PHASE_SHUFFLE = "shuffle"
PHASE_JOB = "job"
PHASE_SPAN = "span"
#: Cluster-level fault events: a node leaving, HDFS re-replication traffic,
#: and a completed task's output being invalidated for re-execution.
PHASE_NODE = "node"
PHASE_REREPLICATION = "rereplication"
PHASE_REEXEC = "reexec"
#: A kernel-plan evaluation inside a process-backend worker (one event per
#: dispatched plan, on a ``procworker:N`` lane).  Not a task phase: kernel
#: events describe *where task work physically ran*, so they never enter
#: the task-level structural queries the differential tests compare.
PHASE_KERNEL = "kernel"

#: Phases that represent schedulable task work (one slot, one attempt).
TASK_PHASES = frozenset({PHASE_MAP, PHASE_REDUCE})

#: Event statuses (mirroring the simulator's attempt outcomes).
STATUS_SUCCESS = "success"
STATUS_FAILED = "failed"
STATUS_KILLED = "killed"
#: Attempt (or node) terminated by node loss rather than its own failure.
STATUS_LOST = "lost"
#: Node revoked by the spot market (correlated wave), vs. an ordinary crash.
STATUS_REVOKED = "revoked"

#: Trace provenance.
SOURCE_SIMULATED = "simulated"
SOURCE_ACTUAL = "actual"


@dataclass(frozen=True)
class TraceEvent:
    """One timed interval: a task attempt, a shuffle, or a profiling span.

    ``slot`` names the execution lane the interval occupied —
    ``"node3:1"`` for simulated cluster slots, ``"worker:0"`` for local
    thread-pool slots, ``""`` for intervals that occupy no slot (shuffles,
    spans).  ``attempt`` is the retry count: 0 for a task's first attempt.
    """

    job_id: str
    task_id: str
    phase: str
    slot: str
    start: float
    end: float
    bytes_read: int = 0
    bytes_written: int = 0
    attempt: int = 0
    status: str = STATUS_SUCCESS
    label: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(
                f"event {self.task_id!r} ends ({self.end}) before it "
                f"starts ({self.start})"
            )
        if self.attempt < 0:
            raise ValidationError("attempt must be >= 0")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def is_task(self) -> bool:
        """Whether this interval is schedulable map/reduce work."""
        return self.phase in TASK_PHASES


@dataclass
class Trace:
    """An ordered collection of events from one run, tagged with provenance."""

    source: str
    events: list[TraceEvent] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # -- structural queries -------------------------------------------------

    def task_events(self) -> list[TraceEvent]:
        """Events describing map/reduce task attempts."""
        return [event for event in self.events if event.is_task()]

    def successful_task_events(self) -> list[TraceEvent]:
        """Task attempts that ran to completion."""
        return [event for event in self.task_events()
                if event.status == STATUS_SUCCESS]

    def span_events(self) -> list[TraceEvent]:
        """Profiling spans (compiler/optimizer/executor stages)."""
        return [event for event in self.events if event.phase == PHASE_SPAN]

    def kernel_events(self) -> list[TraceEvent]:
        """Worker-side kernel-plan events (process backend lanes)."""
        return [event for event in self.events if event.phase == PHASE_KERNEL]

    def by_slot(self) -> dict[str, list[TraceEvent]]:
        """Task events grouped by slot, each lane sorted by start time."""
        lanes: dict[str, list[TraceEvent]] = {}
        for event in self.task_events():
            lanes.setdefault(event.slot, []).append(event)
        for lane in lanes.values():
            lane.sort(key=lambda event: (event.start, event.end))
        return lanes

    # -- time bounds ---------------------------------------------------------

    @property
    def start(self) -> float:
        if not self.events:
            return 0.0
        return min(event.start for event in self.events)

    @property
    def end(self) -> float:
        if not self.events:
            return 0.0
        return max(event.end for event in self.events)

    @property
    def makespan(self) -> float:
        return self.end - self.start

    # -- invariants ----------------------------------------------------------

    def slot_overlaps(self, tolerance: float = 1e-9
                      ) -> list[tuple[TraceEvent, TraceEvent]]:
        """Pairs of task events that overlap on the same slot.

        A correct trace — from either execution path — has none: a slot
        runs one attempt at a time.
        """
        overlaps = []
        for lane in self.by_slot().values():
            for previous, current in zip(lane, lane[1:]):
                if current.start < previous.end - tolerance:
                    overlaps.append((previous, current))
        return overlaps

    def barrier_violations(self, tolerance: float = 1e-9
                           ) -> list[tuple[str, TraceEvent]]:
        """Reduce events that started before their job's last map finished.

        Returns (job_id, offending reduce event) pairs; an empty list means
        every job honoured the map -> shuffle -> reduce barrier.
        """
        violations = []
        last_map_end: dict[str, float] = {}
        for event in self.task_events():
            if event.phase == PHASE_MAP:
                last_map_end[event.job_id] = max(
                    last_map_end.get(event.job_id, 0.0), event.end)
        for event in self.task_events():
            if (event.phase == PHASE_REDUCE
                    and event.start < last_map_end.get(event.job_id, 0.0)
                    - tolerance):
                violations.append((event.job_id, event))
        return violations


# ---------------------------------------------------------------------------
# Recorders.
# ---------------------------------------------------------------------------

class TraceRecorder:
    """Sink for trace events; subclasses decide whether to keep them.

    Emission sites must guard event *construction* on :attr:`enabled` so the
    disabled path allocates nothing::

        if recorder.enabled:
            recorder.record(TraceEvent(...))
    """

    #: Whether this recorder keeps events (gate expensive construction on it).
    enabled: bool = True

    def record(self, event: TraceEvent) -> None:
        """Accept one event (or drop it; subclass's choice)."""
        raise NotImplementedError

    def now(self) -> float:
        """Seconds since this recorder's epoch (wall-clock recorders only)."""
        raise NotImplementedError

    def span(self, name: str, category: str = "span") -> "_SpanContext":
        """Context manager timing a named stage as a ``phase="span"`` event."""
        raise NotImplementedError

    def trace(self) -> Trace:
        """Everything recorded so far, as a :class:`Trace`."""
        raise NotImplementedError


class _NullSpan:
    """Reusable no-op context manager — the zero-cost span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder(TraceRecorder):
    """Discards everything; the default recorder on every execution path."""

    enabled = False

    def record(self, event: TraceEvent) -> None:
        """No-op."""

    def now(self) -> float:
        """Always 0.0; the null recorder has no clock."""
        return 0.0

    def span(self, name: str, category: str = "span") -> _NullSpan:
        """The shared zero-cost span."""
        return _NULL_SPAN

    def trace(self) -> Trace:
        """An empty trace."""
        return Trace(source="null")


#: Shared default instance (stateless, so sharing is safe).
NULL_RECORDER = NullRecorder()


class _SpanContext:
    """Times a ``with`` block and records it on exit."""

    __slots__ = ("_recorder", "_name", "_category", "_start")

    def __init__(self, recorder: "InMemoryRecorder", name: str,
                 category: str):
        self._recorder = recorder
        self._name = name
        self._category = category
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._start = self._recorder.now()
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self._recorder.record(TraceEvent(
            job_id=self._category,
            task_id=self._name,
            phase=PHASE_SPAN,
            slot="",
            start=self._start,
            end=self._recorder.now(),
            status=STATUS_SUCCESS if exc_type is None else STATUS_FAILED,
        ))


class InMemoryRecorder(TraceRecorder):
    """Thread-safe in-memory recorder.

    ``now()`` reports wall-clock seconds relative to construction, so a
    recorder created just before a run yields a trace whose origin is
    (approximately) the run start — directly comparable to a simulated
    trace starting at virtual time 0.  Simulated emitters bypass ``now()``
    and stamp events with virtual times; the recorder is only a sink.
    """

    def __init__(self, source: str = SOURCE_ACTUAL,
                 clock: Callable[[], float] = time.perf_counter):
        self.source = source
        self._clock = clock
        self._epoch = clock()
        self._events: list[TraceEvent] = []
        self._lock = threading.Lock()

    def record(self, event: TraceEvent) -> None:
        """Append one event (thread-safe)."""
        with self._lock:
            self._events.append(event)

    def now(self) -> float:
        """Wall-clock seconds since this recorder was created."""
        return self._clock() - self._epoch

    def span(self, name: str, category: str = "span") -> _SpanContext:
        """Context manager recording the block as a span event."""
        return _SpanContext(self, name, category)

    def trace(self) -> Trace:
        """Snapshot of everything recorded so far, sorted by start time."""
        with self._lock:
            events = list(self._events)
        events.sort(key=lambda event: (event.start, event.end, event.task_id))
        return Trace(source=self.source, events=events)

    def clear(self) -> None:
        """Forget everything recorded so far."""
        with self._lock:
            self._events.clear()
