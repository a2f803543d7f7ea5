"""Trace exporter: Chrome-trace JSON.

Chrome-trace output loads in ``chrome://tracing`` or Perfetto: one process
row per trace source (``simulated`` / ``actual``), one thread lane per slot,
complete (``"ph": "X"``) events for task attempts and shuffles, and a
dedicated ``spans`` lane for profiling spans.  Timestamps are microseconds,
as the format requires.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.errors import ValidationError
from repro.observability.trace import PHASE_SPAN, Trace

#: Lane name used for events that occupy no slot.
_UNSLOTTED_LANE = "(unslotted)"
_SPAN_LANE = "(spans)"


def _lane(event) -> str:
    if event.phase == PHASE_SPAN:
        return _SPAN_LANE
    return event.slot or _UNSLOTTED_LANE


def to_chrome_events(traces: Trace | Iterable[Trace]) -> list[dict]:
    """Flatten one or more traces into a Chrome trace event list."""
    if isinstance(traces, Trace):
        traces = [traces]
    events: list[dict] = []
    for trace in traces:
        pid = trace.source
        # Stable integer thread ids per lane, plus thread_name metadata so
        # the viewer shows slot names instead of bare numbers.
        lanes = sorted({_lane(event) for event in trace.events})
        tids = {lane: index for index, lane in enumerate(lanes)}
        for lane, tid in tids.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": lane},
            })
        for event in trace.events:
            events.append({
                "name": event.task_id,
                "cat": event.phase,
                "ph": "X",
                "ts": event.start * 1e6,
                "dur": event.duration * 1e6,
                "pid": pid,
                "tid": tids[_lane(event)],
                "args": {
                    "job": event.job_id,
                    "status": event.status,
                    "attempt": event.attempt,
                    "bytes_read": event.bytes_read,
                    "bytes_written": event.bytes_written,
                    "label": event.label,
                },
            })
    return events


def chrome_trace_json(traces: Trace | Iterable[Trace],
                      indent: int | None = None) -> str:
    """Serialize traces as a complete ``chrome://tracing`` JSON document."""
    return json.dumps(
        {"traceEvents": to_chrome_events(traces), "displayTimeUnit": "ms"},
        indent=indent,
    )


def structural_summary(trace: Trace) -> dict:
    """Wall-clock-free digest of a trace, for golden/regression fixtures.

    Captures everything deterministic about a run's *structure* — which
    tasks ran where in the DAG, phases, statuses, I/O volumes — while
    dropping the timing fields that vary between hosts.
    """
    events = sorted(
        trace.events,
        key=lambda event: (event.job_id, event.task_id, event.attempt),
    )
    return {
        "source": trace.source,
        "num_events": len(trace.events),
        "num_task_events": len(trace.task_events()),
        "events": [
            {
                "job_id": event.job_id,
                "task_id": event.task_id,
                "phase": event.phase,
                "attempt": event.attempt,
                "status": event.status,
                "bytes_read": event.bytes_read,
                "bytes_written": event.bytes_written,
            }
            for event in events
        ],
    }


def validate_chrome_trace(document: str) -> int:
    """Parse a Chrome-trace JSON document; returns its event count.

    Raises :class:`ValidationError` when the document is not the shape
    ``chrome://tracing`` accepts (used by the CLI tests).
    """
    try:
        parsed = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid trace JSON: {exc}") from exc
    events = parsed.get("traceEvents")
    if not isinstance(events, list):
        raise ValidationError("trace JSON lacks a traceEvents list")
    for entry in events:
        if not isinstance(entry, dict) or "ph" not in entry:
            raise ValidationError(f"malformed trace event: {entry!r}")
        if entry["ph"] == "X" and not {"name", "ts", "dur"} <= entry.keys():
            raise ValidationError(f"malformed complete event: {entry!r}")
    return len(events)
