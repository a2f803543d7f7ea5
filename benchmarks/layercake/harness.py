"""Measurement machinery shared by the four workloads.

Everything here is about *how* a run is measured, never about what is
measured: the block structure (one untimed warm-up block, then N timed
blocks that replay the same seeded op sequence), the best-block
estimator, the span recorder for traced runs, the speed probe that
explains a disturbed run, and the result document a workload subprocess
hands back to ``run.py``.

No numpy and no ``repro`` imports: ``run.py`` (the parent, which only
spawns and waits) imports this module too and must stay light.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

#: The five end-to-end metrics every workload reports, with their units.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MiB",
}

#: Pinned before numpy is imported (by ``run.py`` in the child's
#: environment): single-threaded BLAS so the two harness threads are the
#: only parallelism, and a fixed hash seed so set iteration order — and
#: with it any tie-break that leans on it — repeats.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def load_definitions() -> dict:
    """The workload definitions (``workloads.json``), as data."""
    return json.loads((HERE / "workloads.json").read_text())


def load_contract() -> dict:
    """The repo-level ``BENCHMARK.json`` this harness must agree with."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolation percentile (numpy's default), no numpy."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class OpFailed(Exception):
    """An op ran but its output check failed (or it timed out)."""


@dataclass
class Block:
    """One replay of the op sequence.

    ``wall`` is the time the system under test spent on the block: for
    the single-client workloads the sum of the op latencies (the output
    checks between ops are the harness's time, not the system's), for
    the pipelined ``serve_closed`` the wall clock from first send to
    last ack.
    """

    wall: float
    latencies: list[float]
    attempted: int

    @property
    def failed(self) -> int:
        return self.attempted - len(self.latencies)


def block_values(blocks: list[Block]) -> dict[str, list[float]]:
    """Each timing metric computed per block, in block order."""
    usable = [block for block in blocks if block.latencies]
    return {
        "ops_per_s": [len(block.latencies) / block.wall for block in usable],
        "op_ms_p50": [percentile(block.latencies, 0.5) * 1e3
                      for block in usable],
        "op_ms_p90": [percentile(block.latencies, 0.9) * 1e3
                      for block in usable],
    }


def summarize(blocks: list[Block]) -> dict[str, float]:
    """The best-block estimator: each metric per block, then the best of
    the block values (highest rate, lowest latency).

    Every block replays the same ops, so blocks differ only in what the
    host did to them, and a host that takes speed away can only slow a
    block down.  The best block is therefore the one closest to the
    program's own cost, and a slow phase moves it only if it lasts the
    whole run, where the median of the blocks moves with any phase longer
    than half the run (see README, *Reference numbers*).
    """
    values = block_values(blocks)
    if not values["ops_per_s"]:
        raise OpFailed("no block completed a single op")
    return {"ops_per_s": max(values["ops_per_s"]),
            "op_ms_p50": min(values["op_ms_p50"]),
            "op_ms_p90": min(values["op_ms_p90"])}


def pooled_tail(blocks: list[Block]) -> dict[str, float]:
    """Diagnostic: the highest pooled percentile with ten samples beyond it."""
    pooled = sorted(latency for block in blocks
                    for latency in block.latencies)
    if len(pooled) <= 10:
        return {"op_ms_tail": pooled[-1] * 1e3 if pooled else 0.0,
                "tail_fraction": 1.0, "samples": len(pooled)}
    return {"op_ms_tail": pooled[-11] * 1e3,
            "tail_fraction": 1.0 - 10.0 / len(pooled),
            "samples": len(pooled)}


def speed_probe() -> float:
    """Milliseconds a fixed pure-Python loop takes right now: the median
    of three goes, so one interrupt does not count.

    Run between blocks in every run.  It measures the box, not the
    program (the sandbox host moves each virtual CPU between speed levels
    for seconds at a time), and it gates nothing: it is the diagnostic
    that explains a disturbed run.
    """
    samples = []
    for __ in range(3):
        started = time.perf_counter()
        accumulator = 0
        for index in range(150_000):
            accumulator += index * index % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def probe_summary(samples: list[float]) -> dict[str, float]:
    """Median and coefficient of variation of a run's speed probes."""
    mean = statistics.fmean(samples)
    spread = statistics.pstdev(samples) if len(samples) > 1 else 0.0
    return {"speed_probe_ms": statistics.median(samples),
            "speed_probe_cv": spread / mean if mean else 0.0}


def peak_rss_mib(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


# -- spans ---------------------------------------------------------------------


class _NullSpan:
    """What an untraced run enters: nothing recorded, nothing allocated."""

    __slots__ = ()
    id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "id", "_name", "_op", "_args", "_start")

    def __init__(self, tracer, name, op, args):
        self._tracer = tracer
        self._name = name
        self._op = op
        self._args = args
        self.id = None

    def __enter__(self):
        tracer = self._tracer
        self.id = tracer.reserve()
        self._start = time.perf_counter()
        tracer.stack.append(self.id)
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        tracer = self._tracer
        tracer.stack.pop()
        parent = tracer.stack[-1] if tracer.stack else None
        tracer.store(self.id, self._name, self._start, end, parent,
                     self._op, self._args)
        return None


class Tracer:
    """In-memory span recorder for the harness's calls into each layer.

    A span is (name, start, end, parent, op id); spans nest through a
    stack for the single-threaded workloads and take an explicit parent
    for the pipelined one.  Nothing is written until :meth:`write`.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.stack: list[int] = []
        self.spans: dict[int, tuple] = {}
        self._next = 0

    def reserve(self) -> int:
        self._next += 1
        return self._next

    def store(self, span_id, name, start, end, parent, op, args) -> None:
        self.spans[span_id] = (name, start, end, parent, op, args)

    def span(self, name: str, op: str | None = None, **args):
        """Context manager timing one call; a shared no-op when off."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, op, args)

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, op: str | None = None,
            **args) -> int | None:
        """Record a span whose times were taken elsewhere."""
        if not self.enabled:
            return None
        span_id = self.reserve()
        self.store(span_id, name, start, end, parent, op, args)
        return span_id

    def self_times(self) -> list[dict]:
        """Per span name: count, total and self milliseconds.

        Self time is a span's duration minus the part of it its child
        spans cover (children of one parent never overlap here except in
        ``serve_closed``, where op spans are pipelined under their block
        and the block's self time is clamped at zero).
        """
        covered: dict[int, float] = {}
        for name, start, end, parent, __, __ in self.spans.values():
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        rows: dict[str, dict] = {}
        for span_id, (name, start, end, __, __, __) in self.spans.items():
            row = rows.setdefault(
                name, {"name": name, "count": 0, "total_ms": 0.0,
                       "self_ms": 0.0})
            duration = end - start
            row["count"] += 1
            row["total_ms"] += duration * 1e3
            row["self_ms"] += max(0.0, duration
                                  - covered.get(span_id, 0.0)) * 1e3
        return sorted(rows.values(), key=lambda row: -row["total_ms"])

    def write(self, path: Path) -> None:
        """Dump every span as a Chrome trace (``chrome://tracing``)."""
        if not self.spans:
            return
        epoch = min(span[1] for span in self.spans.values())
        events = []
        for span_id, (name, start, end, parent, op, args) \
                in self.spans.items():
            detail = {"id": span_id, "parent": parent, "op": op}
            detail.update(args)
            events.append({
                "name": name, "ph": "X", "pid": 1,
                "tid": args.get("lane", 0),
                "ts": (start - epoch) * 1e6, "dur": (end - start) * 1e6,
                "args": detail})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


# -- the single-client block loop ----------------------------------------------


@dataclass
class SyncRun:
    """The timed blocks plus everything the loop saw along the way."""

    blocks: list[Block] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: ``time.monotonic()`` when the warm-up block ended: set-up is over.
    ready: float = 0.0


def run_sync_blocks(sequence: list, run_op, check_op, blocks: int,
                    tracer: Tracer, timeout_s: float) -> SyncRun:
    """Replay ``sequence`` on one closed-loop client: block 0 is the
    untimed warm-up, blocks 1..``blocks`` are the timed ones.

    ``run_op(op)`` is the call into the system under test — the only
    thing timed.  ``check_op(op, payload, block, index, elapsed)`` validates
    what it returned, outside the timed region, and raises :class:`OpFailed`
    to fail the op.  An op that raises, overruns ``timeout_s`` or fails
    its check counts as attempted and gets no latency sample.
    """
    run = SyncRun()
    for block_index in range(blocks + 1):
        latencies: list[float] = []
        busy = 0.0
        with tracer.span("block", block=block_index):
            for index, op in enumerate(sequence):
                op_id = f"{block_index}:{index}"
                started = time.perf_counter()
                try:
                    with tracer.span("op", op=op_id):
                        payload = run_op(op)
                except Exception as error:  # the op failed; keep measuring
                    busy += time.perf_counter() - started
                    run.errors.append(f"op {op_id} raised "
                                      f"{type(error).__name__}: {error}")
                    continue
                elapsed = time.perf_counter() - started
                busy += elapsed
                try:
                    if elapsed > timeout_s:
                        raise OpFailed(f"took {elapsed:.1f}s "
                                       f"(limit {timeout_s:.0f}s)")
                    check_op(op, payload, block_index, index, elapsed)
                except OpFailed as error:
                    run.errors.append(f"op {op_id}: {error}")
                    continue
                latencies.append(elapsed)
        run.probes.append(speed_probe())
        if block_index == 0:
            run.ready = time.monotonic()
        else:
            run.blocks.append(Block(busy, latencies, len(sequence)))
    return run


def scaled_count(count: int, scale: float) -> int:
    """Ops per block for a ``--seconds`` other than the frozen one."""
    return max(2, round(count * scale))


# -- the result document -------------------------------------------------------


def result_doc(*, workload: str, quick: bool, traced: bool, seed: int,
               setup_s: float, timed: list[Block], probes: list[float],
               peak_rss: float, errors: list[str],
               exact: dict | None = None, layer: dict | None = None,
               diag: dict | None = None, tracer: Tracer) -> dict:
    """What a workload subprocess prints as its last stdout line."""
    attempted = sum(block.attempted for block in timed)
    failed = sum(block.failed for block in timed)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss}
    diagnostics = dict(pooled_tail(timed))
    try:
        metrics.update(summarize(timed))
    except OpFailed as error:
        errors = errors + [str(error)]
    diagnostics.update(probe_summary(probes))
    per_block = block_values(timed)
    diagnostics["blocks"] = per_block
    diagnostics["block_median"] = {
        name: statistics.median(values)
        for name, values in per_block.items() if values}
    diagnostics["speed_probes_ms"] = probes
    diagnostics.update(diag or {})
    doc = {
        "workload": workload, "quick": quick, "traced": traced,
        "seed": seed,
        "correct": not errors and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in E2E_UNITS.items() if name in metrics},
        "exact": exact or {}, "layer": layer or {},
        "diag": diagnostics, "errors": errors[:20],
    }
    if tracer.enabled:
        doc["spans"] = tracer.self_times()
    return doc
