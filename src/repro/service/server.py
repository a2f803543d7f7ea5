"""The wall-clock job server: streaming submissions over a local socket.

:class:`ReproServer` wraps a :class:`~repro.service.jobs.JobService` in an
asyncio server speaking the NDJSON protocol of
:mod:`repro.service.protocol`.  Connections submit jobs concurrently; the
server batches them per *scheduler tick* (GroupIntoBatches-style flow
control: a tick fires every ``tick_interval`` wall seconds, early when
``max_batch`` submissions are queued, and a submission never waits more
than ``max_wait``), advances the service's virtual clock through a
:class:`~repro.service.ticks.WallClockDriver`, **group-commits** the
journal once per tick, and only then acks — so an acked submission is
durable, and one ``fsync`` covers the whole batch instead of one per
submitter (the durability depth ROADMAP item 5 left open).

Tick anatomy (all on the event loop; the service itself is synchronous)::

    take <= max_batch pending submissions
      -> advance virtual clock to wall-now   (completions fire)
      -> submit each (auto-registering new tenants)
      -> run_until(now)                      (admission decisions fire)
      -> journal.sync()                      (ONE group commit)
      -> send acks (admission outcome)       (durable by now)
      -> send results for newly-terminal jobs

The server counts everything once, in the ``server.*`` instruments of
the :class:`~repro.observability.metrics.MetricsRegistry` it owns
(``ReproServer.metrics``): counters, accept latency (enqueue -> ack),
per-tick wall time, batch sizes, queue depth.  The ``status`` frame and
the final :meth:`ReproServer.report` (read by E26's load generator in
``benchmarks/rigs.py``) are views of that registry.

Robustness: malformed frames get structured ``error`` frames and the
connection survives; a disconnected client's jobs keep running (their
results are dropped); SIGKILL mid-burst is recovered by
``repro serve --recover`` exactly like the virtual-clock path, because
wall-clock runs journal the same command stream.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.core.program import Program
from repro.errors import ProtocolError, ValidationError
from repro.observability.metrics import MetricsRegistry, percentile
from repro.service.jobs import JobService
from repro.service.protocol import (
    ERR_BAD_FRAME,
    ERR_DRAIN_PENDING,
    ERR_INTERNAL,
    ERR_JOB_FINISHED,
    ERR_NOT_ACCEPTING,
    ERR_OVERSIZED,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_WORKLOAD,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    T_ACK,
    T_BYE,
    T_CANCEL,
    T_DRAIN,
    T_DRAINED,
    T_HELLO,
    T_RESULT,
    T_SHUTDOWN,
    T_STATUS,
    T_SUBMIT,
    T_WELCOME,
    decode_frame,
    encode_frame,
    error_frame,
    validate_frame,
)
from repro.service.ticks import WallClockDriver
from repro.workloads.catalog import build_workload

#: Drain scopes.
SCOPE_CONN = "conn"
SCOPE_ALL = "all"


def parse_listen(spec: str) -> tuple[str, str, int | None]:
    """Parse a ``--listen`` address: ``host:port`` (TCP) or a path (unix).

    Returns ``("tcp", host, port)`` or ``("unix", path, None)``.  A spec
    whose last colon-separated field is an integer is TCP; everything
    else is a unix-domain socket path.
    """
    if not spec:
        raise ValidationError("listen address must be non-empty")
    host, sep, port = spec.rpartition(":")
    if sep and port.isdigit():
        return ("tcp", host or "127.0.0.1", int(port))
    return ("unix", spec, None)


@dataclass
class _PendingSubmit:
    """One queued submission awaiting the next scheduler tick."""

    conn: "_Connection"
    frame: dict
    program: Program
    tile_size: int
    source: dict
    enqueued: float  # perf_counter at enqueue (accept-latency origin)


class _Connection:
    """Per-connection state: identity, open jobs, drain bookkeeping."""

    _next_id = 0

    def __init__(self, writer: asyncio.StreamWriter):
        _Connection._next_id += 1
        self.id = _Connection._next_id
        self.writer = writer
        self.open_jobs: set[str] = set()
        #: Outstanding drain request: (scope, req) or None.
        self.drain: tuple[str, object] | None = None
        self.closed = False

    def send(self, doc: dict) -> None:
        """Queue one frame on this connection's write buffer."""
        if not self.closed:
            try:
                self.writer.write(encode_frame(doc))
            except (ConnectionError, RuntimeError):
                self.closed = True


#: The server's counters, ``server.<name>`` in its registry.
COUNTERS = ("connections", "accepted", "rejected", "cancelled_requests",
            "results_sent", "errors_sent", "protocol_errors", "torn_frames",
            "ticks", "group_commits")


def _latency_doc(histogram, recent) -> dict:
    """Count, mean and max from the whole-run ``histogram``; percentiles
    from the ``recent`` series; ``count`` alone while empty."""
    if not histogram.count:
        return {"count": 0}
    values = recent.values()
    return {"count": histogram.count, "mean": histogram.mean,
            "p50": percentile(values, 0.50),
            "p95": percentile(values, 0.95),
            "p99": percentile(values, 0.99),
            "max": histogram.max}


class ReproServer:
    """Asyncio wall-clock server around one :class:`JobService`.

    ``listen`` is a ``host:port`` TCP address or a unix-socket path (see
    :func:`parse_listen`).  ``tick_interval`` paces the scheduler;
    ``max_batch`` caps one tick's admissions (more submissions wake the
    ticker early); ``max_wait`` bounds how long a queued submission may
    wait for its tick (defaults to ``tick_interval``).  ``time_scale``
    maps wall seconds to virtual seconds (see
    :class:`~repro.service.ticks.WallClockDriver`).
    """

    def __init__(self, service: JobService, listen: str, *,
                 tick_interval: float = 0.05,
                 max_batch: int = 256,
                 max_wait: float | None = None,
                 time_scale: float = 1.0):
        if tick_interval <= 0:
            raise ValidationError("tick_interval must be positive")
        if max_batch <= 0:
            raise ValidationError("max_batch must be positive")
        if max_wait is not None and max_wait < 0:
            raise ValidationError("max_wait must be >= 0")
        self.service = service
        self.listen = listen
        self.transport = parse_listen(listen)
        self.tick_interval = float(tick_interval)
        self.max_batch = int(max_batch)
        self.max_wait = (float(max_wait) if max_wait is not None
                         else float(tick_interval))
        self.driver = WallClockDriver(service, time_scale=time_scale)
        self.metrics = MetricsRegistry()
        self._count = {name: self.metrics.counter(f"server.{name}")
                       for name in COUNTERS}
        #: Latencies: whole-run histogram plus the 8,192 most recent
        #: samples for percentiles (bounded memory on long runs).
        self._tick_seconds, self._accept_seconds = (
            (self.metrics.histogram(f"server.{name}"),
             self.metrics.series(f"server.{name}.recent", max_samples=8192))
            for name in ("tick_seconds", "accept_seconds"))
        self._batch_size = self.metrics.histogram("server.batch_size")
        self._queue_depth = self.metrics.series("server.queue_depth")
        self._pending: deque[_PendingSubmit] = deque()
        #: Acked-but-not-yet-resulted jobs -> owning connection (or None
        #: once the owner disconnected; the job still runs to completion).
        self._jobs: dict[str, _Connection | None] = {}
        #: Ids the service reported terminal since the last tick took them.
        self._terminal: list[str] = []
        service.on_terminal = self._terminal.append
        self._conns: set[_Connection] = set()
        #: Program cache keyed by (workload, scale): keeps ``id(program)``
        #: stable across submissions so admission's price memo hits.
        self._programs: dict[tuple[str, str], tuple[Program, int]] = {}
        self._accepting = True
        self._shutdown = False
        self._wake: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._ticker: asyncio.Task | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the scheduler ticker."""
        self._wake = asyncio.Event()
        self._stopped = asyncio.Event()
        kind, target, port = self.transport
        if kind == "unix":
            Path(target).parent.mkdir(parents=True, exist_ok=True)
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=target,
                limit=MAX_FRAME_BYTES * 2)
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host=target, port=port,
                limit=MAX_FRAME_BYTES * 2)
        self._ticker = asyncio.create_task(self._tick_loop())

    async def serve(self) -> None:
        """Run until a ``shutdown`` frame drains the server, then clean up."""
        await self.start()
        try:
            await self._stopped.wait()
        finally:
            await self._close()

    def run(self) -> None:
        """Blocking entry point: ``asyncio.run`` the whole server life."""
        asyncio.run(self.serve())

    def request_shutdown(self) -> None:
        """Ask the server to drain and stop (call on its event loop)."""
        self._shutdown = True
        self._accepting = False
        if self._wake is not None:
            self._wake.set()

    async def _close(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
        for conn in list(self._conns):
            conn.send({"type": T_BYE, "reason": "shutdown"})
            await self._close_conn(conn)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Reap per-connection handler tasks before the loop shuts down,
        # so teardown never logs spurious CancelledErrors.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        kind, target, __ = self.transport
        if kind == "unix":
            Path(target).unlink(missing_ok=True)
        self.service.close_durability()

    async def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            await conn.writer.drain()
            conn.writer.close()
        except (ConnectionError, RuntimeError):
            pass
        self._drop_conn(conn)

    def _drop_conn(self, conn: _Connection) -> None:
        """Forget a connection; its jobs keep running ownerless."""
        self._conns.discard(conn)
        for job_id in conn.open_jobs:
            if job_id in self._jobs:
                self._jobs[job_id] = None
        conn.open_jobs.clear()

    # -- the scheduler ticker --------------------------------------------------

    async def _tick_loop(self) -> None:
        while True:
            timeout = self.tick_interval
            if self._pending:
                waited = time.perf_counter() - self._pending[0].enqueued
                timeout = min(timeout, max(0.0, self.max_wait - waited))
            next_at = self.service.next_event_at
            if next_at is not None:
                timeout = min(timeout,
                              max(0.0, self.driver.seconds_until(next_at)))
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            deliveries = self._tick()
            await self._deliver(deliveries)
            if (self._shutdown and not self._pending and not self._jobs):
                self._stopped.set()
                return

    def _tick(self) -> list[tuple[_Connection, dict]]:
        """One scheduler tick (synchronous); returns frames to deliver."""
        started = time.perf_counter()
        service = self.service
        batch: list[_PendingSubmit] = []
        while self._pending and len(batch) < self.max_batch:
            batch.append(self._pending.popleft())
        worked = bool(batch) or service.next_event_at is not None
        frames: list[tuple[_Connection, dict]] = []
        if worked:
            self.driver.advance()
        acked: list[tuple[_PendingSubmit, str]] = []
        for item in batch:
            tenant = item.frame["tenant"]
            if tenant not in service.tenants:
                service.add_tenant(tenant)
            handle = service.submit(item.program, tenant,
                                    tile_size=item.tile_size,
                                    source=item.source)
            acked.append((item, handle.job_id))
        if batch:
            service.run_until(service.now)  # admit at this instant
        # Group commit: one fsync makes the whole batch durable, then ack.
        if service.journal is not None and service.journal.pending:
            service.journal.sync()
            self._count["group_commits"].inc()
        now = time.perf_counter()
        stamp = self.metrics.now()
        accepted, rejected = self._count["accepted"], self._count["rejected"]
        accept_total, accept_recent = self._accept_seconds
        for item, job_id in acked:
            record = service.jobs[job_id]
            (rejected if record.state == "rejected" else accepted).inc()
            latency = now - item.enqueued
            accept_total.observe(latency)
            accept_recent.record(stamp, latency)
            ack = {"type": T_ACK, "job_id": job_id, "state": record.state,
                   "estimated_dollars": record.estimated_dollars}
            if record.reject_reason:
                ack["reject_reason"] = record.reject_reason
            if "req" in item.frame:
                ack["req"] = item.frame["req"]
            frames.append((item.conn, ack))
            self._jobs[job_id] = item.conn if not item.conn.closed else None
            if not item.conn.closed:
                item.conn.open_jobs.add(job_id)
        # Results for every job that reached a terminal state this tick.
        # Jobs this server never acked (recovered ones) and jobs whose
        # owner hung up have nobody to tell.
        for job_id in self._terminal:
            conn = self._jobs.pop(job_id, None)
            if conn is not None:
                conn.open_jobs.discard(job_id)
                frames.append(
                    (conn, self._result_frame(service.jobs[job_id])))
                self._count["results_sent"].inc()
        self._terminal.clear()
        frames.extend(self._check_drains())
        self._count["ticks"].inc()
        if worked:
            elapsed = time.perf_counter() - started
            tick_total, tick_recent = self._tick_seconds
            tick_total.observe(elapsed)
            tick_recent.record(stamp, elapsed)
            self._batch_size.observe(len(batch))
            self._queue_depth.record(service.now, len(self._pending))
        return frames

    def _check_drains(self) -> list[tuple[_Connection, dict]]:
        """Fire ``drained`` frames for every satisfied drain request."""
        frames = []
        for conn in self._conns:
            if conn.drain is None:
                continue
            scope, req = conn.drain
            if scope == SCOPE_ALL:
                done = not self._jobs and not self._pending
            else:
                done = not conn.open_jobs and not any(
                    item.conn is conn for item in self._pending)
            if done:
                conn.drain = None
                doc = {"type": T_DRAINED, "scope": scope}
                if req is not None:
                    doc["req"] = req
                frames.append((conn, doc))
        return frames

    def _result_frame(self, record) -> dict:
        doc = {
            "type": T_RESULT,
            "job_id": record.job_id,
            "tenant": record.tenant,
            "state": record.state,
            "slot_seconds": record.slot_seconds,
            "dollars": record.dollars,
            "missed_deadline": record.missed_deadline,
        }
        if record.reject_reason:
            doc["reject_reason"] = record.reject_reason
        if record.error is not None:
            doc["error"] = str(record.error)
        return doc

    async def _deliver(self,
                       frames: list[tuple[_Connection, dict]]) -> None:
        touched = set()
        for conn, doc in frames:
            conn.send(doc)
            touched.add(conn)
        for conn in touched:
            if not conn.closed:
                try:
                    await conn.writer.drain()
                except (ConnectionError, RuntimeError):
                    self._drop_conn(conn)

    # -- per-connection protocol handling --------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._conns.add(conn)
        self._count["connections"].inc()
        try:
            while not conn.closed:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as error:
                    if error.partial:
                        # Torn frame: the client died mid-write.
                        self._count["torn_frames"].inc()
                    break
                except asyncio.LimitOverrunError:
                    # The line outgrew the read buffer: framing is lost,
                    # refuse and hang up (a structured goodbye, not a
                    # crash).
                    self._send_error(conn, None, ProtocolError(
                        ERR_OVERSIZED,
                        f"frame exceeds the {MAX_FRAME_BYTES}-byte limit"))
                    break
                except (ConnectionError, OSError):
                    break
                if not await self._handle_frame(conn, line):
                    break
                if not conn.closed:
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        break
        finally:
            await self._close_conn(conn)

    async def _handle_frame(self, conn: _Connection, line: bytes) -> bool:
        """Process one received line; returns False to close the conn."""
        try:
            doc = validate_frame(decode_frame(line))
        except ProtocolError as error:
            req = None
            try:
                maybe = json.loads(line)
                if isinstance(maybe, dict):
                    req = maybe.get("req")
            except (ValueError, UnicodeDecodeError):
                pass
            self._count["protocol_errors"].inc()
            self._send_error(conn, req, error)
            return True
        kind = doc["type"]
        req = doc.get("req")
        try:
            if kind == T_HELLO:
                conn.send({
                    "type": T_WELCOME, "server": "repro",
                    "version": PROTOCOL_VERSION,
                    "mode": self.driver.mode,
                    "max_frame_bytes": MAX_FRAME_BYTES,
                    "tick_interval": self.tick_interval,
                    "max_batch": self.max_batch,
                })
            elif kind == T_SUBMIT:
                self._on_submit(conn, doc)
            elif kind == T_CANCEL:
                self._on_cancel(conn, doc)
            elif kind == T_STATUS:
                self._on_status(conn, doc)
            elif kind == T_DRAIN:
                self._on_drain(conn, doc)
            elif kind == T_SHUTDOWN:
                self.request_shutdown()
            elif kind == T_BYE:
                conn.send({"type": T_BYE})
                return False
        except ProtocolError as error:
            self._count["protocol_errors"].inc()
            self._send_error(conn, req, error)
        except Exception as error:  # never die on one bad frame
            self._send_error(conn, req,
                             ProtocolError(ERR_INTERNAL, str(error)))
        return True

    def _send_error(self, conn: _Connection, req, error: ProtocolError):
        self._count["errors_sent"].inc()
        conn.send(error_frame(error.code, str(error), req=req))

    def _on_submit(self, conn: _Connection, doc: dict) -> None:
        if not self._accepting:
            raise ProtocolError(ERR_NOT_ACCEPTING,
                                "server is draining; not accepting "
                                "submissions")
        key = (doc["workload"], str(doc.get("scale", "tiny")))
        cached = self._programs.get(key)
        if cached is None:
            try:
                cached = build_workload(key[0], key[1])
            except Exception as error:
                raise ProtocolError(
                    ERR_UNKNOWN_WORKLOAD,
                    f"cannot build workload {key[0]}/{key[1]}: "
                    f"{error}") from None
            self._programs[key] = cached
        program, default_tile = cached
        tile = int(doc.get("tile_size", default_tile))
        self._pending.append(_PendingSubmit(
            conn=conn, frame=doc, program=program, tile_size=tile,
            source={"workload": key[0], "scale": key[1]},
            enqueued=time.perf_counter()))
        if len(self._pending) >= self.max_batch:
            self._wake.set()

    def _on_cancel(self, conn: _Connection, doc: dict) -> None:
        job_id = doc["job_id"]
        record = self.service.jobs.get(job_id)
        if record is None:
            raise ProtocolError(ERR_UNKNOWN_JOB,
                                f"unknown job {job_id!r}")
        if record.done:
            raise ProtocolError(
                ERR_JOB_FINISHED,
                f"job {job_id} already reached terminal state "
                f"{record.state!r}")
        self.service.cancel(job_id)
        self._count["cancelled_requests"].inc()
        ack = {"type": T_ACK, "job_id": job_id, "state": "cancelling"}
        if "req" in doc:
            ack["req"] = doc["req"]
        conn.send(ack)
        self._wake.set()  # flush the cancellation promptly

    def _on_status(self, conn: _Connection, doc: dict) -> None:
        if "job_id" in doc:
            job_id = doc["job_id"]
            record = self.service.jobs.get(job_id)
            if record is None:
                raise ProtocolError(ERR_UNKNOWN_JOB,
                                    f"unknown job {job_id!r}")
            reply = {"type": T_STATUS, "job_id": job_id,
                     "state": record.state, "tenant": record.tenant}
        else:
            reply = {"type": T_STATUS, "server": self.status_doc()}
        if "req" in doc:
            reply["req"] = doc["req"]
        conn.send(reply)

    def _on_drain(self, conn: _Connection, doc: dict) -> None:
        if conn.drain is not None:
            raise ProtocolError(ERR_DRAIN_PENDING,
                                "a drain is already in flight on this "
                                "connection")
        scope = doc.get("scope", SCOPE_CONN)
        if scope not in (SCOPE_CONN, SCOPE_ALL):
            raise ProtocolError(ERR_BAD_FRAME,
                                f"unknown drain scope {scope!r}")
        conn.drain = (scope, doc.get("req"))
        self._wake.set()

    # -- reporting -------------------------------------------------------------

    def stats_doc(self) -> dict:
        """The server's counters and latencies: a view of :attr:`metrics`."""
        doc = {name: int(counter.value)
               for name, counter in self._count.items()}
        doc["submissions"] = doc["accepted"] + doc["rejected"]
        doc["max_batch_seen"] = int(max(0.0, self._batch_size.max))
        doc["tick_seconds"] = _latency_doc(*self._tick_seconds)
        doc["accept_seconds"] = _latency_doc(*self._accept_seconds)
        return doc

    def status_doc(self) -> dict:
        """Live server status (the ``status`` frame payload)."""
        admission = self.service.admission
        return {
            "mode": self.driver.mode,
            "listen": self.listen,
            "clock": self.service.now,
            "time_scale": self.driver.time_scale,
            "accepting": self._accepting,
            "pending": len(self._pending),
            "open_jobs": len(self._jobs),
            "connections": len(self._conns),
            "tenants": len(self.service.tenants),
            "price_hits": admission.price_hits,
            "price_misses": admission.price_misses,
            "stats": self.stats_doc(),
        }

    def report(self) -> dict:
        """Final JSON-able run report: server stats + service report."""
        doc = {
            "listen": self.listen,
            "mode": self.driver.mode,
            "tick_interval": self.tick_interval,
            "max_batch": self.max_batch,
            "max_wait": self.max_wait,
            "time_scale": self.driver.time_scale,
            "server": self.stats_doc(),
            "price_hits": self.service.admission.price_hits,
            "price_misses": self.service.admission.price_misses,
            "service": self.service.report().summary(),
        }
        if self.service.journal is not None:
            doc["journal"] = self.service.journal.stats()
        return doc
