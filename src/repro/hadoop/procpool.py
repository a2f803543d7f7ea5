"""Process-parallel kernel pool: CPU-bound tile kernels off the GIL.

The thread backend runs every tile kernel in the executor process; numpy
releases the GIL inside its BLAS calls, but all the Python *around* those
calls — store lookups, sparsity probes, shape checks, tile construction —
serializes on the GIL and, for laptop-scale tiles, dominates the clock.
This module moves that work out of the executor process: a small pool of
long-lived worker processes evaluates whole :class:`~repro.hadoop.kernels.
BlockPlan` batches, one pipe round-trip per *task* rather than per tile.

Payloads travel through ``multiprocessing.shared_memory`` buffers, never
through pickle: the dispatcher packs a task's input tiles into one request
segment (a single memcpy per tile), the worker maps it and evaluates the
plan with :func:`~repro.hadoop.kernels.execute_plan` — the same evaluator
the inline path uses, so floats are bit-identical — and writes dense
results into a response segment the parent pre-sized from the plan's
declared output shapes.  Nonzero counts come back over the pipe so the
parent can compact result tiles without recounting.

Observability: when the parent's trace recorder or metrics registry is
live, each request carries a ``collect`` flag and the worker times its own
serving — one *kernel span* per plan (kind, tile count, wall time) plus an
event per fresh shm-segment attach — into a compact per-request buffer
shipped back with the response.  The dispatcher maps those worker-clock
spans onto the parent recorder's clock (anchored at the dispatch send, so
durations are worker-exact and offsets err by at most one pipe delivery)
and records them as :data:`~repro.observability.trace.PHASE_KERNEL` events
on a ``procworker:N`` lane per worker — real worker timelines in Chrome
trace exports and ``repro profile``.  Pool health (dispatch-queue wait,
request/response bytes, segment regrowth, batch sizes, respawns,
per-plan-kind throughput) lands in the registry under ``procpool.*``.
With recording *off* the request flag is ``False``, the worker takes no
timestamps, and responses carry ``None`` instead of a buffer — the
tripwire tests lock that the disabled path does no extra work.

Platform notes: workers start via ``fork`` where available (Linux; ``spawn``
elsewhere, with its per-worker interpreter startup cost), are daemonic (they
can never outlive the executor), and a worker that dies mid-request is
respawned on next acquire — the failed attempt surfaces as an ordinary
:class:`~repro.errors.ExecutionError` naming the worker index, pid, and the
last plan kind it was serving, so the failure is attributable and the
executor fails that one attempt like any other task error.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.errors import ExecutionError, ValidationError
from repro.hadoop.kernels import (
    PLAN_GRID,
    BlockPlan,
    GridMultPlan,
    KernelCall,
    KernelDispatcher,
    execute_grid_mult,
    execute_plan,
    plan_kind,
)
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import (
    NULL_RECORDER,
    PHASE_KERNEL,
    TraceEvent,
    TraceRecorder,
)

#: Seconds the dispatcher waits for one plan before declaring the worker hung.
REQUEST_TIMEOUT = 300.0

#: Job id stamped on worker-lane trace events (they belong to the pool, not
#: to any one MapReduce job — task attribution lives on the task events).
KERNEL_JOB_ID = "procpool"

#: Worker-event kinds inside the shipped buffer.
_EV_KERNEL = "kernel"
_EV_ATTACH = "attach"

#: Bucket bounds for the ``procpool.batch_tiles`` histogram (tiles, not
#: seconds: batch sizes span one tile to whole-job blocks).
TILE_BATCH_BUCKETS: tuple[float, ...] = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
)

_SENTINEL = None


def _preferred_start_method() -> str:
    """``fork`` where the platform offers it (cheap, instant workers)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# -- worker side ---------------------------------------------------------------

def _worker_main(conn) -> None:
    """Worker loop: map request buffers, evaluate plans, reply with nnz.

    Requests are ``(in_name, in_slots, out_name, plan, collect)``; replies
    are ``(ok, counts_or_message, events)`` where ``events`` is ``None``
    unless ``collect`` was set, in which case it is a tuple of
    ``(kind, label, amount, start_rel, end_rel)`` records with times in
    seconds relative to the moment the worker picked up the request.
    """
    segments: dict[str, shared_memory.SharedMemory] = {}
    try:
        while True:
            try:
                request = conn.recv()
            except EOFError:  # parent went away
                return
            if request is _SENTINEL:
                return
            in_name, in_slots, out_name, plan, collect = request
            log: list | None = [] if collect else None
            epoch = time.perf_counter() if collect else 0.0
            try:
                counts = _serve_request(segments, in_name, in_slots,
                                        out_name, plan, log, epoch)
                if collect:
                    log.append((_EV_KERNEL, plan_kind(plan), plan.num_tiles,
                                0.0, time.perf_counter() - epoch))
                    conn.send((True, counts, tuple(log)))
                else:
                    conn.send((True, counts, None))
            except Exception as exc:  # surface, don't kill the worker
                message = f"{type(exc).__name__}: {exc}"
                conn.send((False, message, tuple(log) if collect else None))
    finally:
        for shm in segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - stray view at exit
                pass


def _serve_request(segments, in_name, in_slots, out_name, plan, log, epoch):
    """Evaluate one plan against the named request/response segments."""
    # Segment names are stable across requests (the parent reuses its
    # per-worker buffers), so attach once and keep the mapping: the attach
    # syscalls would otherwise dominate small-tile dispatches.
    shm_in = _attach(segments, "in", in_name, log, epoch)
    shm_out = _attach(segments, "out", out_name, log, epoch)
    if isinstance(plan, GridMultPlan):
        return _evaluate_grid_into(shm_in, shm_out, plan)
    return _evaluate_into(shm_in, shm_out, in_slots, plan)


def _attach(segments, role: str, name: str, log, epoch
            ) -> shared_memory.SharedMemory:
    """Map segment ``name`` for ``role``, reusing the cached mapping."""
    cached = segments.get(role)
    if cached is not None and cached.name == name:
        return cached
    if cached is not None:
        # The parent grew this buffer under a fresh name; any views into
        # the old mapping died with earlier request frames.
        cached.close()
    started = time.perf_counter() - epoch if log is not None else 0.0
    shm = shared_memory.SharedMemory(name=name)
    if log is not None:
        log.append((_EV_ATTACH, role, shm.size, started,
                    time.perf_counter() - epoch))
    segments[role] = shm
    return shm


def _evaluate_into(shm_in, shm_out, in_slots, plan: BlockPlan
                   ) -> tuple[int, ...]:
    payloads = [_slot_view(shm_in.buf, offset, shape)
                for offset, shape in in_slots]
    results = execute_plan(plan, payloads)
    counts = []
    offset = 0
    for (array, nnz), shape in zip(results, plan.out_shapes):
        out_view = _slot_view(shm_out.buf, offset, shape, writable=True)
        out_view[:] = array
        offset += array.nbytes
        counts.append(nnz)
    return tuple(counts)


def _evaluate_grid_into(shm_in, shm_out, plan: GridMultPlan
                        ) -> tuple[int, ...]:
    """Structured mult fast path: the A and B blocks are back-to-back in
    the request buffer; evaluation runs over views of them."""
    a_rows, a_cols = plan.a_shape
    b_rows, b_cols = plan.b_shape
    a_count = plan.a_count * a_rows * a_cols
    a_block = np.frombuffer(shm_in.buf, dtype=np.float64,
                            count=a_count).reshape(
                                plan.a_count, a_rows, a_cols)
    b_block = np.frombuffer(shm_in.buf, dtype=np.float64,
                            count=plan.b_count * b_rows * b_cols,
                            offset=a_count * 8).reshape(
                                plan.b_count, b_rows, b_cols)
    a_block.flags.writeable = False
    b_block.flags.writeable = False
    outputs, counts = execute_grid_mult(plan, a_block, b_block)
    out_view = np.frombuffer(shm_out.buf, dtype=np.float64,
                             count=outputs.size).reshape(outputs.shape)
    out_view[:] = outputs
    # Plain ints, like the block path: an ndarray reply costs more to
    # pickle than the whole rest of a one-tile response.
    return tuple(counts.tolist())


def _slot_view(buf, offset: int, shape: tuple[int, int],
               writable: bool = False) -> np.ndarray:
    view = np.frombuffer(buf, dtype=np.float64,
                         count=shape[0] * shape[1],
                         offset=offset).reshape(shape)
    if not writable:
        view.flags.writeable = False
    return view


# -- parent side ---------------------------------------------------------------

class _WorkerHandle:
    """One worker process plus the parent end of its pipe and the pair of
    reusable shared-memory buffers dispatches to it go through.

    ``index`` is the worker's stable pool position — the lane number in
    worker trace timelines — and survives respawns, so a lane shows the
    whole history of slot N even across a worker death.
    """

    def __init__(self, context, index: int):
        self._context = context
        self.index = index
        self.conn = None
        self.process = None
        #: Kind of the last plan dispatched to this worker (failure forensics).
        self.last_plan_kind = ""
        #: Persistent request/response segments, grown geometrically on
        #: demand and reused across dispatches (creating + unlinking a
        #: segment per plan costs more than small-tile kernels themselves).
        self.shm_in = None
        self.shm_out = None
        #: What :meth:`ProcessDispatcher.send` knows about the plan in
        #: flight on this worker, for the matching ``receive``, and the
        #: ``time.monotonic`` instant by which the reply is due.
        self.flight = None
        self.reply_due = 0.0
        self.spawn()

    @property
    def pid(self) -> int | None:
        """Pid of the current worker process (None before first spawn)."""
        return self.process.pid if self.process is not None else None

    @property
    def lane(self) -> str:
        """Trace lane name for this worker's kernel spans."""
        return f"procworker:{self.index}"

    def ensure_buffers(self, in_bytes: int, out_bytes: int) -> int:
        """Make the reusable segments at least the requested sizes.

        Returns how many of the two segments had to be (re)created — the
        dispatcher turns that into ``procpool.shm_regrowths``.
        """
        self.shm_in, grew_in = _grown(self.shm_in, in_bytes)
        self.shm_out, grew_out = _grown(self.shm_out, out_bytes)
        return int(grew_in) + int(grew_out)

    @property
    def buffer_bytes(self) -> int:
        """Total bytes currently allocated to this worker's segments."""
        total = 0
        for shm in (self.shm_in, self.shm_out):
            if shm is not None:
                total += shm.size
        return total

    def release_buffers(self) -> None:
        for attr in ("shm_in", "shm_out"):
            shm = getattr(self, attr)
            if shm is None:
                continue
            setattr(self, attr, None)
            try:
                shm.close()
                shm.unlink()
            except (BufferError, FileNotFoundError):  # pragma: no cover
                pass

    def spawn(self) -> None:
        """(Re)start the worker process."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main, args=(child_conn,),
            name="repro-kernel-worker", daemon=True)
        process.start()
        child_conn.close()
        self.conn = parent_conn
        self.process = process

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def stop(self) -> None:
        try:
            if self.alive:
                self.conn.send(_SENTINEL)
                self.process.join(timeout=2.0)
            if self.process is not None and self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
        except (OSError, BrokenPipeError, ValueError):  # pragma: no cover
            pass
        finally:
            self.release_buffers()
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


def _grown(shm, needed: int):
    """Return ``(segment, grew)``: ``shm`` if it already fits, else fresh."""
    if shm is not None and shm.size >= needed:
        return shm, False
    if shm is not None:
        try:
            shm.close()
            shm.unlink()
        except (BufferError, FileNotFoundError):  # pragma: no cover
            pass
    # Grow in 1.5x steps so a slowly-rising high-water mark does not
    # recreate (and force the worker to re-attach) a segment per dispatch.
    size = max(4096, needed, 0 if shm is None else int(shm.size * 1.5))
    return shared_memory.SharedMemory(create=True, size=size), True


class KernelPool:
    """A fixed-size pool of kernel worker processes.

    Workers are started eagerly so the first dispatched task does not pay
    the startup cost, handed out one-per-caller like the executor's slot
    pool, and respawned transparently if one dies.  With a live ``metrics``
    registry the pool reports dispatch-queue wait
    (``procpool.acquire_wait_seconds``) and worker respawns
    (``procpool.respawns``).
    """

    def __init__(self, workers: int,
                 metrics: MetricsRegistry = NULL_METRICS):
        if workers <= 0:
            raise ValidationError(
                f"kernel pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self.metrics = metrics
        self._context = multiprocessing.get_context(
            _preferred_start_method())
        # Start the shm resource tracker *before* forking workers: children
        # then inherit (and share) it, so a worker's attach-registration and
        # the parent's unlink-unregistration meet in one tracker and balance.
        # Forked-after-the-fact workers would each spawn a private tracker
        # that warns about "leaked" segments the parent already unlinked.
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
        self._handles = [_WorkerHandle(self._context, index)
                         for index in range(workers)]
        self._free = list(self._handles)
        self._condition = threading.Condition()
        self._closed = False
        self._finalizer = weakref.finalize(
            self, KernelPool._stop_all, self._handles)

    def acquire(self, wait: bool = True) -> _WorkerHandle | None:
        """Borrow a live worker; if all are busy, block — or with
        ``wait=False`` return ``None``, which is what a caller that already
        holds a worker must ask for (holding one while blocking for another
        is how two such callers would deadlock).

        Respawning a dead worker here is what makes worker death survivable:
        the attempt that hit the dead worker failed with an ordinary
        :class:`~repro.errors.ExecutionError`, and by the time the next
        attempt acquires a worker the pool is whole again (counted in
        ``procpool.respawns``).
        """
        metrics = self.metrics
        started = metrics.now() if metrics.enabled else 0.0
        with self._condition:
            # Checked on entry and after every wake-up: close() leaves its
            # stopped workers on the free list, and handing one out would
            # respawn a process nothing will ever stop.
            while not self._closed and not self._free:
                if not wait:
                    return None
                self._condition.wait()
            if self._closed:
                raise ExecutionError("kernel pool is closed")
            handle = self._free.pop()
        if metrics.enabled:
            metrics.observe("procpool.acquire_wait_seconds",
                            metrics.now() - started)
        self.revive(handle)
        return handle

    def revive(self, handle: _WorkerHandle) -> None:
        """Replace ``handle``'s worker if it has died since it was last
        used (a borrower that kept the handle across other work re-checks
        here, right before it sends)."""
        if not handle.alive:
            handle.spawn()
            if self.metrics.enabled:
                self.metrics.inc("procpool.respawns")

    def release(self, handle: _WorkerHandle) -> None:
        """Return a borrowed worker to the pool."""
        with self._condition:
            self._free.append(handle)
            self._condition.notify()

    def close(self) -> None:
        """Stop every worker.  Safe to call more than once."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
            self._condition.notify_all()
        self._finalizer.detach()
        KernelPool._stop_all(self._handles)

    @staticmethod
    def _stop_all(handles) -> None:
        for handle in handles:
            handle.stop()


class ProcessDispatcher(KernelDispatcher):
    """Ships kernel plans to a :class:`KernelPool` over shared memory.

    A plan leaves this process through :meth:`send` and comes back through
    :meth:`receive`; between the two the worker (and its segment pair) is
    the caller's, so an executor can keep every worker of the pool fed from
    one thread.  :meth:`run_plan` / :meth:`run_grid_mult` are the two
    halves back to back on a borrowed worker.

    With a live recorder, worker-side kernel spans shipped back with each
    response are merged into the parent trace as per-worker lanes; with a
    live metrics registry, pool health lands under ``procpool.*``.  Both
    default off, and when off the dispatch path carries no telemetry
    payload at all.
    """

    name = "process"

    def __init__(self, pool: KernelPool,
                 metrics: MetricsRegistry = NULL_METRICS,
                 recorder: TraceRecorder = NULL_RECORDER):
        self.pool = pool
        self.metrics = metrics
        self.recorder = recorder

    def run_plan(self, payloads, plan: BlockPlan):
        """Tuple-plan path: one slot per payload in, one per output back."""
        return self._run(plan, payloads)

    def run_grid_mult(self, a_payloads, b_payloads, plan: GridMultPlan):
        """Structured mult path: two block writes, one block read, and a
        plan that pickles as a handful of ints."""
        return self._run(plan, list(a_payloads) + list(b_payloads))

    def _run(self, plan, payloads):
        results: list = []
        call = KernelCall(plan, payloads, results.extend)
        handle = self.pool.acquire()
        try:
            self.send(handle, call)
            self.receive(handle, call)
        finally:
            self.pool.release(handle)
        return results

    def send(self, handle, call: KernelCall) -> None:
        """Pack ``call`` into ``handle``'s request segment and post it.

        The worker and both its segments belong to this plan until
        :meth:`receive` returns (or raises) for the same ``handle``.
        """
        metrics = self.metrics
        started = metrics.now() if metrics.enabled else 0.0
        plan, payloads = call.plan, call.payloads
        if isinstance(plan, GridMultPlan):
            in_slots = out_slots = None
            a_bytes = plan.a_count * plan.a_shape[0] * plan.a_shape[1] * 8
            in_bytes = a_bytes \
                + plan.b_count * plan.b_shape[0] * plan.b_shape[1] * 8
            out_bytes = plan.n_outputs * plan.out_shape[0] \
                * plan.out_shape[1] * 8
            self._ensure_buffers(handle, in_bytes, out_bytes)
            _pack_block(handle.shm_in, 0, plan.a_shape,
                        payloads[:plan.a_count])
            _pack_block(handle.shm_in, a_bytes, plan.b_shape,
                        payloads[plan.a_count:])
        else:
            in_slots, in_bytes = _layout(
                [(int(p.shape[0]), int(p.shape[1])) for p in payloads])
            out_slots, out_bytes = _layout(plan.out_shapes)
            self._ensure_buffers(handle, in_bytes, out_bytes)
            for payload, (offset, shape) in zip(payloads, in_slots):
                _slot_view(handle.shm_in.buf, offset, shape,
                           writable=True)[:] = payload
        handle.last_plan_kind = plan_kind(plan)
        request = (handle.shm_in.name, in_slots, handle.shm_out.name, plan,
                   self.recorder.enabled or metrics.enabled)
        base = self.recorder.now() if self.recorder.enabled else 0.0
        posted = metrics.now() if metrics.enabled else 0.0
        handle.flight = (started, posted, base, in_bytes, out_bytes,
                         out_slots)
        handle.reply_due = time.monotonic() + REQUEST_TIMEOUT
        try:
            handle.conn.send(request)
        except OSError as exc:
            raise self._died(handle, exc) from exc

    def receive(self, handle, call: KernelCall) -> None:
        """Take the reply to the plan :meth:`send` posted on ``handle``,
        copy the results out of the response segment and hand them to
        ``call.store``.  Blocks until the reply is readable; a worker that
        stays silent past :data:`REQUEST_TIMEOUT` is replaced.
        """
        metrics = self.metrics
        started, posted, base, in_bytes, out_bytes, out_slots = handle.flight
        try:
            if not handle.conn.poll(
                    max(0.0, handle.reply_due - time.monotonic())):
                handle.process.terminate()  # likely wedged — replace it
                raise ExecutionError(
                    f"kernel worker {handle.index} (pid {handle.pid}) "
                    f"timed out after {REQUEST_TIMEOUT}s "
                    f"on a {handle.last_plan_kind} plan")
            ok, body, events = handle.conn.recv()
        except (EOFError, OSError) as exc:
            raise self._died(handle, exc) from exc
        readable = metrics.now() if metrics.enabled else 0.0
        if events:
            self._ingest_events(handle, events, base, in_bytes, out_bytes)
        if not ok:
            raise ExecutionError(
                f"kernel plan failed in worker {handle.index}: {body}")
        plan, counts = call.plan, body
        if out_slots is None:
            # One block copy out of the response buffer; result tiles are
            # views of it, and every slice is used, so nothing is wasted.
            block = np.frombuffer(
                handle.shm_out.buf, dtype=np.float64,
                count=out_bytes // 8).reshape(
                    plan.n_outputs, *plan.out_shape).copy()
            results = list(zip(block, counts))
        else:
            results = [(_slot_view(handle.shm_out.buf, offset, shape).copy(),
                        nnz)
                       for (offset, shape), nnz in zip(out_slots, counts)]
        call.store(results)
        if metrics.enabled:
            ended = metrics.now()
            kind = plan_kind(plan)
            labels = {"plan": kind}
            metrics.inc("local.kernel_dispatches")
            metrics.inc("local.kernel_dispatch_tiles", plan.num_tiles)
            metrics.inc("local.kernel_dispatch_bytes", in_bytes + out_bytes)
            if kind == PLAN_GRID:
                metrics.inc("local.kernel_dispatch_grid")
            metrics.observe("local.kernel_dispatch_seconds", ended - started)
            metrics.inc("procpool.dispatches", labels=labels)
            metrics.inc("procpool.plan_tiles", plan.num_tiles, labels=labels)
            metrics.inc("procpool.request_bytes", in_bytes)
            metrics.inc("procpool.response_bytes", out_bytes)
            metrics.observe("procpool.dispatch_seconds", ended - started,
                            labels=labels)
            metrics.observe("procpool.pack_seconds", posted - started)
            metrics.observe("procpool.wait_seconds", readable - posted)
            metrics.observe("procpool.store_seconds", ended - readable)
            metrics.histogram("procpool.batch_tiles",
                              buckets=TILE_BATCH_BUCKETS
                              ).observe(plan.num_tiles)

    def _died(self, handle, exc) -> ExecutionError:
        if self.metrics.enabled:
            self.metrics.inc("procpool.worker_deaths")
        return ExecutionError(
            f"kernel worker {handle.index} (pid {handle.pid}) died "
            f"mid-plan (last plan kind: {handle.last_plan_kind}): {exc}")

    # -- telemetry ------------------------------------------------------------

    def _ensure_buffers(self, handle, in_bytes: int, out_bytes: int) -> None:
        """Size the handle's segments, accounting regrowth when observed."""
        grown = handle.ensure_buffers(in_bytes, out_bytes)
        if grown and self.metrics.enabled:
            self.metrics.inc("procpool.shm_regrowths", grown)
            self.metrics.set_gauge("procpool.shm_bytes",
                                   handle.buffer_bytes,
                                   labels={"worker": str(handle.index)})
        if grown and self.recorder.enabled:
            now = self.recorder.now()
            self.recorder.record(TraceEvent(
                job_id=KERNEL_JOB_ID, task_id="shm-grow",
                phase=PHASE_KERNEL, slot=handle.lane,
                start=now, end=now,
                bytes_written=handle.buffer_bytes, label="shm-grow"))

    def _ingest_events(self, handle, events, base: float, in_bytes: int,
                       out_bytes: int) -> None:
        """Merge one response's worker-side events into parent telemetry.

        ``base`` is the parent recorder's clock at request send; worker
        event times are relative to the worker picking the request up, so
        ``base + rel`` places each span on the parent timeline with
        worker-exact durations (the anchor can only be early, by at most
        the pipe delivery latency).
        """
        recorder = self.recorder
        metrics = self.metrics
        for kind, label, amount, start_rel, end_rel in events:
            if metrics.enabled:
                if kind == _EV_KERNEL:
                    metrics.observe("procpool.serve_seconds",
                                    end_rel - start_rel,
                                    labels={"plan": label})
                else:
                    metrics.inc("procpool.shm_attaches")
            if not recorder.enabled:
                continue
            if kind == _EV_KERNEL:
                recorder.record(TraceEvent(
                    job_id=KERNEL_JOB_ID, task_id=f"plan:{label}",
                    phase=PHASE_KERNEL, slot=handle.lane,
                    start=base + start_rel, end=base + end_rel,
                    bytes_read=in_bytes, bytes_written=out_bytes,
                    label=label))
            else:
                recorder.record(TraceEvent(
                    job_id=KERNEL_JOB_ID, task_id=f"shm-attach:{label}",
                    phase=PHASE_KERNEL, slot=handle.lane,
                    start=base + start_rel, end=base + end_rel,
                    bytes_read=amount, label="shm-attach"))


def _pack_block(shm_in, offset: int, shape: tuple[int, int],
                payloads) -> None:
    rows, cols = shape
    block = np.frombuffer(shm_in.buf, dtype=np.float64,
                          count=len(payloads) * rows * cols,
                          offset=offset).reshape(len(payloads), rows, cols)
    for index, payload in enumerate(payloads):
        block[index] = payload


def _layout(shapes) -> tuple[tuple[tuple[int, tuple[int, int]], ...], int]:
    """Assign sequential float64 slots for ``shapes``; returns (slots, total)."""
    slots = []
    offset = 0
    for rows, cols in shapes:
        slots.append((offset, (int(rows), int(cols))))
        offset += rows * cols * 8
    return tuple(slots), offset
