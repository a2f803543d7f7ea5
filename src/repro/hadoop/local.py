"""Local executor: really runs a job DAG's tasks.

The same :class:`~repro.hadoop.job.JobDag` the simulator prices can be
*executed* here: each task's ``run`` callable performs its real tile-level
linear algebra against the tile store.  Concurrency mirrors the cluster's
total slot count via a thread pool (numpy releases the GIL in its kernels, so
a pool gives genuine overlap), and job dependencies are honoured.

This path is what the correctness tests and the "actual" side of the
model-accuracy experiment (E4) use.  When given a
:class:`~repro.observability.trace.TraceRecorder` it emits the same
:class:`~repro.observability.trace.TraceEvent` schema the simulator does —
one event per task attempt, tagged with the worker slot that ran it — so a
real run and a simulated run of one DAG are directly diffable.

Failure semantics: the executor fails fast, and the first task error wins.
Queued tasks that have not started yet are cancelled, in-flight tasks are
allowed to drain (Python threads cannot be interrupted), and the failure
propagates as :class:`~repro.errors.ExecutionError` once the pool is
quiescent — never a hang, and the partial trace stays well-formed (the
failed attempt is recorded with ``status="failed"``).  A kernel worker
that dies mid-plan fails the one attempt it was serving and is respawned on
the next acquire.  Nothing is retried here: surviving task failures is
Hadoop's job, and the simulator models it
(:class:`~repro.hadoop.faults.FailureModel`).

Backends: ``backend="thread"`` (the default, and the reference semantics)
runs every task's ``run`` closure on the thread pool.  ``backend="process"``
does the same for tasks that are only closures (fused element-wise lambdas,
test closures), but a phase whose tasks all declare a ``kernel`` — tiled
multiplies, partial-sum adds: arithmetic expressible as a
:class:`~repro.hadoop.kernels.BlockPlan` or ``GridMultPlan`` — is shipped to
a pool of worker processes by *one* feeder loop in the calling thread
(:meth:`LocalExecutor._feed_phase`), which keeps every worker busy through
:meth:`~repro.hadoop.procpool.ProcessDispatcher.send` / ``receive``.  One
blocked thread per worker was measured to cost more than the kernels: two
orchestration threads convoy on the GIL (1,274-1,907 context switches and
134-148 ms per 288-task op, against 286 and 97 ms with one).  The two paths
share what makes the backends differentially testable — one definition of
an attempt (:meth:`LocalExecutor._begin_attempt` / ``_end_attempt``: slot,
metrics, trace event) and one trace schema — so the same tasks give the
same trace and bit-identical tiles.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from multiprocessing import connection

from repro.errors import ExecutionError, ValidationError
from repro.hadoop.job import Job, JobDag
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import (
    NULL_RECORDER,
    STATUS_FAILED,
    STATUS_SUCCESS,
    TraceEvent,
    TraceRecorder,
)


@dataclass
class LocalJobReport:
    """Wall-clock measurements for one executed job."""

    job_id: str
    seconds: float
    num_tasks: int


@dataclass
class LocalRunReport:
    """Wall-clock measurements for one executed job DAG."""

    job_reports: list[LocalJobReport] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(report.seconds for report in self.job_reports)


class _SlotPool:
    """Thread-safe pool of worker-slot indices.

    The executor has at most ``max_workers`` tasks in flight, so acquisition
    never blocks; the min-heap hands out the lowest free index, which keeps
    slot names stable across runs.
    """

    def __init__(self, count: int):
        self._free = list(range(count))
        self._lock = threading.Lock()

    def acquire(self) -> int:
        with self._lock:
            return heapq.heappop(self._free)

    def release(self, slot: int) -> None:
        with self._lock:
            heapq.heappush(self._free, slot)


#: Executor backends: in-process kernels vs. a shared-memory process pool.
BACKEND_THREAD = "thread"
BACKEND_PROCESS = "process"
BACKENDS = (BACKEND_THREAD, BACKEND_PROCESS)


class LocalExecutor:
    """Executes job DAGs with real computation on a thread pool.

    With ``backend="process"``, phases of kernel-declaring tasks are
    shipped to a pool of worker processes over shared memory instead (see
    the module docstring); attempts, failures and traces are identical
    across backends by construction.  The kernel pool is created lazily on
    the first run, kept warm across runs, and torn down by :meth:`close`
    (or automatically at interpreter exit).
    """

    def __init__(self, max_workers: int = 4,
                 recorder: TraceRecorder = NULL_RECORDER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 backend: str = BACKEND_THREAD):
        if max_workers <= 0:
            raise ExecutionError("max_workers must be positive")
        if backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.max_workers = max_workers
        self.recorder = recorder
        self.metrics = metrics
        self.backend = backend
        self._kernel_pool = None

    def kernel_pool(self):
        """The lazily-created process pool (process backend only)."""
        if self.backend != BACKEND_PROCESS:
            return None
        if self._kernel_pool is None:
            from repro.hadoop.procpool import KernelPool
            self._kernel_pool = KernelPool(self.max_workers,
                                           metrics=self.metrics)
        return self._kernel_pool

    def close(self) -> None:
        """Shut down the kernel pool, if one was started."""
        if self._kernel_pool is not None:
            self._kernel_pool.close()
            self._kernel_pool = None

    def run(self, dag: JobDag) -> LocalRunReport:
        """Execute all jobs in dependency order; returns timing report."""
        if self.metrics.enabled:
            self.metrics.inc(f"local.runs.{self.backend}")
        dispatcher = None
        if self.backend == BACKEND_PROCESS:
            from repro.hadoop.procpool import ProcessDispatcher
            dispatcher = ProcessDispatcher(self.kernel_pool(), self.metrics,
                                           recorder=self.recorder)
        report = LocalRunReport()
        finished: set[str] = set()
        slots = _SlotPool(self.max_workers)
        for job in dag.topological_order():
            missing = job.depends_on - finished
            if missing:
                raise ExecutionError(
                    f"job {job.job_id} scheduled before dependencies {missing}"
                )
            report.job_reports.append(self._run_job(job, slots, dispatcher))
            finished.add(job.job_id)
        return report

    def _run_job(self, job: Job, slots: _SlotPool,
                 dispatcher) -> LocalJobReport:
        started = time.perf_counter()
        # Map phase, then (for MapReduce jobs) reduce phase — a real barrier,
        # matching Hadoop semantics.
        self._run_phase(job, job.map_tasks, slots, dispatcher)
        self._run_phase(job, job.reduce_tasks, slots, dispatcher)
        elapsed = time.perf_counter() - started
        if self.metrics.enabled:
            self.metrics.inc("local.jobs_completed")
            self.metrics.observe("local.job_seconds", elapsed)
        return LocalJobReport(job.job_id, elapsed, job.num_tasks)

    def _run_phase(self, job: Job, tasks, slots: _SlotPool,
                   dispatcher) -> None:
        runnable = [task for task in tasks if task.run is not None]
        if not runnable:
            return
        if dispatcher is not None and all(task.kernel is not None
                                          for task in runnable):
            self._feed_phase(job, runnable, slots, dispatcher)
            return
        if self.max_workers == 1 or len(runnable) == 1:
            for task in runnable:
                self._run_attempt(job, task, slots)
            return
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = [pool.submit(self._run_attempt, job, task, slots)
                       for task in runnable]
            # Stop dispatching as soon as anything fails: cancel what has
            # not started, let running tasks drain, raise the first error.
            __, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            for future in not_done:
                future.cancel()
            for future in futures:
                if not future.cancelled():
                    future.result()  # propagate the first failure

    def _feed_phase(self, job: Job, tasks, slots: _SlotPool,
                    dispatcher) -> None:
        """Ship a phase of kernel tasks from this one thread.

        While a worker is idle and a task is pending: open the attempt, do
        the task's reads (``kernel()``), ``send``; then wait on the pipes of
        the plans in flight, ``receive`` (which stores the tiles) and close
        the attempt.  The parent prepares task *n+1* while workers evaluate
        *n* and *n-1*, and no second parent thread exists to contend with.
        A task whose ``kernel()`` declines runs inline, here.  Failure
        semantics are the thread pool's: the first failed task stops new
        sends, plans in flight drain, and that first error is raised.
        """
        pool = dispatcher.pool
        limit = min(self.max_workers, len(tasks))
        pending = tasks[::-1]  # pop() hands them out in phase order
        inflight: dict = {}  # pipe -> (worker handle, attempt, call)
        failure: ExecutionError | None = None

        def settle(entry: _Attempt) -> None:
            nonlocal failure
            error = self._end_attempt(entry, slots)
            if failure is None:
                failure = error

        try:
            while inflight or (pending and failure is None):
                while failure is None and pending and len(inflight) < limit:
                    handle = pool.acquire(wait=not inflight)
                    if handle is None:  # another run holds the idle workers
                        break
                    task = pending.pop()
                    entry = self._begin_attempt(job, task, slots)
                    call = None
                    try:
                        call = task.kernel()
                        if call is None:
                            task.run()
                        else:
                            # acquire() checked the worker before kernel()
                            # did the reads; check it again.
                            pool.revive(handle)
                            dispatcher.send(handle, call)
                    except Exception as exc:
                        entry.error, call = exc, None
                    if call is None:
                        pool.release(handle)
                        settle(entry)
                    else:
                        inflight[handle.conn] = (handle, entry, call)
                if not inflight:  # the phase is done, or failed
                    continue
                wake = min(handle.reply_due
                           for handle, *__ in inflight.values())
                ready = connection.wait(
                    list(inflight), max(0.0, wake - time.monotonic()))
                if not ready:
                    # Overdue replies: receive() replaces the hung worker.
                    now = time.monotonic()
                    ready = [conn for conn, (handle, *__) in inflight.items()
                             if handle.reply_due <= now]
                for conn in ready:
                    handle, entry, call = inflight.pop(conn)
                    try:
                        dispatcher.receive(handle, call)
                    except Exception as exc:
                        entry.error = exc
                    finally:
                        pool.release(handle)
                    settle(entry)
        finally:
            # Empty unless something other than a task failed (an
            # interrupt): a worker left mid-plan must not answer the next
            # run, so it is replaced on its next acquire.
            for handle, *__ in inflight.values():
                handle.process.terminate()
                pool.release(handle)
        if failure is not None:
            raise failure

    def _run_attempt(self, job: Job, task, slots: _SlotPool) -> None:
        """Run one task in this thread; raises its
        :class:`~repro.errors.ExecutionError` if it fails."""
        entry = self._begin_attempt(job, task, slots)
        try:
            task.run()
        except Exception as exc:
            entry.error = exc
        finally:
            error = self._end_attempt(entry, slots)
        if error is not None:
            raise error

    # -- one attempt ------------------------------------------------------------
    #
    # Both orchestrations — a task thread calling ``run`` and the feeder
    # shipping ``kernel`` — bracket the work with this pair, so "an attempt"
    # (slot, ``local.*`` metrics, trace event) has one definition.

    def _begin_attempt(self, job: Job, task,
                       slots: _SlotPool) -> "_Attempt":
        """Take a slot and start the attempt's clocks."""
        metrics = self.metrics
        slot = slots.acquire()
        started_wall = 0.0
        if metrics.enabled:
            inflight = metrics.gauge("local.inflight_tasks")
            inflight.add(1)
            # Series and gauge kinds cannot share a name in one registry.
            metrics.sample("local.inflight_tasks.samples", inflight.value)
            started_wall = metrics.now()
        return _Attempt(
            job, task, slot,
            self.recorder.now() if self.recorder.enabled else 0.0,
            started_wall)

    def _end_attempt(self, entry: "_Attempt",
                     slots: _SlotPool) -> ExecutionError | None:
        """Close an attempt: account it, trace it, free its slot.  Returns
        what failed it, or ``None`` on success."""
        recorder = self.recorder
        metrics = self.metrics
        job, task, error = entry.job, entry.task, entry.error
        if error is not None and not isinstance(error, ExecutionError):
            cause = error
            error = ExecutionError(
                f"task {task.task_id} of job {job.job_id} failed: {cause}")
            error.__cause__ = cause
        status = STATUS_SUCCESS if error is None else STATUS_FAILED
        if metrics.enabled:
            inflight = metrics.gauge("local.inflight_tasks")
            inflight.add(-1)
            metrics.sample("local.inflight_tasks.samples", inflight.value)
            metrics.observe("local.task_seconds",
                            metrics.now() - entry.started_wall)
            if error is None:
                metrics.inc("local.tasks_completed")
                metrics.inc("local.bytes_read", task.work.bytes_read)
                metrics.inc("local.bytes_written", task.work.bytes_written)
            else:
                metrics.inc("local.task_failures")
        if recorder.enabled:
            recorder.record(TraceEvent(
                job_id=job.job_id,
                task_id=task.task_id,
                phase=task.kind.value,
                slot=f"worker:{entry.slot}",
                start=entry.start,
                end=recorder.now(),
                bytes_read=task.work.bytes_read,
                bytes_written=task.work.bytes_written,
                attempt=0,
                status=status,
                label=task.label,
            ))
        slots.release(entry.slot)
        return error


@dataclass(eq=False, slots=True)
class _Attempt:
    """An open attempt, between ``_begin_attempt`` and ``_end_attempt``."""

    job: Job
    task: object
    slot: int
    #: Recorder clock and registry clock at the start.
    start: float
    started_wall: float
    #: What failed the attempt so far (the work, the send or the reply).
    error: BaseException | None = None
