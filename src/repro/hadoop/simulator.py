"""Discrete-event simulation of a Hadoop cluster executing a job DAG.

This is the "simulation" leg of Cumulon's benchmarking + simulation +
modeling + search pipeline: given per-task time predictions from the cost
model, it replays slot-based FIFO scheduling in virtual time and reports when
each job — and the whole program — finishes.  It reproduces the effects that
make cluster sizing non-trivial:

* **waves** — ``ceil(tasks / slots)`` scheduling rounds, with a ragged last
  wave that wastes slot-time;
* **locality** — node-local tasks read from disk, remote ones over the
  network (slower), so replication and placement matter;
* **contention** — task duration grows when several slots on one node share
  its disk bandwidth;
* **per-job overheads and shuffle barriers** — what makes many-small-jobs
  MapReduce plans lose to Cumulon's fused map-only plans;
* **fault tolerance** — failed attempts are retried (up to the failure
  model's ``max_attempts``), and optional *speculative execution* launches
  duplicate attempts of stragglers on idle slots, Hadoop-style;
* **heterogeneous nodes** — per-node slowdown factors model degraded VMs,
  the phenomenon speculation exists to mitigate.

Determinism: task assignment order is fixed (FIFO by job, then task index;
the least busy node, smallest name first) and failures are pure functions of
seeds, so a given input always yields the same timeline.  Task duration is
computed once, at task start, from the node's concurrency at that moment — a
documented simplification that keeps the simulation linear-time.

:class:`ClusterSimulator` holds configuration only.  Each ``run()`` builds a
private run object that owns the slot pool, job states, clock and event
heap, and a table maps each event kind to one handler method.  An attempt in
flight is one record, its task-end event's payload, marked when a twin
finished first (KILLED) or its node died (LOST).
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from repro.cloud.instances import ClusterSpec
from repro.errors import QuorumLostError, SchedulingError, ValidationError
from repro.hadoop.faults import (
    CAUSE_REVOCATION,
    FailureModel,
    NodeFailure,
    NodeFailureModel,
)
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.task import Task, TaskAttempt, TaskKind
from repro.hadoop.timemodel import TaskTimeModel
from repro.hdfs.namenode import NameNode
from repro.observability.cost import CostMeter
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import (
    NULL_RECORDER,
    PHASE_NODE,
    PHASE_REEXEC,
    PHASE_REREPLICATION,
    PHASE_SHUFFLE,
    STATUS_LOST,
    STATUS_REVOKED,
    TraceEvent,
    TraceRecorder,
)

#: Attempt outcomes recorded in the timeline.
SUCCESS = "success"
FAILED = "failed"
KILLED = "killed"  # speculative loser, cancelled mid-flight
LOST = "lost"      # attempt's node died under it; does not count as a retry

#: Scheduling policies.
FIFO = "fifo"
FAIR = "fair"


def dag_fingerprint(dag: JobDag) -> str:
    """Cheap content hash of everything in a DAG that affects simulation.

    Covers job identity/kind/dependencies and each task's declarative work
    and locality preferences — i.e. exactly the simulator's inputs, so two
    DAGs with equal fingerprints simulate identically on any cluster.  The
    hash is memoized on the DAG object (recomputed if jobs were added), so
    repeated candidate evaluations of one compiled plan pay O(1), which is
    what makes :class:`~repro.core.evalcache.EvalCache` keys cheap enough
    to build per candidate.
    """
    cached = getattr(dag, "_fingerprint_memo", None)
    if cached is not None and cached[0] == len(dag):
        return cached[1]
    digest = hashlib.blake2b(digest_size=16)
    for job in dag.topological_order():
        digest.update(f"job:{job.job_id}:{job.kind.value}"
                      f":{','.join(sorted(job.depends_on))}\n".encode())
        for task in job.all_tasks():
            work = task.work
            digest.update(
                f"{task.task_id}:{task.kind.value}:{work.bytes_read}"
                f":{work.bytes_written}:{work.flops}:{work.element_ops}"
                f":{work.tile_ops}:{work.shuffle_bytes}:{work.memory_bytes}"
                f":{','.join(sorted(task.preferred_nodes))}\n".encode())
    fingerprint = digest.hexdigest()
    dag._fingerprint_memo = (len(dag), fingerprint)
    return fingerprint


@dataclass
class JobTimeline:
    """When one job ran, and where its tasks went."""

    job_id: str
    start: float
    end: float
    attempts: list[TaskAttempt] = field(default_factory=list)
    shuffle_seconds: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def locality_fraction(self) -> float:
        """Fraction of successful attempts with a preference that ran local."""
        maps = [a for a in self.attempts
                if a.task.preferred_nodes and a.status == SUCCESS]
        if not maps:
            return 1.0
        return sum(1 for a in maps if a.was_local) / len(maps)

    def attempts_with_status(self, status: str) -> list[TaskAttempt]:
        return [a for a in self.attempts if a.status == status]


@dataclass
class SimulationResult:
    """Full outcome of simulating a job DAG on a cluster."""

    spec: ClusterSpec
    job_timelines: dict[str, JobTimeline]
    makespan: float
    #: Node failures that actually fired during the run, in firing order.
    lost_nodes: list[NodeFailure] = field(default_factory=list)
    #: HDFS bytes copied to restore replication after node losses.
    rereplicated_bytes: int = 0
    #: Completed tasks whose outputs died with a node and were re-executed.
    reexecuted_tasks: int = 0

    def job(self, job_id: str) -> JobTimeline:
        try:
            return self.job_timelines[job_id]
        except KeyError:
            raise ValidationError(f"no timeline for job {job_id!r}") from None

    def count_attempts(self, status: str) -> int:
        return sum(len(t.attempts_with_status(status))
                   for t in self.job_timelines.values())


class _NodeState:
    """Mutable per-node bookkeeping during simulation."""

    __slots__ = ("name", "rank", "slots", "busy", "slow_factor",
                 "free_slots", "alive", "queued")

    def __init__(self, name: str, rank: int, slots: int,
                 slow_factor: float = 1.0):
        self.name = name
        #: Position of ``name`` among the cluster's sorted node names.
        self.rank = rank
        self.slots = slots
        self.busy = 0
        self.slow_factor = slow_factor
        self.alive = True
        #: Min-heap of free slot indices: attempts always take the lowest
        #: free slot, which makes slot assignment (and hence traces)
        #: deterministic.
        self.free_slots = list(range(slots))
        #: Bit ``b`` set = :class:`_SlotPool` holds an entry for this node
        #: in its heap of nodes running ``b`` attempts.
        self.queued = 1


class _SlotPool:
    """Free-slot index: which node does the next attempt go to?

    The least busy live node with a free slot, smallest name first,
    preferring nodes that hold the task's input.  Scanning the cluster for
    it on every assignment was the simulator's hottest loop, so the pool
    keeps the answer up to date instead.  ``free`` counts free slots on
    live nodes, so "is anything free?" is one comparison.  ``levels[b]``
    is a min-heap of the name ranks of nodes running ``b`` attempts, with
    lazy invalidation: an entry is live while its node is alive and still
    at load ``b``, and a node that returns to a load it has an entry for
    reuses it (``_NodeState.queued``), so no heap outgrows the cluster.
    Names order as *strings* (``m1.large-10`` < ``m1.large-2``), hence
    ranks from ``sorted(names)`` and not node indices.
    """

    def __init__(self, names: list[str], slots: int,
                 slow_nodes: dict[str, float]):
        self.nodes = [_NodeState(name, rank, slots,
                                 slow_nodes.get(name, 1.0))
                      for rank, name in enumerate(sorted(names))]
        self.by_name = {node.name: node for node in self.nodes}
        self.free = len(names) * slots
        self.levels: list[list[int]] = [[] for __ in range(slots)]
        self.levels[0] = list(range(len(names)))

    def pick(self, preferred: frozenset[str]) -> _NodeState:
        """The node the next attempt runs on; needs ``free > 0``."""
        best = None
        for name in preferred:
            node = self.by_name.get(name)
            if (node is not None and node.alive and node.busy < node.slots
                    and (best is None or (node.busy, node.rank)
                         < (best.busy, best.rank))):
                best = node
        if best is not None:
            return best
        for busy, heap in enumerate(self.levels):
            while heap:
                node = self.nodes[heap[0]]
                if node.alive and node.busy == busy:
                    return node
                heapq.heappop(heap)
                node.queued &= ~(1 << busy)
        raise SchedulingError("no node has a free slot")

    def acquire(self, node: _NodeState) -> int:
        """Occupy the lowest free slot of ``node``; returns its index."""
        node.busy = busy = node.busy + 1
        self.free -= 1
        if busy < node.slots and not node.queued >> busy & 1:
            node.queued |= 1 << busy
            heapq.heappush(self.levels[busy], node.rank)
        return heapq.heappop(node.free_slots)

    def release(self, node: _NodeState, slot: int) -> None:
        """Free ``slot`` of a live node (a dead node's attempts are
        reconciled at its death, never released)."""
        node.busy = busy = node.busy - 1
        self.free += 1
        heapq.heappush(node.free_slots, slot)
        if not node.queued >> busy & 1:
            node.queued |= 1 << busy
            heapq.heappush(self.levels[busy], node.rank)

    def kill(self, node: _NodeState) -> None:
        """Take ``node`` and its free slots out; its busy slots left the
        count when they were acquired and must not be subtracted again."""
        self.free -= node.slots - node.busy
        node.alive = False


#: Speculate only on attempts running longer than this multiple of the
#: job's average successful attempt (Hadoop's "slower than average" rule).
SPECULATION_THRESHOLD = 1.2


class _InFlight:
    """One attempt holding a slot, from its start to its task-end event.

    It is that event's payload, an entry of the run's ``live`` table and,
    until a twin completes the task, of ``_TaskState.running``.  ``ended``
    is None while it runs on its own clock; KILLED once a twin finished
    first (its event reaps it); LOST once its node died (all was reconciled
    then, so its event is ignored).
    """

    __slots__ = ("attempt", "state", "node", "index", "slot", "ended")

    def __init__(self, attempt: TaskAttempt, state: _JobState,
                 node: _NodeState, index: int, slot: int):
        self.attempt, self.state, self.node = attempt, state, node
        self.index, self.slot, self.ended = index, slot, None


class _TaskState:
    """Per-task progress: attempt counting, completion, speculation."""

    __slots__ = ("task", "next_attempt", "completed", "running", "speculated",
                 "completed_node")

    def __init__(self, task: Task):
        self.task = task
        self.next_attempt = 0
        self.completed = False
        #: In-flight attempts of this task, oldest first.
        self.running: list[_InFlight] = []
        self.speculated = False
        #: Node holding this task's output (map outputs live on local disk
        #: until the shuffle fetches them; node loss invalidates them).
        self.completed_node: str | None = None


class _JobState:
    """Progress of one job through map -> shuffle -> reduce phases."""

    def __init__(self, job: Job):
        self.job = job
        self.pending_maps: deque[Task] = deque(job.map_tasks)
        self.pending_reduces: deque[Task] = deque()
        self.maps_remaining = len(job.map_tasks)
        self.reduces_remaining = len(job.reduce_tasks)
        self.shuffle_done = job.kind is JobKind.MAP_ONLY
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.attempts: list[TaskAttempt] = []
        self.shuffle_seconds = 0.0
        self.task_states: dict[Task, _TaskState] = {
            task: _TaskState(task)
            for task in job.map_tasks + job.reduce_tasks
        }
        #: Running statistics of successful attempt durations.
        self.completed_duration_sum = 0.0
        self.completed_count = 0
        #: Attempts currently occupying a slot (fair scheduling key).
        self.running_attempts = 0
        #: Bumped whenever completed map outputs are invalidated mid-shuffle;
        #: in-flight "shuffle-done" events from an older epoch are stale.
        self.shuffle_epoch = 0

    @property
    def finished(self) -> bool:
        return (self.maps_remaining == 0 and self.reduces_remaining == 0
                and self.shuffle_done)


_RUNNING_ATTEMPTS = attrgetter("running_attempts")


class ClusterSimulator:
    """Simulates FIFO slot scheduling of a :class:`JobDag` on a cluster."""

    def __init__(self, spec: ClusterSpec, time_model: TaskTimeModel,
                 locality_aware: bool = True,
                 failures: FailureModel | None = None,
                 speculative: bool = False,
                 slow_nodes: dict[str, float] | None = None,
                 scheduling: str = FIFO,
                 recorder: TraceRecorder = NULL_RECORDER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 cost_meter: CostMeter | None = None,
                 node_failures: NodeFailureModel | None = None,
                 min_live_nodes: int = 1,
                 namenode: NameNode | None = None):
        if scheduling not in (FIFO, FAIR):
            raise ValidationError(
                f"scheduling must be {FIFO!r} or {FAIR!r}, got {scheduling!r}"
            )
        if min_live_nodes < 1:
            raise ValidationError(
                f"min_live_nodes must be >= 1, got {min_live_nodes}"
            )
        self.spec = spec
        self.time_model = time_model
        self.locality_aware = locality_aware
        self.failures = failures
        self.speculative = speculative
        self.scheduling = scheduling
        self.recorder = recorder
        self.metrics = metrics
        self.cost_meter = cost_meter
        self.node_failures = node_failures
        self.min_live_nodes = min_live_nodes
        self.namenode = namenode
        self.slow_nodes = dict(slow_nodes or {})
        for name, factor in self.slow_nodes.items():
            if factor < 1.0:
                raise ValidationError(
                    f"slow-node factor must be >= 1, got {factor} for {name}"
                )

    def run(self, dag: JobDag) -> SimulationResult:
        if len(dag) == 0:
            return SimulationResult(self.spec, {}, 0.0)
        return _Run(self, dag).simulate()


class _Run:
    """Everything one :meth:`ClusterSimulator.run` changes, and its handlers.

    The simulator holds configuration only.  Each run builds one of these,
    drains its heap of ``(time, sequence, kind, payload)`` events and reads
    the result off it.  ``_HANDLERS`` maps each event kind to one method;
    a handler returns True for a stale event, which changes nothing, so
    the loop neither dispatches nor samples after it.  Every other event
    is followed by one dispatch (docs/architecture.md says why).
    """

    def __init__(self, sim: ClusterSimulator, dag: JobDag):
        self.sim = sim
        self.pool = _SlotPool(sim.spec.node_names(), sim.spec.slots_per_node,
                              sim.slow_nodes)
        self.states = {job.job_id: _JobState(job) for job in dag}
        self.order = [job.job_id for job in dag.topological_order()]
        self.remaining_deps = {job.job_id: set(job.depends_on) for job in dag}
        #: Jobs whose dependencies are satisfied and that have runnable tasks.
        self.runnable: list[str] = []
        self.clock = 0.0
        self.next_spec_check = float("inf")
        self.events: list[tuple[float, int, str, object]] = []
        self.sequence = itertools.count()
        #: Every attempt holding a slot, in start order (dict order), so a
        #: dying node can fail its attempts at once.
        self.live: dict[_InFlight, None] = {}
        self.lost_nodes: list[NodeFailure] = []
        self.rereplicated_bytes = 0
        self.reexecuted_tasks = 0
        self.metrics = sim.metrics
        self.tracing = sim.recorder.enabled
        if sim.node_failures is not None:
            for failure in sim.node_failures.failures(sim.spec.node_names()):
                if failure.node in self.pool.by_name:
                    self._push(failure.at, "node-lost", failure)
        self._activate_ready_jobs()

    def simulate(self) -> SimulationResult:
        events = self.events
        handlers = self._HANDLERS
        metrics = self.metrics
        cost_meter = self.sim.cost_meter
        heap_peak = 0
        while events:
            self.clock, __, kind, payload = heapq.heappop(events)
            if metrics.enabled:
                metrics.inc("sim.events", labels={"kind": kind})
                if len(events) >= heap_peak:
                    heap_peak = len(events) + 1
                    metrics.set_gauge("sim.event_heap_peak", heap_peak)
            if handlers[kind](self, payload):
                continue
            self._dispatch()
            if cost_meter is not None:
                cost_meter.observe(self.clock)
            if metrics.enabled:
                metrics.sample("sim.running_slots",
                               sum(node.busy for node in self.pool.nodes),
                               t=self.clock)
                metrics.sample(
                    "sim.queue_depth",
                    sum(len(state.pending_maps) + len(state.pending_reduces)
                        for state in self.states.values()),
                    t=self.clock)
        return self._result()

    def _result(self) -> SimulationResult:
        unfinished = [job_id for job_id, state in self.states.items()
                      if state.finished_at is None]
        if unfinished:
            raise SchedulingError(
                f"simulation ended with unfinished jobs: {unfinished} "
                "(dependency cycle or starved tasks)")
        timelines = {job_id: JobTimeline(job_id, state.started_at,
                                         state.finished_at, state.attempts,
                                         state.shuffle_seconds)
                     for job_id, state in self.states.items()}
        makespan = max(t.end for t in timelines.values())
        return SimulationResult(self.sim.spec, timelines, makespan,
                                lost_nodes=self.lost_nodes,
                                rereplicated_bytes=self.rereplicated_bytes,
                                reexecuted_tasks=self.reexecuted_tasks)

    def _push(self, time: float, kind: str, payload: object) -> None:
        heapq.heappush(self.events, (time, next(self.sequence), kind, payload))

    def _activate_ready_jobs(self) -> None:
        job_overhead = self.sim.time_model.job_overhead
        for job_id in self.order:
            state = self.states[job_id]
            if not self.remaining_deps[job_id] and state.started_at is None:
                state.started_at = self.clock + job_overhead(state.job)
                # A job with no tasks finishes right after its overhead.
                self._push(state.started_at,
                           "job-ready" if state.job.map_tasks else "job-empty",
                           job_id)

    def _start_attempt(self, state: _JobState, task: Task) -> None:
        task_state = state.task_states[task]
        if task_state.completed:
            return  # a retry queued while a twin ran on, and the twin won
        pool = self.pool
        sim = self.sim
        node = pool.pick(task.preferred_nodes if sim.locality_aware
                         else frozenset())
        index = task_state.next_attempt
        task_state.next_attempt += 1
        slot = pool.acquire(node)
        local = (not task.preferred_nodes
                 or node.name in task.preferred_nodes)
        duration = sim.time_model.task_duration(
            task, sim.spec.instance_type, node.busy, local) * node.slow_factor
        if duration <= 0:
            raise SchedulingError(f"time model returned non-positive duration "
                                  f"{duration} for task {task.task_id}")
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("sim.tasks_started")
            if task.preferred_nodes:
                metrics.inc("sim.locality_local" if local
                            else "sim.locality_remote")
        failures = sim.failures
        fraction = (None if failures is None
                    else failures.failure_fraction(task.task_id, index))
        now = self.clock
        if fraction is not None:
            attempt = TaskAttempt(task, node.name, now,
                                  now + duration * fraction, node.busy, FAILED)
            kind = "task-failed"
        else:
            attempt = TaskAttempt(task, node.name, now, now + duration,
                                  node.busy, SUCCESS)
            kind = "task-done"
        record = _InFlight(attempt, state, node, index, slot)
        task_state.running.append(record)
        state.running_attempts += 1
        self.live[record] = None
        self._push(attempt.end, kind, record)

    def _log_attempt(self, record: _InFlight, attempt: TaskAttempt) -> None:
        """Append how ``record`` ended to its job's timeline, and mirror it
        into the unified trace schema on the attempt's ``node:slot`` lane."""
        record.state.attempts.append(attempt)
        if self.tracing:
            task = attempt.task
            self.sim.recorder.record(TraceEvent(
                job_id=record.state.job.job_id, task_id=task.task_id,
                phase=task.kind.value, slot=f"{attempt.node}:{record.slot}",
                start=attempt.start, end=attempt.end,
                bytes_read=task.work.bytes_read,
                bytes_written=task.work.bytes_written, attempt=record.index,
                status=attempt.status, label=task.label))

    def _end_early(self, record: _InFlight, status: str) -> None:
        """Mark and log the attempt as ended *now* with ``status`` instead
        of at its scheduled end: KILLED (a twin finished first) or LOST (its
        node died)."""
        record.ended = status
        attempt = record.attempt
        self._log_attempt(record, TaskAttempt(
            attempt.task, attempt.node, attempt.start, self.clock,
            attempt.concurrency_at_start, status))

    @staticmethod
    def _requeue(state: _JobState, task_state: _TaskState) -> None:
        """Put an unfinished task back at the tail of its queue."""
        task_state.speculated = False
        if task_state.task.kind is TaskKind.MAP:
            state.pending_maps.append(task_state.task)
        else:
            state.pending_reduces.append(task_state.task)

    def _dispatch(self) -> None:
        """Greedy assignment: fill free slots per the scheduling policy.

        FIFO feeds the earliest-activated job with work until its queue or
        the cluster runs out (earlier jobs monopolize the cluster); FAIR
        gives each slot to the waiting job with the fewest running attempts
        (earliest activated on a tie), equalizing shares across concurrent
        jobs.
        """
        pool = self.pool
        if pool.free:
            states = self.states
            if self.sim.scheduling == FAIR:
                waiting = [state for state in map(states.get, self.runnable)
                           if state.pending_maps or state.pending_reduces]
                while waiting and pool.free:
                    state = min(waiting, key=_RUNNING_ATTEMPTS)
                    queue = state.pending_maps or state.pending_reduces
                    self._start_attempt(state, queue.popleft())
                    if not (state.pending_maps or state.pending_reduces):
                        waiting.remove(state)
            else:
                for job_id in self.runnable:
                    state = states[job_id]
                    queue = state.pending_maps or state.pending_reduces
                    while queue and pool.free:
                        self._start_attempt(state, queue.popleft())
                        if not queue:
                            queue = state.pending_reduces
        if self.sim.speculative:
            self._speculate()

    def _speculate(self) -> None:
        """Duplicate stragglers onto idle slots, Hadoop-style: only attempts
        already running longer than SPECULATION_THRESHOLD times the job's
        average successful attempt qualify.  When a straggler exists but
        has not yet crossed the threshold, a wake-up event is scheduled for
        the moment it will."""
        progress = True
        next_eligible: float | None = None
        while progress:
            progress = False
            if not self.pool.free:
                return
            for job_id in self.runnable:
                state = self.states[job_id]
                if state.pending_maps or state.pending_reduces:
                    continue  # real work first; dispatch handles it
                if state.completed_count == 0:
                    continue  # no baseline to call anything slow yet
                average = state.completed_duration_sum / state.completed_count
                cutoff = SPECULATION_THRESHOLD * average
                candidates = []
                for task_state in state.task_states.values():
                    if (not task_state.running or task_state.completed
                            or task_state.speculated):
                        continue
                    started = task_state.running[0].attempt.start
                    if self.clock - started > cutoff:
                        candidates.append(task_state)
                        continue
                    eligible_at = started + cutoff
                    if next_eligible is None or eligible_at < next_eligible:
                        next_eligible = eligible_at
                if not candidates:
                    continue
                # Longest-running straggler first.
                target = min(candidates,
                             key=lambda ts: ts.running[0].attempt.start)
                target.speculated = True
                if self.metrics.enabled:
                    self.metrics.inc("sim.speculative_launches")
                self._start_attempt(state, target.task)
                progress = True
                break
        if (next_eligible is not None
                and self.clock < next_eligible < self.next_spec_check):
            self.next_spec_check = next_eligible
            self._push(next_eligible + 1e-9, "spec-check", None)

    def _complete_task(self, state: _JobState, attempt: TaskAttempt) -> None:
        task_state = state.task_states[attempt.task]
        task_state.completed = True
        task_state.completed_node = attempt.node
        state.completed_duration_sum += attempt.duration
        state.completed_count += 1
        for twin in task_state.running:
            twin.ended = KILLED
        task_state.running.clear()
        if attempt.task.kind is TaskKind.MAP:
            state.maps_remaining -= 1
            if state.maps_remaining == 0 and not state.shuffle_done:
                self._schedule_shuffle(state)
        else:
            state.reduces_remaining -= 1
        if state.finished:
            self._finish_job(state)

    def _finish_job(self, state: _JobState) -> None:
        state.finished_at = self.clock
        if self.metrics.enabled:
            self.metrics.inc("sim.jobs_completed")
        for deps in self.remaining_deps.values():
            deps.discard(state.job.job_id)
        if state.job.job_id in self.runnable:
            self.runnable.remove(state.job.job_id)
        self._activate_ready_jobs()

    def _schedule_shuffle(self, state: _JobState) -> None:
        sim = self.sim
        bandwidth = sim.spec.num_nodes * sim.spec.instance_type.network_bandwidth
        seconds = sim.time_model.shuffle_duration(state.job, bandwidth)
        state.shuffle_seconds += seconds
        if self.metrics.enabled:
            self.metrics.inc("sim.shuffles")
            self.metrics.inc("sim.shuffle_bytes", state.job.shuffle_bytes)
        if self.tracing:
            sim.recorder.record(TraceEvent(
                job_id=state.job.job_id, task_id=f"{state.job.job_id}:shuffle",
                phase=PHASE_SHUFFLE, slot="", start=self.clock,
                end=self.clock + seconds, bytes_read=state.job.shuffle_bytes,
                bytes_written=state.job.shuffle_bytes))
        self._push(self.clock + seconds, "shuffle-done",
                   (state, state.shuffle_epoch))

    # -- one handler per event kind --------------------------------------------

    def _handle_job_ready(self, job_id: str) -> None:
        self.runnable.append(job_id)

    def _handle_job_empty(self, job_id: str) -> None:
        self._finish_job(self.states[job_id])

    def _handle_task_end(self, record: _InFlight) -> bool | None:
        """An attempt reached its scheduled end.  ``task-done`` or
        ``task-failed`` is the status ``_start_attempt`` gave it."""
        ended = record.ended
        if ended == LOST:
            return True  # reconciled when its node died
        del self.live[record]
        self.pool.release(record.node, record.slot)
        state = record.state
        state.running_attempts -= 1
        metrics = self.metrics
        if ended == KILLED:
            # A twin finished first: this one is killed now, whatever it
            # would have ended as.
            self._end_early(record, KILLED)
            if metrics.enabled:
                metrics.inc("sim.tasks_killed")
            return
        attempt = record.attempt
        task_state = state.task_states[attempt.task]
        task_state.running.remove(record)
        self._log_attempt(record, attempt)
        if attempt.status == SUCCESS:
            if metrics.enabled:
                metrics.inc("sim.tasks_completed")
                work = attempt.task.work
                metrics.inc("sim.bytes_read", work.bytes_read)
                metrics.inc("sim.bytes_written", work.bytes_written)
                metrics.observe("sim.task_seconds", attempt.duration)
            if not task_state.completed:
                self._complete_task(state, attempt)
            return
        if metrics.enabled:
            metrics.inc("sim.task_failures")
        if not task_state.completed:
            max_attempts = self.sim.failures.max_attempts
            if record.index + 1 >= max_attempts:
                raise SchedulingError(
                    f"task {attempt.task.task_id} failed {max_attempts} "
                    f"times; job {state.job.job_id} aborted")
            self._requeue(state, task_state)

    def _handle_spec_check(self, payload: None) -> None:
        self.next_spec_check = float("inf")

    def _handle_shuffle_done(self, payload: tuple) -> bool | None:
        state, epoch = payload
        if epoch != state.shuffle_epoch:
            return True  # map outputs were invalidated since
        state.shuffle_done = True
        state.pending_reduces = deque(state.job.reduce_tasks)
        if state.finished:
            self._finish_job(state)

    def _handle_node_lost(self, failure: NodeFailure) -> bool | None:
        if all(s.finished_at is not None for s in self.states.values()):
            # Work already done: a far-future death must not bill extra
            # virtual time (lost attempts' events may still follow).
            return True
        node = self.pool.by_name[failure.node]
        if not node.alive:
            return True
        self.pool.kill(node)
        self.lost_nodes.append(failure)
        revoked = failure.cause == CAUSE_REVOCATION
        live = sum(1 for n in self.pool.nodes if n.alive)
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("sim.nodes_lost")
            if revoked:
                metrics.inc("sim.revocations")
            metrics.sample("sim.live_nodes", live, t=self.clock)
        if self.tracing:
            self.sim.recorder.record(TraceEvent(
                job_id="cluster", task_id=node.name, phase=PHASE_NODE,
                slot="", start=self.clock, end=self.clock,
                status=STATUS_REVOKED if revoked else STATUS_LOST,
                label=failure.cause))
        if live < self.sim.min_live_nodes:
            raise QuorumLostError(
                f"{node.name} {failure.cause} at t={self.clock:.1f} "
                f"left {live} live node(s), below the quorum of "
                f"{self.sim.min_live_nodes}; run aborted")
        self._fail_attempts_on(node)
        self._invalidate_map_outputs(node)
        self._decommission(node, failure)

    def _fail_attempts_on(self, node: _NodeState) -> None:
        """Node loss, step 1: fail every attempt running on the dead node.
        A lost attempt is the node's fault, not the task's: it is retried
        without counting against max_attempts (Hadoop semantics)."""
        for record in [record for record in self.live if record.node is node]:
            del self.live[record]
            state = record.state
            task_state = state.task_states[record.attempt.task]
            if record.ended is None:  # a KILLED twin already left running
                task_state.running.remove(record)
            node.busy -= 1
            state.running_attempts -= 1
            self._end_early(record, LOST)
            if self.metrics.enabled:
                self.metrics.inc("sim.attempts_lost")
            if not task_state.completed:
                self._requeue(state, task_state)

    def _invalidate_map_outputs(self, node: _NodeState) -> None:
        """Node loss, step 2: completed map outputs parked on the dead
        node's local disk exist nowhere else until the shuffle has fetched
        them, so they must be recomputed."""
        for job_id in self.order:
            state = self.states[job_id]
            if (state.job.kind is not JobKind.MAPREDUCE
                    or state.started_at is None
                    or state.finished_at is not None
                    or state.shuffle_done):
                continue
            invalidated = False
            for task in state.job.map_tasks:
                task_state = state.task_states[task]
                if not (task_state.completed
                        and task_state.completed_node == node.name):
                    continue
                task_state.completed = False
                task_state.completed_node = None
                state.maps_remaining += 1
                self.reexecuted_tasks += 1
                invalidated = True
                if not task_state.running:
                    state.pending_maps.append(task)
                if self.metrics.enabled:
                    self.metrics.inc("sim.reexec_tasks")
                if self.tracing:
                    self.sim.recorder.record(TraceEvent(
                        job_id=state.job.job_id, task_id=task.task_id,
                        phase=PHASE_REEXEC, slot="", start=self.clock,
                        end=self.clock, status=STATUS_LOST,
                        label=f"map output lost with {node.name}"))
            if invalidated:
                # Any in-flight shuffle fetched from the dead node; it must
                # restart once the maps rerun.
                state.shuffle_epoch += 1

    def _decommission(self, node: _NodeState, failure: NodeFailure) -> None:
        """Node loss, step 3 (the HDFS blast radius): decommission the
        datanode and bill the re-replication traffic in virtual time."""
        namenode = self.sim.namenode
        if namenode is None or not namenode.has_datanode(node.name):
            return
        copied = namenode.decommission(node.name)
        metrics = self.metrics
        if copied:
            self.rereplicated_bytes += copied
            seconds = copied / self.sim.spec.instance_type.network_bandwidth
            if metrics.enabled:
                metrics.inc("sim.rereplications")
                metrics.inc("sim.rereplication_bytes", copied)
            if self.tracing:
                self.sim.recorder.record(TraceEvent(
                    job_id="cluster", task_id=f"{node.name}:rereplication",
                    phase=PHASE_REREPLICATION, slot="",
                    start=self.clock, end=self.clock + seconds,
                    bytes_read=copied, bytes_written=copied,
                    label=failure.cause))
        if metrics.enabled:
            metrics.set_gauge("hdfs.under_replicated_blocks",
                              len(namenode.under_replicated()))

    _HANDLERS = {
        "job-ready": _handle_job_ready,
        "job-empty": _handle_job_empty,
        "task-done": _handle_task_end,
        "task-failed": _handle_task_end,
        "spec-check": _handle_spec_check,
        "shuffle-done": _handle_shuffle_done,
        "node-lost": _handle_node_lost,
    }
