"""The multi-tenant job service: submit / status / result / cancel.

A :class:`JobService` admits many concurrent
:class:`~repro.core.program.Program` submissions onto **one shared
simulated cluster** and replays them on a deterministic virtual-clock
event loop, so any run — schedules, bills, metrics — is reproducible
bit-for-bit from the submission script alone.

Execution model (the *fluid* approximation)
-------------------------------------------
Each admitted job is priced at admission (see
:mod:`repro.service.admission`) into a bucket of **slot-seconds**: its
dedicated-run estimate times its parallelism cap.  Between events the
scheduler (:mod:`repro.service.scheduler`) divides the cluster's slots
among active jobs — FIFO or preemption-free weighted fair queuing — and
each job drains its bucket at its allocated slot rate.  A job's dedicated
runtime therefore matches the optimizer's estimate exactly, while
contention, queueing, and fairness emerge from how allocations shift as
jobs arrive and finish.  Allocations are fractional and never destroy
work (no preemption); only the *rate* changes.

Events — submissions, cancellations, completions — are processed in
virtual-time order with deterministic tie-breaking, and a cluster-wide
:class:`~repro.observability.cost.CostMeter` observes every instant, so
dollars accrue at billing granularity exactly as in the single-program
simulator.  Per-tenant cost attribution divides the metered total in
proportion to consumed slot-seconds (idle and hour-rounding overheads are
spread the same way), so tenant bills always sum to the meter's total.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from array import array
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.pricing import (
    DEFAULT_BILLING,
    BillingModel,
    HourlyBilling,
    PerSecondBilling,
)
from repro.core.benchmarking import HardwareCoefficients
from repro.core.evalcache import EvalCache
from repro.core.executor import CumulonExecutor, ExecutionResult
from repro.core.plans import DeploymentPlan
from repro.core.program import Program
from repro.errors import (
    AdmissionRejectedError,
    JobCancelledError,
    RecoveryError,
    ServiceError,
    UnknownJobError,
    ValidationError,
)
from repro.observability.cost import CostMeter
from repro.observability.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    percentile,
)
from repro.observability.trace import (
    NULL_RECORDER,
    PHASE_JOB,
    STATUS_FAILED,
    STATUS_KILLED,
    STATUS_SUCCESS,
    TraceEvent,
    TraceRecorder,
)
from repro.service.admission import (
    AdmissionController,
    decision_from_doc,
    decision_to_doc,
)
from repro.service.scheduler import (
    EPSILON,
    POLICIES,
    POLICY_FAIR,
    RunQueues,
    SlotRequest,
    jain_fairness,
)
from repro.workloads.catalog import build_workload

#: Job lifecycle states.
STATE_PENDING = "pending"      # submitted, not yet reached by the clock
STATE_RUNNING = "running"      # admitted; queued or draining slot-seconds
STATE_COMPLETED = "completed"
STATE_REJECTED = "rejected"    # admission control turned it away
STATE_CANCELLED = "cancelled"
STATE_FAILED = "failed"        # real execution raised
JOB_STATES = (STATE_PENDING, STATE_RUNNING, STATE_COMPLETED,
              STATE_REJECTED, STATE_CANCELLED, STATE_FAILED)

#: Journal schema version (bumped on incompatible record changes).
#: 2: one ``tick`` per event instant (not per event), digest over the raw
#: allocation doubles.
JOURNAL_VERSION = 2

#: Journal event kinds — *commands* are external inputs replayed verbatim
#: during recovery (:meth:`JobService.replay`); *effects* are what the
#: deterministic event loop derives from them, journaled so replay can be
#: validated record-for-record (see :mod:`repro.service.durability`).
EV_HEADER = "header"          # journal segment header (config + epoch)
EV_TENANT = "tenant"          # command: add_tenant
EV_SUBMIT = "submit"          # command: submit
EV_CANCEL = "cancel"          # command: cancel
EV_ADVANCE = "advance"        # command: run_until(to)
EV_RECOVERED = "recovered"    # marker: a recovery completed here
EV_ADMIT = "admit"            # effect: admission decision (admitted)
EV_REJECT = "reject"          # effect: admission decision (rejected)
EV_START = "start"            # effect: job first allocated slots
EV_COMPLETE = "complete"      # effect: job drained its slot-seconds
EV_FAILED = "failed"          # effect: real execution raised
EV_CANCELLED = "cancelled"    # effect: cancel command took effect
EV_TICK = "tick"              # effect: slot re-allocation digest
COMMAND_EVENTS = frozenset((EV_TENANT, EV_SUBMIT, EV_CANCEL, EV_ADVANCE))
EFFECT_EVENTS = frozenset((EV_ADMIT, EV_REJECT, EV_START, EV_COMPLETE,
                           EV_FAILED, EV_CANCELLED, EV_TICK))

#: Remaining slot-seconds below this count as done (float drift guard).
_WORK_EPSILON = 1e-6

#: Billing models a journal header may name.
_BILLING_BY_NAME = {"hourly": HourlyBilling, "per-second": PerSecondBilling}

#: The :class:`JobRecord` fields a snapshot stores as they are; the
#: program (by name) and the error (as text) are stored beside them.
_SNAPSHOT_JOB_FIELDS = (
    "job_id", "tenant", "submit_at", "order", "state", "tile_size", "source",
    "cancel_requested", "work_slot_seconds", "remaining_slot_seconds",
    "max_slots", "estimated_dollars", "reject_reason", "allocated_slots",
    "started_at", "finished_at", "slot_seconds", "dollars", "missed_deadline")


@dataclass
class Tenant:
    """One paying customer of the service: identity, limits, fair weight."""

    name: str
    #: Total estimated dollars the tenant may commit (None = unlimited).
    budget_dollars: float | None = None
    #: Per-job completion bound relative to submission (None = none).
    deadline_seconds: float | None = None
    #: Fair-share weight (2.0 gets twice the slots of 1.0 under load).
    weight: float = 1.0
    #: Estimated dollars committed by admitted jobs so far.
    committed_dollars: float = 0.0
    #: Slot-seconds actually consumed by this tenant's jobs.
    slot_seconds: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("tenant name must be non-empty")
        for key in ("budget_dollars", "deadline_seconds", "weight"):
            value = getattr(self, key)
            # A NaN limit compares false to everything: it would pass a
            # plain "<= 0" check and then never bind (or never schedule).
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValidationError(
                    f"{key} must be positive and finite, got {value}")

    @property
    def budget_remaining(self) -> float | None:
        """Estimated dollars left to commit (None = unlimited)."""
        if self.budget_dollars is None:
            return None
        return self.budget_dollars - self.committed_dollars


@dataclass(eq=False)
class JobRecord:
    """Everything the service tracks about one submission.

    Records compare by identity: one submission is one record, and the
    event loop looks records up far too often to compare them field by
    field.
    """

    job_id: str
    tenant: str
    program: Program
    submit_at: float
    order: int
    state: str = STATE_PENDING
    inputs: dict[str, np.ndarray] | None = None
    tile_size: int | None = None
    #: Replayable provenance (e.g. ``{"workload": ..., "scale": ...,
    #: "script_index": ...}``) so recovery can rebuild the program; jobs
    #: submitted with in-memory programs only recover a name placeholder.
    source: dict | None = None
    #: Set once a cancel command has been accepted (makes cancel idempotent:
    #: a second cancel journals and enqueues nothing).
    cancel_requested: bool = False
    #: Filled at admission.
    plan: DeploymentPlan | None = None
    work_slot_seconds: float = 0.0
    remaining_slot_seconds: float = 0.0
    max_slots: int = 1
    estimated_dollars: float = 0.0
    reject_reason: str | None = None
    #: The job's standing demand on the scheduler while it runs.
    request: SlotRequest | None = None
    #: Filled while running / at completion.
    allocated_slots: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    slot_seconds: float = 0.0
    dollars: float = 0.0
    missed_deadline: bool = False
    execution: ExecutionResult | None = None
    error: BaseException | None = None

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in (STATE_COMPLETED, STATE_REJECTED,
                              STATE_CANCELLED, STATE_FAILED)


@dataclass(frozen=True)
class JobResult:
    """Immutable digest of a finished job, as returned by handles."""

    job_id: str
    tenant: str
    state: str
    program_name: str
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    plan: DeploymentPlan | None
    work_slot_seconds: float
    max_slots: int
    slot_seconds: float
    estimated_dollars: float
    dollars: float
    missed_deadline: bool
    reject_reason: str | None
    execution: ExecutionResult | None


@dataclass
class RecoveredProgram:
    """Name-only stand-in for a journaled program without provenance.

    Jobs that finished before the crash never need their program again;
    a *pending* submission recovered to one of these will fail at
    admission time — submit with ``source`` provenance (as scripts do)
    to make programs fully recoverable.
    """

    name: str

    @property
    def inputs(self) -> dict:
        return {}


def default_resolver(source: dict | None, name: str):
    """Rebuild a program from journal provenance (or a placeholder)."""
    if source and "workload" in source:
        program, __ = build_workload(source["workload"],
                                     source.get("scale", "tiny"))
        return program
    return RecoveredProgram(name)


class JobHandle:
    """A tenant's view of one submission: status, result, cancel."""

    def __init__(self, service: "JobService", job_id: str):
        self._service = service
        self.job_id = job_id

    @property
    def status(self) -> str:
        """The job's current lifecycle state (one of :data:`JOB_STATES`)."""
        return self._service.status(self.job_id)

    def result(self, wait: bool = True) -> JobResult:
        """The finished job's digest.

        With ``wait`` (the default) the service clock is drained first, so
        this behaves like an ``await``.  Raises
        :class:`~repro.errors.AdmissionRejectedError` /
        :class:`~repro.errors.JobCancelledError` for jobs that never ran,
        re-raises the original executor error for failed jobs, and raises
        :class:`~repro.errors.ServiceError` if the job is still in flight.
        """
        if wait:
            self._service.drain()
        return self._service.result(self.job_id)

    def cancel(self) -> None:
        """Withdraw the job at the service's current virtual time."""
        self._service.cancel(self.job_id)


class JobService:
    """Admits, schedules, and bills many tenants' jobs on one cluster.

    The public surface is ``add_tenant`` / ``submit`` / ``status`` /
    ``result`` / ``cancel`` plus the clock controls ``run_until`` and
    ``drain``.  Everything is driven by the deterministic virtual clock:
    ``submit`` only *enqueues* (optionally in the future via
    ``submit_at``); admission, scheduling, and completion happen when the
    clock is advanced across those instants.

    ``executor`` optionally attaches a real
    :class:`~repro.core.executor.CumulonExecutor`: jobs then actually run
    (producing numpy outputs in the handle's result) at the moment their
    virtual completion fires — this is how
    :class:`~repro.core.session.CumulonSession` rides on the service.
    """

    def __init__(self, spec: ClusterSpec,
                 policy: str = POLICY_FAIR,
                 tile_size: int = 256,
                 coefficients: HardwareCoefficients | None = None,
                 billing: BillingModel | None = None,
                 cache: EvalCache | None = None,
                 tune_physical: bool = True,
                 executor: CumulonExecutor | None = None,
                 metrics: MetricsRegistry = NULL_METRICS,
                 recorder: TraceRecorder = NULL_RECORDER):
        if policy not in POLICIES:
            raise ValidationError(
                f"policy must be one of {POLICIES}, got {policy!r}")
        self.spec = spec
        self.policy = policy
        self.billing = billing if billing is not None else DEFAULT_BILLING
        self.admission = AdmissionController(
            spec, tile_size=tile_size, coefficients=coefficients,
            cache=cache, tune_physical=tune_physical)
        self.executor = executor
        self.metrics = metrics
        self.recorder = recorder
        self.cost_meter = CostMeter(spec, billing=self.billing,
                                    registry=metrics)
        self.tenants: dict[str, Tenant] = {}
        self.jobs: dict[str, JobRecord] = {}
        self._clock = 0.0
        self._events: list[tuple[float, int, str, object]] = []
        #: Next event tie-breaker and next job number.
        self._seq = 0
        self._order = 0
        self._generation = 0
        #: Admitted, unfinished jobs by id, in admission order.
        self._running: dict[str, JobRecord] = {}
        #: The same jobs' slot demands, grouped for the scheduler.
        self._queues = RunQueues(policy, spec.total_slots)
        #: Running jobs whose work is used up, by id; the next completion
        #: event finishes them.
        self._drained: dict[str, JobRecord] = {}
        #: Called with the job id whenever a job reaches a terminal state
        #: (the socket server delivers results from this, not by polling).
        self.on_terminal: Callable[[str], None] | None = None
        # -- durability state (attached by repro.service.durability) -----------
        #: Where records go: the write-ahead journal when durability is
        #: attached, a plain list while recovery replays, else None.
        self.journal = None
        self._store = None
        self._snapshot_every = 0
        #: Journaled admission decisions by job_id; consulted before pricing
        #: so replay re-prices nothing already decided.
        self._replay_decisions: dict[str, object] = {}
        #: Journaled terminal outcomes (state, error message) by job_id so a
        #: replayed completion honors the pre-crash result without re-running
        #: the executor.
        self._replay_outcomes: dict[str, tuple[str, str]] = {}
        #: Admission accounting: fresh pricings vs journal-replayed decisions.
        self.decisions_priced = 0
        self.decisions_replayed = 0
        #: Filled by recover() with a RecoveryStats.
        self.recovery = None

    # -- durability ------------------------------------------------------------

    def attach_durability(self, store, fresh: bool = True) -> None:
        """Journal every event through ``store`` from now on.

        With ``fresh`` (the default) the store opens a new journal segment
        and writes its header; ``recover()`` passes ``fresh=False`` after
        reattaching the replayed journal.  Attach *before* adding tenants
        or submitting, or those commands will not be durable.
        """
        if fresh:
            store.start(self)
        self._store = store
        self.journal = store.journal
        self._snapshot_every = store.snapshot_every

    def close_durability(self) -> None:
        """Flush and close the journal (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    def _jrec(self, kind: str, **fields_) -> None:
        """Journal one record (when a journal is attached)."""
        if self.journal is not None:
            self.journal.append({"ev": kind, **fields_})

    def _maybe_snapshot(self) -> None:
        if (self._store is not None and self._snapshot_every > 0
                and self.journal.records_in_segment >= self._snapshot_every):
            self._store.snapshot(self)

    # -- state: header, snapshot, restore, replay ----------------------------

    def header(self, epoch: int) -> dict:
        """A journal segment header: schema version, epoch, configuration."""
        return {
            "ev": EV_HEADER,
            "version": JOURNAL_VERSION,
            "epoch": epoch,
            "instance": self.spec.instance_type.name,
            "nodes": self.spec.num_nodes,
            "slots_per_node": self.spec.slots_per_node,
            "policy": self.policy,
            "tile_size": self.admission.tile_size,
            "tune_physical": self.admission.tune_physical,
            "billing": self.billing.name,
        }

    def snapshot(self, epoch: int) -> dict:
        """Full JSON-able state at a quiescent point (between events)."""
        jobs = []
        for record in self.jobs.values():
            jdoc = {name: getattr(record, name)
                    for name in _SNAPSHOT_JOB_FIELDS}
            jdoc["program"] = record.program.name
            jdoc["error"] = (str(record.error) if record.error is not None
                             else None)
            jobs.append(jdoc)
        events = []
        for at, seq, kind, payload in sorted(self._events):
            if kind == "complete":
                # Dead (superseded) completions are pruned lazily, on reads
                # of next_event_at: leave them out, so replay snapshots alike.
                if payload == self._generation:
                    events.append({"at": at, "seq": seq, "kind": kind,
                                   "generation": payload})
            else:
                events.append({"at": at, "seq": seq, "kind": kind,
                               "job_id": payload.job_id})
        return {
            "ev": "snapshot",
            "version": JOURNAL_VERSION,
            "epoch": epoch,
            "config": self.header(epoch),
            "clock": self._clock,
            "generation": self._generation,
            "seq_next": self._seq,
            "order_next": self._order,
            "cost_accrued": self.cost_meter.accrued_dollars,
            "cost_last_seconds": self.cost_meter.elapsed_seconds,
            "decisions_priced": self.decisions_priced,
            "decisions_replayed": self.decisions_replayed,
            "tenants": [asdict(tenant) for tenant in self.tenants.values()],
            "jobs": jobs,
            "running": list(self._running),
            "events": events,
        }

    @classmethod
    def restore(cls, doc: dict, *, metrics: MetricsRegistry = NULL_METRICS,
                recorder: TraceRecorder = NULL_RECORDER) -> "JobService":
        """Rebuild a service from a :meth:`snapshot` (or :meth:`header`)."""
        config = doc.get("config", doc)
        try:
            spec = ClusterSpec(get_instance_type(config["instance"]),
                               int(config["nodes"]),
                               int(config["slots_per_node"]))
            billing_cls = _BILLING_BY_NAME.get(config.get("billing",
                                                          "hourly"))
            if billing_cls is None:
                raise RecoveryError(
                    f"unknown billing model {config.get('billing')!r} "
                    f"in journal header")
            service = cls(spec, policy=config["policy"],
                          tile_size=int(config["tile_size"]),
                          billing=billing_cls(),
                          tune_physical=bool(config["tune_physical"]),
                          metrics=metrics, recorder=recorder)
        except (KeyError, TypeError, ValueError) as error:
            raise RecoveryError(
                f"malformed journal header/snapshot config: {error}") from error
        if doc.get("ev") == "snapshot":
            service._load(doc)
        return service

    def _load(self, doc: dict) -> None:
        """Install a snapshot's tenants, jobs, event heap and meters."""
        for tdoc in doc["tenants"]:
            self._install_tenant(Tenant(**tdoc))
        for jdoc in doc["jobs"]:
            record = JobRecord(
                job_id=jdoc["job_id"], tenant=jdoc["tenant"],
                program=default_resolver(jdoc.get("source"), jdoc["program"]),
                submit_at=jdoc["submit_at"], order=jdoc["order"])
            for name in _SNAPSHOT_JOB_FIELDS:
                setattr(record, name, jdoc[name])
            if jdoc.get("error") is not None and record.state == STATE_FAILED:
                record.error = ServiceError(jdoc["error"])
            self.jobs[record.job_id] = record
        for job_id in doc["running"]:
            self._enqueue(self.jobs[job_id])
        events = []
        for edoc in doc["events"]:
            payload = (edoc["generation"] if edoc["kind"] == "complete"
                       else self.jobs[edoc["job_id"]])
            events.append((edoc["at"], edoc["seq"], edoc["kind"], payload))
        heapq.heapify(events)
        self._events = events
        self._clock = doc["clock"]
        self._generation = doc["generation"]
        self._seq = doc["seq_next"]
        self._order = doc["order_next"]
        self.cost_meter.restore(doc["cost_accrued"], doc["cost_last_seconds"])
        self.decisions_priced = doc["decisions_priced"]
        self.decisions_replayed = doc["decisions_replayed"]

    def replay(self, tail: list[dict]) -> tuple[int, list[dict]]:
        """Re-issue a journal tail's commands through the event loop.

        The tail's admission decisions and terminal outcomes are handed
        over first, so replay prices nothing already decided and re-runs
        no finished job.  Returns how many commands were replayed and the
        tail's journaled effects.  What replay regenerates goes to
        :attr:`journal` like any record; recovery attaches a list there
        and compares the two.
        """
        commands, effects = [], []
        for record in tail:
            kind = record.get("ev")
            if kind in COMMAND_EVENTS:
                commands.append(record)
            elif kind in EFFECT_EVENTS:
                effects.append(record)
                if kind in (EV_ADMIT, EV_REJECT):
                    self._replay_decisions[record["job_id"]] = \
                        decision_from_doc(record["decision"])
                elif kind in (EV_COMPLETE, EV_FAILED):
                    self._replay_outcomes[record["job_id"]] = (
                        STATE_FAILED if kind == EV_FAILED else STATE_COMPLETED,
                        record.get("error") or "")
            elif kind not in (EV_HEADER, EV_RECOVERED):
                raise RecoveryError(f"unknown journal record kind {kind!r}")
        for record in commands:
            kind = record["ev"]
            if kind == EV_TENANT:
                self.add_tenant(record["name"],
                                budget_dollars=record["budget_dollars"],
                                deadline_seconds=record["deadline_seconds"],
                                weight=record["weight"])
                continue
            if kind == EV_ADVANCE:
                self.run_until(record["to"])
                continue
            # Catch up to the clock the command was issued at.  Only ever
            # forwards: at the current instant, running the loop would admit
            # a same-instant batch's earlier commands one by one, where the
            # live run admitted the whole batch under one re-allocation.
            if record["clock"] > self._clock:
                self.run_until(record["clock"])
            if kind == EV_CANCEL:
                self.cancel(record["job_id"])
                continue
            handle = self.submit(
                default_resolver(record.get("source"), record["program"]),
                tenant=record["tenant"], submit_at=record["at"],
                tile_size=record["tile_size"], source=record.get("source"))
            if handle.job_id != record["job_id"]:
                raise RecoveryError(
                    f"replay diverged: regenerated job id "
                    f"{handle.job_id} != journaled {record['job_id']}")
        return len(commands), effects

    # -- tenancy ---------------------------------------------------------------

    def add_tenant(self, name: str, budget_dollars: float | None = None,
                   deadline_seconds: float | None = None,
                   weight: float = 1.0) -> Tenant:
        """Register a tenant; returns its mutable accounting record."""
        if name in self.tenants:
            raise ValidationError(f"tenant {name!r} already registered")
        tenant = Tenant(name, budget_dollars=budget_dollars,
                        deadline_seconds=deadline_seconds, weight=weight)
        self._jrec(EV_TENANT, clock=self._clock, name=name,
                   budget_dollars=budget_dollars,
                   deadline_seconds=deadline_seconds, weight=weight)
        self._install_tenant(tenant)
        return tenant

    def _install_tenant(self, tenant: Tenant) -> None:
        self.tenants[tenant.name] = tenant
        self._queues.weights[tenant.name] = tenant.weight

    def tenant(self, name: str) -> Tenant:
        """Look up a registered tenant."""
        try:
            return self.tenants[name]
        except KeyError:
            raise ValidationError(f"unknown tenant {name!r}; register with "
                                  f"add_tenant first") from None

    # -- the public job API ----------------------------------------------------

    @property
    def now(self) -> float:
        """The service's current virtual time, in seconds."""
        return self._clock

    def submit(self, program: Program, tenant: str,
               submit_at: float | None = None,
               inputs: dict[str, np.ndarray] | None = None,
               tile_size: int | None = None,
               source: dict | None = None) -> JobHandle:
        """Enqueue one program for ``tenant``; returns its handle.

        ``submit_at`` schedules the arrival on the virtual clock (default:
        now).  Admission — pricing, budget/deadline checks — happens when
        the clock reaches that instant, interleaved deterministically with
        other tenants' arrivals and completions.  ``source`` optionally
        records JSON-able provenance (workload name/scale) so a durable
        journal can rebuild the program on recovery.
        """
        owner = self.tenant(tenant)
        at = self._clock if submit_at is None else float(submit_at)
        if not math.isfinite(at):
            raise ValidationError(f"submit_at must be finite, got {at}")
        if at < self._clock:
            raise ValidationError(
                f"submit_at {at} is in the past (clock is {self._clock})")
        order = self._order
        self._order += 1
        job_id = f"{owner.name}-j{order:04d}"
        record = JobRecord(job_id=job_id, tenant=owner.name, program=program,
                           submit_at=at, order=order,
                           inputs=inputs, tile_size=tile_size, source=source)
        self._jrec(EV_SUBMIT, clock=self._clock, at=at, job_id=job_id,
                   tenant=owner.name, program=program.name,
                   tile_size=tile_size, source=source)
        self.jobs[job_id] = record
        self._push(at, "submit", record)
        if self.metrics.enabled:
            self.metrics.inc("service.jobs_submitted",
                             labels={"tenant": owner.name})
        self._maybe_snapshot()
        return JobHandle(self, job_id)

    def status(self, job_id: str) -> str:
        """The job's current state (one of :data:`JOB_STATES`)."""
        return self._record(job_id).state

    def result(self, job_id: str) -> JobResult:
        """Digest of a finished job; raises if it cannot produce one."""
        record = self._record(job_id)
        if record.state == STATE_REJECTED:
            raise AdmissionRejectedError(
                f"job {job_id} was rejected at admission "
                f"({record.reject_reason})")
        if record.state == STATE_CANCELLED:
            raise JobCancelledError(f"job {job_id} was cancelled")
        if record.state == STATE_FAILED:
            raise record.error
        if not record.done:
            raise ServiceError(
                f"job {job_id} is still {record.state}; drain() or "
                f"run_until() the service first")
        return self._digest(record)

    def cancel(self, job_id: str) -> None:
        """Withdraw a pending or running job at the current virtual time.

        Idempotent: cancelling a finished job, or one already being
        cancelled, is a no-op (nothing is journaled or enqueued), so a
        cancel-after-complete interleaving replays identically.  Unknown
        ids raise :class:`~repro.errors.UnknownJobError`.
        """
        record = self._record(job_id)
        if record.done or record.cancel_requested:
            return
        record.cancel_requested = True
        self._jrec(EV_CANCEL, clock=self._clock, job_id=job_id)
        self._push(self._clock, "cancel", record)

    # -- the virtual-clock event loop ------------------------------------------

    def run_until(self, limit_seconds: float) -> None:
        """Process every event up to (and at) ``limit_seconds``."""
        if limit_seconds < self._clock:
            raise ValidationError(
                f"cannot run the clock backwards to {limit_seconds} "
                f"(clock is {self._clock})")
        # Journal the *intent* before processing: if we crash mid-window,
        # replay re-runs the whole window (redo semantics) and the journaled
        # effects validate the regenerated prefix.
        self._jrec(EV_ADVANCE, to=limit_seconds)
        events = self._events
        # Whether an event at the current instant changed the run set, so
        # that one re-allocation is owed before the clock moves on.  No
        # virtual time passes between same-instant events, hence no work
        # is drained under the allocations in between: dividing the slots
        # once, after the last of them, yields the same schedule.
        changed = False
        while events and events[0][0] <= limit_seconds:
            at, __, kind, payload = heapq.heappop(events)
            # A completion scheduled by an older allocation is superseded.
            if kind != "complete" or payload == self._generation:
                self._advance_to(at)
                if kind == "submit":
                    self._handle_submit(payload)
                elif kind == "cancel":
                    self._handle_cancel(payload)
                else:
                    self._handle_complete()
                changed = True
            # Checked after every pop, not only after a handled event: the
            # instant's last event may be a superseded completion.
            if changed and not (events and events[0][0] == at):
                self._reschedule()
                changed = False
        self._advance_to(limit_seconds)
        self._maybe_snapshot()

    def drain(self) -> None:
        """Run the clock forward until every enqueued event has fired."""
        while (at := self.next_event_at) is not None:
            self.run_until(at)

    @property
    def next_event_at(self) -> float | None:
        """Virtual time of the earliest event still to fire (None when idle).

        Wall-clock tick drivers use this to sleep precisely until the
        next thing that can happen instead of polling blindly.  Superseded
        completions are dead — :meth:`run_until` skips them without
        touching the clock — so they are dropped here rather than
        reported: where :meth:`drain` stops must not depend on how many
        re-allocations it took to reach the current schedule.
        """
        events = self._events
        while (events and events[0][2] == "complete"
               and events[0][3] != self._generation):
            heapq.heappop(events)
        return events[0][0] if events else None

    # -- internals -------------------------------------------------------------

    def _record(self, job_id: str) -> JobRecord:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job {job_id!r}") from None

    def _push(self, at: float, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (at, self._seq, kind, payload))
        self._seq += 1

    def _advance_to(self, at: float) -> None:
        """Drain running jobs' work across ``[clock, at]``; move the clock."""
        dt = at - self._clock
        if dt > 0:
            tenants = self.tenants
            drained = self._drained
            for record in self._running.values():
                if record.allocated_slots <= EPSILON:
                    continue
                consumed = record.allocated_slots * dt
                record.remaining_slot_seconds -= consumed
                record.slot_seconds += consumed
                tenants[record.tenant].slot_seconds += consumed
                if record.remaining_slot_seconds <= _WORK_EPSILON:
                    drained[record.job_id] = record
            self._clock = at
        self.cost_meter.observe(self._clock)
        if self.metrics.enabled:
            self.metrics.sample(
                "service.running_slots",
                sum(r.allocated_slots for r in self._running.values()),
                t=self._clock)
            self.metrics.sample(
                "service.active_jobs", len(self._running), t=self._clock)

    def _handle_submit(self, record: JobRecord) -> None:
        if record.done:
            return  # cancelled while still pending
        tenant = self.tenants[record.tenant]
        decision = self._replay_decisions.pop(record.job_id, None)
        if decision is None:
            decision = self.admission.decide(
                record.program,
                budget_remaining_dollars=tenant.budget_remaining,
                deadline_seconds=tenant.deadline_seconds,
                tile_size=record.tile_size)
            self.decisions_priced += 1
        else:
            self.decisions_replayed += 1
        if self.journal is not None:
            self._jrec(EV_REJECT if not decision.admitted else EV_ADMIT,
                       clock=self._clock, job_id=record.job_id,
                       decision=decision_to_doc(decision))
        record.plan = decision.plan
        record.work_slot_seconds = decision.work_slot_seconds
        record.remaining_slot_seconds = decision.work_slot_seconds
        record.max_slots = decision.max_slots
        record.estimated_dollars = decision.estimated_dollars
        if not decision.admitted:
            record.state = STATE_REJECTED
            record.reject_reason = decision.reject_reason
            record.finished_at = self._clock
            if self.metrics.enabled:
                self.metrics.inc("service.jobs_rejected",
                                 labels={"tenant": record.tenant,
                                         "reason": decision.reject_reason})
            self._job_done(record, STATUS_FAILED,
                           label=f"rejected:{decision.reject_reason}")
            return
        tenant.committed_dollars += decision.estimated_dollars
        record.state = STATE_RUNNING
        self._enqueue(record)
        if self.metrics.enabled:
            self.metrics.inc("service.jobs_admitted",
                             labels={"tenant": record.tenant})

    def _enqueue(self, record: JobRecord) -> None:
        """Put an admitted job on the run set and the scheduler's queues."""
        record.request = SlotRequest(record.job_id, record.tenant,
                                     float(record.max_slots), record.order)
        self._running[record.job_id] = record
        self._queues.add(record.request)
        # A job restored from a snapshot may already be out of work.
        if record.remaining_slot_seconds <= _WORK_EPSILON:
            self._drained[record.job_id] = record

    def _dequeue(self, record: JobRecord) -> None:
        del self._running[record.job_id]
        self._queues.remove(record.request)
        record.request = None

    def _handle_cancel(self, record: JobRecord) -> None:
        if record.done:
            return
        if record.job_id in self._running:
            self._dequeue(record)
        tenant = self.tenants[record.tenant]
        # Release the unspent part of the admission commitment.
        rate = self.admission.slot_second_rate
        unspent = max(0.0, record.remaining_slot_seconds) * rate
        tenant.committed_dollars = max(
            0.0, tenant.committed_dollars - unspent)
        record.state = STATE_CANCELLED
        record.finished_at = self._clock
        record.dollars = record.slot_seconds * rate
        if self.journal is not None:
            self._jrec(EV_CANCELLED, clock=self._clock,
                       job_id=record.job_id,
                       slot_seconds=record.slot_seconds,
                       dollars=record.dollars)
        if self.metrics.enabled:
            self.metrics.inc("service.jobs_cancelled",
                             labels={"tenant": record.tenant})
        self._job_done(record, STATUS_KILLED, label="cancelled")

    def _handle_complete(self) -> None:
        # Submission order, whichever clock advance each job drained in.
        finished = sorted((record for record in self._drained.values()
                           if not record.done),  # cancelled since
                          key=lambda record: record.order)
        self._drained.clear()
        for record in finished:
            self._dequeue(record)
            self._finish(record)

    def _finish(self, record: JobRecord) -> None:
        record.finished_at = self._clock
        record.remaining_slot_seconds = 0.0
        record.dollars = record.slot_seconds * self.admission.slot_second_rate
        tenant = self.tenants[record.tenant]
        latency = record.finished_at - record.submit_at
        if tenant.deadline_seconds is not None \
                and latency > tenant.deadline_seconds:
            record.missed_deadline = True
        status = STATUS_SUCCESS
        outcome = self._replay_outcomes.pop(record.job_id, None)
        if outcome is not None:
            # The pre-crash run already decided this job's fate: honor the
            # journaled outcome rather than re-running the executor (whose
            # in-memory output did not survive the crash).
            state, message = outcome
            if state == STATE_FAILED:
                record.state = STATE_FAILED
                record.error = ServiceError(message)
                status = STATUS_FAILED
        elif self.executor is not None:
            try:
                record.execution = self.executor.run(record.program,
                                                     record.inputs)
            except Exception as error:  # surfaced via result()
                record.state = STATE_FAILED
                record.error = error
                status = STATUS_FAILED
        if record.state != STATE_FAILED:
            record.state = STATE_COMPLETED
        if self.journal is not None:
            failed = record.state == STATE_FAILED
            self._jrec(EV_FAILED if failed else EV_COMPLETE,
                       clock=self._clock, job_id=record.job_id,
                       slot_seconds=record.slot_seconds,
                       dollars=record.dollars,
                       missed_deadline=record.missed_deadline,
                       error=str(record.error) if failed else None)
        if self.metrics.enabled:
            labels = {"tenant": record.tenant}
            name = ("service.jobs_completed"
                    if record.state == STATE_COMPLETED
                    else "service.jobs_failed")
            self.metrics.inc(name, labels=labels)
            self.metrics.observe("service.job_latency_seconds", latency,
                                 labels=labels)
            if record.missed_deadline:
                self.metrics.inc("service.deadline_misses", labels=labels)
        self._job_done(record, status)

    def _job_done(self, record: JobRecord, status: str,
                  label: str = "") -> None:
        """Announce a job's terminal state: listener, then trace event."""
        if self.on_terminal is not None:
            self.on_terminal(record.job_id)
        if not self.recorder.enabled:
            return
        start = (record.started_at if record.started_at is not None
                 else record.submit_at)
        self.recorder.record(TraceEvent(
            job_id=record.job_id,
            task_id=record.program.name,
            phase=PHASE_JOB,
            slot=f"tenant:{record.tenant}",
            start=start,
            end=self._clock,
            status=status,
            label=label or f"tenant={record.tenant}",
        ))

    def _reschedule(self) -> None:
        """Re-divide the cluster's slots and schedule the next completion."""
        allocation = self._queues.allocate()
        self._generation += 1
        clock = self._clock
        journaling = self.journal is not None
        queued = 0
        next_finish: float | None = None
        for record in self._running.values():
            allocated = allocation[record.job_id]
            record.allocated_slots = allocated
            if allocated > EPSILON:
                if record.started_at is None:
                    record.started_at = clock
                    if journaling:
                        self._jrec(EV_START, clock=clock,
                                   job_id=record.job_id)
                finish = clock + record.remaining_slot_seconds / allocated
                if next_finish is None or finish < next_finish:
                    next_finish = finish
            else:
                queued += 1
        if next_finish is not None:
            self._push(max(next_finish, clock), "complete",
                       self._generation)
        if journaling:
            # Which jobs run is pinned record by record (admit, complete,
            # cancelled); the digest adds how the slots were divided among
            # them: the raw doubles, in the scheduler's priority order.
            self._jrec(EV_TICK, clock=clock, running=len(allocation),
                       alloc=hashlib.sha256(
                           array("d", allocation.values()).tobytes()
                       ).hexdigest()[:12])
        if self.metrics.enabled:
            self.metrics.inc("service.reschedules")
            self.metrics.sample("service.queue_depth", queued, t=clock)

    def _digest(self, record: JobRecord) -> JobResult:
        return JobResult(
            job_id=record.job_id,
            tenant=record.tenant,
            state=record.state,
            program_name=record.program.name,
            submitted_at=record.submit_at,
            started_at=record.started_at,
            finished_at=record.finished_at,
            plan=record.plan,
            work_slot_seconds=record.work_slot_seconds,
            max_slots=record.max_slots,
            slot_seconds=record.slot_seconds,
            estimated_dollars=record.estimated_dollars,
            dollars=record.dollars,
            missed_deadline=record.missed_deadline,
            reject_reason=record.reject_reason,
            execution=record.execution,
        )

    # -- reporting -------------------------------------------------------------

    def report(self) -> "ServiceReport":
        """Snapshot the service's per-tenant and cluster-wide accounting.

        Meaningful any time, but most useful after :meth:`drain`.  The
        metered total comes from the cluster-wide cost meter; per-tenant
        dollars divide it in proportion to consumed slot-seconds, so they
        sum to the total exactly (idle capacity and billing rounding are
        spread pro rata).
        """
        total_dollars = self.cost_meter.accrued_dollars
        used = {name: tenant.slot_seconds
                for name, tenant in self.tenants.items()}
        total_used = sum(used.values())
        by_tenant: dict[str, list[JobRecord]] = {
            name: [] for name in self.tenants}
        for record in self.jobs.values():
            by_tenant[record.tenant].append(record)
        tenants = []
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            records = by_tenant[name]
            latencies = [record.finished_at - record.submit_at
                         for record in records
                         if record.state == STATE_COMPLETED]
            share = (used[name] / total_used) if total_used > 0 else 0.0
            tenants.append(TenantReport(
                name=name,
                weight=tenant.weight,
                submitted=len(records),
                completed=sum(1 for r in records
                              if r.state == STATE_COMPLETED),
                rejected=sum(1 for r in records
                             if r.state == STATE_REJECTED),
                cancelled=sum(1 for r in records
                              if r.state == STATE_CANCELLED),
                failed=sum(1 for r in records if r.state == STATE_FAILED),
                deadline_misses=sum(1 for r in records if r.missed_deadline),
                slot_seconds=tenant.slot_seconds,
                committed_dollars=tenant.committed_dollars,
                dollars=share * total_dollars,
                mean_latency_seconds=(sum(latencies) / len(latencies)
                                      if latencies else 0.0),
                p50_latency_seconds=(percentile(latencies, 0.50)
                                     if latencies else 0.0),
                p95_latency_seconds=(percentile(latencies, 0.95)
                                     if latencies else 0.0),
            ))
        completed = sum(t.completed for t in tenants)
        fairness = jain_fairness([
            tenant.slot_seconds / tenant.weight
            for tenant in self.tenants.values() if tenant.slot_seconds > 0
        ])
        makespan = self._clock
        throughput = (completed / (makespan / 3600.0)
                      if makespan > 0 else 0.0)
        return ServiceReport(
            policy=self.policy,
            cluster=self.spec.describe(),
            makespan_seconds=makespan,
            total_dollars=total_dollars,
            throughput_jobs_per_hour=throughput,
            fairness_index=fairness,
            tenants=tenants,
        )


@dataclass(frozen=True)
class TenantReport:
    """One tenant's share of a service run."""

    name: str
    weight: float
    submitted: int
    completed: int
    rejected: int
    cancelled: int
    failed: int
    deadline_misses: int
    slot_seconds: float
    committed_dollars: float
    #: Share of the metered cluster total (sums to it across tenants).
    dollars: float
    mean_latency_seconds: float
    p50_latency_seconds: float
    p95_latency_seconds: float


@dataclass(frozen=True)
class ServiceReport:
    """Cluster-wide digest of a service run, JSON-able via :meth:`summary`."""

    policy: str
    cluster: str
    makespan_seconds: float
    total_dollars: float
    throughput_jobs_per_hour: float
    fairness_index: float
    tenants: list[TenantReport] = field(default_factory=list)

    def tenant(self, name: str) -> TenantReport:
        """Look up one tenant's slice of the report."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise ValidationError(f"no tenant {name!r} in this report")

    def summary(self) -> dict:
        """JSON-able dump of the whole report."""
        return asdict(self)

    def describe(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"job service [{self.policy}] on {self.cluster}:",
            f"  makespan {self.makespan_seconds:.0f}s, "
            f"${self.total_dollars:.2f} metered, "
            f"{self.throughput_jobs_per_hour:.1f} jobs/h, "
            f"fairness {self.fairness_index:.3f}",
        ]
        for tenant in self.tenants:
            lines.append(
                f"  {tenant.name} (w={tenant.weight:g}): "
                f"{tenant.completed}/{tenant.submitted} done, "
                f"{tenant.rejected} rejected, "
                f"p50 {tenant.p50_latency_seconds:.0f}s / "
                f"p95 {tenant.p95_latency_seconds:.0f}s, "
                f"${tenant.dollars:.2f}"
                + (f", {tenant.deadline_misses} deadline miss(es)"
                   if tenant.deadline_misses else ""))
        return "\n".join(lines)
