"""repro.service: a multi-tenant job service over one shared cluster.

Cumulon's pitch is end-to-end — users *deploy* whole analysis programs
under time/budget constraints — but a single :class:`~repro.core.session.
CumulonSession` runs one program at a time against a private cluster.
This package adds the missing serving layer:

* :class:`~repro.service.jobs.JobService` — submit/status/result/cancel
  for many concurrent :class:`~repro.core.program.Program` submissions,
  replayed on a deterministic virtual-clock event loop;
* per-tenant **admission control** (:mod:`repro.service.admission`) —
  every job is priced at admission with the shared
  :class:`~repro.core.optimizer.DeploymentOptimizer` eval-cache, and jobs
  that would blow their tenant's budget are rejected up front;
* **fair-share slot scheduling** (:mod:`repro.service.scheduler`) —
  preemption-free weighted fair queuing across tenants on the shared
  cluster, with per-tenant metrics and dollar attribution via
  :class:`~repro.observability.cost.CostMeter`;
* **submission scripts** (:mod:`repro.service.script`) — JSON documents
  the ``repro serve`` / ``repro submit`` CLI pair round-trips, so a whole
  multi-tenant workload replays bit-identically from one file (and the
  idempotent ``submit_script_jobs`` finishes a recovered run);
* a **durable control plane** (:mod:`repro.service.durability`) — a
  write-ahead journal + snapshot compaction that makes the whole service
  crash-safe: ``recover()`` replays the journal into the exact in-memory
  state (schedules, bills, admission decisions — zero re-pricings), and
  :func:`~repro.service.durability.audit_journal` recounts a journal
  independently of the service that wrote it (both read it via
  ``read_store``);
* a **wall-clock socket server** (:mod:`repro.service.server`) — ``repro
  serve --listen`` accepts streaming NDJSON submissions
  (:mod:`repro.service.protocol`), batches admission per scheduler tick
  (:mod:`repro.service.ticks`), and group-commits each batch to the
  journal before acking.

The test rigs live in :mod:`repro.service.loadgen` and are not exported
here: the load generator (``repro loadtest``, benchmark E26) and the one
SIGKILL chaos harness, ``kill_and_recover`` (``repro chaos --scenario
service-kill``, benchmarks E25 and E26).
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    REJECT_BUDGET,
    REJECT_DEADLINE,
    decision_from_doc,
    decision_to_doc,
    plan_digest,
    plan_from_doc,
    plan_to_doc,
)
from repro.service.durability import (
    DurabilityStore,
    Journal,
    JournalAudit,
    JournalScan,
    RecoveryStats,
    audit_journal,
    read_journal,
    recover,
    report_digest,
    scan_journal,
    schedule_digest,
)
from repro.service.jobs import (
    JOB_STATES,
    JobHandle,
    JobRecord,
    JobResult,
    JobService,
    ServiceReport,
    Tenant,
    TenantReport,
    STATE_CANCELLED,
    STATE_COMPLETED,
    STATE_FAILED,
    STATE_PENDING,
    STATE_REJECTED,
    STATE_RUNNING,
)
from repro.service.scheduler import (
    POLICIES,
    POLICY_FAIR,
    POLICY_FIFO,
    SlotRequest,
    allocate_slots,
    jain_fairness,
    weighted_shares,
)
from repro.service.script import (
    build_service,
    load_script,
    run_script,
    save_script,
    submit_script_jobs,
    validate_script,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.service.server import ReproServer, parse_listen
from repro.service.ticks import VirtualClockDriver, WallClockDriver

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DurabilityStore",
    "JOB_STATES",
    "Journal",
    "JournalScan",
    "RecoveryStats",
    "JobHandle",
    "JobRecord",
    "JobResult",
    "JobService",
    "JournalAudit",
    "MAX_FRAME_BYTES",
    "POLICIES",
    "POLICY_FAIR",
    "POLICY_FIFO",
    "REJECT_BUDGET",
    "REJECT_DEADLINE",
    "STATE_CANCELLED",
    "STATE_COMPLETED",
    "STATE_FAILED",
    "STATE_PENDING",
    "STATE_REJECTED",
    "STATE_RUNNING",
    "ProtocolError",
    "ReproServer",
    "ServiceReport",
    "SlotRequest",
    "Tenant",
    "TenantReport",
    "VirtualClockDriver",
    "WallClockDriver",
    "allocate_slots",
    "audit_journal",
    "build_service",
    "decision_from_doc",
    "decision_to_doc",
    "decode_frame",
    "encode_frame",
    "jain_fairness",
    "load_script",
    "parse_listen",
    "plan_digest",
    "plan_from_doc",
    "plan_to_doc",
    "read_journal",
    "recover",
    "report_digest",
    "run_script",
    "save_script",
    "scan_journal",
    "schedule_digest",
    "submit_script_jobs",
    "validate_script",
    "weighted_shares",
]
