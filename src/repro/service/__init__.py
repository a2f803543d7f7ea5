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

The load generator and the SIGKILL chaos harness that measure all this
are benchmark rigs, not part of the package: ``benchmarks/rigs.py``,
driven by benchmarks E25 and E26.
"""
