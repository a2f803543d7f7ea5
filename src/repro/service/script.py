"""Deterministic JSON submission scripts for the job service.

A *submission script* captures everything a service run depends on —
cluster, policy, tenants, and the timed job arrivals — as one JSON
document, so a run can be replayed bit-for-bit anywhere:

.. code-block:: json

    {
      "cluster": {"instance": "c1.medium", "nodes": 4, "slots_per_node": 2},
      "policy": "fair",
      "tile_size": 256,
      "tenants": [
        {"name": "acme", "budget_dollars": 40.0, "weight": 2.0},
        {"name": "zeta", "deadline_seconds": 7200}
      ],
      "jobs": [
        {"tenant": "acme", "workload": "gnmf", "scale": "small",
         "submit_at": 0.0},
        {"tenant": "zeta", "workload": "multiply", "scale": "tiny",
         "submit_at": 30.0}
      ]
    }

Workloads are referenced by the same ``(workload, scale)`` names the CLI
uses (:func:`repro.workloads.build_workload`).  :func:`run_script` builds
the service, replays every arrival on the virtual clock, drains it, and
returns the :class:`~repro.service.jobs.ServiceReport`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.evalcache import EvalCache
from repro.errors import ValidationError
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import NULL_RECORDER, TraceRecorder
from repro.service.jobs import JobHandle, JobService, ServiceReport
from repro.service.scheduler import POLICY_FAIR
from repro.workloads.catalog import build_workload

_CLUSTER_KEYS = {"instance", "nodes", "slots_per_node"}
_TENANT_KEYS = {"name", "budget_dollars", "deadline_seconds", "weight"}
_JOB_KEYS = {"tenant", "workload", "scale", "submit_at", "tile_size"}


def _check_keys(entry: dict, allowed: set[str], where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise ValidationError(
            f"unknown {where} key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


def load_script(path: str | Path) -> dict:
    """Read and structurally validate a submission script."""
    raw = json.loads(Path(path).read_text())
    return validate_script(raw)


def validate_script(script: dict) -> dict:
    """Validate a submission script document; returns it unchanged."""
    if not isinstance(script, dict):
        raise ValidationError("submission script must be a JSON object")
    for section in ("cluster", "tenants", "jobs"):
        if section not in script:
            raise ValidationError(f"submission script needs a "
                                  f"{section!r} section")
    _check_keys(script["cluster"], _CLUSTER_KEYS, "cluster")
    names = set()
    for tenant in script["tenants"]:
        _check_keys(tenant, _TENANT_KEYS, "tenant")
        if "name" not in tenant:
            raise ValidationError("every tenant needs a name")
        names.add(tenant["name"])
    for job in script["jobs"]:
        _check_keys(job, _JOB_KEYS, "job")
        for key in ("tenant", "workload"):
            if key not in job:
                raise ValidationError(f"every job needs a {key!r}")
        if job["tenant"] not in names:
            raise ValidationError(
                f"job references unregistered tenant {job['tenant']!r}")
        if float(job.get("submit_at", 0.0)) < 0:
            raise ValidationError(
                f"job submit_at {job['submit_at']} is negative")
    return script


def save_script(script: dict, path: str | Path) -> None:
    """Validate and write a submission script as stable, diffable JSON."""
    validate_script(script)
    Path(path).write_text(json.dumps(script, indent=2, sort_keys=True) + "\n")


def build_service(script: dict,
                  cache: EvalCache | None = None,
                  metrics: MetricsRegistry = NULL_METRICS,
                  recorder: TraceRecorder = NULL_RECORDER,
                  store=None) -> JobService:
    """Construct the :class:`~repro.service.jobs.JobService` a script asks for.

    The service starts empty: :func:`submit_script_jobs` registers the
    tenants and submits the jobs.  ``store`` optionally attaches a
    :class:`~repro.service.durability.DurabilityStore` first, so the whole
    run — tenancy included — lands in the journal.
    """
    validate_script(script)
    cluster = script["cluster"]
    spec = ClusterSpec(
        instance_type=get_instance_type(cluster.get("instance", "m1.large")),
        num_nodes=int(cluster.get("nodes", 4)),
        slots_per_node=int(cluster.get("slots_per_node", 2)),
    )
    service = JobService(
        spec,
        policy=script.get("policy", POLICY_FAIR),
        tile_size=int(script.get("tile_size", 256)),
        cache=cache,
        tune_physical=bool(script.get("tune_physical", True)),
        metrics=metrics,
        recorder=recorder,
    )
    if store is not None:
        service.attach_durability(store)
    return service


def script_job_source(job: dict, index: int) -> dict:
    """The journal provenance for one script job (recovery rebuilds from it)."""
    return {
        "workload": job["workload"],
        "scale": job.get("scale", "tiny"),
        "script_index": index,
    }


def submit_script_jobs(service: JobService, script: dict) -> list[JobHandle]:
    """Register the script's missing tenants and submit its unseen jobs.

    Idempotent: a job whose ``script_index`` the service already holds (a
    recovered journal's) is skipped, and an arrival already in the past
    lands at ``service.now``.  Returns a handle per job submitted.
    """
    validate_script(script)
    for tenant in script["tenants"]:
        if tenant["name"] not in service.tenants:
            service.add_tenant(
                tenant["name"],
                budget_dollars=tenant.get("budget_dollars"),
                deadline_seconds=tenant.get("deadline_seconds"),
                weight=float(tenant.get("weight", 1.0)),
            )
    seen = {record.source.get("script_index")
            for record in service.jobs.values() if record.source}
    handles = []
    for index, job in enumerate(script["jobs"]):
        if index in seen:
            continue
        program, tile = build_workload(job["workload"],
                                       job.get("scale", "tiny"))
        handles.append(service.submit(
            program,
            tenant=job["tenant"],
            submit_at=max(float(job.get("submit_at", 0.0)), service.now),
            tile_size=int(job["tile_size"]) if "tile_size" in job else tile,
            source=script_job_source(job, index),
        ))
    return handles


def run_script(script: dict,
               cache: EvalCache | None = None,
               metrics: MetricsRegistry = NULL_METRICS,
               recorder: TraceRecorder = NULL_RECORDER,
               store=None) -> tuple[ServiceReport, list[JobHandle]]:
    """Replay a submission script to completion.

    Returns the drained service's report plus one handle per job, in
    script order.  Deterministic: the same script always produces the
    same report.  With ``store``, the run is journaled and the journal
    closed at the end (see :mod:`repro.service.durability`).
    """
    service = build_service(script, cache=cache,
                            metrics=metrics, recorder=recorder, store=store)
    handles = submit_script_jobs(service, script)
    service.drain()
    if store is not None:
        service.close_durability()
    return service.report(), handles
