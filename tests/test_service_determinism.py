"""Concurrency/determinism guarantees of the job service.

The contract: the same submission script produces bit-identical
schedules, per-tenant bills, and metrics snapshots across repeated runs.
"""

import json

from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import SOURCE_SIMULATED, InMemoryRecorder
from repro.service.script import run_script, validate_script

SCRIPT = {
    "cluster": {"instance": "c1.medium", "nodes": 4, "slots_per_node": 2},
    "policy": "fair",
    "tile_size": 256,
    "tenants": [
        {"name": "acme", "budget_dollars": 50.0, "weight": 2.0},
        {"name": "zeta", "weight": 1.0},
        {"name": "iota", "budget_dollars": 0.001},
    ],
    "jobs": [
        {"tenant": "acme", "workload": "multiply", "scale": "tiny",
         "submit_at": 0.0},
        {"tenant": "zeta", "workload": "gnmf", "scale": "tiny",
         "submit_at": 2.0},
        {"tenant": "acme", "workload": "multiply", "scale": "tiny",
         "submit_at": 4.0},
        {"tenant": "iota", "workload": "gnmf", "scale": "tiny",
         "submit_at": 5.0},
        {"tenant": "zeta", "workload": "multiply", "scale": "tiny",
         "submit_at": 6.0},
    ],
}


def run_once(metrics=None, recorder=None):
    extra = {}
    if metrics is not None:
        extra["metrics"] = metrics
    if recorder is not None:
        extra["recorder"] = recorder
    report, handles = run_script(validate_script(dict(SCRIPT)), **extra)
    schedule = [(handle.job_id, handle.status) for handle in handles]
    return report, schedule


def canonical(report):
    return json.dumps(report.summary(), sort_keys=True)


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first, schedule_a = run_once()
        second, schedule_b = run_once()
        assert canonical(first) == canonical(second)
        assert schedule_a == schedule_b

    def test_metrics_snapshots_identical(self):
        snapshots = []
        for __ in range(2):
            registry = MetricsRegistry()
            run_once(metrics=registry)
            snapshots.append(json.dumps(registry.snapshot(),
                                        sort_keys=True, default=str))
        assert snapshots[0] == snapshots[1]

    def test_trace_identical_across_runs(self):
        traces = []
        for __ in range(2):
            recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
            run_once(recorder=recorder)
            traces.append([
                (e.job_id, e.phase, e.slot, e.start, e.end, e.status)
                for e in recorder.trace()
            ])
        assert traces[0] == traces[1]
        assert traces[0], "service should have recorded job events"

    def test_per_tenant_bills_reproducible(self):
        first, __ = run_once()
        second, __ = run_once()
        for tenant_a, tenant_b in zip(first.tenants, second.tenants):
            assert tenant_a.dollars == tenant_b.dollars
            assert tenant_a.slot_seconds == tenant_b.slot_seconds

    def test_budget_limited_tenant_rejected_deterministically(self):
        report, schedule = run_once()
        iota = report.tenant("iota")
        assert iota.rejected == 1
        assert dict(schedule)["iota-j0003"] == "rejected"
