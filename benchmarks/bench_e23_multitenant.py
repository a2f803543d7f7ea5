"""E23 — Multi-tenant job service: fair-share vs FIFO under bursty load.

Two tenants share one simulated cluster: a *heavy* tenant submitting
bursts of GNMF iterations and a *light* tenant trickling in small
multiplies.  Under FIFO the heavy bursts monopolise the slots and the
light tenant's tail latency explodes; under preemption-free weighted
fair sharing the light tenant keeps its share and its p95 collapses,
while throughput stays in the same ballpark.  The run is fully
deterministic (virtual clock), and the per-tenant bills are an exact
partition of the cluster's metered cost.
"""

import json
import os

from repro.observability.metrics import MetricsRegistry
from repro.service.scheduler import jain_fairness
from repro.service.script import run_script, validate_script

from benchmarks.common import Table, report

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
HEAVY_JOBS = 8 if TINY else 35
LIGHT_JOBS = 4 if TINY else 15
BURST = 4 if TINY else 5          # heavy jobs per burst
BURST_GAP_S = 120.0               # bursts arrive on this cadence
LIGHT_GAP_S = 40.0                # light jobs trickle on this cadence


def make_script(policy):
    jobs = []
    for index in range(HEAVY_JOBS):
        jobs.append({"tenant": "heavy", "workload": "gnmf", "scale": "tiny",
                     "submit_at": (index // BURST) * BURST_GAP_S})
    for index in range(LIGHT_JOBS):
        jobs.append({"tenant": "light", "workload": "multiply",
                     "scale": "tiny",
                     "submit_at": 15.0 + index * LIGHT_GAP_S})
    return validate_script({
        "cluster": {"instance": "m1.large", "nodes": 4, "slots_per_node": 2},
        "policy": policy,
        "tile_size": 256,
        "tenants": [
            {"name": "heavy", "weight": 1.0},
            {"name": "light", "weight": 1.0},
        ],
        "jobs": jobs,
    })


def run_policy(policy):
    registry = MetricsRegistry()
    service_report, handles = run_script(make_script(policy),
                                         metrics=registry, workers=0)
    return service_report, handles, registry


def build_series():
    results = {}
    registry = None
    for policy in ("fifo", "fair"):
        results[policy], __, registry = run_policy(policy)
    # Determinism: replaying the fair script reproduces the report exactly.
    replay, __, __ = run_policy("fair")
    identical = (json.dumps(results["fair"].summary(), sort_keys=True)
                 == json.dumps(replay.summary(), sort_keys=True))
    rows = []
    for policy in ("fifo", "fair"):
        service_report = results[policy]
        for tenant in service_report.tenants:
            rows.append([
                policy, tenant.name, tenant.completed,
                tenant.p50_latency_seconds, tenant.p95_latency_seconds,
                tenant.dollars,
            ])
        rows.append([policy, "(cluster)",
                     service_report.throughput_jobs_per_hour,
                     service_report.makespan_seconds,
                     service_report.fairness_index,
                     service_report.total_dollars])
    return results, rows, identical, registry


def test_e23_multitenant(benchmark):
    results, rows, identical, registry = benchmark.pedantic(
        build_series, rounds=1, iterations=1)
    fifo, fair = results["fifo"], results["fair"]
    report(Table(
        experiment="E23",
        title="Fair-share vs FIFO on a shared cluster "
              f"({HEAVY_JOBS}+{LIGHT_JOBS} jobs)",
        headers=["policy", "tenant", "completed", "p50_s", "p95_s",
                 "dollars"],
        rows=rows,
    ), registry=registry,
        summary={
            "fair_light_p95_seconds":
                round(fair.tenant("light").p95_latency_seconds, 4),
            "fifo_light_p95_seconds":
                round(fifo.tenant("light").p95_latency_seconds, 4),
            "fair_fairness_index": round(fair.fairness_index, 6),
            "fair_makespan_seconds": round(fair.makespan_seconds, 4),
            "fair_total_dollars": round(fair.total_dollars, 6),
        },
        params={"tiny": TINY, "heavy_jobs": HEAVY_JOBS,
                "light_jobs": LIGHT_JOBS, "burst": BURST})
    # Every job completes under both policies (no starvation, no rejects).
    for service_report in (fifo, fair):
        for tenant in service_report.tenants:
            assert tenant.completed == tenant.submitted
    # Deterministic replay: same script, same report, bit for bit.
    assert identical
    # Fair sharing protects the light tenant's tail latency.
    assert (fair.tenant("light").p95_latency_seconds
            < fifo.tenant("light").p95_latency_seconds)
    # Cross-tenant work-share fairness: when every job completes, both
    # policies deliver the same cumulative slot-seconds, so the index
    # converges — fair sharing must never make it worse.
    assert fair.fairness_index >= fifo.fairness_index - 1e-9
    assert 0.0 < fair.fairness_index <= 1.0
    assert jain_fairness([1.0, 1.0]) == 1.0
    # Per-tenant bills are an exact partition of the metered total.
    for service_report in (fifo, fair):
        attributed = sum(t.dollars for t in service_report.tenants)
        assert abs(attributed - service_report.total_dollars) < 1e-6
