"""E25 — Durable control plane: journal overhead and kill-and-recover.

The E23 burst script replays twice: once plain, once with the
write-ahead journal attached (fsync batching at the ``repro serve``
default).  The wall-clock delta is the journal's end-to-end overhead —
the acceptance bar is low single-digit percent on this burst.  Then the
same script runs in a subprocess with the deterministic crash hook
armed: the process dies by real SIGKILL once the last admission
decision is durable, :func:`~repro.service.durability.recover` replays
the journal, the lost arrivals are resubmitted, and the drained outcome
must match an uninterrupted run byte-for-byte — same bills, same
schedule, zero lost jobs, zero double-billed jobs, and **zero
re-pricings** (every decision comes back from the journal, not the
optimizer).
"""

import os
import tempfile
import time

from repro.observability.metrics import MetricsRegistry
from repro.service.durability import DurabilityStore
from repro.service.script import run_script, validate_script

from benchmarks.common import Table, report
from benchmarks.rigs import kill_and_recover

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
HEAVY_JOBS = 6 if TINY else 20
LIGHT_JOBS = 3 if TINY else 10
BURST = 3 if TINY else 5          # heavy jobs per burst
BURST_GAP_S = 120.0
LIGHT_GAP_S = 40.0
REPS = 3                          # best-of-N wall for each mode
FSYNC_EVERY = 32                  # the `repro serve` default batching


def make_script():
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
        "policy": "fair",
        "tile_size": 256,
        "tenants": [
            {"name": "heavy", "weight": 1.0},
            {"name": "light", "weight": 1.0},
        ],
        "jobs": jobs,
    })


def timed_run(script, journaled, workdir):
    """One scripted run; returns (wall_seconds, journal_stats or None)."""
    store = None
    if journaled:
        store = DurabilityStore(os.path.join(workdir, "state"),
                                fsync_every=FSYNC_EVERY)
    start = time.perf_counter()
    service_report, __ = run_script(script, store=store)
    wall = time.perf_counter() - start
    return wall, service_report


def best_wall(script, journaled):
    """Best-of-REPS wall clock (best-of suppresses scheduler noise)."""
    walls = []
    last_report = None
    for __ in range(REPS):
        with tempfile.TemporaryDirectory() as workdir:
            wall, last_report = timed_run(script, journaled, workdir)
        walls.append(wall)
    return min(walls), last_report


def last_decision_record(directory):
    """1-based index of the last durable admission decision record."""
    from repro.service.durability import DurabilityStore as Store
    from repro.service.durability import read_journal
    records = read_journal(os.path.join(directory, Store.JOURNAL_NAME))
    last = 0
    for index, record in enumerate(records, 1):
        if record.get("ev") in ("admit", "reject"):
            last = index
    return last, len(records)


def build_series():
    script = make_script()
    registry = MetricsRegistry()

    plain_wall, plain_report = best_wall(script, journaled=False)
    journal_wall, journal_report = best_wall(script, journaled=True)
    overhead_pct = (journal_wall - plain_wall) / plain_wall * 100.0
    # The journaled run must not change the outcome at all.
    import json as _json
    identical = (_json.dumps(plain_report.summary(), sort_keys=True)
                 == _json.dumps(journal_report.summary(), sort_keys=True))

    # Probe run: record the journal once more to find the kill point — the
    # last admission decision.  Killing after it makes every decision
    # durable, so recovery must re-price exactly zero jobs.
    with tempfile.TemporaryDirectory() as workdir:
        state_dir = os.path.join(workdir, "state")
        run_script(script, store=DurabilityStore(state_dir, fsync_every=1))
        kill_after, total_records = last_decision_record(state_dir)

    with tempfile.TemporaryDirectory() as workdir:
        chaos = kill_and_recover(script, workdir, kill_after=kill_after)

    rows = [
        ["plain", f"{plain_wall:.4f}", "-", "-", "-"],
        ["journaled", f"{journal_wall:.4f}", f"{overhead_pct:+.2f}%",
         "-", "-"],
        ["sigkill@%d/%d" % (kill_after, total_records),
         f"{chaos.recovery_wall_seconds:.4f}",
         "-", chaos.lost_jobs, chaos.decisions_repriced],
    ]
    return (rows, registry, plain_wall, journal_wall, overhead_pct,
            identical, chaos, total_records)


def test_e25_kill_recover(benchmark):
    (rows, registry, plain_wall, journal_wall, overhead_pct, identical,
     chaos, total_records) = benchmark.pedantic(
        build_series, rounds=1, iterations=1)
    report(Table(
        experiment="E25",
        title="Journal overhead and SIGKILL recovery on the E23 burst "
              f"({HEAVY_JOBS}+{LIGHT_JOBS} jobs)",
        headers=["mode", "wall_s", "overhead", "lost_jobs", "repriced"],
        rows=rows,
    ), registry=registry,
        summary={
            "plain_wall_seconds": round(plain_wall, 4),
            "journal_wall_seconds": round(journal_wall, 4),
            "journal_wall_ratio": round(journal_wall / plain_wall, 4),
            "journal_overhead_pct": round(overhead_pct, 2),
            "recovery_seconds": round(chaos.recovery_wall_seconds, 4),
            "bills_match": int(chaos.bills_match),
            "schedules_match": int(chaos.schedules_match),
            "lost_jobs": chaos.lost_jobs,
            "double_billed_jobs": chaos.double_billed,
            "repriced_on_recovery": chaos.decisions_repriced,
        },
        params={"tiny": TINY, "heavy_jobs": HEAVY_JOBS,
                "light_jobs": LIGHT_JOBS, "burst": BURST,
                "fsync_every": FSYNC_EVERY})
    # The journal is write-only during a healthy run: same report, bit
    # for bit, journaled or not.
    assert identical
    # The chaos run really died by SIGKILL and really recovered.
    assert chaos.killed
    assert chaos.kill_after > 0
    assert chaos.durable_records >= chaos.kill_after
    # Durability contract: nothing lost, nothing billed twice, and every
    # durable admission decision replayed from the journal.
    assert chaos.ok, chaos.describe()
    assert chaos.lost_jobs == 0
    assert chaos.double_billed == 0
    assert chaos.decisions_repriced == 0
    assert chaos.bills_match and chaos.schedules_match
    # Journal overhead stays small even against best-of-3 timer noise.
    assert overhead_pct < 25.0
