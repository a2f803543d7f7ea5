"""E26 — Wall-clock serving under load: the socket server on a burst.

A real ``repro serve --listen`` subprocess takes a multi-process
client burst through the live NDJSON socket: 10k submissions across
120 tenants (4 client processes, poisson arrivals) in the full run,
scaled down under ``REPRO_BENCH_TINY``.  The measured quantities are
what an operator tunes against — jobs/sec through the socket,
client-observed admission latency (submit -> ack, batching and group
commit included), server-side tick latency, and group-commit count —
and the acceptance bar is the durability audit: every submission gets
exactly one admission decision, every admitted job exactly one
terminal record, every acked job id is present in the journal.  A
second row SIGKILLs the live server mid-burst and recovers it through
the wall-clock path (:func:`benchmarks.rigs.kill_and_recover` without
a script): the kill must be a real ``SIGKILL``, zero acked
submissions may be lost, zero jobs double-billed.
"""

import os
import tempfile
from pathlib import Path

from repro.observability.metrics import MetricsRegistry

from benchmarks.common import Table, report
from benchmarks.rigs import kill_and_recover, run_loadtest

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
JOBS = 300 if TINY else 10_000
TENANTS = 24 if TINY else 120
PROCESSES = 2 if TINY else 4
ARRIVAL = "poisson"
TIME_SCALE = 2000.0               # virtual cluster seconds per wall second
FSYNC_EVERY = 4096                # between-tick batching; ticks group-commit
KILL_JOBS = 40 if TINY else 120
KILL_TENANTS = 8 if TINY else 12
# A burst admitted in one tick journals submit + admit + start per job,
# plus the tenants, two clock advances and ONE allocation tick.  A few
# records past that lands the SIGKILL after the first group commit (so
# real acks are in flight — the acked-subset-of-journal check has teeth)
# but before the burst drains.
KILL_AFTER = KILL_JOBS * 3 + KILL_TENANTS + 10


def build_series():
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as workdir:
        load = run_loadtest(
            Path(workdir), jobs=JOBS, tenants=TENANTS, processes=PROCESSES,
            arrival=ARRIVAL, time_scale=TIME_SCALE, fsync_every=FSYNC_EVERY)
    with tempfile.TemporaryDirectory() as workdir:
        kill = kill_and_recover(
            None, workdir, jobs=KILL_JOBS, tenants=KILL_TENANTS,
            kill_after=KILL_AFTER, time_scale=TIME_SCALE)

    rows = [
        ["loadtest", f"{load.acked}/{load.jobs}", f"{load.wall_seconds:.1f}",
         f"{load.jobs_per_sec:.0f}", f"{load.admission_p50_ms:.1f}",
         f"{load.admission_p99_ms:.1f}", f"{load.tick_p99_ms:.1f}",
         load.group_commits, load.audit.lost, load.audit.double_billed],
        ["sigkill@%d" % kill.kill_after, f"{kill.acked}/{kill.sent}",
         f"{kill.recovery_wall_seconds:.1f}", "-", "-", "-", "-", "-",
         kill.lost_jobs, kill.double_billed],
    ]
    return rows, registry, load, kill


def test_e26_loadtest(benchmark):
    rows, registry, load, kill = benchmark.pedantic(
        build_series, rounds=1, iterations=1)
    report(Table(
        experiment="E26",
        title="Wall-clock serving under load "
              f"({JOBS} jobs / {TENANTS} tenants / {PROCESSES} client "
              "processes through the live socket)",
        headers=["mode", "acked", "wall_s", "jobs_per_s", "adm_p50_ms",
                 "adm_p99_ms", "tick_p99_ms", "commits", "lost",
                 "dbl_billed"],
        rows=rows,
    ), registry=registry,
        summary={
            "jobs": load.jobs,
            "tenants": load.tenants,
            "acked": load.acked,
            "wall_seconds": round(load.wall_seconds, 2),
            "jobs_per_sec": round(load.jobs_per_sec, 1),
            "admission_p50_ms": round(load.admission_p50_ms, 1),
            "admission_p95_ms": round(load.admission_p95_ms, 1),
            "admission_p99_ms": round(load.admission_p99_ms, 1),
            "tick_p50_ms": round(load.tick_p50_ms, 2),
            "tick_p99_ms": round(load.tick_p99_ms, 2),
            "ticks": load.ticks,
            "group_commits": load.group_commits,
            "max_batch_seen": load.max_batch_seen,
            "lost": load.audit.lost,
            "double_billed": load.audit.double_billed,
            "double_decided": load.audit.double_decided,
            "unjournaled_acks": load.audit.unjournaled_acks,
            "kill_acked": kill.acked,
            "kill_lost_acked": kill.lost_acked,
            "kill_lost_jobs": kill.lost_jobs,
            "kill_double_billed": kill.double_billed,
            "kill_recovered_jobs": kill.recovered_jobs,
            "kill_repriced": kill.decisions_repriced,
        },
        params={"tiny": TINY, "jobs": JOBS, "tenants": TENANTS,
                "processes": PROCESSES, "arrival": ARRIVAL,
                "time_scale": TIME_SCALE, "fsync_every": FSYNC_EVERY})
    # Every submission made it through the socket and was acked.
    assert load.acked == JOBS
    # All client processes drained cleanly and the journal balances:
    # one decision per submission, one terminal per admitted job, every
    # acked id journaled.
    assert load.ok
    assert load.audit.submitted == JOBS
    assert load.audit.lost == 0
    assert load.audit.double_billed == 0
    assert load.audit.double_decided == 0
    assert load.audit.unjournaled_acks == 0
    assert load.group_commits >= 1
    assert load.jobs_per_sec > 0
    # The chaos row really died by SIGKILL mid-burst — with acks already
    # on the wire, so the acked-subset-of-journal check is not vacuous —
    # and really recovered.
    assert kill.killed
    assert kill.acked > 0
    assert kill.ok, kill.describe()
    assert kill.lost_acked == 0
    assert kill.lost_jobs == 0
    assert kill.double_billed == 0
    assert kill.recovered_jobs > 0
