"""E13 — Fault tolerance: failure overhead and speculative execution.

Extension experiment (Hadoop-substrate behaviour the paper relies on):
(a) how much wall-clock do injected task failures cost as the failure rate
rises, and (b) how much of a degraded-node straggler penalty does
speculative execution recover.  Expected shape: failure overhead grows
roughly linearly in the failure rate (each failure wastes half an attempt
plus a reschedule); with one 8x-slow node, speculation recovers most of the
straggler tail at the price of a few killed duplicate attempts.

(c) and (d) exercise *node-level* faults through the chaos harness: a
single node crash and a correlated spot-revocation wave on GNMF, each
priced under both recovery modes.  ``resume`` (finished jobs checkpointed
to replicated HDFS, the run degrades onto survivors) should beat
``restart`` (no usable intermediate state, full rerun on the smaller
cluster) on time and dollars.
"""

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.spot import SpotMarket
from repro.core.advisor import advise_checkpoint_interval
from repro.core.chaos import (
    RECOVERY_RESTART,
    RECOVERY_RESUME,
    SCENARIO_NODE_CRASH,
    SCENARIO_REVOCATION_WAVE,
    run_chaos,
)
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import PhysicalContext
from repro.hadoop.faults import RandomFailures
from repro.hadoop.simulator import ClusterSimulator, FAILED, KILLED
from repro.workloads.chains import build_multiply_program
from repro.workloads.gnmf import build_gnmf_program

from benchmarks.common import Table, report

TILE = 1024
DIMENSION = 16384


def compiled_dag():
    program = build_multiply_program(DIMENSION, DIMENSION, DIMENSION)
    return compile_program(program, PhysicalContext(TILE)).dag


def spec():
    return ClusterSpec(get_instance_type("m1.large"), 8, 2)


def failure_sweep():
    model = CumulonCostModel()
    rows = []
    baseline = ClusterSimulator(spec(), model).run(compiled_dag()).makespan
    for rate in (0.0, 0.02, 0.05, 0.10, 0.20):
        failures = RandomFailures(probability=rate, seed=42, max_attempts=10)
        result = ClusterSimulator(spec(), model,
                                  failures=failures).run(compiled_dag())
        rows.append([rate, result.makespan,
                     result.count_attempts(FAILED),
                     result.makespan / baseline])
    return rows


def speculation_cases():
    model = CumulonCostModel()
    rows = []
    for label, slow, speculative in (
        ("healthy, spec off", {}, False),
        ("healthy, spec on", {}, True),
        ("1 node 8x slow, spec off", {"m1.large-0": 8.0}, False),
        ("1 node 8x slow, spec on", {"m1.large-0": 8.0}, True),
    ):
        sim = ClusterSimulator(spec(), model, speculative=speculative,
                               slow_nodes=slow)
        result = sim.run(compiled_dag())
        rows.append([label, result.makespan, result.count_attempts(KILLED)])
    return rows


def test_e13a_failure_overhead(benchmark):
    rows = benchmark.pedantic(failure_sweep, rounds=1, iterations=1)
    report(Table(
        experiment="E13a",
        title="16384^2 multiply: makespan vs injected task-failure rate",
        headers=["failure_rate", "makespan_s", "failed_attempts",
                 "slowdown"],
        rows=rows,
    ))
    slowdowns = [row[3] for row in rows]
    assert slowdowns[0] == 1.0
    # Overhead grows with the failure rate and stays bounded at 20%.
    assert all(a <= b + 0.02 for a, b in zip(slowdowns, slowdowns[1:]))
    assert slowdowns[-1] < 2.0
    assert rows[-1][2] > rows[1][2]


def gnmf_chaos(scenario, seed=7):
    """Run tiny GNMF under ``scenario`` in both recovery modes."""
    program = build_gnmf_program(1024, 512, 128, iterations=3)
    dag = compile_program(program, PhysicalContext(256)).dag
    inputs = {f"/input/{name}": var.shape[0] * var.shape[1] * 8
              for name, var in program.inputs.items()}
    model = CumulonCostModel()
    reports = {}
    for recovery in (RECOVERY_RESUME, RECOVERY_RESTART):
        reports[recovery] = run_chaos(dag, spec(), model, scenario,
                                      seed=seed, recovery=recovery,
                                      input_files=inputs)
    return reports


def _chaos_rows(reports):
    labels = {RECOVERY_RESUME: "resume (HDFS checkpoints)",
              RECOVERY_RESTART: "restart (no checkpoints)"}
    rows = []
    for recovery, rep in reports.items():
        rows.append([labels[recovery], rep.baseline_seconds,
                     rep.makespan_seconds, rep.overhead_fraction,
                     len(rep.nodes_lost), rep.attempts_lost,
                     rep.rereplicated_bytes / 2**20, rep.cost])
    return rows


_CHAOS_HEADERS = ["recovery", "baseline_s", "makespan_s", "overhead",
                  "nodes_lost", "attempts_lost", "rereplicated_mib",
                  "cost_usd"]


def test_e13c_node_crash(benchmark):
    reports = benchmark.pedantic(gnmf_chaos, args=(SCENARIO_NODE_CRASH,),
                                 rounds=1, iterations=1)
    report(Table(
        experiment="E13c",
        title="tiny GNMF: one node crashes mid-run (resume vs restart)",
        headers=_CHAOS_HEADERS,
        rows=_chaos_rows(reports),
    ))
    resume, restart = (reports[RECOVERY_RESUME], reports[RECOVERY_RESTART])
    assert resume.completed and restart.completed
    # The crash actually hit running work, and recovery costs something.
    assert resume.attempts_lost >= 1
    assert resume.overhead_seconds >= 0
    assert restart.overhead_seconds >= 0
    # Degrading onto survivors beats throwing the run away.
    assert resume.makespan_seconds <= restart.makespan_seconds
    assert resume.cost <= restart.cost


def test_e13d_revocation_wave(benchmark):
    reports = benchmark.pedantic(gnmf_chaos,
                                 args=(SCENARIO_REVOCATION_WAVE,),
                                 rounds=1, iterations=1)
    report(Table(
        experiment="E13d",
        title="tiny GNMF: correlated spot-revocation wave "
              "(with/without checkpointing)",
        headers=_CHAOS_HEADERS,
        rows=_chaos_rows(reports),
    ))
    resume, restart = (reports[RECOVERY_RESUME], reports[RECOVERY_RESTART])
    assert resume.completed and restart.completed
    # The wave takes several nodes at once and kills in-flight attempts.
    assert len(resume.nodes_lost) >= 2
    assert resume.attempts_lost >= 1
    assert resume.rereplicated_bytes > 0
    # Checkpointing to HDFS (resume) dominates restart on time and cost.
    assert resume.makespan_seconds <= restart.makespan_seconds
    assert resume.cost <= restart.cost
    # The advisor recommends a sane cadence for this market and bid.
    advice = advise_checkpoint_interval(
        SpotMarket(), bid_fraction=0.35,
        checkpoint_seconds=max(1.0, 0.02 * resume.baseline_seconds),
        work_seconds=resume.baseline_seconds)
    assert 0 < advice.interval_seconds <= resume.baseline_seconds
    assert 0 <= advice.expected_overhead_fraction < 1


def test_e13b_speculation(benchmark):
    rows = benchmark.pedantic(speculation_cases, rounds=1, iterations=1)
    report(Table(
        experiment="E13b",
        title="16384^2 multiply: straggler node and speculative execution",
        headers=["scenario", "makespan_s", "killed_attempts"],
        rows=rows,
    ))
    times = {row[0]: row[1] for row in rows}
    # A slow node hurts; speculation recovers a large share of the loss.
    assert times["1 node 8x slow, spec off"] > 1.3 * times["healthy, spec off"]
    recovered = (times["1 node 8x slow, spec off"]
                 - times["1 node 8x slow, spec on"])
    lost = (times["1 node 8x slow, spec off"] - times["healthy, spec off"])
    assert recovered > 0.5 * lost
    # On a healthy cluster speculation must not hurt.
    assert times["healthy, spec on"] <= 1.05 * times["healthy, spec off"]
