"""Chaos harness: run a workload under a named, seeded failure scenario.

The fault-injection machinery lives in :mod:`repro.hadoop.faults` (what can
break) and :mod:`repro.hadoop.simulator` (how the cluster degrades); this
module packages it into reproducible *scenarios* — kill one node mid-run,
revoke half the cluster in a correlated spot wave, make tasks flaky — and
measures the damage against a clean baseline of the same workload on the
same cluster.  ``repro chaos`` on the command line is a thin wrapper over
:func:`run_chaos`.

Recovery modes mirror :mod:`repro.cloud.spot`'s pricing policies, executed
rather than approximated:

* ``resume`` — the run continues on the survivors.  Outputs of *finished*
  jobs live in replicated HDFS and survive (this is exactly what
  checkpointing-to-HDFS buys); only unfinished work is redone.
* ``restart`` — no usable intermediate state: the time until the first
  loss is wasted, and the whole workload reruns on the surviving smaller
  cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cloud.instances import ClusterSpec
from repro.cloud.pricing import DEFAULT_BILLING, BillingModel
from repro.cloud.provisioning import provision
from repro.cloud.spot import SpotMarket
from repro.errors import SchedulingError, ValidationError
from repro.hadoop.faults import (
    FailureModel,
    NodeFailure,
    NodeFailureModel,
    RandomFailures,
    SpotRevocationWaves,
    TargetedNodeFailures,
)
from repro.hadoop.job import JobDag
from repro.hadoop.simulator import LOST, SimulationResult
from repro.hadoop.timemodel import TaskTimeModel
from repro.hdfs.namenode import NameNode
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import NULL_RECORDER, TraceRecorder

from repro.core.simcost import ProgramEstimate, simulate_program

#: Named scenarios ``repro chaos`` accepts.
SCENARIO_NODE_CRASH = "node-crash"
SCENARIO_REVOCATION_WAVE = "revocation-wave"
SCENARIO_FLAKY_TASKS = "flaky-tasks"
SCENARIOS = (SCENARIO_NODE_CRASH, SCENARIO_REVOCATION_WAVE,
             SCENARIO_FLAKY_TASKS)

#: Recovery modes.
RECOVERY_RESUME = "resume"
RECOVERY_RESTART = "restart"


def _busy_instant(baseline: SimulationResult | None, seed: int,
                  default: float) -> tuple[float, str | None]:
    """A (time, node) pair at which the baseline run had an attempt in
    flight — dying there is guaranteed to hurt.  Falls back to ``default``
    (and no node preference) when no baseline detail is available."""
    if baseline is None:
        return default, None
    attempts = sorted(
        (attempt for timeline in baseline.job_timelines.values()
         for attempt in timeline.attempts),
        key=lambda a: (a.start, a.end, a.task.task_id, a.node))
    if not attempts:
        return default, None
    chosen = attempts[(len(attempts) // 2 + seed) % len(attempts)]
    return (chosen.start + chosen.end) / 2.0, chosen.node


def build_scenario(name: str, seed: int, spec: ClusterSpec,
                   baseline_seconds: float,
                   baseline: SimulationResult | None = None
                   ) -> tuple[FailureModel | None, NodeFailureModel | None]:
    """Instantiate a named scenario sized to actually hit this run.

    Failure times are scaled to the clean baseline makespan so the
    scenario lands *mid-run* regardless of workload or cluster — a chaos
    scenario whose failure fires after the job finished tests nothing.
    Given the baseline :class:`SimulationResult`, the failure is aimed at
    an instant when a task attempt was actually in flight (overhead- and
    shuffle-dominated runs idle much of the time; a crash in an idle gap
    tests only HDFS re-replication).  Returns ``(task_failures,
    node_failures)``.
    """
    if baseline_seconds <= 0:
        raise ValidationError("baseline_seconds must be positive")
    if name == SCENARIO_NODE_CRASH:
        at, victim = _busy_instant(baseline, seed, 0.3 * baseline_seconds)
        if victim is None:
            names = sorted(spec.node_names())
            victim = names[seed % len(names)]
        return None, TargetedNodeFailures({victim: at})
    if name == SCENARIO_REVOCATION_WAVE:
        waves = SpotRevocationWaves(SpotMarket(), bid_fraction=0.35,
                                    seed=seed, victim_fraction=0.5)
        hour = waves.first_wave_hour()
        if hour is None:  # pragma: no cover - needs a pathological seed
            hour = 1
        # Compress market hours so the first price spike lands on a busy
        # instant (default: 40% of the clean run).
        at, __ = _busy_instant(baseline, seed, 0.4 * baseline_seconds)
        return None, SpotRevocationWaves(
            SpotMarket(), bid_fraction=0.35, seed=seed, victim_fraction=0.5,
            hour_seconds=at / hour)
    if name == SCENARIO_FLAKY_TASKS:
        return RandomFailures(0.1, seed=seed, max_attempts=10), None
    raise ValidationError(
        f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}")


def inject_scenario(dag: JobDag, spec: ClusterSpec, model: TaskTimeModel,
                    scenario: str, seed: int,
                    input_files: dict[str, int] | None
                    ) -> tuple[ProgramEstimate, FailureModel | None,
                               NodeFailureModel | None, NameNode]:
    """Everything a faulty run of ``dag`` needs besides the DAG itself.

    Simulates the clean baseline, sizes the named scenario to it (see
    :func:`build_scenario`) and provisions the cluster's HDFS holding
    ``input_files``.  Returns ``(baseline, failures, node_failures,
    namenode)``.
    """
    baseline = simulate_program(dag, spec, model)
    failures, node_failures = build_scenario(scenario, seed, spec,
                                             baseline.seconds,
                                             baseline=baseline.simulation)
    return (baseline, failures, node_failures,
            provision(spec, input_files=input_files))


@dataclass
class ChaosReport:
    """Damage report: one workload, one scenario, one seed."""

    scenario: str
    seed: int
    recovery: str
    spec: ClusterSpec
    baseline_seconds: float
    makespan_seconds: float
    completed: bool
    nodes_lost: list[NodeFailure] = field(default_factory=list)
    attempts_lost: int = 0
    reexecuted_tasks: int = 0
    rereplicated_bytes: int = 0
    baseline_cost: float = 0.0
    cost: float = 0.0
    abort_reason: str = ""

    @property
    def overhead_seconds(self) -> float:
        if not self.completed:
            return float("inf")
        return self.makespan_seconds - self.baseline_seconds

    @property
    def overhead_fraction(self) -> float:
        if not self.completed:
            return float("inf")
        return self.overhead_seconds / self.baseline_seconds

    def describe(self) -> str:
        lines = [
            f"chaos scenario {self.scenario!r} (seed {self.seed}, "
            f"recovery={self.recovery}) on {self.spec.describe()}:",
            f"  clean baseline:   {self.baseline_seconds:.1f}s  "
            f"${self.baseline_cost:.2f}",
        ]
        if self.completed:
            lines.append(
                f"  under failures:   {self.makespan_seconds:.1f}s  "
                f"${self.cost:.2f}  "
                f"(+{self.overhead_fraction * 100:.0f}% time)")
        else:
            lines.append(f"  under failures:   ABORTED — {self.abort_reason}")
        if self.nodes_lost:
            losses = ", ".join(f"{f.node}@{f.at:.0f}s ({f.cause})"
                               for f in self.nodes_lost)
            lines.append(f"  nodes lost:       {losses}")
        lines.append(f"  attempts lost:    {self.attempts_lost}")
        lines.append(f"  tasks re-run:     {self.reexecuted_tasks}")
        if self.rereplicated_bytes:
            lines.append(f"  re-replicated:    "
                         f"{self.rereplicated_bytes / 2**20:.1f} MiB")
        return "\n".join(lines)


def run_chaos(dag: JobDag, spec: ClusterSpec, model: TaskTimeModel,
              scenario: str, seed: int = 0,
              recovery: str = RECOVERY_RESUME,
              input_files: dict[str, int] | None = None,
              min_live_nodes: int = 1,
              billing: BillingModel | None = None,
              recorder: TraceRecorder = NULL_RECORDER,
              metrics: MetricsRegistry = NULL_METRICS) -> ChaosReport:
    """Simulate ``dag`` under a named failure scenario and report damage.

    A clean run establishes the baseline (and sizes the scenario's failure
    times); the chaos run replays the same DAG with the scenario's seeded
    faults injected.  All failure events flow through ``recorder`` and
    ``metrics``, so ``repro trace`` / ``repro metrics`` show the recovery.
    """
    if recovery not in (RECOVERY_RESUME, RECOVERY_RESTART):
        raise ValidationError(
            f"recovery must be {RECOVERY_RESUME!r} or {RECOVERY_RESTART!r},"
            f" got {recovery!r}")
    billing = billing if billing is not None else DEFAULT_BILLING
    baseline, failures, node_failures, namenode = inject_scenario(
        dag, spec, model, scenario, seed, input_files)
    report = ChaosReport(
        scenario=scenario, seed=seed, recovery=recovery, spec=spec,
        baseline_seconds=baseline.seconds,
        makespan_seconds=float("inf"), completed=False,
        baseline_cost=billing.cost(spec, baseline.seconds))

    if recovery == RECOVERY_RESTART and node_failures is not None:
        return _restart_analysis(dag, spec, model, node_failures, billing,
                                 report)

    try:
        estimate = simulate_program(
            dag, spec, model, recorder=recorder, metrics=metrics,
            failures=failures, node_failures=node_failures,
            min_live_nodes=min_live_nodes, namenode=namenode)
    except SchedulingError as error:  # includes QuorumLostError
        report.abort_reason = str(error)
        return report
    result = estimate.simulation
    report.makespan_seconds = estimate.seconds
    report.completed = True
    report.nodes_lost = list(result.lost_nodes)
    report.attempts_lost = result.count_attempts(LOST)
    report.reexecuted_tasks = result.reexecuted_tasks
    report.rereplicated_bytes = result.rereplicated_bytes
    report.cost = billing.cost(spec, estimate.seconds)
    return report


def _restart_analysis(dag: JobDag, spec: ClusterSpec, model: TaskTimeModel,
                      node_failures: NodeFailureModel, billing: BillingModel,
                      report: ChaosReport) -> ChaosReport:
    """Price restart-from-scratch recovery: time to first loss is wasted,
    then the whole DAG reruns on the surviving smaller cluster."""
    events = node_failures.failures(spec.node_names())
    relevant = [event for event in events
                if event.at < report.baseline_seconds]
    if not relevant:
        # Nothing fires during the run; the baseline stands.
        report.makespan_seconds = report.baseline_seconds
        report.completed = True
        report.cost = report.baseline_cost
        return report
    first_loss = min(event.at for event in relevant)
    survivors = spec.num_nodes - len(relevant)
    report.nodes_lost = sorted(relevant, key=lambda e: (e.at, e.node))
    if survivors < 1:
        report.abort_reason = "no survivors to restart on"
        return report
    surviving_spec = ClusterSpec(spec.instance_type, survivors,
                                 spec.slots_per_node)
    rerun = simulate_program(dag, surviving_spec, model)
    report.makespan_seconds = first_loss + rerun.seconds
    report.completed = math.isfinite(report.makespan_seconds)
    report.cost = (billing.cost(spec, first_loss)
                   + billing.cost(surviving_spec, rerun.seconds))
    return report
