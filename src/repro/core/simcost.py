"""Program completion-time estimation: simulation, its floor, a cross-check.

This is the "simulation" stage of Cumulon's optimizer pipeline: a compiled
job DAG is priced on a candidate cluster by replaying slot scheduling with
the fitted cost model.  :func:`makespan_lower_bound` is a *proven* floor on
what that replay returns; :mod:`repro.core.search` settles candidates by it
unsimulated.  The analytic wave model (``overhead + ceil(tasks / slots) *
mean task time`` per job) is a first-order *estimate*, not a bound: it
charges every task full-node contention, so it lands above the simulation
as often as below.  It stays as experiment E9's cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cloud.instances import ClusterSpec, InstanceType
from repro.core.evalcache import CachedEstimate, EvalCache, eval_key, \
    model_fingerprint
from repro.errors import QuorumLostError, SchedulingError, ValidationError
from repro.hadoop.faults import FailureModel, NodeFailureModel
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import ClusterSimulator, SimulationResult, \
    dag_fingerprint
from repro.hadoop.timemodel import TaskTimeModel
from repro.hdfs.namenode import NameNode
from repro.hdfs.tilestore import TileStore
from repro.observability.cost import CostMeter
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.trace import NULL_RECORDER, TraceRecorder
from repro.matrix.tile import TileId

from repro.core.physical import MatrixInfo


@dataclass
class ProgramEstimate:
    """Predicted execution profile of a job DAG on one cluster spec."""

    spec: ClusterSpec
    seconds: float
    job_seconds: dict[str, float] = field(default_factory=dict)
    simulation: SimulationResult | None = None

    def describe(self) -> str:
        parts = [f"{self.spec.describe()}: {self.seconds:.1f}s total"]
        parts += [f"  {job_id}: {seconds:.1f}s"
                  for job_id, seconds in self.job_seconds.items()]
        return "\n".join(parts)


def simulate_program(dag: JobDag, spec: ClusterSpec, model: TaskTimeModel,
                     locality_aware: bool = True,
                     recorder: TraceRecorder = NULL_RECORDER,
                     metrics: MetricsRegistry = NULL_METRICS,
                     cost_meter: CostMeter | None = None,
                     failures: FailureModel | None = None,
                     node_failures: NodeFailureModel | None = None,
                     min_live_nodes: int = 1,
                     namenode: NameNode | None = None,
                     cache: EvalCache | None = None
                     ) -> ProgramEstimate:
    """Estimate wall-clock of ``dag`` on ``spec`` by event simulation.

    Pass an :class:`~repro.observability.trace.InMemoryRecorder` to capture
    the predicted per-task trace alongside the aggregate estimate, a
    :class:`~repro.observability.metrics.MetricsRegistry` for time-series
    metrics on the virtual clock, and/or a
    :class:`~repro.observability.cost.CostMeter` to watch dollars accrue
    (and budgets blow) live during the simulation.

    ``failures`` / ``node_failures`` inject seeded task- and node-level
    faults (see :mod:`repro.hadoop.faults`); give a ``namenode`` to bill
    HDFS re-replication traffic when a node dies.

    ``cache`` memoizes the simulation on its content-addressed key (see
    :mod:`repro.core.evalcache`).  The memo is consulted only when the run
    has no observable side effects (no recorder/metrics/cost meter/
    namenode), no task-level failures, and every remaining input — DAG,
    cost model, node-failure model *including seeds* — can prove its
    identity; otherwise the simulation runs for real.  A cached abort
    (quorum lost / retries exhausted) replays as the same exception.  A
    memoizable run goes through ``ClusterSimulator.estimate``, which keeps
    no timelines, so the returned ``simulation`` is None.
    """
    key = None
    if cache is not None and cache.enabled and not recorder.enabled \
            and not metrics.enabled and cost_meter is None \
            and namenode is None and failures is None:
        failures_fp = (node_failures.fingerprint()
                       if node_failures is not None else "none")
        key = eval_key(dag_fingerprint(dag), spec, model_fingerprint(model),
                       locality_aware=locality_aware,
                       min_live_nodes=min_live_nodes,
                       failures_fp=failures_fp)
        cached = cache.get(key)
        if cached is not None:
            if cached.aborted:
                kind = (QuorumLostError if cached.abort_quorum
                        else SchedulingError)
                raise kind(cached.abort_message)
            return ProgramEstimate(spec, cached.seconds,
                                   dict(cached.job_seconds))
    simulator = ClusterSimulator(spec, model, locality_aware=locality_aware,
                                 recorder=recorder, metrics=metrics,
                                 cost_meter=cost_meter,
                                 failures=failures,
                                 node_failures=node_failures,
                                 min_live_nodes=min_live_nodes,
                                 namenode=namenode)
    if key is None:
        result = simulator.run(dag)
        return ProgramEstimate(
            spec, result.makespan,
            {job_id: timeline.duration
             for job_id, timeline in result.job_timelines.items()}, result)
    try:
        seconds, job_seconds = simulator.estimate(dag)
    except SchedulingError as error:
        cache.put(key, CachedEstimate(
            seconds=float("inf"), aborted=True, abort_message=str(error),
            abort_quorum=isinstance(error, QuorumLostError)))
        raise
    cache.put(key, CachedEstimate(
        seconds=seconds, job_seconds=tuple(sorted(job_seconds.items()))))
    return ProgramEstimate(spec, seconds, job_seconds)


def job_floors(dag: JobDag, instance: InstanceType,
               model: TaskTimeModel) -> list[tuple]:
    """The half of :func:`makespan_lower_bound` no cluster size changes:
    per job, in dependency order, ``(job, overhead, map Σd, map max d,
    reduce Σd, reduce max d)``, ``d`` a task's uncontended local run."""
    rows = []
    for job in dag.topological_order():
        row = [job, model.job_overhead(job)]
        for tasks in (job.map_tasks, job.reduce_tasks):
            durations = [model.task_duration(task, instance, 1, True)
                         for task in tasks]
            row += [sum(durations), max(durations, default=0.0)]
        rows.append(tuple(row))
    return rows


def makespan_lower_bound(dag: JobDag, spec: ClusterSpec,
                         model: TaskTimeModel,
                         floors: list[tuple] | None = None) -> float:
    """A proven floor on ``simulate_program(dag, spec, model).seconds``.

    Per job ``overhead + max(max d, Σd / total_slots)`` for the map phase,
    plus the shuffle and the same term for the reduce phase of a MapReduce
    job, folded along the longest dependency path.  Sound because the
    simulator starts a job's tasks ``job_overhead`` after its last
    dependency ends, serialises map → shuffle → reduce, and a task never
    runs faster contended or remote; failures only re-execute work (the
    argument is in docs/optimizer.md).  ``floors``: the DAG's memoised
    :func:`job_floors` on the spec's instance type.
    """
    if floors is None:
        floors = job_floors(dag, spec.instance_type, model)
    slots = spec.total_slots
    finish: dict[str, float] = {}
    for job, overhead, map_sum, map_max, reduce_sum, reduce_max in floors:
        seconds = overhead
        if job.map_tasks:  # a job without maps ends right after its overhead
            seconds += max(map_max, map_sum / slots)
            if job.kind is JobKind.MAPREDUCE:
                bandwidth = (spec.num_nodes
                             * spec.instance_type.network_bandwidth)
                seconds += (model.shuffle_duration(job, bandwidth)
                            + max(reduce_max, reduce_sum / slots))
        finish[job.job_id] = seconds + max(
            (finish[dep] for dep in job.depends_on), default=0.0)
    # Shaved, so float summation order can never lift it over the simulation.
    return max(finish.values(), default=0.0) * (1.0 - 1e-9)


def analytic_wave_estimate(dag: JobDag, spec: ClusterSpec,
                           model: TaskTimeModel) -> float:
    """First-order estimate: sequential jobs, whole waves, mean task time."""
    total = 0.0
    for job in dag.topological_order():
        total += analytic_job_time(job, spec, model)
    return total


def analytic_job_time(job: Job, spec: ClusterSpec,
                      model: TaskTimeModel) -> float:
    """Wave-model time of one job in isolation."""
    seconds = model.job_overhead(job)
    seconds += _phase_time(job.map_tasks, spec, model)
    if job.kind is JobKind.MAPREDUCE:
        bandwidth = spec.num_nodes * spec.instance_type.network_bandwidth
        seconds += model.shuffle_duration(job, bandwidth)
        seconds += _phase_time(job.reduce_tasks, spec, model)
    return seconds


def _phase_time(tasks, spec: ClusterSpec, model: TaskTimeModel) -> float:
    if not tasks:
        return 0.0
    # Every slot on a node is assumed busy (worst-case contention), matching
    # how the middle waves of a large job behave.
    concurrency = spec.slots_per_node
    mean = sum(model.task_duration(task, spec.instance_type, concurrency, True)
               for task in tasks) / len(tasks)
    waves = math.ceil(len(tasks) / spec.total_slots)
    return waves * mean


def place_virtual_inputs(store: TileStore, infos: list[MatrixInfo],
                         node_names: list[str]) -> None:
    """Create metadata-only tiles for input matrices, spread across nodes.

    Tiles are written round-robin so the writer-local first replica spreads
    evenly — the layout a previous job's map wave would leave behind.
    """
    if not node_names:
        raise ValidationError("need at least one node to place inputs")
    writer_index = 0
    for info in infos:
        for tile_row, tile_col in info.grid.positions():
            tile_id = TileId(info.name, tile_row, tile_col)
            writer = node_names[writer_index % len(node_names)]
            store.put_virtual(tile_id, info.tile_bytes(tile_row, tile_col),
                              writer=writer)
            writer_index += 1
