"""Frozen simulator timelines: every attempt's node, slot and instant, pinned.

``gnmf_trace_golden.json`` pins the *structure* of one trace on a 2x2
cluster with timings stripped.  This fixture pins the rest: for a seeded
matrix of compiled DAGs x scheduling policy x fault mode x locality mode x
cluster shape, a sha256 over every recorded ``TaskAttempt`` (task, node,
start/end as float hex, concurrency at start, status), every recorded
``TraceEvent`` (which carries the ``node:slot`` lane and the attempt index),
the makespan and the node-loss accounting.  Any change to which node or slot
an attempt lands on, to the order attempts start in, or to a single duration
moves a digest — which is what a scheduling-neutral rewrite of the
simulator's dispatch loop has to prove it does not do.  The 12-node cluster
is there because node names order as strings (``m1.large-10`` sorts before
``m1.large-2``), and the tie-break is by name.

Regenerate after a deliberate scheduling or cost-model change::

    PYTHONPATH=src python tests/test_simulator_timelines.py --regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.baselines.systemml_program import compile_systemml_program
from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.provisioning import provision
from repro.core.compiler import CompilerParams, compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import (
    ElementwiseParams,
    MatMulParams,
    PhysicalContext,
)
from repro.core.simcost import place_virtual_inputs
from repro.errors import SchedulingError
from repro.hadoop.faults import (
    CompositeNodeFailures,
    RandomFailures,
    SpotRevocationWaves,
    TargetedNodeFailures,
)
from repro.hadoop.simulator import FAIR, FIFO, ClusterSimulator
from repro.hdfs.tilestore import TileStore
from repro.observability.trace import InMemoryRecorder
from repro.workloads.catalog import build_workload
from repro.workloads.gnmf import build_gnmf_program

FIXTURE = Path(__file__).parent / "fixtures" / "simulator_timelines.json"

CLUSTERS = ((2, 2), (12, 2), (32, 4))
POLICIES = (FIFO, FAIR)
FAULTS = ("none", "task-failures", "speculation", "node-loss", "chaos")
#: placed = virtual inputs in HDFS, so tasks carry preferred nodes;
#: blind = the same DAG scheduled with locality off; bare = no backing at
#: all (what the planner simulates: no task prefers any node).
LOCALITY = ("placed", "blind", "bare")


def _cumulon(build_program, tile, matmul):
    # One output tile per element-wise task, so a task over a placed
    # input has a definite home node.
    params = CompilerParams(matmul=MatMulParams(*matmul),
                            elementwise=ElementwiseParams(tiles_per_task=1))

    def build(context):
        program = build_program()
        return program, compile_program(program, context, params)
    return tile, build


def _systemml(build_program, tile):
    def build(context):
        program = build_program()
        return program, compile_systemml_program(program, context)
    return tile, build


#: DAG name -> (tile size, builder(context) -> (program, compiled)).
DAGS = {
    # 28 jobs / 716 tasks; the two multiplies of each update run side by
    # side, so FAIR and FIFO schedule it differently
    "gnmf-k4": _cumulon(
        lambda: build_gnmf_program(8192, 4096, 1024, iterations=2),
        512, (1, 1, 4)),
    # 35 mostly small jobs / 696 tasks, up to three runnable at once:
    # often a half-idle cluster, where "least busy, then name" decides
    "kmeans-small": _cumulon(
        lambda: build_workload("kmeans", "small")[0], 1024, (1, 1, 1)),
    # 512 one-tile mult tasks + a 64-task add job: many full waves
    "multiply-small-k8": _cumulon(
        lambda: build_workload("multiply", "small")[0], 1024, (1, 1, 8)),
    # 10 map -> shuffle -> reduce jobs, so the reduce queue and (under
    # node loss) map-output invalidation are on the pinned path
    "systemml-gnmf": _systemml(
        lambda: build_gnmf_program(4096, 2048, 512, iterations=1), 512),
}


NODE_KILLING = ("node-loss", "chaos")


def build_dag(dag_name, spec, locality, fault):
    """``(dag, namenode or None)`` for one case; placed DAGs are compiled
    against a fresh simulated HDFS holding the program's inputs."""
    tile, build = DAGS[dag_name]
    if locality == "bare":
        return build(PhysicalContext(tile))[1].dag, None
    # One replica on the 2-node cluster (with two, every tile is local
    # everywhere and the locality modes collapse into one) -- except
    # where a node dies, which a single replica cannot survive.
    single = spec.num_nodes == 2 and fault not in NODE_KILLING
    namenode = provision(spec, replication=1 if single else 2)
    context = PhysicalContext(tile, TileStore(namenode))
    program, compiled = build(context)
    place_virtual_inputs(context.backing,
                         [compiled.materialized[name]
                          for name in sorted(program.inputs)],
                         spec.node_names())
    # Recompile so tasks pick up the replica locations.
    return build(context)[1].dag, namenode


def simulator_kwargs(fault, spec, makespan, case_seed):
    """Fault injection for one case, timed against the clean makespan."""
    names = spec.node_names()
    kwargs = {}
    if fault in ("task-failures", "chaos"):
        kwargs["failures"] = RandomFailures(0.12, seed=case_seed,
                                            max_attempts=12)
    if fault in ("speculation", "chaos"):
        kwargs["speculative"] = True
        kwargs["slow_nodes"] = {names[1]: 3.0, names[-1]: 1.7}
    if fault in NODE_KILLING:
        wave = SpotRevocationWaves(bid_fraction=0.35, seed=4,
                                   victim_fraction=0.25)
        wave.hour_seconds = 0.55 * makespan / wave.first_wave_hour()
        # One early crash, then a correlated wave (several nodes at one
        # instant on the larger clusters).  Keep one node standing on 2x2.
        models = [TargetedNodeFailures({names[0]: 0.2 * makespan})]
        if spec.num_nodes > 2:
            models.append(wave)
        kwargs["node_failures"] = CompositeNodeFailures(models)
    return kwargs


def case_names():
    return [f"{dag}|{nodes}x{slots}|{policy}|{fault}|{locality}"
            for dag in DAGS
            for nodes, slots in CLUSTERS
            for policy in POLICIES
            for fault in FAULTS
            for locality in LOCALITY]


_CLEAN_MAKESPANS: dict[tuple, float] = {}


def clean_makespan(dag_name, spec, locality, fault):
    """Fault-free FIFO makespan of the case's DAG: the clock faults are
    timed against (memoized; the simulator is deterministic)."""
    key = (dag_name, spec.num_nodes, spec.slots_per_node, locality,
           fault in NODE_KILLING)
    if key not in _CLEAN_MAKESPANS:
        dag, __ = build_dag(dag_name, spec, locality, fault)
        _CLEAN_MAKESPANS[key] = ClusterSimulator(
            spec, CumulonCostModel(),
            locality_aware=locality != "blind").run(dag).makespan
    return _CLEAN_MAKESPANS[key]


def run_case(name):
    """Simulate one case; returns ``{"digest", "attempts", "makespan"}``.

    It also runs the case through the estimate path, which keeps no
    attempt records or timelines, and asserts that it returns the same
    makespan and per-job seconds as float hex, or aborts with the same
    exception type.  That run has no recorder and no namenode: both only
    record, and the full run's node losses have already decommissioned
    the namenode's datanodes.
    """
    dag_name, shape, policy, fault, locality = name.split("|")
    nodes, slots = (int(part) for part in shape.split("x"))
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, slots)
    case_seed = int(hashlib.sha256(name.encode()).hexdigest()[:8], 16)
    kwargs = simulator_kwargs(fault, spec,
                              clean_makespan(dag_name, spec, locality, fault),
                              case_seed)
    dag, namenode = build_dag(dag_name, spec, locality, fault)
    recorder = InMemoryRecorder()
    simulator = ClusterSimulator(
        spec, CumulonCostModel(), locality_aware=locality != "blind",
        scheduling=policy, recorder=recorder, namenode=namenode, **kwargs)
    estimator = ClusterSimulator(
        spec, CumulonCostModel(), locality_aware=locality != "blind",
        scheduling=policy, **kwargs)
    digest = hashlib.sha256()
    try:
        result = simulator.run(dag)
    except SchedulingError as error:  # includes QuorumLostError
        with pytest.raises(SchedulingError) as estimated:
            estimator.estimate(dag)
        assert type(estimated.value) is type(error), name
        digest.update(f"{type(error).__name__}:{error}".encode())
        return {"digest": digest.hexdigest(), "attempts": 0,
                "makespan": "aborted"}
    makespan, job_seconds = estimator.estimate(dag)
    assert makespan.hex() == result.makespan.hex(), name
    assert ({job_id: seconds.hex() for job_id, seconds in job_seconds.items()}
            == {job_id: timeline.duration.hex()
                for job_id, timeline in result.job_timelines.items()}), name
    attempts = 0
    for job_id, timeline in result.job_timelines.items():
        digest.update(f"job:{job_id}:{timeline.start.hex()}"
                      f":{timeline.end.hex()}"
                      f":{timeline.shuffle_seconds.hex()}\n".encode())
        for attempt in timeline.attempts:
            attempts += 1
            digest.update(
                f"{attempt.task.task_id}:{attempt.node}"
                f":{attempt.start.hex()}:{attempt.end.hex()}"
                f":{attempt.concurrency_at_start}:{attempt.status}\n"
                .encode())
    for event in recorder.trace().events:
        digest.update(
            f"ev:{event.job_id}:{event.task_id}:{event.phase}:{event.slot}"
            f":{float(event.start).hex()}:{float(event.end).hex()}"
            f":{event.bytes_read}:{event.bytes_written}:{event.attempt}"
            f":{event.status}:{event.label}\n".encode())
    digest.update(
        f"makespan:{result.makespan.hex()}"
        f":lost:{[(f.node, f.at.hex(), f.cause) for f in result.lost_nodes]}"
        f":reexec:{result.reexecuted_tasks}"
        f":rerep:{result.rereplicated_bytes}".encode())
    return {"digest": digest.hexdigest(), "attempts": attempts,
            "makespan": result.makespan.hex()}


def load_fixture():
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_exactly_the_case_matrix():
    assert sorted(load_fixture()) == sorted(case_names())


def test_fault_cases_actually_inject_faults():
    """The matrix is only a freeze if its fault cells differ from the
    clean ones: a fault that never fires pins nothing."""
    fixture = load_fixture()
    for name in case_names():
        dag, shape, policy, fault, locality = name.split("|")
        if fault == "none":
            continue
        clean = fixture["|".join((dag, shape, policy, "none", locality))]
        assert fixture[name]["digest"] != clean["digest"], name


@pytest.mark.parametrize("dag_name", list(DAGS))
@pytest.mark.parametrize("shape", [f"{n}x{s}" for n, s in CLUSTERS])
def test_timelines_match_fixture(dag_name, shape):
    fixture = load_fixture()
    prefix = f"{dag_name}|{shape}|"
    mismatched = {}
    for name in case_names():
        if name.startswith(prefix):
            got = run_case(name)
            if got != fixture[name]:
                mismatched[name] = (fixture[name], got)
    assert not mismatched


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        with open(FIXTURE, "w", encoding="utf-8") as handle:
            json.dump({name: run_case(name) for name in case_names()},
                      handle, indent=1, sort_keys=True)
        print(f"wrote {FIXTURE} ({len(case_names())} cases)")
    else:
        print(__doc__)
