"""E21 — Extension: workflow deployment — shared cluster vs per-stage.

A pipeline with a compute-heavy multiply followed by a light, overhead-bound
power-iteration stage is priced two ways under a deadline sweep.  Expected
shape: *non-monotone* — at tight deadlines shared wins (the light stage
fits inside the hour the big cluster is already paying for); in a middle
band per-stage wins (the light stage pushes the shared big cluster across
an hour boundary, while right-sizing runs it on one cheap node); at loose
deadlines shared wins again (everything fits on one small cluster).
Finding this band automatically is what the workflow optimizer is for.
"""

from repro.cloud.instances import get_instance_type
from repro.core.optimizer import SearchSpace
from repro.core.physical import MatMulParams
from repro.core.workflow import WorkflowOptimizer, WorkflowStage
from repro.errors import InfeasibleConstraintError
from repro.workloads.chains import (
    build_multiply_program,
    build_power_iteration_program,
)

from benchmarks.common import Table, report

TILE = 4096
DEADLINES_MIN = [60, 90, 240]


def make_optimizer():
    stages = [
        WorkflowStage("bigmult",
                      build_multiply_program(49152, 49152, 49152)),
        WorkflowStage("pagerank",
                      build_power_iteration_program(
                          32768, iterations=60, adjacency_density=0.005)),
    ]
    return WorkflowOptimizer(stages, TILE)


def make_space():
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge")),
        node_counts=(1, 2, 4, 8, 16, 32),
        slots_options=(2, 4),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(2, 2, 1),
                        MatMulParams(1, 1, 8), MatMulParams(2, 2, 8)),
    )


def build_series():
    optimizer = make_optimizer()
    space = make_space()
    rows = []
    for minutes in DEADLINES_MIN:
        deadline = minutes * 60.0
        cells = [minutes]
        for solver in (optimizer.optimize_shared,
                       optimizer.optimize_per_stage):
            try:
                plan = solver(deadline, space)
                cells.append(plan.total_cost)
            except InfeasibleConstraintError:
                cells.append(float("nan"))
        chosen = optimizer.recommend(deadline, space)
        cells.append(chosen.strategy)
        rows.append(cells)
    return rows


def test_e21_workflow_strategies(benchmark):
    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    report(Table(
        experiment="E21",
        title="Heavy+light pipeline: shared vs per-stage cluster ($)",
        headers=["deadline_min", "shared_usd", "per_stage_usd", "chosen"],
        rows=rows,
    ))
    by_deadline = {row[0]: row for row in rows}
    # Both strategies feasible at every sweep point.
    for row in rows:
        assert row[1] == row[1] and row[2] == row[2]  # not NaN
    # Costs relax as deadlines loosen.
    shared = [row[1] for row in rows]
    assert shared == sorted(shared, reverse=True)
    # The recommendation always matches the cheaper column...
    for row in rows:
        expected = "shared" if row[1] <= row[2] else "per-stage"
        assert row[3] == expected
    # ...and is non-constant: per-stage wins in the middle band only.
    assert by_deadline[60][3] == "shared"
    assert by_deadline[90][3] == "per-stage"
    assert by_deadline[240][3] == "shared"
