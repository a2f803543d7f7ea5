"""E6 — Minimum cost as a function of the deadline (RSVD-1).

The paper's "what does a deadline cost?" curve.  Expected shape: a
non-increasing step function — tightening the deadline forces bigger (or
faster) clusters in discrete jumps, and hourly billing flattens cost between
jumps.  Under per-second billing the same sweep is much smoother, which is
the billing-model ablation.
"""

from repro.cloud.instances import get_instance_type
from repro.cloud.pricing import PerSecondBilling
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.physical import MatMulParams
from repro.core.search import SearchSpec, search
from repro.errors import InfeasibleConstraintError
from repro.workloads.rsvd import build_rsvd_program

from benchmarks.common import Table, report

TILE = 2048
DEADLINES_MIN = [10, 20, 30, 45, 60, 90, 120, 240]


def make_optimizer(billing=None):
    program = build_rsvd_program(rows=65536, cols=16384, sketch_cols=2048,
                                 power_iterations=1)
    if billing is None:
        return DeploymentOptimizer(program, tile_size=TILE)
    return DeploymentOptimizer(program, tile_size=TILE, billing=billing)


def make_space():
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge")),
        node_counts=(1, 2, 4, 8, 16, 32),
        slots_options=(2, 4, 8),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(2, 2, 1)),
    )


def build_series():
    space = make_space()
    hourly = make_optimizer()
    exact = make_optimizer(PerSecondBilling(minimum_seconds=60.0))
    rows = []
    for minutes in DEADLINES_MIN:
        spec = SearchSpec(deadline_seconds=minutes * 60.0, space=space)
        try:
            hourly_plan = search(hourly, spec).plan
            hourly_cell = hourly_plan.estimated_cost
            spec_cell = (f"{hourly_plan.spec.num_nodes}x"
                         f"{hourly_plan.spec.instance_type.name}")
        except InfeasibleConstraintError:
            hourly_cell, spec_cell = float("nan"), "infeasible"
        try:
            exact_cost = search(exact, spec).plan.estimated_cost
        except InfeasibleConstraintError:
            exact_cost = float("nan")
        rows.append([minutes, hourly_cell, exact_cost, spec_cell])
    return rows


def test_e06_cost_vs_deadline(benchmark):
    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    report(Table(
        experiment="E06",
        title="RSVD-1: cheapest feasible plan vs deadline",
        headers=["deadline_min", "cost_hourly_usd", "cost_per_second_usd",
                 "chosen_cluster"],
        rows=rows,
    ))
    feasible = [row for row in rows if row[3] != "infeasible"]
    assert len(feasible) >= 5
    hourly_costs = [row[1] for row in feasible]
    # Non-increasing as the deadline relaxes.
    for earlier, later in zip(hourly_costs, hourly_costs[1:]):
        assert later <= earlier + 1e-9
    # Tight deadlines are materially more expensive than loose ones.
    assert hourly_costs[0] > 1.5 * hourly_costs[-1]
    # Hourly billing never undercuts per-second billing.
    for __, hourly_cost, exact_cost, label in feasible:
        assert hourly_cost >= exact_cost - 1e-9
    # Step shape: some adjacent deadlines share the same (plateau) cost.
    assert any(abs(a - b) < 1e-9
               for a, b in zip(hourly_costs, hourly_costs[1:]))
