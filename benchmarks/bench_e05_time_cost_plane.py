"""E5 — The deployment plan space in the time/cost plane (RSVD-1).

The paper's central optimizer picture: every candidate deployment (instance
type x cluster size x configuration, each with tuned physical parameters) is
one point; the skyline is the Pareto frontier the user chooses from.
Expected shape: no single instance type owns the frontier, larger clusters
buy time with money, and hourly billing makes cost a step function of
cluster size rather than a smooth curve.
"""

from repro.cloud.instances import get_instance_type
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.physical import MatMulParams
from repro.core.plans import skyline
from repro.workloads.rsvd import build_rsvd_program

from benchmarks.common import Table, report

TILE = 2048


def build_plane():
    program = build_rsvd_program(rows=65536, cols=16384, sketch_cols=2048,
                                 power_iterations=1)
    optimizer = DeploymentOptimizer(program, tile_size=TILE)
    space = SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge"),
                        get_instance_type("m2.xlarge")),
        node_counts=(2, 4, 8, 16, 32),
        slots_options=(2, 4, 8),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(2, 2, 1)),
    )
    plans = optimizer.enumerate_plans(space)
    frontier = skyline(plans)
    return plans, frontier


def test_e05_time_cost_plane(benchmark):
    plans, frontier = benchmark.pedantic(build_plane, rounds=1, iterations=1)
    rows = [[plan.spec.instance_type.name, plan.spec.num_nodes,
             plan.spec.slots_per_node, plan.estimated_seconds / 60.0,
             plan.estimated_cost, "*" if plan in frontier else ""]
            for plan in sorted(plans, key=lambda p: p.estimated_seconds)]
    report(Table(
        experiment="E05",
        title="RSVD-1 deployment plans (minutes, dollars; * = skyline)",
        headers=["instance", "nodes", "slots", "time_min", "cost_usd", "sky"],
        rows=rows,
    ))
    assert len(frontier) >= 3, "frontier should offer real choices"
    # Time must span a wide range (provisioning matters).
    times = [plan.estimated_seconds for plan in plans]
    assert max(times) / min(times) > 3.0
    # The frontier must trade money for time monotonically.
    for earlier, later in zip(frontier, frontier[1:]):
        assert later.estimated_seconds > earlier.estimated_seconds
        assert later.estimated_cost < earlier.estimated_cost


def test_e05_frontier_mixes_cluster_sizes(benchmark):
    __, frontier = benchmark.pedantic(build_plane, rounds=1, iterations=1)
    sizes = {plan.spec.num_nodes for plan in frontier}
    assert len(sizes) >= 2, "skyline should include several cluster sizes"
