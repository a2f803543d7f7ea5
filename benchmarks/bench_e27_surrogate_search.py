"""E27 — Surrogate-guided search: same plans, a fraction of the pricing.

The tentpole claim behind ``repro.core.surrogate``: on a reliability-aware
cost-vs-deadline sweep over GNMF (the E22 shape, on a production-size
deployment grid), the model-guided search returns the *identical* plan at
every deadline while issuing at least 5x fewer simulation requests than
the exhaustive method.  The sweep deliberately crosses the workload's
p95 runtime so deadline pressure actually changes the chosen cluster —
the surrogate has to track the feasibility boundary, not just the cost
minimum.

Both methods run with the memo and parallel pricing on; the comparison
isolates what the surrogate itself saves (requests never made), not what
the cache absorbs.  ``REPRO_BENCH_TINY=1`` shortens the sweep to its two
endpoint deadlines for CI smoke; the grid and the >=5x bar stay the same.
"""

import os
import time

from repro.cloud import get_instance_type
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    SearchSpace,
)
from repro.core.physical import MatMulParams
from repro.core.search import SearchSpec, search
from repro.errors import InfeasibleConstraintError
from repro.workloads import build_gnmf_program

from benchmarks.common import Table, report

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))
TILE = 1024
DEADLINES_MIN = [15, 6] if TINY else [15, 10, 8, 6]
SCENARIOS = 5
MIN_SAVINGS = 5.0


def make_program():
    return build_gnmf_program(16384, 8192, 256, iterations=3)


def make_space():
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge"),
                        get_instance_type("m2.4xlarge"),
                        get_instance_type("m1.xlarge")),
        node_counts=(1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64),
        slots_options=(1, 2, 4),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(1, 1, 2)),
    )


def make_reliability():
    return ReliabilityModel(crash_rate_per_hour=0.3, scenarios=SCENARIOS,
                            seed=11)


def plan_key(plan):
    return (plan.spec.instance_type.name, plan.spec.num_nodes,
            plan.spec.slots_per_node, plan.tile_size, plan.compiler_params)


def sweep(optimizer, method):
    """One cost-vs-deadline curve: (plans, wall secs, sims, avoided)."""
    space = make_space()
    plans = []
    sims = avoided = 0
    started = time.perf_counter()
    for minutes in DEADLINES_MIN:
        try:
            plans.append(search(optimizer, SearchSpec(
                deadline_seconds=minutes * 60.0, method=method, space=space,
                reliability=make_reliability())).plan)
        except InfeasibleConstraintError:
            plans.append(None)
        sims += optimizer.last_search_stats.sim_requests
        avoided += optimizer.last_search_stats.simulations_avoided
    return plans, time.perf_counter() - started, sims, avoided


def build_series():
    program = make_program()
    exhaustive = DeploymentOptimizer(program, tile_size=TILE, workers=4)
    surrogate = DeploymentOptimizer(program, tile_size=TILE, workers=4)
    grid_plans, grid_seconds, grid_sims, __ = sweep(exhaustive, "exhaustive")
    model_plans, model_seconds, model_sims, avoided = sweep(surrogate,
                                                            "surrogate")
    rows = []
    for minutes, grid_plan, model_plan in zip(DEADLINES_MIN, grid_plans,
                                              model_plans):
        label = ("infeasible" if grid_plan is None else
                 f"{grid_plan.spec.num_nodes}x"
                 f"{grid_plan.spec.instance_type.name}"
                 f"/{grid_plan.spec.slots_per_node}")
        identical = ((grid_plan is None and model_plan is None)
                     or (grid_plan is not None and model_plan is not None
                         and plan_key(grid_plan) == plan_key(model_plan)))
        rows.append([minutes, label, identical])
    ratio = grid_sims / model_sims if model_sims else float("inf")
    summary = [grid_sims, model_sims, ratio, avoided,
               grid_seconds, model_seconds]
    return rows, summary


def test_e27_surrogate_search(benchmark):
    rows, summary = benchmark.pedantic(build_series, rounds=1, iterations=1)
    grid_sims, model_sims, ratio, avoided, grid_s, model_s = summary
    report(Table(
        experiment="E27",
        title="GNMF reliable deadline sweep: surrogate vs exhaustive grid",
        headers=["deadline_min", "chosen_cluster", "identical_plan"],
        rows=rows + [["total_sims", f"{grid_sims} vs {model_sims}",
                      f"savings={ratio:.1f}x avoided={avoided}"]],
    ), summary={
        "exhaustive_sims": grid_sims,
        "surrogate_sims": model_sims,
        "sims_saved_ratio": round(ratio, 3),
        "simulations_avoided": avoided,
        "exhaustive_seconds": round(grid_s, 4),
        "surrogate_seconds": round(model_s, 4),
    }, params={"tile": TILE, "deadlines": len(DEADLINES_MIN),
               "scenarios": SCENARIOS, "tiny": int(TINY)})
    # The surrogate must change nothing but the amount of simulation.
    assert all(identical for __, __, identical in rows)
    assert any(label != "infeasible" for __, label, __ in rows)
    # Acceptance: at least 5x fewer simulation requests than the grid.
    assert ratio >= MIN_SAVINGS
    # And the headline stat must be visible in the search telemetry.
    assert avoided > 0
