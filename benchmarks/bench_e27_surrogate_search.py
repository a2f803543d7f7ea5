"""E27 — Search by floor and by surrogate: same plans, a fraction of the grid.

The tentpole claim behind ``repro.core.surrogate``, restated since the
exhaustive method stopped pricing the whole grid: on a reliability-aware
cost-vs-deadline sweep over GNMF (the E22 shape, on a production-size
deployment grid), both methods return the *identical* plan at every
deadline, and each issues at least 5x fewer simulation requests than the
full unpruned grid (``grid_sim_requests``) — the exhaustive method by
settling specs on their proven floor, the surrogate by the floor plus
its model.  Three columns per deadline: full grid, exhaustive + floor,
surrogate + floor.  The sweep deliberately crosses the workload's p95
runtime so deadline pressure actually changes the chosen cluster — the
search has to track the feasibility boundary, not just the cost minimum.

Both methods run with the memo and parallel pricing on; the comparison
counts requests never made, not what the cache absorbs.
``REPRO_BENCH_TINY=1`` shortens the sweep to its two endpoint deadlines
for CI smoke; the grid and the >=5x bar stay the same.
"""

import os
import time

from repro.cloud.instances import get_instance_type
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    SearchSpace,
)
from repro.core.physical import MatMulParams
from repro.core.search import SearchSpec, search
from repro.errors import InfeasibleConstraintError
from repro.workloads.gnmf import build_gnmf_program

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
    """One cost-vs-deadline curve: (plans, wall secs, sims per deadline)."""
    space = make_space()
    plans, sims = [], []
    started = time.perf_counter()
    for minutes in DEADLINES_MIN:
        try:
            plans.append(search(optimizer, SearchSpec(
                deadline_seconds=minutes * 60.0, method=method, space=space,
                reliability=make_reliability())).plan)
        except InfeasibleConstraintError:
            plans.append(None)
        sims.append(optimizer.last_search_stats.sim_requests)
    return plans, time.perf_counter() - started, sims


def build_series():
    program = make_program()
    exhaustive = DeploymentOptimizer(program, tile_size=TILE, workers=4)
    surrogate = DeploymentOptimizer(program, tile_size=TILE, workers=4)
    full_grid = exhaustive.grid_sim_requests(make_space(), SCENARIOS)
    grid_plans, grid_seconds, grid_sims = sweep(exhaustive, "exhaustive")
    model_plans, model_seconds, model_sims = sweep(surrogate, "surrogate")
    rows = []
    for minutes, grid_plan, model_plan, exact, guided in zip(
            DEADLINES_MIN, grid_plans, model_plans, grid_sims, model_sims):
        label = ("infeasible" if grid_plan is None else
                 f"{grid_plan.spec.num_nodes}x"
                 f"{grid_plan.spec.instance_type.name}"
                 f"/{grid_plan.spec.slots_per_node}")
        identical = ((grid_plan is None and model_plan is None)
                     or (grid_plan is not None and model_plan is not None
                         and plan_key(grid_plan) == plan_key(model_plan)))
        rows.append([minutes, label, identical, full_grid, exact, guided])
    summary = [full_grid * len(DEADLINES_MIN), sum(grid_sims),
               sum(model_sims), grid_seconds, model_seconds]
    return rows, summary


def test_e27_surrogate_search(benchmark):
    rows, summary = benchmark.pedantic(build_series, rounds=1, iterations=1)
    full_sims, grid_sims, model_sims, grid_s, model_s = summary
    grid_ratio = full_sims / grid_sims
    model_ratio = full_sims / model_sims
    report(Table(
        experiment="E27",
        title="GNMF reliable deadline sweep: full grid vs exhaustive + "
              "floor vs surrogate + floor",
        headers=["deadline_min", "chosen_cluster", "identical_plan",
                 "full_grid_sims", "exhaustive_sims", "surrogate_sims"],
        rows=rows + [["total", "savings vs full grid",
                      f"{grid_ratio:.1f}x / {model_ratio:.1f}x",
                      full_sims, grid_sims, model_sims]],
    ), summary={
        "full_grid_sims": full_sims,
        "exhaustive_sims": grid_sims,
        "surrogate_sims": model_sims,
        "exhaustive_saved_ratio": round(grid_ratio, 3),
        "sims_saved_ratio": round(model_ratio, 3),
        "simulations_avoided": full_sims - model_sims,
        "exhaustive_seconds": round(grid_s, 4),
        "surrogate_seconds": round(model_s, 4),
    }, params={"tile": TILE, "deadlines": len(DEADLINES_MIN),
               "scenarios": SCENARIOS, "tiny": int(TINY)})
    # Neither method may change anything but the amount of simulation.
    assert all(row[2] for row in rows)
    assert any(row[1] != "infeasible" for row in rows)
    # Acceptance: each at least 5x fewer simulation requests than the
    # full grid.
    assert grid_ratio >= MIN_SAVINGS
    assert model_ratio >= MIN_SAVINGS
