"""E22 — Fast optimizer search: memoized + parallel vs sequential.

The engineering claim behind the search-performance work: a reliability-
aware cost-vs-deadline sweep over GNMF (the E6-style curve, with failure
scenarios) runs at least 3x faster with the simulation memo, parallel
candidate pricing, and early scenario abort than the sequential baseline
that prices every candidate from scratch — while returning the *identical*
plan at every deadline.  The sweep is the realistic shape: each deadline
re-runs the same grid, so the memo converts the second and third passes
into near-pure cache hits, and early abort skips scenarios that cannot
change the answer.
"""

import time

from repro.cloud.instances import get_instance_type
from repro.core.evalcache import NULL_EVAL_CACHE
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    SearchSpace,
)
from repro.core.physical import MatMulParams
from repro.core.search import SearchSpec, _search
from repro.errors import InfeasibleConstraintError
from repro.workloads.gnmf import build_gnmf_program

from benchmarks.common import Table, report

TILE = 1024
DEADLINES_MIN = [150, 120, 90, 60]
SCENARIOS = 5


def make_program():
    return build_gnmf_program(16384, 8192, 256, iterations=3)


def make_space():
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge")),
        node_counts=(1, 2, 4, 8, 16),
        slots_options=(2,),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(1, 1, 2)),
    )


def make_reliability():
    return ReliabilityModel(crash_rate_per_hour=0.3, scenarios=SCENARIOS,
                            seed=11)


def sweep(optimizer, early_abort):
    """One reliability-aware cost-vs-deadline curve; returns (rows, secs).

    ``early_abort=False`` is the search driver's unpruned reference pass.
    """
    space = make_space()
    results = []
    started = time.perf_counter()
    for minutes in DEADLINES_MIN:
        spec = SearchSpec(deadline_seconds=minutes * 60.0, space=space,
                          reliability=make_reliability())
        try:
            results.append((minutes, _search(
                optimizer, spec, early_abort=early_abort).plan))
        except InfeasibleConstraintError:
            results.append((minutes, None))
    return results, time.perf_counter() - started


def build_series():
    program = make_program()
    sequential = DeploymentOptimizer(program, tile_size=TILE,
                                     cache=NULL_EVAL_CACHE, workers=0)
    fast = DeploymentOptimizer(program, tile_size=TILE, workers=4)
    slow_results, slow_seconds = sweep(sequential, early_abort=False)
    fast_results, fast_seconds = sweep(fast, early_abort=True)
    rows = []
    for (minutes, slow_plan), (__, fast_plan) in zip(slow_results,
                                                     fast_results):
        label = ("infeasible" if slow_plan is None else
                 f"{slow_plan.spec.num_nodes}x"
                 f"{slow_plan.spec.instance_type.name}")
        rows.append([minutes, label, slow_plan == fast_plan])
    speedup = slow_seconds / fast_seconds if fast_seconds > 0 else float("inf")
    summary = [slow_seconds, fast_seconds, speedup, fast.cache.hit_rate]
    return rows, summary


def test_e22_search_speed(benchmark):
    rows, summary = benchmark.pedantic(build_series, rounds=1, iterations=1)
    slow_seconds, fast_seconds, speedup, hit_rate = summary
    report(Table(
        experiment="E22",
        title="GNMF reliable deadline sweep: memo+parallel vs sequential",
        headers=["deadline_min", "chosen_cluster", "identical_plan"],
        rows=rows + [["total_s", f"{slow_seconds:.2f} vs {fast_seconds:.2f}",
                      f"speedup={speedup:.1f}x hit_rate={hit_rate:.2f}"]],
    ), summary={
        "sequential_seconds": round(slow_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "speedup": round(speedup, 3),
        "cache_hit_rate": round(hit_rate, 4),
    }, params={"tile": TILE, "deadlines": len(DEADLINES_MIN),
               "scenarios": SCENARIOS})
    # The fast search must change nothing but the wall clock.
    assert all(identical for __, __, identical in rows)
    assert any(label != "infeasible" for __, label, __ in rows)
    # Acceptance: at least 3x faster than the sequential baseline.
    assert speedup >= 3.0
    # And the savings must come from the memo actually hitting.
    assert hit_rate > 0.4
