"""RSVD-1 under a money budget: the paper's running optimization example.

Given the randomized-SVD sampling pipeline ``B = (A A')^q A G`` over a large
matrix, the analyst asks: "I have $X — how fast can I get my sketch?", and
the dual: "I need it by t — what is the cheapest cluster?".  This script
sweeps both constraints, contrasts hourly vs per-second billing, and sets
the surrogate-guided search beside the exhaustive grid: the plan each finds
and the simulations each spends.

Run with:  python examples/rsvd_budget.py
"""

from repro.api import (
    DeploymentOptimizer,
    SearchSpace,
    SearchSpec,
    get_instance_type,
    search,
)
from repro.cloud.pricing import PerSecondBilling
from repro.errors import InfeasibleConstraintError
from repro.workloads.rsvd import build_rsvd_program


def make_space() -> SearchSpace:
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge"),
                        get_instance_type("m2.4xlarge")),
        node_counts=(2, 4, 8, 16, 32),
        slots_options=(2, 4, 8),
    )


def main() -> None:
    program = build_rsvd_program(rows=131072, cols=32768, sketch_cols=2048,
                                 power_iterations=1)
    optimizer = DeploymentOptimizer(program, tile_size=2048)
    space = make_space()

    print("budget sweep (hourly billing):")
    for budget in (2.0, 5.0, 10.0, 25.0, 50.0):
        try:
            plan = search(optimizer, SearchSpec(
                objective="min-time", budget_dollars=budget,
                space=space)).plan
            print(f"  ${budget:>5.2f} -> {plan.estimated_seconds / 60:6.1f} "
                  f"min on {plan.spec.describe()}")
        except InfeasibleConstraintError:
            print(f"  ${budget:>5.2f} -> infeasible")

    print("\ndeadline sweep, hourly vs per-second billing:")
    exact = DeploymentOptimizer(program, tile_size=2048,
                                billing=PerSecondBilling())
    for minutes in (20, 40, 60, 120, 240):
        spec = SearchSpec(deadline_seconds=minutes * 60.0, space=space)
        hourly_plan = search(optimizer, spec).plan
        exact_plan = search(exact, spec).plan
        print(f"  {minutes:>4d} min -> hourly ${hourly_plan.estimated_cost:6.2f}"
              f"   per-second ${exact_plan.estimated_cost:6.2f}")

    print("\nsurrogate vs exhaustive grid (deadline = 60 min):")
    for method in ("exhaustive", "surrogate"):
        # A fresh optimizer each, so neither rides the other's memo.
        result = search(DeploymentOptimizer(program, tile_size=2048),
                        SearchSpec(deadline_seconds=3600.0, space=space,
                                   method=method))
        print(f"  {method:<10}: {result.plan.describe()}  "
              f"({result.stats.sim_requests} simulations, "
              f"{result.stats.wall_seconds:.2f}s search)")


if __name__ == "__main__":
    main()
