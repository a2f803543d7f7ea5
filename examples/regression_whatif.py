"""Linear regression: real execution plus what-if capacity planning.

1. Fits an OLS model by running the normal-equations program end-to-end on
   synthetic data (the heavy X'X / X'y part runs through Cumulon's tiled
   executor; the k x k solve is local) and checks weight recovery.
2. What-if analysis: as the training set grows 1M -> 16M rows, how do the
   optimizer's cluster choice and cost evolve under a fixed 1-hour deadline?

Run with:  python examples/regression_whatif.py
"""

import numpy as np

from repro.api import (
    DeploymentOptimizer,
    SearchSpace,
    SearchSpec,
    get_instance_type,
    run_program,
    search,
)
from repro.data.generators import regression_dataset
from repro.errors import InfeasibleConstraintError
from repro.workloads.regression import (
    build_normal_equations_program,
    solve_normal_equations,
)


def fit_small_model() -> None:
    rows, features = 2000, 8
    x, y, w_true = regression_dataset(rows, features, seed=13, noise=0.05)
    program = build_normal_equations_program(rows, features)
    result = run_program(program,
                         {"X": x.to_numpy(), "y": y.to_numpy()},
                         tile_size=256)
    w_hat = solve_normal_equations(result.output("XtX"),
                                   result.output("Xty"))
    error = np.max(np.abs(w_hat.ravel() - w_true))
    print(f"fit {rows} x {features} OLS; max weight error = {error:.4f}")


def what_if_growth() -> None:
    space = SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge")),
        node_counts=(2, 4, 8, 16, 32),
        slots_options=(2, 4),
    )
    deadline = 3600.0
    print("\nwhat-if: cheapest cluster for X'X under a 1-hour deadline")
    print(f"{'rows':>12}  {'chosen cluster':<34} {'time':>8} {'cost':>8}")
    for millions in (1, 2, 4, 8, 16):
        rows = millions * 1024 * 1024
        program = build_normal_equations_program(rows, 4096)
        optimizer = DeploymentOptimizer(program, tile_size=2048)
        try:
            plan = search(optimizer, SearchSpec(
                deadline_seconds=deadline, space=space)).plan
            print(f"{rows:>12,}  {plan.spec.describe():<34}"
                  f" {plan.estimated_seconds / 60:6.1f}m"
                  f" ${plan.estimated_cost:7.2f}")
        except InfeasibleConstraintError:
            print(f"{rows:>12,}  -- no feasible plan --")


def main() -> None:
    fit_small_model()
    what_if_growth()


if __name__ == "__main__":
    main()
