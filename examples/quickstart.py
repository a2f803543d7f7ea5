"""Quickstart: write a matrix program, run it, and plan its cloud deployment.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.api import (
    CumulonExecutor,
    DeploymentOptimizer,
    Program,
    SearchSpace,
    SearchSpec,
    get_instance_type,
    search,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Write a program in Cumulon's expression language.
    # ------------------------------------------------------------------
    program = Program("quickstart")
    a = program.declare_input("A", 512, 512)
    b = program.declare_input("B", 512, 512)
    c = program.assign("C", (a @ b) * 0.5 + a)     # multiply + fused ops
    program.assign("D", c.T @ c)                    # transposed reuse
    program.mark_output("C", "D")
    print(program.describe())

    # ------------------------------------------------------------------
    # 2. Execute it for real (tiled, parallel, verified against numpy).
    # ------------------------------------------------------------------
    rng = np.random.default_rng(0)
    inputs = {"A": rng.random((512, 512)), "B": rng.random((512, 512))}
    executor = CumulonExecutor(tile_size=128, max_workers=4)
    result = executor.run(program, inputs)
    expected = (inputs["A"] @ inputs["B"]) * 0.5 + inputs["A"]
    print(f"\nC matches numpy: {np.allclose(result.output('C'), expected)}")
    print(f"compiled into {len(list(result.compiled.dag))} map-only jobs, "
          f"{result.compiled.dag.num_tasks()} tasks")

    # ------------------------------------------------------------------
    # 3. Ask the optimizer how to deploy the same program at cloud scale.
    # ------------------------------------------------------------------
    big = Program("quickstart-at-scale")
    a = big.declare_input("A", 32768, 32768)
    b = big.declare_input("B", 32768, 32768)
    c = big.assign("C", (a @ b) * 0.5 + a)
    big.assign("D", c.T @ c)
    big.mark_output("D")

    optimizer = DeploymentOptimizer(big, tile_size=2048)
    space = SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge")),
        node_counts=(4, 8, 16, 32),
        slots_options=(2, 4, 8),
    )
    print("\nTime/cost skyline for the 32768^2 version:")
    for plan in optimizer.skyline(space):
        print(f"  {plan.describe()}")

    spec = SearchSpec(objective="min-cost", deadline_seconds=3 * 3600.0,
                      space=space)
    best = search(optimizer, spec).plan
    print(f"\nCheapest plan finishing within 3 hours:\n  {best.describe()}")
    print(f"  physical parameters: {best.compiler_params.matmul}")


if __name__ == "__main__":
    main()
