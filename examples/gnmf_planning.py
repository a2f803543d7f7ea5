"""GNMF in the cloud: correctness at laptop scale, planning at cloud scale.

The scenario from the paper's introduction: an analyst has a non-negative
matrix factorization to run for ten iterations and a deadline.  The script

1. runs a small GNMF instance end-to-end and checks it against numpy,
2. compares Cumulon's compiled plan against a SystemML-style MapReduce plan
   for the cloud-scale instance, and
3. prices deployments and picks the cheapest cluster that meets a deadline.

Run with:  python examples/gnmf_planning.py
"""

import numpy as np

from repro.api import (
    ClusterSpec,
    DeploymentOptimizer,
    SearchSpace,
    SearchSpec,
    get_instance_type,
    run_program,
    search,
)
from repro.baselines.systemml_program import compile_systemml_program
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import PhysicalContext
from repro.core.simcost import simulate_program
from repro.workloads.gnmf import build_gnmf_program, reference_gnmf


def verify_small_instance() -> None:
    rng = np.random.default_rng(7)
    v = rng.random((120, 80)) + 0.01
    w0 = rng.random((120, 8)) + 0.01
    h0 = rng.random((8, 80)) + 0.01
    program = build_gnmf_program(120, 80, 8, iterations=5)
    result = run_program(program, {"V": v, "W0": w0, "H0": h0}, tile_size=32)
    w_ref, h_ref = reference_gnmf(v, w0, h0, 5)
    residual = np.linalg.norm(v - result.output("W") @ result.output("H"))
    print("small GNMF matches numpy:",
          np.allclose(result.output("W"), w_ref))
    print(f"factorization residual ||V - WH||_F = {residual:.3f}")


def compare_with_systemml(program) -> None:
    spec = ClusterSpec(get_instance_type("m1.large"), 16, 2)
    model = CumulonCostModel()
    cumulon = compile_program(program, PhysicalContext(2048))
    systemml = compile_systemml_program(program, PhysicalContext(2048))
    t_cumulon = simulate_program(cumulon.dag, spec, model).seconds
    t_systemml = simulate_program(systemml.dag, spec, model).seconds
    print(f"\non {spec.describe()}:")
    print(f"  Cumulon : {len(list(cumulon.dag)):3d} jobs, "
          f"{t_cumulon / 60:.1f} min")
    print(f"  SystemML: {len(list(systemml.dag)):3d} jobs, "
          f"{t_systemml / 60:.1f} min  "
          f"({t_systemml / t_cumulon:.2f}x slower)")


def plan_deployment(program) -> None:
    optimizer = DeploymentOptimizer(program, tile_size=2048)
    space = SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge"),
                        get_instance_type("m2.xlarge")),
        node_counts=(4, 8, 16, 32),
        slots_options=(2, 4, 8),
    )
    print("\ndeployment skyline (10 GNMF iterations):")
    for plan in optimizer.skyline(space):
        print(f"  {plan.describe()}")
    for hours in (1.0, 2.0, 6.0):
        plan = search(optimizer, SearchSpec(
            deadline_seconds=hours * 3600.0, space=space)).plan
        print(f"deadline {hours:>4.1f}h -> {plan.describe()}")


def main() -> None:
    verify_small_instance()
    # Cloud-scale instance: a 40960 x 20480 matrix at rank 128.
    cloud = build_gnmf_program(40960, 20480, 128, iterations=10)
    compare_with_systemml(cloud)
    plan_deployment(cloud)


if __name__ == "__main__":
    main()
