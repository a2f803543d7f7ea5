"""Running on unreliable infrastructure: failures, stragglers, and spot.

Demonstrates the reproduction's extensions on one GNMF deployment:

1. how injected task failures stretch the predicted wall-clock,
2. how speculative execution rescues a degraded (slow) node, and
3. what the same work costs on the spot market at several bid levels.

Run with:  python examples/spot_and_faults.py
"""

from repro.api import ClusterSpec, get_instance_type
from repro.cloud.spot import (
    SpotMarket,
    estimate_spot_deployment,
    on_demand_cost,
)
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import PhysicalContext
from repro.hadoop.faults import RandomFailures
from repro.hadoop.simulator import ClusterSimulator, KILLED
from repro.workloads.gnmf import build_gnmf_program


def make_dag():
    program = build_gnmf_program(40960, 20480, 128, iterations=5)
    return compile_program(program, PhysicalContext(2048)).dag


def main() -> None:
    spec = ClusterSpec(get_instance_type("m1.large"), 8, 2)
    model = CumulonCostModel()

    baseline = ClusterSimulator(spec, model).run(make_dag()).makespan
    print(f"GNMF x5 on {spec.describe()}: {baseline / 60:.1f} min clean\n")

    print("task failures:")
    for rate in (0.02, 0.05, 0.10):
        failures = RandomFailures(probability=rate, seed=1, max_attempts=10)
        result = ClusterSimulator(spec, model,
                                  failures=failures).run(make_dag())
        print(f"  {rate:4.0%} failure rate -> {result.makespan / 60:5.1f} min"
              f"  (+{result.makespan / baseline - 1:.1%})")

    print("\none node 8x degraded:")
    for speculative in (False, True):
        sim = ClusterSimulator(spec, model, speculative=speculative,
                               slow_nodes={"m1.large-0": 8.0})
        result = sim.run(make_dag())
        label = "speculation on " if speculative else "speculation off"
        print(f"  {label}: {result.makespan / 60:5.1f} min"
              f"  ({result.count_attempts(KILLED)} duplicates killed)")

    work = baseline
    print(f"\nspot market (on-demand cost ${on_demand_cost(spec, work):.2f}):")
    market = SpotMarket(base_discount=0.3, volatility=0.8)
    for bid in (0.25, 0.5, 1.0):
        estimate = estimate_spot_deployment(spec, work, bid, market,
                                            checkpointing=True, samples=200)
        print(f"  bid {bid:4.2f}x on-demand -> "
              f"${estimate.mean_cost:5.2f} mean, "
              f"{estimate.mean_seconds / 3600:4.1f}h mean, "
              f"{estimate.p95_seconds / 3600:4.1f}h p95")


if __name__ == "__main__":
    main()
