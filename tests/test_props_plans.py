"""Property-based tests: skyline, constraint solvers, billing, cost model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.pricing import HourlyBilling, PerSecondBilling
from repro.core.compiler import CompilerParams
from repro.core.costmodel import CumulonCostModel
from repro.core.plans import (
    DeploymentPlan,
    cheapest_within_deadline,
    fastest_within_budget,
    skyline,
)
from repro.hadoop.task import TaskWork, make_map_task

POINT = st.tuples(st.floats(min_value=1.0, max_value=10_000.0),
                  st.floats(min_value=0.01, max_value=1_000.0))


def make_plans(points):
    spec = ClusterSpec(get_instance_type("m1.large"), 1, 1)
    return [DeploymentPlan(spec, CompilerParams(), seconds, cost)
            for seconds, cost in points]


@given(points=st.lists(POINT, min_size=1, max_size=40))
@settings(max_examples=80, deadline=None)
def test_skyline_is_pareto_frontier(points):
    plans = make_plans(points)
    frontier = skyline(plans)
    # 1. Nothing inside the frontier dominates anything else inside.
    for a in frontier:
        for b in frontier:
            if a is not b:
                assert not a.dominates(b)
    # 2. Every excluded plan is dominated or duplicated by a frontier plan.
    for plan in plans:
        if plan in frontier:
            continue
        assert any(other.dominates(plan)
                   or (other.estimated_seconds == plan.estimated_seconds
                       and other.estimated_cost == plan.estimated_cost)
                   for other in frontier)
    # 3. Frontier is sorted by time with strictly decreasing cost.
    times = [plan.estimated_seconds for plan in frontier]
    costs = [plan.estimated_cost for plan in frontier]
    assert times == sorted(times)
    assert all(costs[i] > costs[i + 1] for i in range(len(costs) - 1))


@given(points=st.lists(POINT, min_size=1, max_size=40),
       deadline=st.floats(min_value=1.0, max_value=10_000.0))
@settings(max_examples=60, deadline=None)
def test_deadline_solver_is_optimal(points, deadline):
    plans = make_plans(points)
    chosen = cheapest_within_deadline(plans, deadline)
    feasible = [plan for plan in plans if plan.estimated_seconds <= deadline]
    if not feasible:
        assert chosen is None
    else:
        assert chosen.estimated_seconds <= deadline
        assert chosen.estimated_cost == min(plan.estimated_cost
                                            for plan in feasible)


@given(points=st.lists(POINT, min_size=1, max_size=40),
       budget=st.floats(min_value=0.01, max_value=1_000.0))
@settings(max_examples=60, deadline=None)
def test_budget_solver_is_optimal(points, budget):
    plans = make_plans(points)
    chosen = fastest_within_budget(plans, budget)
    feasible = [plan for plan in plans if plan.estimated_cost <= budget]
    if not feasible:
        assert chosen is None
    else:
        assert chosen.estimated_cost <= budget
        assert chosen.estimated_seconds == min(plan.estimated_seconds
                                               for plan in feasible)


@given(seconds=st.floats(min_value=0.0, max_value=10**6),
       nodes=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_hourly_at_least_per_second(seconds, nodes):
    spec = ClusterSpec(get_instance_type("c1.medium"), nodes, 2)
    hourly = HourlyBilling().cost(spec, seconds)
    exact = PerSecondBilling(minimum_seconds=0.0).cost(spec, seconds)
    assert hourly >= exact - 1e-9
    assert hourly >= spec.hourly_rate - 1e-9  # minimum one hour


@given(bytes_read=st.integers(0, 10**10), bytes_written=st.integers(0, 10**10),
       flops=st.integers(0, 10**12), element_ops=st.integers(0, 10**11),
       concurrency=st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_cost_model_positive_and_monotone(bytes_read, bytes_written, flops,
                                          element_ops, concurrency):
    model = CumulonCostModel()
    instance = get_instance_type("c1.xlarge")
    base = make_map_task("t", TaskWork(bytes_read=bytes_read,
                                       bytes_written=bytes_written,
                                       flops=flops, element_ops=element_ops))
    duration = model.task_duration(base, instance, concurrency, True)
    assert duration > 0
    # Adding work never reduces the duration.
    bigger = make_map_task("t2", TaskWork(
        bytes_read=bytes_read + 10**6, bytes_written=bytes_written,
        flops=flops + 10**6, element_ops=element_ops))
    assert model.task_duration(bigger, instance, concurrency, True) \
        >= duration
    # Remote reads never beat local reads.
    assert model.task_duration(base, instance, concurrency, False) \
        >= duration - 1e-12
