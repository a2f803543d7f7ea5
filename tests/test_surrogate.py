"""Oracle differential: the surrogate search vs the exhaustive grid.

``method="exhaustive"`` is the ground truth.  Over dozens of seeded
random grids (deadline mode, budget mode, and the reliability-aware
deadline mode), ``method="surrogate"`` must return a plan that is (a)
actually feasible and (b) within ``TOLERANCE`` of the exhaustive optimum
— and it must agree with the oracle about infeasibility.  A
hypothesis property locks the stronger invariant that a returned plan is
*never* infeasible, for any grid/constraint the strategy can draw.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_workload
from repro.cloud.instances import get_instance_type
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    SearchSpace,
)
from repro.core.physical import MatMulParams
from repro.core.search import SearchSpec, search
from repro.core.surrogate import reliability_frontier
from repro.errors import InfeasibleConstraintError, ValidationError

#: The documented plan-quality target: the surrogate's objective value
#: stays within ``(1 + TOLERANCE)`` of the exhaustive optimum.
TOLERANCE = 0.10

INSTANCE_POOL = ("m1.small", "m1.medium", "m1.large", "m1.xlarge",
                 "c1.medium", "c1.xlarge", "m2.xlarge")

_PROGRAM_CACHE = {}


def optimizer_for(workload="multiply"):
    if workload not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[workload] = build_workload(workload, "tiny")
    program, tile = _PROGRAM_CACHE[workload]
    return DeploymentOptimizer(program, tile_size=tile)


def seeded_space(seed: int) -> SearchSpace:
    """A random-but-reproducible deployment grid."""
    rng = random.Random(seed)
    instances = tuple(
        get_instance_type(name)
        for name in rng.sample(INSTANCE_POOL, rng.randint(2, 3)))
    counts = tuple(sorted(rng.sample((1, 2, 4, 8, 16, 32),
                                     rng.randint(2, 4))))
    slots = tuple(sorted(rng.sample((1, 2, 4), rng.randint(1, 2))))
    matmuls = (MatMulParams(1, 1, 1), MatMulParams(2, 2, 1))[
        :rng.randint(1, 2)]
    return SearchSpace(instance_types=instances, node_counts=counts,
                       slots_options=slots, matmul_options=matmuls)


def solve(optimizer, method, space=None, **constraint):
    """``search()`` result, or None when the constraint is infeasible."""
    objective = "min-time" if "budget_dollars" in constraint else "min-cost"
    try:
        return search(optimizer, SearchSpec(objective=objective,
                                            method=method, space=space,
                                            **constraint))
    except InfeasibleConstraintError:
        return None


def assert_within_tolerance(surrogate_value, exact_value):
    assert surrogate_value <= exact_value * (1.0 + TOLERANCE) + 1e-9


class TestDeadlineDifferential:
    """min-cost under deadline: 10 seeded grids x 2 deadlines each."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("deadline", (240.0, 3600.0))
    def test_matches_oracle(self, seed, deadline):
        space = seeded_space(seed)
        exact = solve(optimizer_for(), "exhaustive", space,
                      deadline_seconds=deadline)
        surrogate_optimizer = optimizer_for()
        result = solve(surrogate_optimizer, "surrogate", space,
                       deadline_seconds=deadline)
        if result is None:
            assert exact is None, \
                "surrogate declared a feasible problem infeasible"
            return
        assert exact is not None, \
            "surrogate found a plan where the oracle proved none exists"
        plan = result.plan
        assert plan.estimated_seconds <= deadline
        assert_within_tolerance(plan.estimated_cost,
                                exact.plan.estimated_cost)
        # The surrogate never asks for more than the grid would.
        stats = surrogate_optimizer.last_search_stats
        assert stats.sim_requests <= \
            surrogate_optimizer.grid_sim_requests(space)


class TestBudgetDifferential:
    """min-time under budget over the same seeded grids."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("budget", (0.25, 8.0))
    def test_matches_oracle(self, seed, budget):
        space = seeded_space(seed)
        exact = solve(optimizer_for(), "exhaustive", space,
                      budget_dollars=budget)
        result = solve(optimizer_for(), "surrogate", space,
                       budget_dollars=budget)
        if result is None:
            assert exact is None
            return
        assert exact is not None
        plan = result.plan
        assert plan.estimated_cost <= budget
        assert_within_tolerance(plan.estimated_seconds,
                                exact.plan.estimated_seconds)


class TestReliableDifferential:
    """The reliability-aware deadline solver, same oracle contract."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        space = seeded_space(seed)
        reliability = ReliabilityModel(crash_rate_per_hour=0.3,
                                       scenarios=3, seed=seed)
        deadline = 600.0
        exact = solve(optimizer_for(), "exhaustive", space,
                      deadline_seconds=deadline, reliability=reliability)
        result = solve(optimizer_for(), "surrogate", space,
                       deadline_seconds=deadline, reliability=reliability)
        if result is None:
            assert exact is None
            return
        assert exact is not None
        reliable = result.reliable
        assert reliable is not None
        assert reliable.completion_rate == 1.0
        assert reliable.p95_seconds <= deadline
        assert_within_tolerance(reliable.mean_cost,
                                exact.reliable.mean_cost)

    def test_frontier_members_are_mutually_undominated(self):
        space = seeded_space(3)
        reliability = ReliabilityModel(crash_rate_per_hour=0.3,
                                       scenarios=3, seed=11)
        result = solve(optimizer_for(), "surrogate", space,
                       deadline_seconds=3600.0, reliability=reliability)
        frontier = result.reliable_frontier
        assert frontier == reliability_frontier(result.reliable_candidates)
        assert frontier, "at least the chosen plan joins the frontier"
        for a in frontier:
            for b in frontier:
                if a is b:
                    continue
                dominates = (a.p95_seconds <= b.p95_seconds
                             and a.mean_cost <= b.mean_cost
                             and a.completion_rate >= b.completion_rate
                             and (a.p95_seconds < b.p95_seconds
                                  or a.mean_cost < b.mean_cost
                                  or a.completion_rate > b.completion_rate))
                assert not dominates
        # Every non-member is dominated (or an exact tie of a member).
        for candidate in result.reliable_candidates:
            if candidate in frontier:
                continue
            assert any(
                other.p95_seconds <= candidate.p95_seconds
                and other.mean_cost <= candidate.mean_cost
                and other.completion_rate >= candidate.completion_rate
                for other in frontier)


class TestSimulationSavings:
    """The headline claim: far fewer simulations on a real-size grid."""

    def test_surrogate_prices_a_fraction_of_the_grid(self):
        space = SearchSpace(
            instance_types=tuple(get_instance_type(name) for name in
                                 ("m1.small", "m1.large", "c1.xlarge")),
            node_counts=(1, 2, 4, 8, 16, 32),
            slots_options=(1, 2, 4),
            matmul_options=(MatMulParams(1, 1, 1), MatMulParams(2, 2, 1)),
        )
        exact = solve(optimizer_for(), "exhaustive", space,
                      deadline_seconds=3600.0)
        optimizer = optimizer_for()
        result = solve(optimizer, "surrogate", space,
                       deadline_seconds=3600.0)
        stats = result.stats
        assert stats.sim_requests * 2 <= optimizer.grid_sim_requests(space)
        assert stats.simulations_avoided > 0
        assert stats.surrogate_rounds >= 0
        assert result.plan.estimated_cost <= \
            exact.plan.estimated_cost * (1.0 + TOLERANCE)

    def test_stats_account_for_the_full_grid(self):
        space = seeded_space(1)
        optimizer = optimizer_for()
        solve(optimizer, "surrogate", space, deadline_seconds=3600.0)
        stats = optimizer.last_search_stats
        assert stats.sim_requests + stats.simulations_avoided \
            <= optimizer.grid_sim_requests(space)


class TestConfigValidation:
    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValidationError):
            solve(optimizer_for(), "surrogate", deadline_seconds=0.0)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    deadline=st.floats(min_value=60.0, max_value=7200.0),
)
@settings(max_examples=15, deadline=None)
def test_surrogate_never_returns_infeasible(seed, deadline):
    """Whatever the grid and deadline, a returned plan meets the deadline.

    (Feasibility is proven by pricing, never predicted by the model — so
    this holds unconditionally, not just on average.)
    """
    space = seeded_space(seed)
    result = solve(optimizer_for(), "surrogate", space,
                   deadline_seconds=deadline)
    assert result is None or result.plan.estimated_seconds <= deadline


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    budget=st.floats(min_value=0.05, max_value=50.0),
)
@settings(max_examples=10, deadline=None)
def test_surrogate_never_overspends_budget(seed, budget):
    space = seeded_space(seed)
    result = solve(optimizer_for(), "surrogate", space,
                   budget_dollars=budget)
    assert result is None or result.plan.estimated_cost <= budget
