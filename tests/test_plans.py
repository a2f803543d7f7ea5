"""Unit tests for deployment plans and skyline utilities."""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.compiler import CompilerParams
from repro.core.plans import (
    DeploymentPlan,
    cheapest_within_deadline,
    fastest_within_budget,
    skyline,
)
from repro.errors import ValidationError


def plan(seconds, cost, nodes=2):
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, 2)
    return DeploymentPlan(spec, CompilerParams(), seconds, cost)


class TestDeploymentPlan:
    def test_validation(self):
        with pytest.raises(ValidationError):
            plan(0.0, 1.0)
        with pytest.raises(ValidationError):
            plan(10.0, -1.0)

    def test_dominates(self):
        assert plan(10, 1).dominates(plan(20, 2))
        assert plan(10, 1).dominates(plan(10, 2))
        assert not plan(10, 2).dominates(plan(20, 1))
        assert not plan(10, 1).dominates(plan(10, 1))

    def test_describe(self):
        text = plan(120, 0.5).describe()
        assert "120" in text and "$0.50" in text


class TestSkyline:
    def test_removes_dominated(self):
        plans = [plan(10, 5), plan(20, 3), plan(15, 6), plan(30, 1)]
        frontier = skyline(plans)
        assert [(p.estimated_seconds, p.estimated_cost) for p in frontier] \
            == [(10, 5), (20, 3), (30, 1)]

    def test_no_plan_dominated_within_skyline(self):
        plans = [plan(t, c) for t, c in
                 [(10, 9), (12, 7), (14, 8), (20, 3), (25, 3), (30, 1)]]
        frontier = skyline(plans)
        for a in frontier:
            for b in frontier:
                if a is not b:
                    assert not a.dominates(b)

    def test_empty(self):
        assert skyline([]) == []

    def test_single(self):
        only = plan(10, 1)
        assert skyline([only]) == [only]

    def test_duplicate_points(self):
        frontier = skyline([plan(10, 5), plan(10, 5)])
        assert len(frontier) == 1


class TestConstraintSolvers:
    def setup_method(self):
        self.plans = [plan(10, 9), plan(20, 5), plan(40, 2), plan(80, 1)]

    def test_cheapest_within_deadline(self):
        chosen = cheapest_within_deadline(self.plans, 25)
        assert chosen.estimated_cost == 5

    def test_deadline_tight(self):
        chosen = cheapest_within_deadline(self.plans, 10)
        assert chosen.estimated_seconds == 10

    def test_deadline_infeasible(self):
        assert cheapest_within_deadline(self.plans, 5) is None

    def test_fastest_within_budget(self):
        chosen = fastest_within_budget(self.plans, 5)
        assert chosen.estimated_seconds == 20

    def test_budget_infeasible(self):
        assert fastest_within_budget(self.plans, 0.5) is None

    def test_loose_constraints_pick_extremes(self):
        assert cheapest_within_deadline(self.plans, 10**9).estimated_cost == 1
        assert fastest_within_budget(self.plans, 10**9).estimated_seconds == 10
