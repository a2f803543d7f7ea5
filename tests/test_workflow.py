"""Unit tests for the workflow (multi-stage) optimizer."""

import pytest

from repro.cloud.instances import get_instance_type
from repro.core.optimizer import SearchSpace
from repro.core.physical import MatMulParams
from repro.core.workflow import (
    WorkflowOptimizer,
    WorkflowStage,
)
from repro.errors import InfeasibleConstraintError, ValidationError
from repro.workloads.chains import build_multiply_program
from repro.workloads.gnmf import build_gnmf_program

TILE = 2048


def heavy_stage():
    return WorkflowStage("factorize",
                         build_gnmf_program(20480, 10240, 128, iterations=4))


def light_stage():
    return WorkflowStage("postprocess",
                         build_multiply_program(4096, 4096, 4096))


@pytest.fixture(scope="module")
def space():
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge")),
        node_counts=(1, 2, 4, 8, 16),
        slots_options=(2, 4),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(2, 2, 1)),
    )


@pytest.fixture(scope="module")
def optimizer():
    return WorkflowOptimizer([heavy_stage(), light_stage()], TILE)


class TestSharedStrategy:
    def test_feasible_plan(self, optimizer, space):
        plan = optimizer.optimize_shared(2 * 3600.0, space)
        assert plan.strategy == "shared"
        assert plan.total_seconds <= 2 * 3600.0
        assert len(plan.assignments) == 2
        # Shared: every stage runs on the identical spec.
        specs = {(a.plan.spec.instance_type.name, a.plan.spec.num_nodes,
                  a.plan.spec.slots_per_node) for a in plan.assignments}
        assert len(specs) == 1

    def test_infeasible_deadline(self, optimizer, space):
        with pytest.raises(InfeasibleConstraintError):
            optimizer.optimize_shared(10.0, space)


class TestPerStageStrategy:
    def test_feasible_plan(self, optimizer, space):
        plan = optimizer.optimize_per_stage(2 * 3600.0, space)
        assert plan.strategy == "per-stage"
        assert plan.total_seconds <= 2 * 3600.0 * 1.01

    def test_stages_can_differ(self, optimizer, space):
        plan = optimizer.optimize_per_stage(2 * 3600.0, space)
        sizes = [a.plan.spec.num_nodes for a in plan.assignments]
        # The heavy factorization stage gets at least as many nodes.
        assert sizes[0] >= sizes[1]

    def test_infeasible_deadline(self, optimizer, space):
        with pytest.raises(InfeasibleConstraintError):
            optimizer.optimize_per_stage(10.0, space)


class TestRecommendation:
    def test_returns_cheaper_strategy(self, optimizer, space):
        deadline = 2 * 3600.0
        shared = optimizer.optimize_shared(deadline, space)
        per_stage = optimizer.optimize_per_stage(deadline, space)
        chosen = optimizer.recommend(deadline, space)
        assert chosen.total_cost == min(shared.total_cost,
                                        per_stage.total_cost)

    def test_homogeneous_pipeline_prefers_shared(self, space):
        stages = [WorkflowStage(f"s{i}",
                                build_multiply_program(16384, 16384, 16384))
                  for i in range(3)]
        optimizer = WorkflowOptimizer(stages, TILE)
        chosen = optimizer.recommend(3 * 3600.0, space)
        # Identical stages: one cluster amortizes startup; per-stage pays
        # three startups and three billing minimums for nothing.
        assert chosen.strategy == "shared"

    def test_validation(self):
        with pytest.raises(ValidationError):
            WorkflowOptimizer([], TILE)
        with pytest.raises(ValidationError):
            WorkflowStage("", build_multiply_program(64, 64, 64))
