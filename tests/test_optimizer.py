"""Unit tests for the deployment optimizer."""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.pricing import HourlyBilling, PerSecondBilling
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.physical import MatMulParams
from repro.core.search import SearchSpec, search
from repro.errors import InfeasibleConstraintError, ValidationError
from repro.workloads.chains import build_multiply_program


@pytest.fixture(scope="module")
def optimizer():
    program = build_multiply_program(8192, 8192, 8192)
    return DeploymentOptimizer(program, tile_size=1024)


def min_cost(optimizer, deadline, space, **spec):
    return search(optimizer, SearchSpec(deadline_seconds=deadline,
                                        space=space, **spec))


def min_time(optimizer, budget, space):
    return search(optimizer, SearchSpec(objective="min-time",
                                        budget_dollars=budget,
                                        space=space)).plan


@pytest.fixture(scope="module")
def space():
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge")),
        node_counts=(1, 2, 4, 8),
        slots_options=(1, 2, 4, 8),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(2, 2, 1)),
    )


class TestEnumeration:
    def test_grid_size(self, optimizer, space):
        plans = optimizer.enumerate_plans(space)
        # m1.large admits slots {1,2,4}, c1.xlarge {1,2,4,8}: (3+4)*4 specs.
        assert len(plans) == 28

    def test_all_plans_have_positive_estimates(self, optimizer, space):
        for plan in optimizer.enumerate_plans(space):
            assert plan.estimated_seconds > 0
            assert plan.estimated_cost > 0

    def test_startup_included(self, space):
        from repro.core.compiler import CompilerParams
        program = build_multiply_program(2048, 2048, 2048)
        fast = DeploymentOptimizer(program, 1024, startup_seconds=0.0)
        slow = DeploymentOptimizer(program, 1024, startup_seconds=300.0)
        spec = ClusterSpec(get_instance_type("m1.large"), 2, 2)
        t_fast = fast.price(spec, CompilerParams())
        t_slow = slow.price(spec, CompilerParams())
        assert t_slow.estimated_seconds \
            == pytest.approx(t_fast.estimated_seconds + 300.0)


class TestSkylineAndSolvers:
    def test_skyline_undominated(self, optimizer, space):
        frontier = optimizer.skyline(space)
        assert frontier
        for a in frontier:
            for b in frontier:
                if a is not b:
                    assert not a.dominates(b)

    def test_deadline_solver_feasible(self, optimizer, space):
        plan = min_cost(optimizer, 3600.0, space).plan
        assert plan.estimated_seconds <= 3600.0

    def test_tighter_deadline_never_cheaper(self, optimizer, space):
        loose = min_cost(optimizer, 3600.0, space).plan
        tight = min_cost(optimizer, 200.0, space).plan
        assert tight.estimated_cost >= loose.estimated_cost
        assert tight.estimated_seconds <= 200.0

    def test_impossible_deadline(self, optimizer, space):
        with pytest.raises(InfeasibleConstraintError):
            min_cost(optimizer, 1.0, space)

    def test_budget_solver(self, optimizer, space):
        plan = min_time(optimizer, 5.0, space)
        assert plan.estimated_cost <= 5.0

    def test_bigger_budget_never_slower(self, optimizer, space):
        small = min_time(optimizer, 1.0, space)
        large = min_time(optimizer, 20.0, space)
        assert large.estimated_seconds <= small.estimated_seconds

    def test_impossible_budget(self, optimizer, space):
        with pytest.raises(InfeasibleConstraintError):
            min_time(optimizer, 0.001, space)

    def test_invalid_constraints(self, optimizer, space):
        with pytest.raises(ValidationError):
            min_cost(optimizer, -5.0, space)
        with pytest.raises(ValidationError):
            min_time(optimizer, 0.0, space)


class TestJointOptimization:
    def test_physical_params_tuned_per_spec(self, optimizer, space):
        """The chosen split factors may differ across cluster shapes —
        the 'joint' part of the paper's optimization."""
        plans = optimizer.enumerate_plans(space)
        chosen = {plan.compiler_params.matmul for plan in plans}
        # At minimum the tuner must actually explore (not constant-fold).
        assert chosen <= set(space.matmul_options)

    def test_billing_model_changes_choice_shape(self, space):
        program = build_multiply_program(8192, 8192, 8192)
        hourly = DeploymentOptimizer(program, 1024, billing=HourlyBilling())
        exact = DeploymentOptimizer(program, 1024,
                                    billing=PerSecondBilling(0.0))
        hourly_costs = [p.estimated_cost for p in hourly.enumerate_plans(space)]
        exact_costs = [p.estimated_cost for p in exact.enumerate_plans(space)]
        assert all(h >= e for h, e in zip(hourly_costs, exact_costs))


class TestCompilationCache:
    def test_compile_cached_per_params(self, optimizer):
        from repro.core.compiler import CompilerParams
        params = CompilerParams()
        first = optimizer.compile_with(params)
        second = optimizer.compile_with(params)
        assert first is second


class TestReliabilityAwareSearch:
    """The acceptance scenario: a failure environment where the cheapest
    failure-free cluster cannot even finish, so the reliability-aware
    search must pick a different (bigger) deployment."""

    @pytest.fixture(scope="class")
    def small_optimizer(self):
        program = build_multiply_program(2048, 2048, 2048)
        return DeploymentOptimizer(program, tile_size=1024)

    @pytest.fixture(scope="class")
    def small_space(self):
        return SearchSpace(
            instance_types=(get_instance_type("m1.large"),),
            node_counts=(1, 4),
            slots_options=(2,),
            matmul_options=(MatMulParams(1, 1, 1),),
        )

    @pytest.fixture(scope="class")
    def reliability(self):
        from repro.core.optimizer import ReliabilityModel
        from repro.hadoop.faults import TargetedNodeFailures

        # Every scenario kills node 0 early: fatal for a 1-node cluster,
        # an inconvenience for a 4-node one.
        return ReliabilityModel(
            scenarios=2,
            failure_factory=lambda index: TargetedNodeFailures(
                {"m1.large-0": 1.0}),
        )

    def test_reliable_search_picks_a_different_cluster(
            self, small_optimizer, small_space, reliability):
        deadline = 3600.0
        free = min_cost(small_optimizer, deadline, small_space).plan
        reliable = min_cost(small_optimizer, deadline, small_space,
                            reliability=reliability).reliable
        assert free.spec.num_nodes == 1  # cheapest on paper
        assert reliable.plan.spec.num_nodes == 4
        assert reliable.completion_rate == 1.0
        assert reliable.p95_seconds <= deadline

    def test_evaluate_reliable_marks_aborts(self, small_optimizer,
                                            reliability):
        from repro.core.compiler import CompilerParams

        doomed = ClusterSpec(get_instance_type("m1.large"), 1, 2)
        plan = search(small_optimizer, SearchSpec(
            objective="evaluate", cluster=doomed,
            compiler_params=CompilerParams(),
            reliability=reliability)).reliable
        assert plan.completion_rate == 0.0
        assert all(s == float("inf") for s in plan.scenario_seconds)
        assert all(c == float("inf") for c in plan.scenario_costs)

    def test_reliable_plan_describes_scenarios(self, small_optimizer,
                                               small_space, reliability):
        reliable = min_cost(small_optimizer, 3600.0, small_space,
                            reliability=reliability).reliable
        assert "scenario" in reliable.describe()

    def test_scenarios_validated(self):
        from repro.core.optimizer import ReliabilityModel
        with pytest.raises(ValidationError):
            ReliabilityModel(scenarios=0)
        with pytest.raises(ValidationError):
            ReliabilityModel(crash_rate_per_hour=-1.0)
