"""Unit tests for end-to-end deployment cost breakdowns."""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.pricing import PerSecondBilling
from repro.core.compiler import CompilerParams
from repro.core.deployment import amortized_breakdown, estimate_deployment
from repro.core.physical import MatMulParams
from repro.core.plans import DeploymentPlan
from repro.errors import ValidationError
from repro.workloads.chains import build_multiply_program
from repro.workloads.gnmf import build_gnmf_program


def make_plan(nodes=8, tile=2048, matmul=MatMulParams(1, 1, 1)):
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, 2)
    return DeploymentPlan(spec, CompilerParams(matmul=matmul),
                          1.0, 0.0, tile_size=tile)


@pytest.fixture(scope="module")
def program():
    return build_multiply_program(16384, 16384, 16384)


class TestEstimate:
    def test_phases_all_positive(self, program):
        breakdown = estimate_deployment(program, make_plan())
        assert breakdown.startup_seconds > 0
        assert breakdown.load_seconds > 0
        assert breakdown.compute_seconds > 0
        assert breakdown.dollars > 0

    def test_total_is_sum(self, program):
        breakdown = estimate_deployment(program, make_plan())
        assert breakdown.total_seconds == pytest.approx(
            breakdown.startup_seconds + breakdown.load_seconds
            + breakdown.compute_seconds)

    def test_load_skippable(self, program):
        with_load = estimate_deployment(program, make_plan())
        without = estimate_deployment(program, make_plan(),
                                      include_load=False)
        assert without.load_seconds == 0.0
        assert without.total_seconds < with_load.total_seconds

    def test_text_load_is_significant(self, program):
        """The load phase parses gigabytes of text: it costs real seconds
        (though a compute-heavy multiply still dominates it)."""
        breakdown = estimate_deployment(program, make_plan())
        assert breakdown.load_seconds > 10.0
        assert breakdown.load_seconds < breakdown.compute_seconds

    def test_cost_matches_billing(self, program):
        billing = PerSecondBilling(minimum_seconds=0.0)
        plan = make_plan()
        breakdown = estimate_deployment(program, plan, billing=billing)
        assert breakdown.dollars == pytest.approx(
            billing.cost(plan.spec, breakdown.total_seconds))

    def test_tile_size_required(self, program):
        plan = DeploymentPlan(make_plan().spec, CompilerParams(), 1.0, 0.0)
        with pytest.raises(ValidationError):
            estimate_deployment(program, plan)

    def test_describe_itemizes(self, program):
        text = estimate_deployment(program, make_plan()).describe()
        for label in ("startup", "load", "compute", "total"):
            assert label in text


class TestAmortization:
    def test_per_run_cost_falls_with_runs(self, program):
        plan = make_plan()
        billing = PerSecondBilling(minimum_seconds=0.0)
        one = amortized_breakdown(program, plan, runs=1, billing=billing)
        ten = amortized_breakdown(program, plan, runs=10, billing=billing)
        assert ten.dollars < one.dollars
        assert ten.startup_seconds < one.startup_seconds

    def test_compute_not_amortized(self, program):
        plan = make_plan()
        one = amortized_breakdown(program, plan, runs=1)
        ten = amortized_breakdown(program, plan, runs=10)
        assert ten.compute_seconds == pytest.approx(one.compute_seconds)

    def test_validation(self, program):
        with pytest.raises(ValidationError):
            amortized_breakdown(program, make_plan(), runs=0)


class TestCompare:
    def test_variants_differ(self):
        program = build_gnmf_program(20480, 10240, 128, iterations=1)
        plan = make_plan()
        fused, unfused = (
            estimate_deployment(program, DeploymentPlan(
                plan.spec, CompilerParams(fusion_enabled=enabled),
                plan.estimated_seconds, plan.estimated_cost, plan.tile_size))
            for enabled in (True, False))
        assert fused.compute_seconds < unfused.compute_seconds
        # Load and startup are identical across compiler variants.
        assert fused.load_seconds == pytest.approx(unfused.load_seconds)
