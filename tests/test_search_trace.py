"""Unit tests for optimizer search telemetry and ``explain --search``."""

import io

import pytest

from repro.cli import build_workload, main
from repro.cloud.instances import get_instance_type
from repro.core.explain import explain_search
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.physical import MatMulParams
from repro.errors import ValidationError
from repro.observability.metrics import MetricsRegistry
from repro.observability.search import (
    NULL_SEARCH_TRACE,
    ORIGIN_GRID,
    STATUS_EVALUATED,
    STATUS_PRUNED,
    CandidateRecord,
    SearchTrace,
)
from repro.workloads.chains import build_multiply_program


def tiny_space(node_counts=(2, 4), slots=(2,), instances=("m1.large",),
               matmuls=(MatMulParams(1, 1, 1), MatMulParams(2, 2, 1))):
    return SearchSpace(
        instance_types=tuple(get_instance_type(name) for name in instances),
        node_counts=node_counts,
        slots_options=slots,
        matmul_options=matmuls,
    )


def make_optimizer(trace=None, **kwargs):
    program = build_multiply_program(1024, 1024, 1024)
    return DeploymentOptimizer(
        program, tile_size=256,
        search_trace=trace if trace is not None else NULL_SEARCH_TRACE,
        **kwargs)


class TestGridSearchTrace:
    def test_records_every_candidate(self):
        trace = SearchTrace()
        optimizer = make_optimizer(trace)
        space = tiny_space()
        plans = optimizer.enumerate_plans(space)
        # 1 instance x 2 node counts x 1 slots option x 2 matmuls.
        assert len(trace.records) == 4
        assert len(plans) == 2
        assert all(r.origin == ORIGIN_GRID for r in trace.records)
        assert all(r.predicted_seconds is not None
                   for r in trace.records)

    def test_losers_pruned_with_reason(self):
        trace = SearchTrace()
        make_optimizer(trace).enumerate_plans(tiny_space())
        pruned = trace.pruned()
        kept = trace.kept()
        assert len(kept) == 2 and len(pruned) == 2
        assert all(r.reason == "slower sibling physical plan"
                   for r in pruned)
        # Exactly one survivor per cluster spec.
        assert {(r.instance, r.nodes, r.slots) for r in kept} == {
            ("m1.large", 2, 2), ("m1.large", 4, 2)}

    def test_frontier_matches_skyline_exactly(self):
        trace = SearchTrace()
        optimizer = make_optimizer(trace)
        space = tiny_space(node_counts=(1, 2, 4, 8))
        frontier = optimizer.skyline(space)
        assert trace.frontier_plans() == frontier
        # Records sit in evaluation order; membership must match exactly.
        flagged = [r.plan for r in trace.records if r.on_frontier]
        assert len(flagged) == len(frontier)
        assert all(plan in frontier for plan in flagged)
        # Survivors off the frontier are annotated as dominated.
        for record in trace.kept():
            if not record.on_frontier:
                assert record.reason == "dominated"

    def test_deadline_annotates_feasibility(self):
        trace = SearchTrace()
        optimizer = make_optimizer(trace)
        space = tiny_space(node_counts=(1, 8))
        plans = optimizer.enumerate_plans(space)
        deadline = sorted(p.estimated_seconds for p in plans)[0] + 1.0
        trace.mark_deadline(deadline)
        verdicts = {r.feasible for r in trace.kept()}
        assert verdicts == {True, False}
        for record in trace.kept():
            if record.feasible is False:
                assert "deadline" in record.reason

    def test_budget_annotates_feasibility(self):
        trace = SearchTrace()
        optimizer = make_optimizer(trace)
        plans = optimizer.enumerate_plans(tiny_space(node_counts=(1, 8)))
        budget = min(p.estimated_cost for p in plans)
        trace.mark_budget(budget)
        assert any(r.feasible is False for r in trace.kept())

    def test_constraint_validation(self):
        trace = SearchTrace()
        with pytest.raises(ValidationError):
            trace.mark_deadline(0)
        with pytest.raises(ValidationError):
            trace.mark_budget(-5)

    def test_optimizer_counts_candidates(self):
        registry = MetricsRegistry()
        optimizer = make_optimizer(metrics=registry)
        optimizer.enumerate_plans(tiny_space())
        assert registry.counter(
            "optimizer.candidates_evaluated").value == 4
        assert registry.counter("optimizer.grid_searches").value == 1
        assert registry.gauge("optimizer.grid_plans").value == 2


class TestRecordQueries:
    def test_annotation_strings(self):
        record = CandidateRecord(index=0, origin="grid", instance="m1.large",
                                 nodes=2, slots=2, tile_size=256,
                                 matmul="1x1x1")
        assert record.annotation() == "kept"
        record.on_frontier = True
        record.feasible = True
        assert record.annotation() == "frontier, feasible"
        record.status = STATUS_PRUNED
        record.reason = "slower"
        assert record.annotation() == "pruned (slower)"

    def test_to_dicts_and_clear(self):
        trace = SearchTrace()
        make_optimizer(trace).enumerate_plans(tiny_space())
        assert trace.records
        assert all(record.instance == "m1.large" for record in trace.records)
        trace.clear()
        assert len(trace) == 0 and trace.frontier_plans() == []

    def test_null_trace_records_nothing(self):
        assert NULL_SEARCH_TRACE.enabled is False
        NULL_SEARCH_TRACE.prune(0, "x")
        NULL_SEARCH_TRACE.mark_frontier([])
        assert len(NULL_SEARCH_TRACE.records) == 0


class TestExplainSearch:
    def test_lists_every_candidate_and_frontier(self):
        trace = SearchTrace()
        optimizer = make_optimizer(trace)
        optimizer.skyline(tiny_space(node_counts=(1, 2, 4)))
        text = explain_search(trace)
        header = text.splitlines()[0]
        assert f"{len(trace.records)} candidates" in header
        for record in trace.records:
            assert f"#{record.index:03d}" in text
        assert "pruned (slower sibling physical plan)" in text
        assert "pareto frontier" in text
        for plan in trace.frontier_plans():
            assert f"${plan.estimated_cost:.2f}" in text


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestExplainSearchCli:
    """Acceptance: ``repro explain --search`` on a small GNMF program."""

    CLI_ARGS = ("explain", "gnmf", "--scale", "tiny", "--search",
                "--instances", "m1.large", "--node-counts", "2,4",
                "--slot-options", "2")

    def reference_trace(self):
        """In-process optimizer run over the identical search space."""
        program, tile = build_workload("gnmf", "tiny")
        trace = SearchTrace()
        optimizer = DeploymentOptimizer(program, tile_size=tile,
                                        search_trace=trace)
        space = SearchSpace(
            instance_types=(get_instance_type("m1.large"),),
            node_counts=(2, 4),
            slots_options=(2,),
        )
        frontier = optimizer.skyline(space)
        return trace, frontier

    def test_prints_every_candidate_with_prediction(self):
        code, text = run_cli(*self.CLI_ARGS)
        assert code == 0
        trace, __ = self.reference_trace()
        assert f"{len(trace.records)} candidates" in text
        for record in trace.records:
            line = next(l for l in text.splitlines()
                        if l.strip().startswith(f"#{record.index:03d}"))
            assert f"{record.predicted_seconds:.1f}s" in line
            assert f"${record.predicted_cost:.2f}" in line
            assert record.matmul in line
            if record.status == STATUS_PRUNED:
                assert "pruned" in line
            elif record.on_frontier:
                assert "frontier" in line

    def test_frontier_matches_skyline_exactly(self):
        code, text = run_cli(*self.CLI_ARGS)
        assert code == 0
        trace, frontier = self.reference_trace()
        assert trace.frontier_plans() == frontier
        lines = text.splitlines()
        start = next(i for i, l in enumerate(lines)
                     if l.startswith("pareto frontier"))
        assert f"pareto frontier ({len(frontier)} plans):" == lines[start]
        printed = lines[start + 1:start + 1 + len(frontier)]
        for plan, line in zip(frontier, printed):
            assert plan.spec.describe() in line
            assert f"{plan.estimated_seconds:.1f}s" in line
            assert f"${plan.estimated_cost:.2f}" in line

    def test_deadline_annotation(self):
        code, text = run_cli(*self.CLI_ARGS, "--deadline", "0.01")
        assert code == 0
        assert "infeasible" in text

    def test_evaluated_candidates_all_appear(self):
        """Every evaluated candidate (kept or pruned) is in the output."""
        code, text = run_cli(*self.CLI_ARGS)
        trace, __ = self.reference_trace()
        assert code == 0
        evaluated = trace.records
        assert evaluated
        printed = [l for l in text.splitlines()
                   if l.strip().startswith("#")]
        assert len(printed) == len(trace.records)
        assert all(r.status in (STATUS_EVALUATED, STATUS_PRUNED)
                   for r in evaluated)
