"""Differential tests: the fast search must equal the sequential one.

The memoized, early-aborting optimizer is only allowed to be *faster* —
the chosen plan, the Pareto frontier, and the search trace must be
bit-identical to an optimizer pricing every candidate from scratch
(``NULL_EVAL_CACHE`` and the search driver's unpruned
``early_abort=False`` pass).  These tests lock that guarantee on
GNMF, including a reliability-aware run with seeded failure scenarios,
for both search methods.
"""

import io

import pytest

from repro.cli import build_workload, main
from repro.cloud.instances import get_instance_type
from repro.core.evalcache import NULL_EVAL_CACHE
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    SearchSpace,
)
from repro.core.physical import MatMulParams
from repro.core.search import METHODS, SearchSpec, _search, search
from repro.errors import ValidationError
from repro.observability.search import SearchTrace


def gnmf_space():
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("c1.xlarge")),
        node_counts=(1, 2, 4),
        slots_options=(2,),
        matmul_options=(MatMulParams(1, 1, 1), MatMulParams(1, 1, 2)),
    )


def make_optimizer(fast: bool, trace=None):
    """``fast`` keeps the default memo; ``fast=False`` is the uncached
    baseline the fast path must match."""
    program, tile = build_workload("gnmf", "tiny")
    kwargs = {}
    if trace is not None:
        kwargs["search_trace"] = trace
    if not fast:
        kwargs["cache"] = NULL_EVAL_CACHE
    return DeploymentOptimizer(program, tile_size=tile, **kwargs)


def reliability():
    # Scenario seeds vary per index, so each draw is distinct but
    # reproducible — exactly what the memo key must distinguish.
    return ReliabilityModel(crash_rate_per_hour=0.3, scenarios=3, seed=7)


def reliable_search(optimizer, early_abort, deadline=7200.0):
    """The reliable min-cost search; ``early_abort=False`` = unpruned."""
    spec = SearchSpec(deadline_seconds=deadline, space=gnmf_space(),
                      reliability=reliability())
    return _search(optimizer, spec, early_abort=early_abort).reliable


class TestDifferentialGrid:
    def test_identical_plans_and_frontier(self):
        slow_trace, fast_trace = SearchTrace(), SearchTrace()
        slow = make_optimizer(fast=False, trace=slow_trace)
        fast = make_optimizer(fast=True, trace=fast_trace)
        slow_frontier = slow.skyline(gnmf_space())
        fast_frontier = fast.skyline(gnmf_space())
        assert fast_frontier == slow_frontier
        assert fast_trace.to_dicts() == slow_trace.to_dicts()
        assert fast_trace.frontier_plans() == slow_trace.frontier_plans()

    def test_identical_deadline_solution(self):
        """Uncached vs memoized: same plan, same trace, same requests —
        for both methods, with and without a reliability block."""
        for method in METHODS:
            for model in (None, reliability()):
                spec = SearchSpec(deadline_seconds=3600.0, method=method,
                                  space=gnmf_space(), reliability=model)
                slow_trace, fast_trace = SearchTrace(), SearchTrace()
                slow = search(make_optimizer(fast=False, trace=slow_trace),
                              spec)
                fast = search(make_optimizer(fast=True, trace=fast_trace),
                              spec)
                case = f"{method}, reliable={model is not None}"
                assert fast.plan == slow.plan, case
                assert fast_trace.to_dicts() == slow_trace.to_dicts(), case
                assert fast.stats.sim_requests \
                    == slow.stats.sim_requests, case

    def test_repeat_search_hits_cache(self):
        fast = make_optimizer(fast=True)
        first = fast.enumerate_plans(gnmf_space())
        hits_before = fast.cache.hits
        second = fast.enumerate_plans(gnmf_space())
        assert second == first
        # The entire second pass must be served from the memo.
        assert fast.cache.hits - hits_before >= len(first)

    def test_stats_attached_to_trace(self):
        trace = SearchTrace()
        fast = make_optimizer(fast=True, trace=trace)
        fast.enumerate_plans(gnmf_space())
        fast.enumerate_plans(gnmf_space())
        stats = trace.stats
        assert stats is not None
        assert stats.sim_requests > 0
        assert stats.cache_hits == stats.sim_requests  # all repeats
        assert stats.hit_rate == 1.0
        assert stats.sims_executed == 0
        assert stats.estimated_speedup > 1.0


class TestDifferentialReliable:
    def test_identical_reliable_solution(self):
        baseline = reliable_search(make_optimizer(fast=False),
                                   early_abort=False)
        quick = reliable_search(make_optimizer(fast=True), early_abort=True)
        assert quick.plan == baseline.plan
        assert quick.scenario_seconds == baseline.scenario_seconds
        assert quick.scenario_costs == baseline.scenario_costs
        assert quick.mean_cost == baseline.mean_cost
        assert quick.p95_seconds == baseline.p95_seconds

    def test_early_abort_skips_scenarios(self):
        fast = make_optimizer(fast=True)
        reliable_search(fast, early_abort=True)
        assert fast.last_search_stats.scenarios_skipped > 0

    def test_sequential_early_abort_alone_matches(self):
        """Early abort must be sound on its own (no cache)."""
        a = reliable_search(make_optimizer(fast=False), early_abort=False)
        b = reliable_search(make_optimizer(fast=False), early_abort=True)
        assert b.plan == a.plan
        assert b.scenario_seconds == a.scenario_seconds


class TestWorkerValidation:
    """``workers`` is pinned to 0: the pricing pool it sized is gone."""

    def test_negative_workers_rejected(self):
        program, tile = build_workload("gnmf", "tiny")
        with pytest.raises(ValidationError):
            DeploymentOptimizer(program, tile_size=tile, workers=-1)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_pool_sizes_rejected(self, workers):
        program, tile = build_workload("gnmf", "tiny")
        with pytest.raises(ValidationError, match="pool was removed"):
            DeploymentOptimizer(program, tile, workers=workers)


class TestExplainSearchPerf:
    """Acceptance: ``repro explain --search`` reports the cache hit rate."""

    def run_cli(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_perf_block_printed(self):
        code, text = self.run_cli(
            "explain", "gnmf", "--scale", "tiny", "--search",
            "--instances", "m1.large",
            "--node-counts", "2,4", "--slot-options", "2")
        assert code == 0
        assert "search performance:" in text
        assert "hit rate" in text
        assert "vs uncached" in text
        assert "workers=" not in text
        # Perf lines must not masquerade as candidate lines.
        perf_lines = [l for l in text.splitlines()
                      if "search performance" in l or "wall=" in l]
        assert all(not l.strip().startswith("#") for l in perf_lines)
