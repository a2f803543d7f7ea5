"""The unified ``search()`` facade.

Locks the contract: one declarative :class:`SearchSpec` covers every
combination of objective, constraint, reliability and method; its answers
equal what the pricing layer gives when asked directly; ``SearchStats``
reaches ``--json`` and the metrics registry intact; and the CLI's
shared search flags drive the same spec.
"""

import io
import json
from dataclasses import asdict

import pytest

from repro.cli import build_workload, main
from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.compiler import CompilerParams
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    SearchSpace,
)
from repro.core.physical import MatMulParams
from repro.core.plans import cheapest_within_deadline, fastest_within_budget
from repro.core.search import SearchSpec, search
from repro.errors import ValidationError
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import InMemoryRecorder
from repro.observability.search import SearchStats


def tiny_space():
    return SearchSpace(
        instance_types=(get_instance_type("m1.large"),
                        get_instance_type("m1.small")),
        node_counts=(1, 2, 4),
        slots_options=(2,),
        matmul_options=(MatMulParams(1, 1, 1),),
    )


def make_optimizer(**kwargs):
    program, tile = build_workload("multiply", "tiny")
    return DeploymentOptimizer(program, tile_size=tile, **kwargs)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSpecValidation:
    def test_min_cost_needs_deadline(self):
        with pytest.raises(ValidationError):
            SearchSpec(objective="min-cost")

    def test_min_time_needs_budget(self):
        with pytest.raises(ValidationError):
            SearchSpec(objective="min-time")

    def test_constraints_match_objective(self):
        with pytest.raises(ValidationError):
            SearchSpec(objective="min-cost", budget_dollars=5.0)
        with pytest.raises(ValidationError):
            SearchSpec(objective="min-time", deadline_seconds=60.0,
                       budget_dollars=5.0)

    def test_unknown_objective_and_method(self):
        with pytest.raises(ValidationError):
            SearchSpec(objective="min-regret", deadline_seconds=60.0)
        with pytest.raises(ValidationError):
            SearchSpec(deadline_seconds=60.0, method="oracle")

    def test_evaluate_needs_cluster_and_params(self):
        with pytest.raises(ValidationError):
            SearchSpec(objective="evaluate")

    def test_evaluate_rejects_constraints_and_surrogate(self):
        cluster = ClusterSpec(get_instance_type("m1.large"), 2, 2)
        with pytest.raises(ValidationError):
            SearchSpec(objective="evaluate", cluster=cluster,
                       compiler_params=CompilerParams(),
                       deadline_seconds=60.0)
        with pytest.raises(ValidationError):
            SearchSpec(objective="evaluate", cluster=cluster,
                       compiler_params=CompilerParams(),
                       method="surrogate")

    def test_grid_search_rejects_fixed_cluster(self):
        with pytest.raises(ValidationError):
            SearchSpec(deadline_seconds=60.0,
                       cluster=ClusterSpec(get_instance_type("m1.large"),
                                           2, 2))

    def test_min_time_has_no_reliable_solver(self):
        with pytest.raises(ValidationError):
            SearchSpec(objective="min-time", budget_dollars=5.0,
                       reliability=ReliabilityModel(
                           crash_rate_per_hour=0.3, scenarios=3, seed=1))


class TestFacadeEquivalence:
    """search() returns exactly what pricing the grid by hand returns
    (the definitions the removed legacy entry points implemented)."""

    def test_min_cost_matches_legacy(self):
        expected = cheapest_within_deadline(
            make_optimizer().enumerate_plans(tiny_space()), 3600.0)
        optimizer = make_optimizer()
        result = search(optimizer, SearchSpec(deadline_seconds=3600.0,
                                              space=tiny_space()))
        assert result.plan == expected
        assert result.objective == "min-cost"
        assert result.method == "exhaustive"
        assert result.stats.sim_requests > 0

    def test_min_time_matches_solver(self):
        expected = fastest_within_budget(
            make_optimizer().enumerate_plans(tiny_space()), 5.0)
        optimizer = make_optimizer()
        result = search(optimizer, SearchSpec(objective="min-time",
                                              budget_dollars=5.0,
                                              space=tiny_space()))
        assert result.plan == expected

    def test_evaluate_matches_legacy(self):
        cluster = ClusterSpec(get_instance_type("m1.large"), 2, 2)
        expected = make_optimizer().price(cluster, CompilerParams())
        optimizer = make_optimizer()
        result = search(optimizer, SearchSpec(objective="evaluate",
                                              cluster=cluster,
                                              compiler_params=CompilerParams()))
        assert result.plan == expected
        assert result.reliable is None
        assert result.stats.sim_requests == 1

    def test_evaluate_reliable_matches_legacy(self):
        cluster = ClusterSpec(get_instance_type("m1.large"), 2, 2)
        reliability = ReliabilityModel(crash_rate_per_hour=0.3,
                                       scenarios=3, seed=7)
        pricing = make_optimizer()
        expected = pricing.stress_test(
            pricing.price(cluster, CompilerParams()), reliability)
        optimizer = make_optimizer()
        result = search(optimizer, SearchSpec(objective="evaluate",
                                              cluster=cluster,
                                              compiler_params=CompilerParams(),
                                              reliability=reliability))
        assert result.reliable is not None
        assert result.reliable.scenario_seconds == expected.scenario_seconds
        assert result.reliable.scenario_costs == expected.scenario_costs
        assert result.plan == expected.plan

    def test_reliable_min_cost_matches_legacy(self):
        """Stress-test every grid plan by hand; the cheapest (first among
        ties) with every scenario done and p95 in time is the answer."""
        reliability = ReliabilityModel(crash_rate_per_hour=0.3,
                                       scenarios=3, seed=7)
        pricing = make_optimizer()
        stressed = [pricing.stress_test(plan, reliability)
                    for plan in pricing.enumerate_plans(tiny_space())]
        expected = min(
            (reliable for reliable in stressed
             if reliable.completion_rate == 1.0
             and reliable.p95_seconds <= 3600.0),
            key=lambda reliable: reliable.mean_cost)
        optimizer = make_optimizer()
        result = search(optimizer,
                        SearchSpec(deadline_seconds=3600.0,
                                   space=tiny_space(),
                                   reliability=reliability))
        assert result.reliable is not None
        assert result.plan == expected.plan
        assert result.reliable.scenario_costs == expected.scenario_costs

    def test_surrogate_method_agrees_on_tiny_grid(self):
        optimizer = make_optimizer()
        exact = search(optimizer, SearchSpec(deadline_seconds=3600.0,
                                             space=tiny_space()))
        surrogate_optimizer = make_optimizer()
        result = search(surrogate_optimizer,
                        SearchSpec(deadline_seconds=3600.0,
                                   space=tiny_space(),
                                   method="surrogate"))
        assert result.plan == exact.plan
        assert result.method == "surrogate"


class TestPricingSpans:
    """Both methods price through the one sequential path, so every
    failure-free simulation has a ``simulate:`` span next to it."""

    @pytest.mark.parametrize("method", ("exhaustive", "surrogate"))
    def test_every_pricing_records_a_simulate_span(self, method):
        recorder = InMemoryRecorder()
        result = search(make_optimizer(recorder=recorder),
                        SearchSpec(deadline_seconds=3600.0,
                                   space=tiny_space(), method=method))
        spans = [event.task_id
                 for event in recorder.trace().span_events()]
        simulated = [name for name in spans if name.startswith("simulate:")]
        assert len(simulated) == result.stats.sim_requests > 0
        assert any(name.startswith("compile:") for name in spans)
        assert f"{method}-search" in spans


class TestStatsRoundTrip:
    def test_json_dict_carries_every_stored_field(self):
        stats = SearchStats(sim_requests=40, sims_executed=25,
                            cache_hits=15, scenarios_skipped=6,
                            wall_seconds=1.5, simulations_avoided=80,
                            surrogate_rounds=7)
        document = json.loads(json.dumps(stats.to_dict()))
        assert {name: document[name] for name in asdict(stats)} \
            == asdict(stats)

    def test_json_dict_carries_derived_fields(self):
        stats = SearchStats(sim_requests=10, sims_executed=5, cache_hits=5)
        document = stats.to_dict()
        assert document["hit_rate"] == 0.5
        assert document["simulations_avoided"] == 0
        assert document["surrogate_rounds"] == 0
        assert "workers" not in document

    def test_search_sets_registry_gauges(self):
        registry = MetricsRegistry()
        optimizer = make_optimizer(metrics=registry)
        result = search(optimizer,
                        SearchSpec(deadline_seconds=3600.0,
                                   space=tiny_space(), method="surrogate"))
        assert registry.gauge("search.simulations").value == \
            result.stats.sim_requests
        assert registry.gauge("search.simulations_avoided").value == \
            result.stats.simulations_avoided
        assert registry.gauge("search.surrogate_rounds").value == \
            result.stats.surrogate_rounds

    def test_result_to_dict_round_trips_stats(self):
        optimizer = make_optimizer()
        result = search(optimizer, SearchSpec(deadline_seconds=3600.0,
                                              space=tiny_space()))
        document = result.to_dict()
        assert document["stats"] == result.stats.to_dict()


class TestCliFace:
    def test_optimize_surrogate_json_is_schema_stable(self):
        code, text = run_cli("optimize", "multiply", "--scale", "tiny",
                             "--deadline", "60", "--method", "surrogate",
                             "--json")
        assert code == 0
        payload = json.loads(text)
        # The legacy keys are all still present...
        for key in ("workload", "scale", "constraint", "cluster",
                    "tile_size", "estimated_seconds", "estimated_cost"):
            assert key in payload
        # ...and the spec/stats keys are additive.
        assert payload["method"] == "surrogate"
        assert payload["objective"] == "min-cost"
        assert set(payload["search_stats"]) == set(SearchStats().to_dict())
        assert payload["search_stats"]["sim_requests"] > 0

    def test_optimize_methods_agree(self):
        args = ("optimize", "multiply", "--scale", "tiny",
                "--deadline", "60", "--instances", "m1.small,m1.large",
                "--node-counts", "1,2,4", "--json")
        code, exact_text = run_cli(*args)
        assert code == 0
        code, surrogate_text = run_cli(*args, "--method", "surrogate")
        assert code == 0
        exact, surrogate = json.loads(exact_text), json.loads(surrogate_text)
        assert surrogate["cluster"] == exact["cluster"]
        assert surrogate["estimated_cost"] == exact["estimated_cost"]
        # Requested + avoided is the full grid, whichever method counted.
        assert surrogate["search_stats"]["sim_requests"] <= \
            exact["search_stats"]["sim_requests"] \
            + exact["search_stats"]["simulations_avoided"]

    def test_objective_must_match_constraint(self):
        code, __ = run_cli("optimize", "multiply", "--scale", "tiny",
                           "--budget", "5", "--objective", "min-cost")
        assert code == 1

    def test_explain_surrogate_renders_stats(self):
        code, text = run_cli("explain", "multiply", "--scale", "tiny",
                             "--search", "--method", "surrogate",
                             "--deadline", "60",
                             "--instances", "m1.small,m1.large",
                             "--node-counts", "1,2,4")
        assert code == 0
        assert "surrogate" in text
        assert "simulations avoided" in text

    def test_explain_surrogate_needs_constraint(self):
        code, __ = run_cli("explain", "multiply", "--scale", "tiny",
                           "--search", "--method", "surrogate")
        assert code == 1

    def test_explain_search_json_carries_stats(self):
        code, text = run_cli("explain", "multiply", "--scale", "tiny",
                             "--search", "--instances", "m1.large",
                             "--node-counts", "1,2", "--json")
        assert code == 0
        payload = json.loads(text)
        assert set(("workload", "scale", "explain")) <= set(payload)
        assert set(payload["search_stats"]) == set(SearchStats().to_dict())
        assert payload["search_stats"]["sim_requests"] > 0

    def test_chaos_search_flags_pick_the_cluster(self):
        code, text = run_cli("chaos", "multiply", "--scale", "tiny",
                             "--scenario", "node-crash",
                             "--deadline", "60", "--method", "surrogate",
                             "--instances", "m1.large,m1.small",
                             "--node-counts", "2,4", "--json")
        assert code == 0
        payload = json.loads(text)
        assert "search" in payload
        assert payload["search"]["method"] == "surrogate"
        # The chaos run used the optimizer's pick, not the --instance flag.
        assert payload["search"]["instance_type"] in payload["cluster"]

    def test_chaos_without_search_flags_unchanged(self):
        code, text = run_cli("chaos", "multiply", "--scale", "tiny",
                             "--scenario", "node-crash", "--nodes", "4",
                             "--json")
        assert code == 0
        payload = json.loads(text)
        assert "search" not in payload
        assert "4 x m1.large" in payload["cluster"]


class TestApiSurface:
    def test_facade_importable_from_repro_api(self):
        from repro.api import (  # noqa: F401
            ReliabilityModel,
            ReliablePlan,
            SearchResult,
            SearchSpec,
            SearchStats,
            reliability_frontier,
            search,
        )
