"""Property-based tests: simulation memo keys, cache behavior, frontier.

The cache-coherence property the tentpole rests on: two simulations share
a memo entry **iff** every timeline-shaping input matches — plan (DAG),
instance type, node count, slots, scheduler options, cost model, and the
failure model *including its seeds*.  Anything unprovable bypasses the
cache entirely.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.compiler import CompilerParams, compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.evalcache import (
    NULL_EVAL_CACHE,
    CachedEstimate,
    EvalCache,
    eval_key,
    model_fingerprint,
)
from repro.core.physical import PhysicalContext
from repro.core.plans import DeploymentPlan, skyline
from repro.errors import ValidationError
from repro.hadoop.faults import (
    CompositeNodeFailures,
    NodeFailureModel,
    NoNodeFailures,
    RandomNodeFailures,
    TargetedNodeFailures,
)
from repro.hadoop.simulator import dag_fingerprint
from repro.observability.metrics import MetricsRegistry
from repro.workloads.chains import build_multiply_program

#: One draw of every component that must be part of the memo key.
KEY_COMPONENTS = st.tuples(
    st.sampled_from(["dag-a", "dag-b", "dag-c"]),
    st.sampled_from(["m1.large", "c1.xlarge"]),
    st.integers(min_value=1, max_value=8),     # nodes
    st.integers(min_value=1, max_value=4),     # slots
    st.booleans(),                             # locality_aware
    st.integers(min_value=1, max_value=3),     # min_live_nodes
    st.sampled_from(["model-a", "model-b"]),
    st.sampled_from(["none", "random[rate=0.1,seed=0]",
                     "random[rate=0.1,seed=1]"]),
)


def key_from(components):
    dag_fp, instance, nodes, slots, locality, min_live, model_fp, fail = \
        components
    spec = ClusterSpec(get_instance_type(instance), nodes, slots)
    return eval_key(dag_fp, spec, model_fp, locality_aware=locality,
                    min_live_nodes=min_live, failures_fp=fail)


class TestKeyIdentity:
    @given(a=KEY_COMPONENTS, b=KEY_COMPONENTS)
    @settings(max_examples=200, deadline=None)
    def test_keys_collide_iff_all_components_match(self, a, b):
        """Equal inputs -> equal keys; ANY differing input -> distinct keys."""
        key_a, key_b = key_from(a), key_from(b)
        assert key_a is not None and key_b is not None
        if a == b:
            assert key_a == key_b
            assert hash(key_a) == hash(key_b)
        else:
            assert key_a != key_b

    @given(components=KEY_COMPONENTS)
    @settings(max_examples=50, deadline=None)
    def test_unprovable_component_bypasses(self, components):
        """A None fingerprint anywhere means 'do not cache'."""
        spec = ClusterSpec(get_instance_type(components[1]), components[2],
                           components[3])
        assert eval_key(None, spec, "model") is None
        assert eval_key("dag", spec, None) is None
        assert eval_key("dag", spec, "model", failures_fp=None) is None


class TestFailureFingerprints:
    def test_seed_changes_fingerprint(self):
        base = RandomNodeFailures(0.5, seed=1).fingerprint()
        assert RandomNodeFailures(0.5, seed=2).fingerprint() != base
        assert RandomNodeFailures(0.25, seed=1).fingerprint() != base
        assert RandomNodeFailures(0.5, seed=1).fingerprint() == base

    def test_unknown_model_is_unprovable(self):
        class Mystery(NodeFailureModel):
            pass

        assert Mystery().fingerprint() is None
        composite = CompositeNodeFailures([NoNodeFailures(), Mystery()])
        assert composite.fingerprint() is None

    def test_composite_orders_children(self):
        a = TargetedNodeFailures({"n0": 1.0})
        b = RandomNodeFailures(0.5, seed=3)
        ab = CompositeNodeFailures([a, b]).fingerprint()
        assert ab is not None
        assert a.fingerprint() in ab and b.fingerprint() in ab


class TestModelAndDagFingerprints:
    def test_model_fingerprint_tracks_coefficients(self):
        model = CumulonCostModel()
        base = model_fingerprint(model)
        assert base is not None
        tweaked = CumulonCostModel(dataclasses.replace(
            model.coefficients,
            seconds_per_flop=model.coefficients.seconds_per_flop * 2))
        assert model_fingerprint(tweaked) != base
        assert model_fingerprint(CumulonCostModel()) == base

    def test_unrecognizable_model_is_unprovable(self):
        class Opaque:
            pass

        assert model_fingerprint(Opaque()) is None

    def test_dag_fingerprint_tracks_plan(self):
        program = build_multiply_program(2048, 2048, 2048)
        dag_a = compile_program(program, PhysicalContext(1024)).dag
        dag_b = compile_program(program, PhysicalContext(1024)).dag
        dag_c = compile_program(program, PhysicalContext(512)).dag
        assert dag_fingerprint(dag_a) == dag_fingerprint(dag_b)
        assert dag_fingerprint(dag_a) != dag_fingerprint(dag_c)
        # Memoized on the DAG: second call reuses the digest.
        assert dag_a._fingerprint_memo[1] == dag_fingerprint(dag_a)


class TestEvalCacheBehavior:
    def entry(self, seconds=10.0):
        return CachedEstimate(seconds=seconds)

    def test_hit_and_miss_accounting(self):
        metrics = MetricsRegistry()
        cache = EvalCache(metrics=metrics)
        key = key_from(("dag-a", "m1.large", 2, 2, True, 1, "m", "none"))
        assert cache.get(key) is None
        cache.put(key, self.entry())
        assert cache.get(key) == self.entry()
        assert (cache.hits, cache.misses, cache.requests) == (1, 1, 2)
        assert cache.hit_rate == 0.5
        assert cache.stats()["entries"] == 1
        assert metrics.counter("optimizer.evalcache_hits").value == 1
        assert metrics.counter("optimizer.evalcache_misses").value == 1
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_none_key_is_transparent(self):
        cache = EvalCache()
        assert cache.get(None) is None
        cache.put(None, self.entry())
        assert (cache.requests, len(cache)) == (0, 0)

    @given(capacity=st.integers(min_value=1, max_value=8),
           inserts=st.integers(min_value=1, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_eviction_bounds_entries_fifo(self, capacity, inserts):
        cache = EvalCache(max_entries=capacity)
        keys = [key_from(("dag-a", "m1.large", 1 + i, 1, True, 1, "m",
                          "none")) for i in range(inserts)]
        for key in keys:
            cache.put(key, self.entry())
        assert len(cache) == min(capacity, inserts)
        # The survivors are exactly the newest `capacity` keys.
        for key in keys[-capacity:]:
            assert cache.get(key) is not None
        for key in keys[:-capacity]:
            assert cache.get(key) is None

    def test_null_cache_never_stores_or_counts(self):
        key = key_from(("dag-a", "m1.large", 2, 2, True, 1, "m", "none"))
        NULL_EVAL_CACHE.put(key, self.entry())
        assert NULL_EVAL_CACHE.get(key) is None
        assert NULL_EVAL_CACHE.requests == 0
        assert NULL_EVAL_CACHE.enabled is False

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValidationError):
            EvalCache(max_entries=0)


POINT = st.tuples(st.floats(min_value=1.0, max_value=10_000.0),
                  st.floats(min_value=0.01, max_value=1_000.0))


def make_plans(points):
    spec = ClusterSpec(get_instance_type("m1.large"), 1, 1)
    return [DeploymentPlan(spec, CompilerParams(), seconds, cost)
            for seconds, cost in points]


def brute_force_keys(points):
    undominated = set()
    for s, c in points:
        if not any((qs <= s and qc <= c and (qs < s or qc < c))
                   for qs, qc in points):
            undominated.add((s, c))
    return sorted(undominated)


class TestIncrementalFrontier:
    @given(points=st.lists(POINT, min_size=1, max_size=40), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_in_any_insertion_order(self, points, data):
        """skyline() == brute-force skyline, whatever the input order."""
        shuffled = data.draw(st.permutations(points))
        frontier = skyline(make_plans(shuffled))
        assert [(p.estimated_seconds, p.estimated_cost)
                for p in frontier] == brute_force_keys(points)
