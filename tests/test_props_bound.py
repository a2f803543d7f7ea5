"""Property tests: the makespan floor and the search that settles by it.

``GridSolver`` skips, unsimulated, every spec whose proven floor already
breaks the limit or ranks behind the incumbent.  That is only "same
plans by construction" if three things hold, and each gets a property:

(a) ``makespan_lower_bound`` never exceeds what ``simulate_program``
    returns — over generated DAGs (map-only and MapReduce jobs, random
    dependencies, heterogeneous work, some tasks with preferred nodes),
    specs, locality on and off, every valid ``CostModelConfig``, with
    and without seeded node crashes;
(b) both shipped billing models never charge less for more seconds;
(c) on generated grids and limits — limits drawn *on* a candidate's own
    seconds or dollars to force ties — ``search()`` returns what the
    unpruned grid-order pass ``_search(early_abort=False)`` returns, and
    is infeasible exactly when it is.

(d) shows (a) has teeth: substitute ``analytic_wave_estimate`` (the wave
    model a reader might take for a bound) and the property fails.

Tier-1 runs small example counts; ``REPRO_SLOW_TESTS=1`` runs the large
ones.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_workload
from repro.cloud.instances import EC2_CATALOG, ClusterSpec
from repro.cloud.pricing import HourlyBilling, PerSecondBilling
from repro.core.costmodel import CostModelConfig, CumulonCostModel
from repro.core.evalcache import EvalCache
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    SearchSpace,
)
from repro.core.physical import MatMulParams
from repro.core.search import SearchSpec, _search, search
from repro.core.simcost import (
    analytic_wave_estimate,
    makespan_lower_bound,
    simulate_program,
)
from repro.errors import InfeasibleConstraintError, SchedulingError
from repro.hadoop.faults import RandomNodeFailures
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.task import Task, TaskKind, TaskWork

INSTANCES = tuple(EC2_CATALOG.values())

# -- (a) the floor against the simulator ---------------------------------------

WORK = st.builds(
    TaskWork,
    bytes_read=st.integers(0, 2 * 10**9),
    bytes_written=st.integers(0, 10**9),
    flops=st.integers(0, 10**11),
    element_ops=st.integers(0, 10**9),
    tile_ops=st.integers(0, 500),
    shuffle_bytes=st.integers(0, 10**9),
    # up to 8 GB: co-resident tasks overflow the small instances' memory
    memory_bytes=st.integers(0, 8 * 10**9))

#: One task: its work and the node *indices* holding its input (mapped to
#: the spec's node names; indices past the cluster name no node at all).
TASK = st.tuples(WORK, st.frozensets(st.integers(0, 7), max_size=2))

#: One job: MapReduce or not, map tasks (none = the degenerate job that
#: ends right after its overhead), reduce tasks, dependency picks.
JOB = st.tuples(st.booleans(), st.lists(TASK, max_size=9),
                st.lists(TASK, max_size=4),
                st.lists(st.integers(0, 10**6), max_size=3))

SPEC = st.builds(
    lambda instance, nodes, slots: ClusterSpec(
        instance, nodes, 1 + slots % instance.max_slots),
    st.sampled_from(INSTANCES), st.integers(1, 6), st.integers(0, 7))

CONFIG = st.builds(
    CostModelConfig,
    write_amplification=st.floats(1.0, 4.0),
    usable_memory_fraction=st.floats(0.05, 1.0),
    memory_penalty_slope=st.floats(0.0, 10.0),
    shuffle_sort_factor=st.floats(1.0, 5.0))


def build_dag(jobs, spec: ClusterSpec) -> JobDag:
    dag = JobDag()
    for number, (mapreduce, maps, reduces, dep_picks) in enumerate(jobs):
        def tasks(entries, kind):
            return [Task(f"j{number}-{kind.value}-{index}", kind, work,
                         frozenset(f"{spec.instance_type.name}-{node}"
                                   for node in nodes))
                    for index, (work, nodes) in enumerate(entries)]
        depends_on = ({f"j{pick % number}" for pick in dep_picks}
                      if number else set())
        dag.add(Job(f"j{number}",
                    JobKind.MAPREDUCE if mapreduce else JobKind.MAP_ONLY,
                    tasks(maps, TaskKind.MAP),
                    tasks(reduces, TaskKind.REDUCE) if mapreduce else [],
                    depends_on))
    return dag


def check_floor(bound, jobs, spec, config, locality_aware, crash):
    """``bound(dag, spec, model)`` is at most the simulated makespan —
    failure-free, and under seeded node crashes whenever the run ends."""
    dag = build_dag(jobs, spec)
    model = CumulonCostModel(config=config)
    floor = bound(dag, spec, model)
    simulated = simulate_program(dag, spec, model,
                                 locality_aware=locality_aware).seconds
    assert floor <= simulated
    rate, seed = crash
    try:
        crashed = simulate_program(
            dag, spec, model, locality_aware=locality_aware,
            node_failures=RandomNodeFailures(
                # crash times on the scale of this run, so they land in it
                rate * 3600.0 / max(simulated, 1.0), seed=seed)).seconds
    except SchedulingError:
        return  # quorum lost: no makespan to bound
    assert floor <= crashed


FLOOR_CASE = (st.lists(JOB, min_size=1, max_size=5), SPEC, CONFIG,
              st.booleans(),
              st.tuples(st.floats(0.1, 3.0), st.integers(0, 10**6)))


@settings(max_examples=60, deadline=None)
@given(*FLOOR_CASE)
def test_floor_never_exceeds_the_simulation(jobs, spec, config, locality,
                                            crash):
    check_floor(makespan_lower_bound, jobs, spec, config, locality, crash)


@pytest.mark.slow
@settings(max_examples=5000, deadline=None)
@given(*FLOOR_CASE)
def test_floor_never_exceeds_the_simulation_many(jobs, spec, config,
                                                 locality, crash):
    check_floor(makespan_lower_bound, jobs, spec, config, locality, crash)


def test_wave_estimate_fails_the_floor_property():
    """(d) The property can fail: the wave model charges every task
    full-node contention, the simulator runs ragged last waves at less,
    so as a "bound" it is caught within a few hundred examples."""
    @settings(max_examples=500, deadline=None, derandomize=True,
              database=None, report_multiple_bugs=False)
    @given(*FLOOR_CASE)
    def wave_model_as_floor(jobs, spec, config, locality, crash):
        check_floor(analytic_wave_estimate, jobs, spec, config, locality,
                    crash)

    with pytest.raises(AssertionError):
        wave_model_as_floor()


def test_floor_is_tight_on_one_full_wave():
    """Equal tasks filling every slot once: the floor is the makespan
    (to its 1e-9 shave) — it is not sound merely by being small."""
    spec = ClusterSpec(EC2_CATALOG["m1.large"], 1, 1)
    work = TaskWork(bytes_read=10**8, flops=10**10)
    dag = JobDag([Job("j0", JobKind.MAP_ONLY,
                      [Task(f"t{index}", TaskKind.MAP, work)
                       for index in range(3)])])
    model = CumulonCostModel()
    simulated = simulate_program(dag, spec, model).seconds
    assert makespan_lower_bound(dag, spec, model) == pytest.approx(
        simulated, rel=1e-8)


# -- (b) billing never falls as seconds rise -----------------------------------

@settings(max_examples=200, deadline=None)
@given(SPEC, st.floats(0.0, 10**6), st.floats(0.0, 10**6),
       st.floats(0.0, 7200.0))
def test_billing_is_non_decreasing_in_seconds(spec, first, second, minimum):
    low, high = sorted((first, second))
    for billing in (HourlyBilling(), PerSecondBilling(minimum)):
        assert billing.cost(spec, low) <= billing.cost(spec, high)


# -- (c) the settling search against the unpruned pass -------------------------

PROGRAMS = {}
#: One simulation memo across every example: the reference pass and the
#: settling pass ask for the same (DAG, spec) simulations over and over.
SHARED_CACHE = EvalCache()

MATMULS = (MatMulParams(1, 1, 1), MatMulParams(2, 2, 1),
           MatMulParams(1, 1, 2))

SPACE = st.builds(
    lambda instances, counts, slots, matmuls: SearchSpace(
        instance_types=tuple(instances), node_counts=tuple(sorted(counts)),
        slots_options=tuple(sorted(slots)), matmul_options=tuple(matmuls)),
    st.lists(st.sampled_from(INSTANCES), min_size=1, max_size=3,
             unique=True),
    st.lists(st.sampled_from((1, 2, 3, 4, 8, 16)), min_size=1, max_size=3,
             unique=True),
    # always 1 slot: every type allows it, so no grid comes out empty
    st.sampled_from(((1,), (1, 2), (1, 4), (1, 2, 4))),
    st.lists(st.sampled_from(MATMULS), min_size=1, max_size=3, unique=True))

RELIABILITY = st.one_of(st.none(), st.builds(
    ReliabilityModel, crash_rate_per_hour=st.floats(0.1, 6.0),
    scenarios=st.integers(1, 3), seed=st.integers(0, 1000)))

SEARCH_CASE = (
    st.sampled_from(("multiply", "gnmf", "regression")), SPACE,
    st.booleans(),                       # min-cost, else min-time
    st.sampled_from((HourlyBilling(), PerSecondBilling())),
    RELIABILITY,
    # the limit: a candidate's own value (a tie) or a multiple of one
    st.integers(0, 10**6), st.sampled_from((1.0, 1.0, 0.5, 0.97, 1.5, 4.0)))


def make_optimizer(workload, billing):
    if workload not in PROGRAMS:
        PROGRAMS[workload] = build_workload(workload, "tiny")
    program, tile = PROGRAMS[workload]
    return DeploymentOptimizer(program, tile_size=tile, billing=billing,
                               cache=SHARED_CACHE)


def outcome(run):
    """What a search decided, in comparable form."""
    try:
        result = run()
    except InfeasibleConstraintError as error:
        return ("infeasible", str(error))
    reliable = result.reliable
    return (result.plan,
            None if reliable is None else (reliable.scenario_seconds,
                                           reliable.scenario_costs,
                                           reliable.mean_cost))


def check_search(workload, space, minimize_cost, billing, reliability,
                 pick, factor):
    if not minimize_cost:
        reliability = None  # min-time has no reliable search
    candidates = make_optimizer(workload, billing).enumerate_plans(space)
    chosen = candidates[pick % len(candidates)]
    if minimize_cost:
        spec = SearchSpec(objective="min-cost", space=space,
                          deadline_seconds=chosen.estimated_seconds * factor,
                          reliability=reliability)
    else:
        spec = SearchSpec(objective="min-time", space=space,
                          budget_dollars=chosen.estimated_cost * factor)
    reference_optimizer = make_optimizer(workload, billing)
    settling_optimizer = make_optimizer(workload, billing)
    reference = outcome(lambda: _search(reference_optimizer, spec,
                                        early_abort=False))
    assert outcome(lambda: search(settling_optimizer, spec)) == reference
    # The floor only ever removes requests, and the books balance.
    stats = settling_optimizer.last_search_stats
    assert stats.sim_requests \
        <= reference_optimizer.last_search_stats.sim_requests
    assert stats.sim_requests + stats.simulations_avoided \
        == settling_optimizer.grid_sim_requests(
            space, reliability.scenarios if reliability else 0)


@settings(max_examples=25, deadline=None)
@given(*SEARCH_CASE)
def test_settling_search_equals_the_unpruned_pass(
        workload, space, minimize_cost, billing, reliability, pick, factor):
    check_search(workload, space, minimize_cost, billing, reliability,
                 pick, factor)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(*SEARCH_CASE)
def test_settling_search_equals_the_unpruned_pass_many(
        workload, space, minimize_cost, billing, reliability, pick, factor):
    check_search(workload, space, minimize_cost, billing, reliability,
                 pick, factor)
