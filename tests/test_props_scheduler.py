"""Property-based tests: scheduler invariants for arbitrary workloads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import SchedulingError
from repro.hadoop.faults import RandomNodeFailures
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.simulator import FAIR, FIFO, ClusterSimulator
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.hadoop.timemodel import TaskTimeModel
from repro.service.scheduler import (
    EPSILON,
    POLICIES,
    POLICY_FIFO,
    RunQueues,
    SlotRequest,
    allocate_slots,
    weighted_shares,
)


class VariableTimeModel(TaskTimeModel):
    """Deterministic per-task durations derived from the task id."""

    def __init__(self, durations):
        self.durations = durations

    def task_duration(self, task, instance, concurrency, local):
        return self.durations[task.task_id]

    def job_overhead(self, job):
        return 0.0


def build_dag(durations_per_job):
    dag = JobDag()
    previous = None
    durations = {}
    for job_index, task_durations in enumerate(durations_per_job):
        tasks = []
        for task_index, duration in enumerate(task_durations):
            task_id = f"j{job_index}t{task_index}"
            durations[task_id] = duration
            tasks.append(make_map_task(task_id, TaskWork()))
        deps = {f"job{previous}"} if previous is not None else set()
        dag.add(Job(f"job{job_index}", JobKind.MAP_ONLY, tasks,
                    depends_on=deps))
        previous = job_index
    return dag, durations


DURATIONS = st.lists(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1,
             max_size=12),
    min_size=1, max_size=4,
)


@given(durations_per_job=DURATIONS, nodes=st.integers(1, 4),
       slots=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_all_tasks_run_exactly_once(durations_per_job, nodes, slots):
    dag, durations = build_dag(durations_per_job)
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, min(slots, 4))
    result = ClusterSimulator(spec, VariableTimeModel(durations)).run(dag)
    ran = [attempt.task.task_id
           for timeline in result.job_timelines.values()
           for attempt in timeline.attempts]
    assert sorted(ran) == sorted(durations)


@given(durations_per_job=DURATIONS, nodes=st.integers(1, 3),
       slots=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_no_slot_oversubscription(durations_per_job, nodes, slots):
    dag, durations = build_dag(durations_per_job)
    slots = min(slots, 4)
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, slots)
    result = ClusterSimulator(spec, VariableTimeModel(durations)).run(dag)
    events = []
    for timeline in result.job_timelines.values():
        for attempt in timeline.attempts:
            events.append((attempt.start, 1, attempt.node))
            events.append((attempt.end, -1, attempt.node))
    # Process departures before arrivals at equal timestamps.
    events.sort(key=lambda event: (event[0], event[1]))
    load = {}
    for __, delta, node in events:
        load[node] = load.get(node, 0) + delta
        assert 0 <= load[node] <= slots


@given(durations_per_job=DURATIONS)
@settings(max_examples=40, deadline=None)
def test_makespan_not_worse_with_more_slots(durations_per_job):
    dag1, durations = build_dag(durations_per_job)
    dag2, __ = build_dag(durations_per_job)
    model = VariableTimeModel(durations)
    small = ClusterSimulator(
        ClusterSpec(get_instance_type("m1.large"), 1, 1), model).run(dag1)
    large = ClusterSimulator(
        ClusterSpec(get_instance_type("m1.large"), 4, 4), model).run(dag2)
    assert large.makespan <= small.makespan + 1e-9


@given(durations_per_job=DURATIONS, nodes=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_makespan_bounds(durations_per_job, nodes):
    """Makespan is at least the critical path's serial work / slots, and at
    most the total serial work (for any schedule without idling bugs)."""
    dag, durations = build_dag(durations_per_job)
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, 2)
    result = ClusterSimulator(spec, VariableTimeModel(durations)).run(dag)
    total_work = sum(durations.values())
    longest_task = max(durations.values())
    assert result.makespan >= longest_task - 1e-9
    assert result.makespan >= total_work / spec.total_slots - 1e-9
    assert result.makespan <= total_work + 1e-6


@given(durations_per_job=DURATIONS, nodes=st.integers(1, 3),
       slots=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_simulation_is_deterministic(durations_per_job, nodes, slots):
    results = []
    for __ in range(2):
        dag, durations = build_dag(durations_per_job)
        spec = ClusterSpec(get_instance_type("m1.large"), nodes, slots)
        result = ClusterSimulator(spec, VariableTimeModel(durations)).run(dag)
        results.append(result.makespan)
    assert results[0] == pytest.approx(results[1], abs=0)


class ContendedTimeModel(VariableTimeModel):
    """Durations that grow with the node's load, a per-job overhead, and
    the base class's shuffle priced from each map's shuffle bytes."""

    def task_duration(self, task, instance, concurrency, local):
        return self.durations[task.task_id] * (1.0 + 0.3 * (concurrency - 1))

    def job_overhead(self, job):
        return 0.25


@st.composite
def job_dags(draw):
    """Up to five jobs, each depending on any subset of the earlier ones;
    some are MapReduce jobs, with a shuffle and a reduce phase."""
    dag = JobDag()
    durations = {}
    for job_index in range(draw(st.integers(1, 5))):
        job_id = f"job{job_index}"

        def tasks(prefix, make, **work):
            built = []
            for index, duration in enumerate(draw(st.lists(
                    st.floats(min_value=0.1, max_value=10.0), min_size=1,
                    max_size=8))):
                task_id = f"{job_id}{prefix}{index}"
                durations[task_id] = duration
                built.append(make(task_id, TaskWork(**work)))
            return built

        depends_on = set(draw(st.lists(
            st.sampled_from([f"job{index}" for index in range(job_index)]),
            max_size=2))) if job_index else set()
        if draw(st.booleans()):
            dag.add(Job(job_id, JobKind.MAPREDUCE,
                        tasks("m", make_map_task, shuffle_bytes=10**8),
                        tasks("r", make_reduce_task), depends_on=depends_on))
        else:
            dag.add(Job(job_id, JobKind.MAP_ONLY, tasks("m", make_map_task),
                        depends_on=depends_on))
    return dag, durations


@given(dag=job_dags(), nodes=st.integers(1, 4), slots=st.integers(1, 3),
       scheduling=st.sampled_from([FIFO, FAIR]), speculative=st.booleans(),
       crash_seed=st.none() | st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_estimate_matches_the_full_run_bit_for_bit(dag, nodes, slots,
                                                   scheduling, speculative,
                                                   crash_seed):
    """The estimate path keeps no attempt records or timelines, and still
    returns the full run's makespan and per-job seconds exactly -- or
    aborts with the same exception."""
    dag, durations = dag
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, slots)
    simulator = ClusterSimulator(
        spec, ContendedTimeModel(durations), scheduling=scheduling,
        speculative=speculative,
        slow_nodes={spec.node_names()[-1]: 2.5} if speculative else None,
        # About one crash per node per 90 s: a third of the runs lose a
        # node, and some of those lose the last one.
        node_failures=(None if crash_seed is None
                       else RandomNodeFailures(40.0, seed=crash_seed)))
    try:
        result = simulator.run(dag)
    except SchedulingError as error:
        with pytest.raises(SchedulingError) as estimated:
            simulator.estimate(dag)
        assert type(estimated.value) is type(error)
        assert str(estimated.value) == str(error)
        return
    makespan, job_seconds = simulator.estimate(dag)
    assert makespan.hex() == result.makespan.hex()
    assert ({job_id: seconds.hex() for job_id, seconds in job_seconds.items()}
            == {job_id: timeline.duration.hex()
                for job_id, timeline in result.job_timelines.items()})


# -- service-level slot allocation ---------------------------------------------


def two_level_reference(policy, requests, weights, total):
    """Slot allocation written straight from the policy definitions:
    sort, group and water-fill from scratch (the reference the
    incrementally maintained ``RunQueues`` must match bit for bit)."""
    ordered = sorted(requests, key=lambda request: request.order)
    allocation = {request.job_id: 0.0 for request in ordered}
    if not ordered or total <= 0:
        return allocation
    if policy == POLICY_FIFO:
        remaining = float(total)
        for request in ordered:
            grant = min(request.cap, remaining)
            allocation[request.job_id] = grant
            remaining -= grant
            if remaining <= EPSILON:
                break
        return allocation
    by_tenant = {}
    for request in ordered:
        by_tenant.setdefault(request.tenant, []).append(request)
    tenant_shares = weighted_shares(
        [(tenant, sum(request.cap for request in queue),
          weights.get(tenant, 1.0))
         for tenant, queue in sorted(by_tenant.items())], float(total))
    for tenant, queue in by_tenant.items():
        allocation.update(weighted_shares(
            [(request.job_id, request.cap, 1.0) for request in queue],
            tenant_shares[tenant]))
    return allocation


SLOT_REQUESTS = st.lists(
    st.tuples(st.sampled_from(["acme", "iota", "zeta", "omega"]),
              st.one_of(st.integers(1, 12).map(float),
                        st.floats(min_value=0.05, max_value=12.0))),
    min_size=0, max_size=24,
).map(lambda rows: [SlotRequest(f"j{order}", tenant, cap, order)
                    for order, (tenant, cap) in enumerate(rows)])

SLOT_WEIGHTS = st.dictionaries(st.sampled_from(["acme", "iota", "zeta"]),
                               st.sampled_from([0.5, 1.0, 2.0, 3.0]))


@given(requests=SLOT_REQUESTS, weights=SLOT_WEIGHTS,
       total=st.sampled_from([0.0, 1.0, 2.0, 7.5, 16.0, 64.0]),
       policy=st.sampled_from(POLICIES), shuffle=st.randoms(),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_run_queues_match_the_from_scratch_allocation(
        requests, weights, total, policy, shuffle, data):
    expected = two_level_reference(policy, requests, weights, total)
    arrival = list(requests)
    shuffle.shuffle(arrival)
    assert allocate_slots(policy, arrival, weights, total) == expected

    # Maintained one job at a time — arrivals in any order, allocations
    # in between, departures — the queues still divide like a fresh sort.
    queues = RunQueues(policy, total, weights)
    for request in arrival:
        queues.add(request)
        if request.order % 5 == 0:
            queues.allocate()
    assert queues.allocate() == expected
    gone = data.draw(st.sets(st.sampled_from(requests))
                     if requests else st.just(set()), label="gone")
    for request in gone:
        queues.remove(request)
    staying = [request for request in requests if request not in gone]
    assert len(queues) == len(staying)
    assert queues.allocate() == two_level_reference(
        policy, staying, weights, total)
