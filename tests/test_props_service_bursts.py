"""Same-instant bursts: one re-allocation per virtual instant.

The event loop handles every event that shares a timestamp and then
divides the slots once.  Two locks on that:

* differential (public API only) — issuing an instant's commands
  together and running the clock once yields, bit for bit, the results
  of running the clock after each command (one re-allocation per
  command, which is what the loop did for every event before);
* counts — ``service.reschedules`` and the journal's ``tick`` records
  number the distinct event instants, not the events.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterSpec, get_instance_type
from repro.errors import AdmissionRejectedError, JobCancelledError
from repro.observability.metrics import MetricsRegistry
from repro.service.durability import DurabilityStore, read_journal
from repro.service.jobs import (
    EV_ADMIT,
    EV_CANCELLED,
    EV_COMPLETE,
    EV_REJECT,
    EV_TICK,
    JobService,
)
from repro.workloads.catalog import build_workload

#: Cheap to price and different in work and width.
PROGRAMS = [build_workload(name, "tiny")
            for name in ("multiply", "rsvd", "pagerank", "gnmf")]


def new_service(policy, nodes, weights, store=None, **extra):
    service = JobService(
        ClusterSpec(get_instance_type("m1.large"), nodes, 2),
        policy=policy, tune_physical=False, **extra)
    if store is not None:
        service.attach_durability(store)
    for index, weight in enumerate(weights):
        # One tenant can afford little, so some bursts carry rejections.
        service.add_tenant(f"t{index}", weight=weight,
                           budget_dollars=0.02 if index == 3 else None)
    return service


SUBMIT = st.tuples(st.just("submit"), st.integers(0, 3), st.integers(0, 3))
CANCEL = st.tuples(st.just("cancel"), st.integers(0, 1000), st.just(0))

#: One virtual instant: how the clock gets there and what is issued at it.
#: ``gap`` instants sit a fixed distance ahead and may carry cancels;
#: ``completion`` instants sit exactly on the next job completion, so the
#: burst shares its instant with a finishing job.
INSTANTS = st.one_of(
    st.tuples(st.just("gap"),
              st.sampled_from([0.0, 0.5, 7.0, 40.0, 300.0]),
              st.lists(st.one_of(SUBMIT, SUBMIT, CANCEL),
                       min_size=1, max_size=7)),
    st.tuples(st.just("completion"), st.just(0.0),
              st.lists(SUBMIT, min_size=1, max_size=7)),
)

SCENARIOS = st.fixed_dictionaries({
    "policy": st.sampled_from(["fifo", "fair"]),
    "nodes": st.sampled_from([1, 2, 4]),
    "weights": st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]),
                        min_size=4, max_size=4),
    "instants": st.lists(INSTANTS, min_size=1, max_size=5),
})


def play(scenario, together):
    """Run one scenario; ``together`` issues each instant's commands
    before a single ``run_until``, otherwise the clock runs after each."""
    service = new_service(scenario["policy"], scenario["nodes"],
                          scenario["weights"])
    handles = []

    def issue(command, at=None):
        kind, first, second = command
        if kind == "submit":
            program, tile = PROGRAMS[second]
            handles.append(service.submit(program, f"t{first}",
                                          submit_at=at, tile_size=tile))
        elif handles:
            handles[first % len(handles)].cancel()

    for landing, gap, commands in scenario["instants"]:
        if landing == "completion":
            at = service.next_event_at
            at = service.now if at is None else at
            if together:
                # Future-dated: the completion and the whole burst fire
                # in the one call that reaches the instant.
                for command in commands:
                    issue(command, at=at)
                service.run_until(at)
                continue
        else:
            at = service.now + gap
        service.run_until(at)
        for command in commands:
            issue(command)
            if not together:
                service.run_until(at)
        service.run_until(at)
    service.drain()

    results = []
    for handle in handles:
        try:
            result = handle.result(wait=False)
        except (AdmissionRejectedError, JobCancelledError) as error:
            results.append((handle.job_id, type(error).__name__))
        else:
            results.append((result.job_id, result.state, result.started_at,
                            result.finished_at, result.slot_seconds,
                            result.dollars, result.missed_deadline))
    report = service.report()
    bills = [(tenant.name, tenant.dollars, tenant.slot_seconds,
              tenant.committed_dollars) for tenant in report.tenants]
    return results, bills, report.summary(), service.now


def check_equivalence(scenario):
    assert play(scenario, together=True) == play(scenario, together=False)


@settings(max_examples=30, deadline=None)
@given(SCENARIOS)
def test_one_reallocation_per_instant_matches_one_per_command(scenario):
    check_equivalence(scenario)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(SCENARIOS)
def test_one_reallocation_per_instant_matches_one_per_command_many(scenario):
    check_equivalence(scenario)


class TestRescheduleCounts:
    def burst(self, service, count):
        handles = []
        for index in range(count):
            program, tile = PROGRAMS[index % 2]
            handles.append(service.submit(program, f"t{index % 3}",
                                          tile_size=tile))
        return handles

    def test_one_reschedule_for_a_same_instant_burst(self):
        registry = MetricsRegistry()
        service = new_service("fair", 4, [1.0, 2.0, 1.0, 1.0],
                              metrics=registry)
        handles = self.burst(service, 256)
        service.run_until(service.now)
        assert {handle.status for handle in handles} == {"running"}
        assert registry.counter("service.reschedules").value == 1

    def test_reschedules_and_ticks_count_distinct_instants(self, tmp_path):
        registry = MetricsRegistry()
        service = new_service("fair", 4, [1.0, 2.0, 1.0, 1.0],
                              metrics=registry)
        service.attach_durability(
            DurabilityStore(tmp_path / "state", fsync_every=64))
        first = self.burst(service, 40)
        service.run_until(service.now)
        service.run_until(50.0)
        self.burst(service, 24)
        first[-1].cancel()
        service.drain()
        service.close_durability()

        records = read_journal(tmp_path / "state" / "journal.wal")
        ticks = [record for record in records if record["ev"] == EV_TICK]
        # Every instant something happened at: an admission, a rejection,
        # a completion or a cancellation carries its instant's clock.
        instants = {record["clock"] for record in records
                    if record["ev"] in (EV_ADMIT, EV_REJECT, EV_COMPLETE,
                                        EV_CANCELLED)}
        assert len(instants) > 10
        assert [tick["clock"] for tick in ticks] == sorted(instants)
        assert registry.counter("service.reschedules").value == len(ticks)


def test_instant_ending_in_a_superseded_completion_still_reallocates():
    """The re-allocation an instant owes is decided after *every* pop.

    A submission future-dated to the exact time a completion was once
    predicted for — and later superseded — shares its instant with that
    dead event, which pops last (it was queued later).  The loop must
    still divide the slots before the clock moves on.
    """
    long_program, long_tile = PROGRAMS[3]
    probe = new_service("fair", 1, [1.0, 1.0, 1.0, 1.0])
    probe.submit(long_program, "t0", tile_size=long_tile)
    probe.run_until(0.0)
    predicted = probe.next_event_at  # the lone job's finish, undisturbed

    service = new_service("fair", 1, [1.0, 1.0, 1.0, 1.0])
    program, tile = PROGRAMS[0]
    late = service.submit(program, "t1", submit_at=predicted, tile_size=tile)
    service.submit(long_program, "t0", tile_size=long_tile)
    service.run_until(0.0)
    # A second tenant halves the first job's slots: its completion moves
    # out, and the one queued for ``predicted`` is now superseded.
    service.run_until(predicted / 2)
    program, tile = PROGRAMS[1]
    service.submit(program, "t2", tile_size=tile)
    service.run_until(predicted / 2)

    service.run_until(predicted)
    assert late.status == "running"
    service.drain()
    assert late.result().started_at == predicted
