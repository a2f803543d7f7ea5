"""Uninterrupted ≡ restored ≡ recovered, on generated service runs.

The kill sweeps in ``test_durability.py`` run fixed scripts.  This
property reuses the generated same-instant scenarios of
``test_props_service_bursts.py`` and stops each run at a random instant
boundary.  At that point:

* ``JobService.restore(snapshot)`` re-snapshots to the identical
  document;
* the restored service, given the rest of the scenario, ends with the
  uninterrupted run's per-job results, bills and ``report_digest``;
* ``recover()`` of the journal directory closed at that point equals the
  restored service — same state, nothing re-priced — and ends the same.
"""

import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionRejectedError, JobCancelledError
from repro.service.durability import (
    DurabilityStore,
    recover,
    report_digest,
    schedule_digest,
)
from repro.service.jobs import JobService
from repro.workloads.catalog import build_workload
from tests.test_props_service_bursts import SCENARIOS, new_service

#: The workloads a scenario's submit commands pick from, by index; each
#: submission carries its provenance, so recovery can rebuild it.
WORKLOADS = ("multiply", "rsvd", "pagerank", "gnmf")
PROGRAMS = [build_workload(name, "tiny") for name in WORKLOADS]

#: Per-process admission counters, which recovery restarts on purpose.
COUNTERS = ("decisions_priced", "decisions_replayed")


def play(service, instants, job_ids):
    """The burst suite's batched play: each instant's commands, then one
    ``run_until`` to it (a completion instant's burst is future-dated to
    it, so the completion and the burst fire in that one call)."""
    for landing, gap, commands in instants:
        if landing == "completion":
            at = service.next_event_at
            at = service.now if at is None else at
        else:
            at = service.now + gap
            service.run_until(at)
        for kind, first, second in commands:
            if kind == "submit":
                program, tile = PROGRAMS[second]
                job_ids.append(service.submit(
                    program, f"t{first}", submit_at=at, tile_size=tile,
                    source={"workload": WORKLOADS[second],
                            "scale": "tiny"}).job_id)
            elif job_ids:
                service.cancel(job_ids[first % len(job_ids)])
        service.run_until(at)


def finish(service, instants, job_ids):
    """Play the rest of the scenario and drain; the run's outcome."""
    job_ids = list(job_ids)
    play(service, instants, job_ids)
    service.drain()
    results = []
    for job_id in job_ids:
        try:
            result = service.result(job_id)
        except (AdmissionRejectedError, JobCancelledError) as error:
            results.append((job_id, type(error).__name__))
        else:
            results.append((result.job_id, result.state, result.started_at,
                            result.finished_at, result.slot_seconds,
                            result.dollars, result.missed_deadline))
    report = service.report()
    bills = [(tenant.name, tenant.dollars, tenant.slot_seconds,
              tenant.committed_dollars) for tenant in report.tenants]
    return (results, bills, report_digest(report),
            schedule_digest(service))


def state(service, epoch=1):
    """The service's snapshot as the store writes it (through JSON)."""
    return json.loads(json.dumps(service.snapshot(epoch)))


def without_counters(document):
    return {key: value for key, value in document.items()
            if key not in COUNTERS}


def check(scenario, data):
    instants = scenario["instants"]
    cut = data.draw(st.integers(0, len(instants)), label="cut")
    snapshot_every = data.draw(st.sampled_from([0, 5, 17]),
                               label="snapshot_every")

    def fresh(store=None):
        return new_service(scenario["policy"], scenario["nodes"],
                           scenario["weights"], store=store)

    uninterrupted = finish(fresh(), instants, [])

    with tempfile.TemporaryDirectory() as directory:
        journaled = fresh(DurabilityStore(directory, fsync_every=64,
                                          snapshot_every=snapshot_every))
        job_ids = []
        play(journaled, instants[:cut], job_ids)
        journaled.close_durability()
        document = state(journaled)

        restored = JobService.restore(document)
        assert state(restored) == document

        recovered = recover(directory)
        assert recovered.decisions_priced == 0
        assert without_counters(state(recovered)) \
            == without_counters(document)
        rest = instants[cut:]
        assert finish(recovered, rest, job_ids) == uninterrupted
        recovered.close_durability()

    assert finish(restored, rest, job_ids) == uninterrupted


@settings(max_examples=15, deadline=None)
@given(SCENARIOS, st.data())
def test_restored_and_recovered_runs_match_the_uninterrupted_one(
        scenario, data):
    check(scenario, data)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(SCENARIOS, st.data())
def test_restored_and_recovered_runs_match_the_uninterrupted_one_many(
        scenario, data):
    check(scenario, data)


def test_a_superseded_completion_does_not_split_the_snapshots():
    """A cancel supersedes the running job's completion.  The live run
    drops that dead completion when the driver reads ``next_event_at``;
    replay never reads it.  Recovery must still snapshot like the live
    run (a generated example found this)."""
    instants = [("gap", 0.0, [("submit", 0, 0)]),
                ("gap", 0.0, [("cancel", 0, 0)]),
                ("completion", 0.0, [("submit", 0, 0)])]
    with tempfile.TemporaryDirectory() as directory:
        live = new_service("fifo", 1, [0.5] * 4,
                           store=DurabilityStore(directory, fsync_every=64,
                                                 snapshot_every=0))
        play(live, instants, [])
        live.close_durability()
        recovered = recover(directory)
        assert without_counters(state(recovered)) \
            == without_counters(state(live))
        recovered.close_durability()
