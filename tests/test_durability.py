"""Tier-1 tests for the durable control plane (journal + recovery).

The acceptance criteria from the durability PR, locked:

* a journaled run and a plain run of the same script produce bit-equal
  reports (the journal is write-only on the healthy path);
* killing the service after *any* journal record and recovering yields
  byte-equal bills and schedules versus the uninterrupted run
  (determinism sweep, in-process ``raise`` crash hook);
* recovery replays journaled admission decisions verbatim — **zero
  re-pricings** of anything already decided;
* torn tails truncate at the exact record boundary; mid-file corruption
  is detected with the record index and byte offset;
* snapshots compact the journal and recovery composes
  ``snapshot ∘ journal-tail``;
* a real ``SIGKILL`` subprocess run (the chaos harness) recovers with
  zero lost and zero double-billed jobs.
"""

import json
import signal

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import (
    JournalCorruptionError,
    JournalError,
    RecoveryError,
    UnknownJobError,
    ValidationError,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import InMemoryRecorder, PHASE_SPAN
from repro.service.durability import (
    ERROR_CORRUPT,
    ERROR_TORN,
    EVENT_KINDS,
    JOURNAL_VERSION,
    KILL_RAISE,
    DurabilityStore,
    Journal,
    JournalKilled,
    audit_journal,
    encode_record,
    read_journal,
    recover,
    report_digest,
    scan_journal,
    scan_records,
    schedule_digest,
)
from repro.service.jobs import (
    EV_HEADER,
    EV_RECOVERED,
    EV_SUBMIT,
    STATE_CANCELLED,
    JobService,
)
from repro.service.script import (
    build_service,
    run_script,
    submit_script_jobs,
    validate_script,
)
from repro.workloads.catalog import build_workload

from benchmarks.rigs import kill_and_recover


def small_script(jobs=4):
    """A tiny two-tenant burst: enough to exercise every record kind."""
    job_docs = []
    for index in range(jobs):
        if index % 2 == 0:
            job_docs.append({"tenant": "heavy", "workload": "gnmf",
                             "scale": "tiny", "submit_at": 0.0})
        else:
            job_docs.append({"tenant": "light", "workload": "multiply",
                             "scale": "tiny",
                             "submit_at": 10.0 + index * 20.0})
    return validate_script({
        "cluster": {"instance": "c1.medium", "nodes": 2,
                    "slots_per_node": 2},
        "policy": "fair",
        "tile_size": 256,
        "tenants": [{"name": "heavy", "weight": 1.0},
                    {"name": "light", "weight": 1.0}],
        "jobs": job_docs,
    })


def submitted_script(*jobs):
    """The script ``repro submit`` writes for ``(tenant, workload,
    submit_at)`` jobs at tiny scale on two m1.large nodes."""
    return validate_script({
        "cluster": {"instance": "m1.large", "nodes": 2,
                    "slots_per_node": 2},
        "policy": "fair",
        "tenants": [{"name": name}
                    for name in dict.fromkeys(job[0] for job in jobs)],
        "jobs": [{"tenant": tenant, "workload": workload, "scale": "tiny",
                  "submit_at": submit_at}
                 for tenant, workload, submit_at in jobs],
    })


def baseline_digests(script):
    report, __ = run_script(script)
    service_for_schedule = build_service(script)
    submit_script_jobs(service_for_schedule, script)
    service_for_schedule.drain()
    return report_digest(report), schedule_digest(service_for_schedule)


class TestRecordCodec:
    def test_round_trip(self):
        records = [{"ev": kind, "n": index}
                   for index, kind in enumerate(EVENT_KINDS)]
        data = b"".join(encode_record(r) for r in records)
        scan = scan_records(data)
        assert scan.clean
        assert scan.records == records
        assert scan.valid_bytes == len(data)

    def test_empty_and_missing(self, tmp_path):
        assert scan_records(b"").clean
        assert scan_journal(tmp_path / "nope.wal").records == []

    def test_torn_frame_detected_at_boundary(self):
        good = encode_record({"ev": "tenant", "name": "a"})
        scan = scan_records(good + good[: len(good) - 3])
        assert scan.error == ERROR_TORN
        assert scan.error_index == 1
        assert scan.valid_bytes == len(good)
        assert scan.records == [{"ev": "tenant", "name": "a"}]

    def test_corrupt_payload_detected(self):
        good = encode_record({"ev": "tenant", "name": "a"})
        bad = bytearray(good + good)
        bad[len(good) + 10] ^= 0xFF  # flip one payload byte of record 2
        scan = scan_records(bytes(bad))
        assert scan.error == ERROR_CORRUPT
        assert scan.error_index == 1
        assert scan.valid_bytes == len(good)

    def test_read_journal_raises_with_boundary(self, tmp_path):
        path = tmp_path / "j.wal"
        good = encode_record({"ev": "tenant"})
        path.write_bytes(good + b"\x00\x01")
        with pytest.raises(JournalCorruptionError) as info:
            read_journal(path)
        assert "record #1" in str(info.value)
        assert f"byte {len(good)}" in str(info.value)


class TestJournal:
    def test_append_sync_stats(self, tmp_path):
        journal = Journal(tmp_path / "j.wal", fsync_every=2)
        journal.append({"ev": "tenant", "n": 1})
        journal.append({"ev": "tenant", "n": 2})
        journal.append({"ev": "tenant", "n": 3})
        journal.close()
        assert read_journal(tmp_path / "j.wal") == [
            {"ev": "tenant", "n": 1}, {"ev": "tenant", "n": 2},
            {"ev": "tenant", "n": 3}]
        stats = journal.stats()
        assert stats["records"] == 3
        assert stats["fsyncs"] >= 2  # one batch + the close flush

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = Journal(tmp_path / "j.wal")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(JournalError):
            journal.append({"ev": "tenant"})

    def test_rotate_compacts_to_header(self, tmp_path):
        journal = Journal(tmp_path / "j.wal", fsync_every=1)
        for index in range(5):
            journal.append({"ev": "tenant", "n": index})
        journal.rotate({"ev": EV_HEADER, "epoch": 1})
        journal.append({"ev": "tenant", "n": 99})
        journal.close()
        records = read_journal(tmp_path / "j.wal")
        assert records == [{"ev": EV_HEADER, "epoch": 1},
                           {"ev": "tenant", "n": 99}]

    def test_bad_config_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            Journal(tmp_path / "j.wal", fsync_every=0)
        with pytest.raises(ValidationError):
            Journal(tmp_path / "j.wal", kill_mode="sideways")

    def test_raise_mode_kill_hook_fires_after_nth_record(self, tmp_path):
        journal = Journal(tmp_path / "j.wal", fsync_every=1,
                          kill_after=2, kill_mode=KILL_RAISE)
        journal.append({"ev": "tenant", "n": 1})
        with pytest.raises(JournalKilled):
            journal.append({"ev": "tenant", "n": 2})
        # Everything up to and including the kill point is durable.
        assert len(read_journal(tmp_path / "j.wal")) == 2


class TestJournaledRun:
    def test_journal_does_not_change_the_report(self, tmp_path):
        script = small_script()
        plain, __ = run_script(script)
        journaled, __ = run_script(
            script, store=DurabilityStore(tmp_path / "state"))
        assert (json.dumps(plain.summary(), sort_keys=True)
                == json.dumps(journaled.summary(), sort_keys=True))

    def test_journal_contents(self, tmp_path):
        script = small_script()
        run_script(script, store=DurabilityStore(tmp_path / "state",
                                                 fsync_every=1))
        records = read_journal(tmp_path / "state" / "journal.wal")
        assert records[0]["ev"] == EV_HEADER
        kinds = {record["ev"] for record in records}
        assert {"header", "tenant", "submit", "advance", "admit",
                "start", "complete"} <= kinds
        submits = [r for r in records if r["ev"] == EV_SUBMIT]
        assert len(submits) == len(script["jobs"])
        assert all("script_index" in r["source"] for r in submits)

    def test_store_refuses_to_clobber_state(self, tmp_path):
        script = small_script(jobs=2)
        run_script(script, store=DurabilityStore(tmp_path / "state"))
        with pytest.raises(JournalError):
            run_script(script, store=DurabilityStore(tmp_path / "state"))

    def test_recover_completed_run_is_exact(self, tmp_path):
        script = small_script()
        report_dig, schedule_dig = baseline_digests(script)
        run_script(script, store=DurabilityStore(tmp_path / "state"))
        service = recover(tmp_path / "state")
        service.drain()
        assert report_digest(service.report()) == report_dig
        assert schedule_digest(service) == schedule_dig
        # Every decision came back from the journal — zero re-pricings.
        assert service.recovery.decisions_repriced == 0
        assert service.recovery.decisions_replayed == len(script["jobs"])
        service.close_durability()

    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path / "void")


class TestKillSweepDeterminism:
    """The core durability lock: kill after ANY record, recover, equal."""

    def test_every_kill_point_recovers_byte_equal(self, tmp_path):
        script = small_script()
        report_dig, schedule_dig = baseline_digests(script)
        probe = tmp_path / "probe"
        run_script(script, store=DurabilityStore(probe, fsync_every=1))
        total = len(read_journal(probe / "journal.wal"))
        assert total > 10
        failures = []
        for kill_after in range(1, total + 1):
            workdir = tmp_path / f"kill{kill_after}"
            store = DurabilityStore(workdir, fsync_every=1,
                                    kill_after=kill_after,
                                    kill_mode=KILL_RAISE)
            try:
                run_script(script, store=store)
            except JournalKilled:
                if store.journal is not None:
                    store.journal.close()
            service = recover(workdir, fsync_every=1)
            submit_script_jobs(service, script)
            service.drain()
            if (report_digest(service.report()) != report_dig
                    or schedule_digest(service) != schedule_dig):
                failures.append(kill_after)
            service.close_durability()
        assert failures == []

    def test_recovery_replays_decisions_without_repricing(self, tmp_path):
        script = small_script()
        probe = tmp_path / "probe"
        run_script(script, store=DurabilityStore(probe, fsync_every=1))
        records = read_journal(probe / "journal.wal")
        last_decision = max(index for index, record
                            in enumerate(records, 1)
                            if record["ev"] in ("admit", "reject"))
        workdir = tmp_path / "state"
        store = DurabilityStore(workdir, fsync_every=1,
                                kill_after=last_decision,
                                kill_mode=KILL_RAISE)
        with pytest.raises(JournalKilled):
            run_script(script, store=store)
        store.journal.close()
        service = recover(workdir, fsync_every=1)
        assert service.recovery.decisions_replayed == len(script["jobs"])
        assert service.recovery.decisions_repriced == 0
        submit_script_jobs(service, script)
        service.drain()
        assert service.decisions_priced == 0
        service.close_durability()


#: Server-style ticks: reach an instant, submit a whole batch *at* it,
#: admit the batch under one re-allocation.  (instant, [(tenant, workload)]).
BURSTS = [
    (0.0, [("heavy", "gnmf"), ("light", "multiply"), ("heavy", "multiply"),
           ("light", "gnmf")]),
    (30.0, [("light", "multiply"), ("heavy", "gnmf"), ("light", "multiply")]),
    (400.0, [("heavy", "multiply"), ("light", "multiply")]),
]


def burst_service(store=None):
    service = JobService(
        ClusterSpec(get_instance_type("c1.medium"), 2, 2),
        tune_physical=False)
    if store is not None:
        service.attach_durability(store)
    return service


def play_bursts(service):
    """Drive BURSTS; on a recovered service, only what it has not seen."""
    for name, weight in (("heavy", 1.0), ("light", 2.0)):
        if name not in service.tenants:
            service.add_tenant(name, weight=weight)
    seen = {record.source["burst_job"] for record in service.jobs.values()}
    index = 0
    for at, batch in BURSTS:
        if at > service.now:
            service.run_until(at)
        for tenant, workload in batch:
            if index not in seen:
                program, tile = build_workload(workload, "tiny")
                service.submit(program, tenant, tile_size=tile,
                               source={"workload": workload, "scale": "tiny",
                                       "burst_job": index})
            index += 1
        if at >= service.now:
            service.run_until(at)
    service.drain()


class TestSameInstantBurstKillSweep:
    """Kill inside a batch submitted at one instant, recover, equal."""

    def test_every_kill_point_in_a_batched_run_recovers_byte_equal(
            self, tmp_path):
        baseline = burst_service()
        play_bursts(baseline)
        report_dig = report_digest(baseline.report())
        schedule_dig = schedule_digest(baseline)

        probe = burst_service(DurabilityStore(tmp_path / "probe",
                                              fsync_every=1))
        play_bursts(probe)
        probe.close_durability()
        assert report_digest(probe.report()) == report_dig
        records = read_journal(tmp_path / "probe" / "journal.wal")
        kinds = [record["ev"] for record in records]
        pairs = set(zip(kinds, kinds[1:]))
        # The sweep below kills between two submits of one batch, and
        # between a batch's last admit and what its one tick adds.
        assert ("submit", "submit") in pairs
        assert ("admit", "start") in pairs or ("admit", "tick") in pairs
        # One batch, one re-allocation: no instant ticks twice.
        ticks = [record["clock"] for record in records
                 if record["ev"] == "tick"]
        assert len(ticks) == len(set(ticks))

        failures = []
        for kill_after in range(1, len(records) + 1):
            workdir = tmp_path / f"kill{kill_after}"
            store = DurabilityStore(workdir, fsync_every=1,
                                    kill_after=kill_after,
                                    kill_mode=KILL_RAISE)
            try:
                play_bursts(burst_service(store))
            except JournalKilled:
                pass
            store.journal.close()
            service = recover(workdir, fsync_every=1)
            # Zero re-pricings: every decision the durable prefix holds
            # is replayed, and in the end each job was decided once.
            decided = sum(kind in ("admit", "reject")
                          for kind in kinds[:kill_after])
            replayed = service.recovery.decisions_replayed
            play_bursts(service)
            decisions = service.decisions_replayed + service.decisions_priced
            if (replayed != decided or decisions != len(service.jobs)
                    or report_digest(service.report()) != report_dig
                    or schedule_digest(service) != schedule_dig):
                failures.append(kill_after)
            service.close_durability()
            # The journal is whole again — effects the crash cut off were
            # written down by recovery — so it audits clean and recovers
            # a second time to the same state.
            audit = audit_journal(workdir)
            again = recover(workdir, fsync_every=1)
            if (not audit.ok or audit.completed != len(service.jobs)
                    or schedule_digest(again) != schedule_dig):
                failures.append(-kill_after)
            again.close_durability()
        assert failures == []

    def test_version_1_journal_is_refused_by_version(self, tmp_path):
        store = DurabilityStore(tmp_path / "state", fsync_every=1)
        service = burst_service(store)
        play_bursts(service)
        service.close_durability()
        path = tmp_path / "state" / "journal.wal"
        records = read_journal(path)
        assert records[0]["version"] == JOURNAL_VERSION == 2
        records[0]["version"] = 1
        path.write_bytes(b"".join(encode_record(r) for r in records))
        with pytest.raises(RecoveryError, match="journal version 1 is not 2"):
            recover(tmp_path / "state")


class TestCancelAndUnknownJob:
    def test_cancel_is_idempotent_and_journaled(self, tmp_path):
        script = small_script()
        store = DurabilityStore(tmp_path / "state", fsync_every=1)
        service = build_service(script, store=store)
        handles = submit_script_jobs(service, script)
        victim = handles[-1].job_id
        service.cancel(victim)
        service.cancel(victim)  # idempotent: no error, no double record
        service.drain()
        assert service.jobs[victim].state == STATE_CANCELLED
        service.cancel(victim)  # cancelling a done job is a no-op too
        service.close_durability()
        records = read_journal(tmp_path / "state" / "journal.wal")
        cancels = [r for r in records if r["ev"] == "cancel"]
        assert len(cancels) == 1

    def test_unknown_job_raises_stable_type(self, tmp_path):
        service = build_service(small_script(jobs=2))
        with pytest.raises(UnknownJobError):
            service.cancel("no-such-job")
        with pytest.raises(UnknownJobError):
            service.status("no-such-job")

    def test_cancel_replays_identically(self, tmp_path):
        script = small_script()

        def run_with_cancel(store):
            service = build_service(script, store=store)
            handles = submit_script_jobs(service, script)
            service.cancel(handles[-1].job_id)
            service.drain()
            return service

        baseline = run_with_cancel(None)
        store = DurabilityStore(tmp_path / "state", fsync_every=1)
        journaled = run_with_cancel(store)
        journaled.close_durability()
        assert schedule_digest(journaled) == schedule_digest(baseline)
        service = recover(tmp_path / "state")
        service.drain()
        assert schedule_digest(service) == schedule_digest(baseline)
        service.close_durability()


class TestSnapshots:
    def test_snapshot_compacts_and_recovery_composes(self, tmp_path):
        script = small_script()
        report_dig, schedule_dig = baseline_digests(script)
        store = DurabilityStore(tmp_path / "state", fsync_every=1,
                                snapshot_every=8)
        run_script(script, store=store)
        assert store.snapshots_taken >= 1
        assert (tmp_path / "state" / "snapshot.json").exists()
        records = read_journal(tmp_path / "state" / "journal.wal")
        assert records[0]["ev"] == EV_HEADER
        assert records[0]["epoch"] == store.epoch
        service = recover(tmp_path / "state")
        service.drain()
        assert report_digest(service.report()) == report_dig
        assert schedule_digest(service) == schedule_dig
        assert service.recovery.snapshot_epoch == store.epoch
        service.close_durability()

    def test_kill_sweep_with_snapshots(self, tmp_path):
        script = small_script()
        report_dig, schedule_dig = baseline_digests(script)
        probe = tmp_path / "probe"
        run_script(script, store=DurabilityStore(probe, fsync_every=1))
        total = len(read_journal(probe / "journal.wal"))
        # Sample a handful of kill points; the full sweep runs above.
        for kill_after in {2, total // 3, total // 2, total - 1}:
            workdir = tmp_path / f"kill{kill_after}"
            store = DurabilityStore(workdir, fsync_every=1,
                                    snapshot_every=6,
                                    kill_after=kill_after,
                                    kill_mode=KILL_RAISE)
            try:
                run_script(script, store=store)
            except JournalKilled:
                if store.journal is not None:
                    store.journal.close()
            service = recover(workdir, fsync_every=1, snapshot_every=6)
            submit_script_jobs(service, script)
            service.drain()
            assert report_digest(service.report()) == report_dig, kill_after
            assert schedule_digest(service) == schedule_dig, kill_after
            service.close_durability()


class TestTornAndCorrupt:
    def test_torn_tail_truncates_and_recovers(self, tmp_path):
        script = small_script()
        report_dig, schedule_dig = baseline_digests(script)
        store = DurabilityStore(tmp_path / "state", fsync_every=1)
        run_script(script, store=store)
        path = tmp_path / "state" / "journal.wal"
        data = path.read_bytes()
        path.write_bytes(data[:-5])  # tear mid-frame
        scan = scan_journal(path)
        assert scan.error == ERROR_TORN
        service = recover(tmp_path / "state")
        assert service.recovery.scan_error == ERROR_TORN
        assert service.recovery.truncated_bytes > 0
        submit_script_jobs(service, script)
        service.drain()
        assert report_digest(service.report()) == report_dig
        assert schedule_digest(service) == schedule_dig
        service.close_durability()
        # The reattached journal is clean again after recovery.
        assert scan_journal(path).clean

    def test_strict_recovery_refuses_torn_journal(self, tmp_path):
        script = small_script(jobs=2)
        run_script(script, store=DurabilityStore(tmp_path / "state",
                                                 fsync_every=1))
        path = tmp_path / "state" / "journal.wal"
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(JournalCorruptionError):
            recover(tmp_path / "state", strict=True)

    def test_mid_file_corruption_is_located_exactly(self, tmp_path):
        script = small_script(jobs=2)
        run_script(script, store=DurabilityStore(tmp_path / "state",
                                                 fsync_every=1))
        path = tmp_path / "state" / "journal.wal"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        scan = scan_journal(path)
        assert scan.error == ERROR_CORRUPT
        assert scan.error_index > 0
        assert scan.valid_bytes < len(data)
        with pytest.raises(JournalCorruptionError):
            read_journal(path)


class TestStoreLayout:
    def test_directory_holds_journal_and_snapshot_only(self, tmp_path):
        """The admission memo is not persisted: recovery replays journaled
        decisions instead."""
        store = DurabilityStore(tmp_path / "state", snapshot_every=4)
        run_script(small_script(), store=store)
        assert store.snapshots_taken > 0
        assert sorted(path.name for path in (tmp_path / "state").iterdir()) \
            == ["journal.wal", "snapshot.json"]


class TestObservability:
    def test_recovery_metrics_and_trace_span(self, tmp_path):
        script = small_script()
        run_script(script, store=DurabilityStore(tmp_path / "state",
                                                 fsync_every=1))
        registry = MetricsRegistry()
        recorder = InMemoryRecorder()
        service = recover(tmp_path / "state", metrics=registry,
                          recorder=recorder)
        assert registry.counter("journal.replay_records").value > 0
        assert registry.counter("journal.replay_commands").value > 0
        spans = [event for event in recorder.trace().events
                 if event.phase == PHASE_SPAN
                 and event.task_id == "recovery"]
        assert len(spans) == 1
        assert "decisions replayed" in spans[0].label
        # The recovery marker landed in the reattached journal.
        service.journal.sync()
        records = read_journal(tmp_path / "state" / "journal.wal")
        assert any(record["ev"] == EV_RECOVERED for record in records)
        stats = service.recovery
        assert stats.records_scanned == len(records) - 1  # marker is new
        assert "recovered from journal" in stats.describe()
        service.close_durability()

    def test_journal_write_metrics(self, tmp_path):
        registry = MetricsRegistry()
        script = small_script(jobs=2)
        run_script(script, metrics=registry,
                   store=DurabilityStore(tmp_path / "state", fsync_every=2,
                                         metrics=registry))
        assert registry.counter("journal.appends").value > 0
        assert registry.counter("journal.bytes").value > 0
        assert registry.counter("journal.fsyncs").value > 0


class TestResumeScript:
    def test_resubmits_only_missing_jobs(self, tmp_path):
        script = small_script()
        store = DurabilityStore(tmp_path / "state", fsync_every=1,
                                kill_after=6, kill_mode=KILL_RAISE)
        with pytest.raises(JournalKilled):
            run_script(script, store=store)
        store.journal.close()
        service = recover(tmp_path / "state")
        durable = {record.source["script_index"]
                   for record in service.jobs.values() if record.source}
        handles = submit_script_jobs(service, script)
        assert len(handles) == len(script["jobs"]) - len(durable)
        resubmitted = {record.source["script_index"]
                       for record in service.jobs.values()
                       if record.source}
        assert resubmitted == set(range(len(script["jobs"])))
        # Idempotent: a second call has nothing left to add.
        assert submit_script_jobs(service, script) == []
        service.drain()
        service.close_durability()

    def test_negative_submit_at_is_refused(self):
        # The resubmission clamp lands past arrivals at the clock; a
        # script asking for an arrival before t=0 is an input error.
        script = small_script(jobs=2)
        script["jobs"][1]["submit_at"] = -5.0
        with pytest.raises(ValidationError, match="negative"):
            validate_script(script)


class TestStaleSegment:
    """A crash between the snapshot write and the journal rotation."""

    def crash_before_rotation(self, tmp_path, script, monkeypatch):
        rotate = Journal.rotate

        def rotate_once_then_crash(journal, header):
            monkeypatch.setattr(Journal, "rotate", rotate)
            raise JournalKilled("crash before the rotation")

        monkeypatch.setattr(Journal, "rotate", rotate_once_then_crash)
        store = DurabilityStore(tmp_path / "state", fsync_every=1,
                                snapshot_every=8)
        with pytest.raises(JournalKilled):
            run_script(script, store=store)
        store.journal.close()
        records = read_journal(tmp_path / "state" / "journal.wal")
        snapshot = json.loads(
            (tmp_path / "state" / "snapshot.json").read_text())
        assert records[0]["epoch"] < snapshot["epoch"]
        return tmp_path / "state"

    def test_recovery_discards_the_stale_segment(self, tmp_path,
                                                 monkeypatch):
        script = small_script()
        report_dig, schedule_dig = baseline_digests(script)
        workdir = self.crash_before_rotation(tmp_path, script, monkeypatch)
        service = recover(workdir, fsync_every=1)
        assert service.recovery.snapshot_epoch == 1
        submit_script_jobs(service, script)
        service.drain()
        assert report_digest(service.report()) == report_dig
        assert schedule_digest(service) == schedule_dig
        service.close_durability()
        assert read_journal(workdir / "journal.wal")[0]["epoch"] == 1

    def test_audit_composes_by_epoch(self, tmp_path, monkeypatch):
        script = small_script()
        workdir = self.crash_before_rotation(tmp_path, script, monkeypatch)
        # The stale segment's decisions are already in the snapshot.
        assert audit_journal(workdir).double_decided == 0
        service = recover(workdir, fsync_every=1)
        submit_script_jobs(service, script)
        service.drain()
        service.close_durability()
        audit = audit_journal(workdir)
        assert audit.ok, audit.to_doc()
        assert audit.completed == len(script["jobs"])


class TestKillPoint:
    def test_a_kill_past_the_last_record_is_refused_before_spawning(
            self, tmp_path):
        # A kill point the run never reaches would let the server finish
        # cleanly; the rig refuses it instead of reporting a clean pass.
        with pytest.raises(ValidationError, match="past the last"):
            kill_and_recover(small_script(jobs=3), tmp_path,
                             kill_after=100000)
        assert (tmp_path / "baseline" / "journal.wal").exists()
        assert not (tmp_path / "state").exists()

    def test_a_pinned_kill_point_is_honoured(self, tmp_path):
        script = submitted_script(("acme", "multiply", 0.0),
                                  ("acme", "multiply", 30.0))
        chaos = kill_and_recover(script, tmp_path, kill_after=5)
        assert chaos.kill_after == 5
        assert chaos.full_run_records >= 5
        assert chaos.killed
        assert chaos.ok, chaos.describe()
        assert chaos.lost_jobs == 0
        assert chaos.double_billed == 0
        assert chaos.bills_match and chaos.schedules_match


@pytest.mark.slow
class TestRealSigkill:
    @pytest.mark.parametrize("script", [
        small_script(),
        # What CI builds with `repro submit`: two gnmf jobs at once, then
        # two multiply arrivals while they run.
        submitted_script(("heavy", "gnmf", 0.0), ("heavy", "gnmf", 0.0),
                         ("light", "multiply", 15.0),
                         ("light", "multiply", 45.0)),
    ], ids=["small", "submitted-burst"])
    def test_kill_and_recover_subprocess(self, tmp_path, script):
        # The default kill point lands half way through the records the
        # journaled baseline run wrote.
        chaos = kill_and_recover(script, tmp_path)
        total = len(read_journal(tmp_path / "baseline" / "journal.wal"))
        assert chaos.full_run_records == total
        assert chaos.kill_after == max(2, total // 2)
        assert chaos.killed
        assert chaos.exit_code == -signal.SIGKILL
        assert chaos.durable_records >= chaos.kill_after
        assert chaos.ok, chaos.describe()
        assert chaos.lost_jobs == 0
        assert chaos.double_billed == 0
        assert chaos.bills_match and chaos.schedules_match
        assert (chaos.recovered_jobs + chaos.resubmitted
                == chaos.jobs == len(script["jobs"]))
        assert "lost_acked" not in chaos.to_doc()


class TestRestoreEdgeCases:
    def test_unknown_billing_model_refused(self, tmp_path):
        restore_service = JobService.restore
        with pytest.raises(RecoveryError):
            restore_service({"instance": "c1.medium", "nodes": 2,
                             "slots_per_node": 2, "policy": "fair",
                             "tile_size": 256, "tune_physical": True,
                             "billing": "per-photon"})

    def test_malformed_header_refused(self):
        restore_service = JobService.restore
        with pytest.raises(RecoveryError):
            restore_service({"instance": "c1.medium"})

    def test_default_resolver_rebuilds_from_provenance(self):
        from repro.service.jobs import RecoveredProgram, default_resolver
        program = default_resolver(
            {"workload": "multiply", "scale": "tiny"}, "whatever")
        reference, __ = build_workload("multiply", "tiny")
        assert program.name == reference.name
        placeholder = default_resolver(None, "ghost")
        assert isinstance(placeholder, RecoveredProgram)
        assert placeholder.name == "ghost"
        assert placeholder.inputs == {}
