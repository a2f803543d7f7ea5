"""The wall-clock socket server, tick drivers, and load-test harness.

Fast tier-1 coverage runs the server in-process (a thread + unix
socket): batched admission, group commit, drain semantics, journal
audit, and wall-clock recovery.  The ``slow``-marked tests exercise the
real subprocess path — ``repro serve --listen`` spawned by
:func:`~benchmarks.rigs.run_loadtest` and the SIGKILL chaos harness —
exactly as benchmark E26 and CI's loadtest smoke job do.
"""

import io
import json
import os
import sys
import time

import pytest

from repro.cli import main
from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import ServiceError, ValidationError
from repro.service.durability import (
    DurabilityStore,
    JournalAudit,
    audit_journal,
    recover,
)
from repro.service.jobs import JobService
from repro.service.server import ReproServer, parse_listen
from repro.service.ticks import WallClockDriver
from repro.workloads.catalog import build_workload

from benchmarks import rigs
from benchmarks.rigs import (
    ProtocolClient,
    ServerThread,
    kill_and_recover,
    run_loadtest,
)


#: The keys of a server's ``report()["server"]`` and status ``stats``.
SERVER_STATS_KEYS = (
    "connections", "submissions", "accepted", "rejected",
    "cancelled_requests", "results_sent", "errors_sent", "protocol_errors",
    "torn_frames", "ticks", "group_commits", "max_batch_seen",
    "tick_seconds", "accept_seconds")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def make_service(**kwargs):
    spec = ClusterSpec(get_instance_type("m1.large"), 4, 2)
    kwargs.setdefault("tune_physical", False)
    return JobService(spec, **kwargs)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


class TestParseListen:
    def test_unix_path(self):
        assert parse_listen("/tmp/x.sock") == ("unix", "/tmp/x.sock", None)

    def test_tcp_host_port(self):
        assert parse_listen("127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)

    def test_relative_path_with_colon_free_name(self):
        kind, __, __ = parse_listen("run/server.sock")
        assert kind == "unix"


class TestTickDrivers:
    def test_wall_driver_maps_time_scale(self):
        service = make_service()
        clock = FakeClock(100.0)
        driver = WallClockDriver(service, time_scale=60.0, clock=clock)
        assert driver.mode == "wall"
        clock.now = 102.0  # 2 wall seconds = 120 virtual seconds
        assert driver.now_virtual() == pytest.approx(120.0)
        driver.advance()
        assert service.now == pytest.approx(120.0)

    def test_wall_driver_never_runs_backwards(self):
        service = make_service()
        clock = FakeClock(0.0)
        driver = WallClockDriver(service, time_scale=1.0, clock=clock)
        service.run_until(50.0)  # something raced ahead of the clock
        clock.now = 10.0
        driver.advance()
        assert service.now == 50.0

    def test_wall_driver_anchors_at_a_recovered_clock(self):
        service = make_service()
        service.run_until(1000.0)  # e.g. a recovery replayed the clock
        clock = FakeClock(3.0)
        driver = WallClockDriver(service, time_scale=10.0, clock=clock)
        clock.now = 4.0
        assert driver.now_virtual() == pytest.approx(1010.0)

    def test_wall_driver_seconds_until(self):
        service = make_service()
        clock = FakeClock(0.0)
        driver = WallClockDriver(service, time_scale=10.0, clock=clock)
        assert driver.seconds_until(25.0) == pytest.approx(2.5)
        assert driver.seconds_until(-5.0) == 0.0

    def test_wall_driver_rejects_bad_scale(self):
        with pytest.raises(ValidationError):
            WallClockDriver(make_service(), time_scale=0.0)


class TestPriceMemo:
    def test_repeat_submissions_hit_the_memo(self):
        service = make_service()
        program, tile = build_workload("multiply", "tiny")
        service.add_tenant("a")
        for __ in range(5):
            service.submit(program, "a", tile_size=tile)
        service.drain()
        assert service.admission.price_misses == 1
        assert service.admission.price_hits == 4

    def test_next_event_at_tracks_queue(self):
        service = make_service()
        program, tile = build_workload("multiply", "tiny")
        service.add_tenant("a")
        assert service.next_event_at is None
        service.submit(program, "a", submit_at=7.0, tile_size=tile)
        assert service.next_event_at == 7.0
        service.drain()
        assert service.next_event_at is None


class TestInProcessServer:
    def serve(self, tmp_path, journal=False, **kwargs):
        service = make_service()
        if journal:
            store = DurabilityStore(tmp_path / "state", fsync_every=4)
            service.attach_durability(store)
        kwargs.setdefault("tick_interval", 0.01)
        kwargs.setdefault("time_scale", 5000.0)
        return ReproServer(service, str(tmp_path / "server.sock"), **kwargs)

    def test_submissions_batch_group_commit_and_audit(self, tmp_path):
        server = self.serve(tmp_path, journal=True)
        acked = []
        with ServerThread(server):
            with ProtocolClient(server.listen) as client:
                for index in range(8):
                    client.send({"type": "submit", "tenant": f"t{index % 3}",
                                 "workload": "multiply", "scale": "tiny",
                                 "req": index})
                seen = 0
                while seen < 8:
                    doc = client.recv()
                    if doc["type"] == "ack":
                        acked.append(doc["job_id"])
                        assert "estimated_dollars" in doc
                        seen += 1
                client.send({"type": "drain", "scope": "all"})
                client.recv_until("drained")
        stats = server.report()["server"]
        assert stats["accepted"] == stats["submissions"] == 8
        assert stats["group_commits"] >= 1
        # One cached Program -> one real pricing, the rest memo hits.
        assert server.service.admission.price_misses == 1
        assert server.service.admission.price_hits == 7
        audit = audit_journal(tmp_path / "state", acked=acked)
        assert audit.ok
        assert audit.submitted == 8
        assert audit.admitted == 8
        assert audit.lost == 0 and audit.double_billed == 0

    def test_wall_clock_journal_recovers_cleanly(self, tmp_path):
        server = self.serve(tmp_path, journal=True)
        with ServerThread(server):
            with ProtocolClient(server.listen) as client:
                for index in range(4):
                    client.send({"type": "submit", "tenant": "acme",
                                 "workload": "multiply", "scale": "tiny",
                                 "req": index})
                client.send({"type": "drain", "scope": "all"})
                client.recv_until("drained")
        states = {job_id: record.state
                  for job_id, record in server.service.jobs.items()}
        recovered = recover(tmp_path / "state", fsync_every=4)
        assert {job_id: record.state
                for job_id, record in recovered.jobs.items()} == states
        assert recovered.recovery.decisions_repriced == 0
        recovered.close_durability()

    def test_rejects_bad_arguments(self):
        service = make_service()
        with pytest.raises(ValidationError):
            ReproServer(service, "x.sock", tick_interval=0.0)
        with pytest.raises(ValidationError):
            ReproServer(service, "x.sock", max_batch=0)
        with pytest.raises(ValidationError):
            ReproServer(service, "x.sock", max_wait=-1.0)

    def test_report_shape(self, tmp_path):
        server = self.serve(tmp_path)
        with ServerThread(server):
            with ProtocolClient(server.listen) as client:
                client.send({"type": "submit", "tenant": "a",
                             "workload": "multiply", "scale": "tiny"})
                client.recv_until("result")
        report = server.report()
        assert report["mode"] == "wall"
        assert report["server"]["submissions"] == 1
        assert report["server"]["results_sent"] == 1
        assert report["service"]["throughput_jobs_per_hour"] > 0

    def test_report_is_a_view_of_the_registry(self, tmp_path):
        server = self.serve(tmp_path, journal=True)
        with ServerThread(server):
            with ProtocolClient(server.listen) as client:
                for index in range(6):
                    client.send({"type": "submit", "tenant": f"t{index % 2}",
                                 "workload": "multiply", "scale": "tiny"})
                client.send({"type": "drain", "scope": "all"})
                client.recv_until("drained")
        snapshot = server.metrics.snapshot()
        assert snapshot["counters"] and snapshot["histograms"]
        metrics = server.metrics
        stats = server.report()["server"]
        assert sorted(stats) == sorted(SERVER_STATS_KEYS)
        for name in ("connections", "accepted", "rejected",
                     "cancelled_requests", "results_sent", "errors_sent",
                     "protocol_errors", "torn_frames", "ticks",
                     "group_commits"):
            assert stats[name] == metrics.counter(f"server.{name}").value
        assert stats["submissions"] == 6
        assert stats["max_batch_seen"] \
            == metrics.histogram("server.batch_size").max >= 1
        for name in ("tick_seconds", "accept_seconds"):
            histogram = metrics.histogram(f"server.{name}")
            assert stats[name]["count"] == histogram.count > 0
            assert stats[name]["max"] == histogram.max
            assert stats[name]["mean"] == histogram.mean
        assert stats["accept_seconds"]["count"] == 6
        assert len(metrics.series("server.queue_depth")) > 0


class TestServerStatsStayBounded:
    """A server's latencies keep whole-run figures in a histogram and
    percentiles over a bounded recent series."""

    WINDOW = 8192

    def latency(self, server, name):
        return (server.metrics.histogram(f"server.{name}"),
                server.metrics.series(f"server.{name}.recent"))

    def add(self, server, name, seconds):
        histogram, recent = self.latency(server, name)
        histogram.observe(seconds)
        recent.record(0.0, seconds)

    def test_ten_windows_of_ticks_leave_memory_flat(self):
        server = ReproServer(make_service(), "x.sock")
        sizes = []
        for tick in range(10 * self.WINDOW):
            self.add(server, "tick_seconds", 0.001 * (tick % 100 + 1))
            self.add(server, "accept_seconds", 0.5)
            if (tick + 1) % self.WINDOW == 0:
                sizes.append(tuple(
                    (len(recent), sys.getsizeof(recent.samples()))
                    for __, recent in (
                        self.latency(server, "tick_seconds"),
                        self.latency(server, "accept_seconds"))))
        assert sizes == [sizes[0]] * 10
        assert sizes[0][0][0] == self.WINDOW
        doc = server.report()["server"]
        tick = doc["tick_seconds"]
        assert sorted(tick) == ["count", "max", "mean", "p50", "p95", "p99"]
        # count, mean and max are lifetime figures; percentiles recent.
        assert tick["count"] == 10 * self.WINDOW
        assert tick["max"] == pytest.approx(0.1)
        assert tick["mean"] == pytest.approx(0.0505, rel=1e-2)
        assert 0.001 <= tick["p50"] <= tick["p95"] <= tick["p99"] <= 0.1
        assert doc["accept_seconds"]["p99"] == 0.5
        json.dumps(doc)

    def test_lifetime_maximum_outlives_the_window(self):
        server = ReproServer(make_service(), "x.sock")
        assert server.report()["server"]["tick_seconds"] == {"count": 0}
        self.add(server, "tick_seconds", 9.0)
        for __ in range(self.WINDOW):
            self.add(server, "tick_seconds", 0.01)
        doc = server.report()["server"]["tick_seconds"]
        assert doc["max"] == 9.0 and doc["p99"] == 0.01


class TestJournalAudit:
    def test_empty_directory_is_trivially_ok(self, tmp_path):
        audit = JournalAudit()
        assert audit.ok
        assert audit.to_doc()["ok"] is True

    def test_virtual_run_audits_clean(self, tmp_path):
        service = make_service()
        store = DurabilityStore(tmp_path / "state", fsync_every=1)
        service.attach_durability(store)
        program, tile = build_workload("multiply", "tiny")
        service.add_tenant("a")
        handles = [service.submit(program, "a", tile_size=tile)
                   for __ in range(3)]
        service.cancel(handles[2].job_id)
        service.drain()
        service.close_durability()
        audit = audit_journal(tmp_path / "state",
                              acked=[handle.job_id for handle in handles])
        assert audit.ok
        assert audit.submitted == 3
        assert audit.completed == 2
        assert audit.cancelled == 1

    def test_detects_unjournaled_acks(self, tmp_path):
        service = make_service()
        store = DurabilityStore(tmp_path / "state", fsync_every=1)
        service.attach_durability(store)
        program, tile = build_workload("multiply", "tiny")
        service.add_tenant("a")
        service.submit(program, "a", tile_size=tile)
        service.drain()
        service.close_durability()
        audit = audit_journal(tmp_path / "state", acked=["phantom-j0001"])
        assert audit.unjournaled_acks == 1
        assert not audit.ok


@pytest.mark.slow
class TestLoadTestSubprocess:
    def test_small_loadtest_end_to_end(self, tmp_path):
        report = run_loadtest(tmp_path, jobs=60, tenants=10, processes=2,
                              arrival="poisson", tick_interval=0.01)
        assert report.ok
        assert report.acked == 60
        assert report.audit.submitted == 60
        assert report.audit.lost == 0
        assert report.audit.double_billed == 0
        assert report.jobs_per_sec > 0
        assert report.admission_p99_ms > 0
        assert report.group_commits >= 1
        assert report.workers_drained == 2
        doc = report.to_doc()
        assert doc["ok"] is True and doc["audit"]["ok"] is True

    @pytest.mark.parametrize(
        "jobs,tenants,processes,rate,burst_size,tick_interval", [
            (30, 5, 1, 500.0, 10, 0.01),
            (60, 12, 2, 200.0, 12, 0.02),
        ])
    def test_burst_arrivals(self, tmp_path, jobs, tenants, processes, rate,
                            burst_size, tick_interval):
        report = run_loadtest(tmp_path, jobs=jobs, tenants=tenants,
                              processes=processes, arrival="burst",
                              rate=rate, burst_size=burst_size,
                              tick_interval=tick_interval)
        assert report.ok
        assert report.acked == jobs
        assert report.audit.lost == 0
        assert report.audit.double_billed == 0
        assert report.audit.unjournaled_acks == 0
        assert report.ticks > 0
        assert report.group_commits >= 1
        assert report.tick_p99_ms > 0
        # Each worker sends jobs / processes submissions, which is
        # 2 * burst_size plus a remainder: it pauses after each full burst.
        assert jobs // processes > 2 * burst_size
        assert report.wall_seconds >= 2 * burst_size / rate

    def test_a_worker_that_dies_silently_fails_fast(self, tmp_path,
                                                    monkeypatch):
        servers = []
        real_spawn = rigs._spawn_serve

        def spawn(*args, **kwargs):
            servers.append(real_spawn(*args, **kwargs))
            return servers[-1]

        def dead_worker(*args):
            os._exit(3)

        monkeypatch.setattr(rigs, "_spawn_serve", spawn)
        monkeypatch.setattr(rigs, "_worker_main", dead_worker)
        started = time.monotonic()
        with pytest.raises(ServiceError, match="exited with code 3"):
            run_loadtest(tmp_path, jobs=4, tenants=2, processes=2)
        assert time.monotonic() - started < 10.0
        assert len(servers) == 1 and servers[0].poll() is not None

    def test_live_burst_kill_and_recover(self, tmp_path):
        report = kill_and_recover(None, tmp_path, jobs=40, tenants=8)
        assert report.killed
        assert report.ok
        assert report.kill_after == 80
        assert report.lost_acked == 0
        assert report.lost_jobs == 0
        assert report.double_billed == 0
        assert report.recovered_jobs > 0
        assert 0 < report.sent <= 40 and report.acked <= report.sent
        assert report.bills_match is None
        assert "bills_match" not in report.to_doc()
        assert "OK" in report.describe()


class TestLoadTestArguments:
    def test_bad_arrivals_are_refused_before_spawning(self, tmp_path):
        # burst_size=0 would divide by zero in every worker and leave the
        # parent waiting out the whole timeout; both are refused up front.
        workdir = tmp_path / "rig"
        with pytest.raises(ValidationError, match="arrival"):
            run_loadtest(workdir, arrival="quantum")
        with pytest.raises(ValidationError, match="burst_size"):
            run_loadtest(workdir, arrival="burst", rate=100.0, burst_size=0)
        assert not workdir.exists()


class TestServeCli:
    def test_serve_requires_script_or_listen(self):
        code, __ = run_cli("serve")
        assert code == 1
