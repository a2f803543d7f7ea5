"""Process-pool observability: worker-side spans, ingestion, profiling.

Everything here is tier-1 safe: the worker loop runs in a *thread* over a
real ``multiprocessing.Pipe`` (same protocol, no fork), shared-memory
segments are created and unlinked locally, and the dispatcher's ingestion
and the profile roll-up are exercised on synthetic events.  The
fork-for-real coverage lives in tests/test_backend_differential.py behind
the ``process_backend`` gate.
"""

import multiprocessing
import threading
from multiprocessing import shared_memory
from types import SimpleNamespace

import numpy as np
import pytest

from repro.hadoop.kernels import (
    BlockPlan,
    GridMultPlan,
    KernelCall,
    PLAN_BLOCK,
    PLAN_GRID,
    plan_kind,
)
from repro.hadoop.procpool import (
    KERNEL_JOB_ID,
    ProcessDispatcher,
    _layout,
    _worker_main,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.profiling import profile_trace, render_profile
from repro.observability.trace import (
    PHASE_KERNEL,
    InMemoryRecorder,
    NullRecorder,
    Trace,
    TraceEvent,
)
from tests.test_observability_metrics import _TripwireRegistry


def make_mult_plan():
    """A 2-payload, 1-output matmul plan (``payload0 @ payload1``)."""
    return BlockPlan(transposed=(False, False),
                     outputs=(((0, 1),),),
                     out_shapes=((4, 4),))


class WorkerHarness:
    """The worker loop in a thread over a real Pipe, plus shm buffers."""

    def __init__(self, payloads, out_bytes):
        self.in_slots, in_bytes = _layout(
            [tuple(p.shape) for p in payloads])
        self.shm_in = shared_memory.SharedMemory(create=True,
                                                 size=max(in_bytes, 16))
        self.shm_out = shared_memory.SharedMemory(create=True,
                                                  size=max(out_bytes, 16))
        for payload, (offset, shape) in zip(payloads, self.in_slots):
            view = np.frombuffer(self.shm_in.buf, dtype=np.float64,
                                 count=shape[0] * shape[1],
                                 offset=offset).reshape(shape)
            view[:] = payload
            del view
        self.conn, worker_end = multiprocessing.Pipe()
        self.thread = threading.Thread(target=_worker_main,
                                       args=(worker_end,), daemon=True)
        self.thread.start()

    def round_trip(self, plan, collect):
        self.conn.send((self.shm_in.name, self.in_slots,
                        self.shm_out.name, plan, collect))
        assert self.conn.poll(10), "worker did not answer"
        return self.conn.recv()

    def close(self):
        self.conn.send(None)
        self.thread.join(timeout=5)
        for shm in (self.shm_in, self.shm_out):
            try:
                shm.close()
                shm.unlink()
            except (BufferError, FileNotFoundError):
                pass


@pytest.fixture
def harness():
    rng = np.random.default_rng(7)
    payloads = [rng.random((4, 4)), rng.random((4, 4))]
    h = WorkerHarness(payloads, out_bytes=4 * 4 * 8)
    h.payloads = payloads
    yield h
    h.close()


class TestWorkerProtocol:
    def test_disabled_path_ships_no_events(self, harness):
        # The overhead tripwire: with collect=False the response's event
        # slot is None — the worker took no timestamps and allocated no
        # buffer.  (Times come from perf_counter; the only way to prove
        # "no timing happened" at this layer is the absent payload.)
        ok, counts, events = harness.round_trip(make_mult_plan(),
                                                collect=False)
        assert ok is True
        assert events is None
        assert len(counts) == 1

    def test_collect_ships_kernel_span_and_attach_events(self, harness):
        ok, counts, events = harness.round_trip(make_mult_plan(),
                                                collect=True)
        assert ok is True
        assert events is not None
        kinds = [kind for kind, *_ in events]
        # First request: both segments freshly attached, then the span.
        assert kinds.count("attach") == 2
        assert kinds.count("kernel") == 1
        kernel = [e for e in events if e[0] == "kernel"][0]
        __, label, tiles, start_rel, end_rel = kernel
        assert label == PLAN_BLOCK
        assert tiles == make_mult_plan().num_tiles
        assert start_rel == 0.0
        assert end_rel > 0.0
        # Relative times are bounded by the round-trip we just made.
        assert end_rel < 10.0

    def test_second_request_attaches_nothing(self, harness):
        harness.round_trip(make_mult_plan(), collect=True)
        __, __, events = harness.round_trip(make_mult_plan(), collect=True)
        assert [kind for kind, *_ in events] == ["kernel"]

    def test_worker_error_still_reports_events_shape(self, harness):
        # An undersized output shape makes the evaluator throw; the reply
        # must be (False, message, events) so the parent can still account
        # the attach work that happened before the failure.
        bad = BlockPlan(transposed=(False, False),
                        outputs=(((0, 1),),),
                        out_shapes=((64, 64),))  # exceeds the out segment
        ok, message, events = harness.round_trip(bad, collect=True)
        assert ok is False
        assert isinstance(message, str) and message
        assert events is not None

    def test_worker_result_matches_numpy(self, harness):
        ok, counts, __ = harness.round_trip(make_mult_plan(), collect=False)
        assert ok
        expected = harness.payloads[0] @ harness.payloads[1]
        got = np.frombuffer(harness.shm_out.buf, dtype=np.float64,
                            count=16).reshape(4, 4).copy()
        assert np.array_equal(got, expected)
        assert counts[0] == np.count_nonzero(expected)


    def test_both_plan_kinds_reply_with_plain_ints(self, harness):
        # The grid evaluator counts with numpy; what crosses the pipe must
        # still be a tuple of ints, as the block path's always was (an
        # ndarray reply pickles to more bytes than the rest of the reply).
        grid = GridMultPlan(ni=1, nj=1, nk=1, a_shape=(4, 4),
                            b_shape=(4, 4), left_transposed=False,
                            right_transposed=False, out_shape=(4, 4))
        for plan in (make_mult_plan(), grid):
            ok, counts, __ = harness.round_trip(plan, collect=False)
            assert ok
            assert type(counts) is tuple
            assert [type(count) for count in counts] == [int]
            assert counts[0] == np.count_nonzero(
                harness.payloads[0] @ harness.payloads[1])


class SpyConnection:
    """The parent's pipe end, remembering what went each way."""

    def __init__(self, conn):
        self.conn = conn
        self.sent = []
        self.received = []

    def send(self, request):
        self.sent.append(request)
        self.conn.send(request)

    def fileno(self):
        return self.conn.fileno()

    def poll(self, timeout):
        return self.conn.poll(min(timeout, 10))

    def recv(self):
        self.received.append(self.conn.recv())
        return self.received[-1]


def harness_handle(harness):
    """What ``send``/``receive`` need of a worker handle, over the harness."""
    return SimpleNamespace(
        index=0, lane="procworker:0", conn=SpyConnection(harness.conn),
        shm_in=harness.shm_in, shm_out=harness.shm_out,
        ensure_buffers=lambda *sizes: 0)


class _TripwireClocks(_TripwireRegistry):
    def now(self):
        raise AssertionError("disabled metrics path read the clock")


class _TripwireRecorder(NullRecorder):
    def now(self):
        raise AssertionError("disabled recorder path read the clock")

    def record(self, event):
        raise AssertionError("disabled recorder path built an event")


class TestSendReceive:
    """``ProcessDispatcher.send`` / ``receive`` over the in-thread worker."""

    def call(self, harness, plan, sink):
        return KernelCall(plan, harness.payloads, sink.extend)

    @pytest.mark.parametrize("plan", [
        make_mult_plan(),
        GridMultPlan(1, 1, 1, (4, 4), (4, 4), False, False, (4, 4))],
        ids=plan_kind)
    def test_disabled_path_takes_no_timestamps_and_ships_no_payload(
            self, harness, plan):
        dispatcher = ProcessDispatcher(pool=None, metrics=_TripwireClocks(),
                                       recorder=_TripwireRecorder())
        handle = harness_handle(harness)
        results = []
        call = self.call(harness, plan, results)
        dispatcher.send(handle, call)
        dispatcher.receive(handle, call)
        [request], [reply] = handle.conn.sent, handle.conn.received
        assert request[4] is False, "collect flag must be off"
        assert reply[2] is None, "worker shipped a telemetry buffer"
        [(array, nnz)] = results
        expected = harness.payloads[0] @ harness.payloads[1]
        assert np.array_equal(array, expected)
        assert nnz == np.count_nonzero(expected) and type(nnz) is int

    def test_live_registry_splits_the_dispatch_into_its_phases(
            self, harness):
        registry = MetricsRegistry()
        dispatcher = ProcessDispatcher(pool=None, metrics=registry)
        handle = harness_handle(harness)
        for __ in range(3):
            call = self.call(harness, make_mult_plan(), [])
            dispatcher.send(handle, call)
            dispatcher.receive(handle, call)
        assert handle.conn.sent[-1][4] is True
        totals = {}
        for metric in registry.metrics():
            if metric.name.startswith("procpool.") \
                    and metric.name.endswith("_seconds"):
                assert metric.count == 3, metric.name
                totals[metric.name] = metric.sum
        # serve_seconds is the worker's own clock; the other three are the
        # parts of the parent's dispatch_seconds.
        assert set(totals) == {
            "procpool.dispatch_seconds", "procpool.pack_seconds",
            "procpool.wait_seconds", "procpool.store_seconds",
            "procpool.serve_seconds"}
        assert totals["procpool.dispatch_seconds"] == pytest.approx(
            totals["procpool.pack_seconds"] + totals["procpool.wait_seconds"]
            + totals["procpool.store_seconds"])
        assert totals["procpool.serve_seconds"] \
            <= totals["procpool.wait_seconds"]
        profile = profile_trace(Trace(source="actual"), registry=registry)
        assert profile.dispatch_seconds["wait"] \
            == totals["procpool.wait_seconds"]
        assert "parent time in kernel dispatches: dispatch" \
            in render_profile(profile)


class TestPlanKind:
    def test_kinds(self):
        plan = make_mult_plan()
        assert plan_kind(plan) == PLAN_BLOCK
        grid = GridMultPlan(ni=1, nj=1, nk=1, a_shape=(4, 4),
                            b_shape=(4, 4), left_transposed=False,
                            right_transposed=False, out_shape=(4, 4))
        assert plan_kind(grid) == PLAN_GRID


class TestEventIngestion:
    """ProcessDispatcher._ingest_events on a fake handle — no processes."""

    def make_dispatcher(self):
        recorder = InMemoryRecorder()
        registry = MetricsRegistry()
        dispatcher = ProcessDispatcher(pool=None, metrics=registry,
                                       recorder=recorder)
        handle = SimpleNamespace(index=3, lane="procworker:3")
        return dispatcher, handle, recorder, registry

    def test_kernel_events_land_on_worker_lane(self):
        dispatcher, handle, recorder, registry = self.make_dispatcher()
        events = (("kernel", "block", 12, 0.0, 0.25),
                  ("attach", "in", 4096, 0.01, 0.02))
        dispatcher._ingest_events(handle, events, base=10.0,
                                  in_bytes=100, out_bytes=200)
        trace = recorder.trace()
        kernels = [e for e in trace.kernel_events()
                   if e.label == "block"]
        assert len(kernels) == 1
        event = kernels[0]
        assert event.slot == "procworker:3"
        assert event.job_id == KERNEL_JOB_ID
        assert event.start == pytest.approx(10.0)
        assert event.end == pytest.approx(10.25)
        assert event.bytes_read == 100
        assert event.bytes_written == 200
        attaches = [e for e in trace.kernel_events()
                    if e.label == "shm-attach"]
        assert len(attaches) == 1
        assert attaches[0].start == pytest.approx(10.01)
        # Metrics side: serve seconds observed per plan kind.
        names = {m.name for m in registry.metrics()}
        assert "procpool.serve_seconds" in names
        assert "procpool.shm_attaches" in names

    def test_kernel_events_never_enter_task_queries(self):
        dispatcher, handle, recorder, __ = self.make_dispatcher()
        dispatcher._ingest_events(
            handle, (("kernel", "block", 3, 0.0, 0.1),), 0.0, 0, 0)
        trace = recorder.trace()
        assert trace.task_events() == []
        assert len(trace.kernel_events()) == 1


class TestProfileRollup:
    def make_trace(self):
        events = [
            TraceEvent("j1", "j1-mul-C@1-m0", "map", "worker:0", 0.0, 1.0),
            TraceEvent("j1", "j1-mul-C@1-m1", "map", "worker:1", 0.0, 2.0),
            TraceEvent(KERNEL_JOB_ID, "plan:grid", PHASE_KERNEL,
                       "procworker:0", 0.1, 0.9, bytes_read=64,
                       bytes_written=32, label="grid"),
            TraceEvent(KERNEL_JOB_ID, "plan:grid", PHASE_KERNEL,
                       "procworker:1", 0.2, 1.2, label="grid"),
            TraceEvent(KERNEL_JOB_ID, "shm-attach:in", PHASE_KERNEL,
                       "procworker:0", 0.0, 0.01, label="shm-attach"),
        ]
        return Trace(source="actual", events=events)

    def test_profile_numbers(self):
        profile = profile_trace(self.make_trace(), wall_seconds=2.0)
        assert profile.wall_seconds == 2.0
        assert profile.kernel_seconds == pytest.approx(1.8)
        assert profile.kernel_coverage == pytest.approx(0.9)
        assert [p.key for p in profile.plans] == ["grid"]
        assert profile.plans[0].count == 2
        assert profile.plans[0].bytes_read == 64
        # Both map attempts collapse into one task-group row.
        assert [t.key for t in profile.tasks] == ["j1-mul-C@1"]
        assert profile.tasks[0].count == 2
        # Pool worker lanes sort before thread lanes.
        assert [lane.lane for lane in profile.lanes] == [
            "procworker:0", "procworker:1", "worker:0", "worker:1"]
        by_lane = {lane.lane: lane for lane in profile.lanes}
        assert by_lane["worker:1"].utilization == pytest.approx(1.0)
        # The shm-attach bookkeeping is excluded from both the plan rows
        # and the lane busy time — only real work counts as utilization.
        assert by_lane["procworker:0"].busy_seconds == pytest.approx(0.8)

    def test_registry_supplies_tile_totals(self):
        registry = MetricsRegistry()
        registry.inc("procpool.plan_tiles", 126, labels={"plan": "grid"})
        profile = profile_trace(self.make_trace(), wall_seconds=2.0,
                                registry=registry)
        assert profile.plans[0].tiles == 126

    def test_render_is_stable_text(self):
        profile = profile_trace(self.make_trace(), wall_seconds=2.0)
        text = render_profile(profile)
        assert "worker kernel time" in text
        assert "90% of wall" in text
        assert "procworker:0" in text
        assert "j1-mul-C@1" in text
        document = profile.to_document()
        assert document["kernel_coverage"] == pytest.approx(0.9)

    def test_empty_trace_profile(self):
        profile = profile_trace(Trace(source="actual"))
        assert profile.kernel_coverage == 0.0
        assert render_profile(profile).startswith("wall time")
