"""Wire-protocol edge cases for the wall-clock socket server.

Two layers:

* pure frame-codec units (:mod:`repro.service.protocol`) — encode /
  decode / validate, every structured error code;
* a live in-process server (:class:`~benchmarks.rigs.ServerThread`
  over a unix socket) poked with torn, oversized, malformed, and
  out-of-order frames — every one must come back as a structured
  ``error`` frame (or a clean hangup for unrecoverable framing), never
  kill the server, and never corrupt a later well-formed exchange.
"""

import json
import random
import time

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.errors import ProtocolError
from repro.service.jobs import JobService
from repro.service.protocol import (
    ERR_BAD_FRAME,
    ERR_BAD_JSON,
    ERR_DRAIN_PENDING,
    ERR_JOB_FINISHED,
    ERR_MISSING_FIELD,
    ERR_OVERSIZED,
    ERR_UNKNOWN_JOB,
    ERR_UNKNOWN_TYPE,
    ERR_UNKNOWN_WORKLOAD,
    ERROR_CODES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_frame,
    validate_frame,
)
from repro.service.server import ReproServer

from benchmarks.rigs import ProtocolClient, ServerThread
from tests.test_server import SERVER_STATS_KEYS


def make_server(tmp_path, **kwargs):
    spec = ClusterSpec(get_instance_type("m1.large"), 4, 2)
    service = JobService(spec, tune_physical=False)
    kwargs.setdefault("tick_interval", 0.01)
    kwargs.setdefault("time_scale", 5000.0)
    return ReproServer(service, str(tmp_path / "server.sock"), **kwargs)


@pytest.fixture
def live(tmp_path):
    server = make_server(tmp_path)
    with ServerThread(server) as thread:
        yield thread.server


def submit_and_ack(client, tenant="acme", workload="multiply",
                   scale="tiny", req=0):
    client.send({"type": "submit", "tenant": tenant, "workload": workload,
                 "scale": scale, "req": req})
    ack = client.recv_until("ack")
    assert ack["req"] == req
    return ack


class TestFrameCodec:
    def test_roundtrip(self):
        doc = {"type": "submit", "tenant": "a", "workload": "multiply"}
        data = encode_frame(doc)
        assert data.endswith(b"\n")
        assert decode_frame(data) == doc

    def test_encode_rejects_oversized(self):
        doc = {"type": "submit", "tenant": "x" * MAX_FRAME_BYTES,
               "workload": "multiply"}
        with pytest.raises(ProtocolError) as err:
            encode_frame(doc)
        assert err.value.code == ERR_OVERSIZED

    def test_decode_rejects_oversized(self):
        line = b'{"pad": "' + b"x" * MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(ProtocolError) as err:
            decode_frame(line)
        assert err.value.code == ERR_OVERSIZED

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"{nope\n")
        assert err.value.code == ERR_BAD_JSON

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"[1, 2, 3]\n")
        assert err.value.code == ERR_BAD_FRAME

    def test_decode_requires_type(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b'{"tenant": "a"}\n')
        assert err.value.code == ERR_BAD_FRAME

    def test_validate_rejects_unknown_type(self):
        with pytest.raises(ProtocolError) as err:
            validate_frame({"type": "frobnicate"})
        assert err.value.code == ERR_UNKNOWN_TYPE

    def test_validate_rejects_missing_required(self):
        with pytest.raises(ProtocolError) as err:
            validate_frame({"type": "submit", "tenant": "a"})
        assert err.value.code == ERR_MISSING_FIELD

    def test_validate_rejects_wrong_type(self):
        with pytest.raises(ProtocolError) as err:
            validate_frame({"type": "submit", "tenant": 7,
                            "workload": "multiply"})
        assert err.value.code == ERR_MISSING_FIELD

    def test_validate_accepts_string_scale(self):
        doc = {"type": "submit", "tenant": "a", "workload": "multiply",
               "scale": "tiny", "req": 3}
        assert validate_frame(doc) is doc

    def test_error_frame_echoes_req(self):
        doc = error_frame(ERR_BAD_JSON, "boom", req=42)
        assert doc["type"] == "error"
        assert doc["code"] in ERROR_CODES
        assert doc["req"] == 42

    def test_all_error_codes_are_stable_strings(self):
        assert all(isinstance(code, str) and code for code in ERROR_CODES)


class TestLiveProtocolEdges:
    def test_hello_welcome(self, live):
        with ProtocolClient(live.listen) as client:
            welcome = client.request({"type": "hello", "client": "t"})
            assert welcome["type"] == "welcome"
            assert welcome["version"] == PROTOCOL_VERSION
            assert welcome["mode"] == "wall"

    def test_malformed_json_gets_error_and_conn_survives(self, live):
        with ProtocolClient(live.listen) as client:
            client.send_raw(b"{this is not json\n")
            error = client.recv()
            assert error["type"] == "error"
            assert error["code"] == ERR_BAD_JSON
            # The same connection still works end-to-end.
            submit_and_ack(client, req=1)

    def test_unknown_type_gets_error(self, live):
        with ProtocolClient(live.listen) as client:
            error = client.request({"type": "teleport", "req": 9})
            assert error["code"] == ERR_UNKNOWN_TYPE
            assert error["req"] == 9

    def test_missing_field_gets_error_with_req(self, live):
        with ProtocolClient(live.listen) as client:
            error = client.request({"type": "submit", "tenant": "a",
                                    "req": "abc"})
            assert error["code"] == ERR_MISSING_FIELD
            assert error["req"] == "abc"

    def test_unknown_workload_gets_error(self, live):
        with ProtocolClient(live.listen) as client:
            error = client.request({"type": "submit", "tenant": "a",
                                    "workload": "quicksort", "req": 1})
            assert error["code"] == ERR_UNKNOWN_WORKLOAD

    def test_oversized_frame_refused_then_server_lives(self, live):
        with ProtocolClient(live.listen) as client:
            client.send_raw(b'{"type": "submit", "pad": "'
                            + b"x" * (2 * MAX_FRAME_BYTES) + b'"}\n')
            error = client.recv()
            # Structured refusal (framing is lost, so the server may
            # hang up right after — but never silently).
            assert error is not None and error["code"] == ERR_OVERSIZED
        with ProtocolClient(live.listen) as client:
            submit_and_ack(client)

    def test_torn_frame_counted_and_server_lives(self, live):
        torn = live.metrics.counter("server.torn_frames")
        before = torn.value
        client = ProtocolClient(live.listen)
        client.send_raw(b'{"type": "submit", "tenant": "a"')  # no newline
        client.close()
        with ProtocolClient(live.listen) as probe:
            status = probe.request({"type": "status"})
            assert status["type"] == "status"
        # The probe round-trip can outrun the first connection's EOF
        # handling; wait for the reader task to log the torn frame.
        deadline = time.monotonic() + 5.0
        while torn.value != before + 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert torn.value == before + 1

    def test_disconnect_mid_submit_orphans_job(self, live):
        client = ProtocolClient(live.listen)
        submit_and_ack(client, tenant="ghost")
        client.close()  # owner vanishes; the job must still finish
        with ProtocolClient(live.listen) as probe:
            probe.send({"type": "drain", "scope": "all"})
            drained = probe.recv_until("drained")
            assert drained["scope"] == "all"
        record = next(iter(live.service.jobs.values()))
        assert record.state == "completed"

    def test_double_drain_rejected(self, live):
        with ProtocolClient(live.listen) as client:
            submit_and_ack(client)
            # Both frames in one write: the server parses the second
            # straight out of its read buffer, so no tick can run -- and
            # complete the first drain -- in between.  (Two writes lost
            # that race about one run in ten under CPU load.)
            client.send_raw(encode_frame({"type": "drain"})
                            + encode_frame({"type": "drain", "req": 2}))
            error = client.recv_until("error")
            assert error["code"] == ERR_DRAIN_PENDING
            assert error["req"] == 2
            client.recv_until("drained")  # the first drain completes

    def test_unknown_drain_scope_rejected(self, live):
        with ProtocolClient(live.listen) as client:
            error = client.request({"type": "drain", "scope": "galaxy"})
            assert error["code"] == ERR_BAD_FRAME

    def test_cancel_after_complete_gets_job_finished(self, live):
        with ProtocolClient(live.listen) as client:
            ack = submit_and_ack(client)
            result = client.recv_until("result")
            assert result["job_id"] == ack["job_id"]
            error = client.request({"type": "cancel",
                                    "job_id": ack["job_id"], "req": 5})
            assert error["code"] == ERR_JOB_FINISHED
            assert error["req"] == 5

    def test_cancel_unknown_job(self, live):
        with ProtocolClient(live.listen) as client:
            error = client.request({"type": "cancel", "job_id": "nope-j1"})
            assert error["code"] == ERR_UNKNOWN_JOB

    def test_status_unknown_job(self, live):
        with ProtocolClient(live.listen) as client:
            error = client.request({"type": "status", "job_id": "nope-j1",
                                    "req": 1})
            assert error["code"] == ERR_UNKNOWN_JOB

    def test_server_status_doc(self, live):
        with ProtocolClient(live.listen) as client:
            status = client.request({"type": "status"})
            doc = status["server"]
            assert doc["mode"] == "wall"
            assert doc["accepting"] is True
            assert sorted(doc["stats"]) == sorted(SERVER_STATS_KEYS)

    def test_bye_closes_cleanly(self, live):
        with ProtocolClient(live.listen) as client:
            bye = client.request({"type": "bye"})
            assert bye["type"] == "bye"
            assert client.recv() is None  # EOF, not an exception

    def test_fuzz_garbage_never_kills_server(self, live):
        rng = random.Random(1234)
        with ProtocolClient(live.listen) as client:
            for index in range(60):
                choice = rng.randrange(4)
                if choice == 0:
                    line = bytes(rng.randrange(32, 127)
                                 for __ in range(rng.randrange(1, 80)))
                elif choice == 1:
                    line = json.dumps(
                        {"type": rng.choice(["submit", "cancel", "x"]),
                         "junk": index}).encode()
                elif choice == 2:
                    line = json.dumps([index, "not", "a", "frame"]).encode()
                else:
                    line = b""
                client.send_raw(line + b"\n")
                reply = client.recv()
                assert reply is not None, f"server hung up on frame {index}"
                assert reply["type"] == "error"
                assert reply["code"] in ERROR_CODES
            # After all that abuse, a real submission still works.
            submit_and_ack(client, req="after-fuzz")
