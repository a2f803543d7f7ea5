"""Load generation and SIGKILL chaos for the ``repro serve`` subprocess.

Benchmark and test rigs, not part of the ``repro`` package: E25, E26
and the server and durability tests import them from here.  Both speak
the NDJSON protocol of :mod:`repro.service.protocol` and spawn
``repro serve`` from this source tree through one builder
(:func:`_spawn_serve`):

* :class:`ProtocolClient` — a tiny blocking client for the tests;
* :func:`run_loadtest` — the multi-process load generator behind
  benchmark E26: spawns a live server, fires thousands of submissions
  across hundreds of tenants from worker *processes* with a chosen
  arrival process, measures client-side admission latency (submit ->
  ack), and audits the journal afterwards to prove zero lost /
  double-billed jobs;
* :func:`kill_and_recover` — the SIGKILL chaos harness behind E25 and
  E26: SIGKILL a journaled server mid-burst (a virtual-clock script
  replay, or a live socket burst), recover the journal in-process, and
  verify nothing was lost or billed twice — and, for a script, that
  bills and schedule match an uninterrupted run.

The ground truth for both is
:func:`~repro.service.durability.audit_journal`, which recounts the
write-ahead journal record-for-record independently of anything the
server said on the wire.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import JournalError, ServiceError, ValidationError
from repro.observability.metrics import percentile
from repro.service.durability import (
    KILL_AFTER_ENV,
    DurabilityStore,
    JournalAudit,
    audit_journal,
    recover,
    report_digest,
    schedule_digest,
)
from repro.service.protocol import (
    T_ACK,
    T_BYE,
    T_DRAINED,
    T_ERROR,
    T_RESULT,
    decode_frame,
    encode_frame,
)
from repro.service.script import build_service, submit_script_jobs
from repro.service.server import parse_listen

#: Arrival processes the load generator can drive.
ARRIVAL_UNIFORM = "uniform"    # constant inter-arrival gap
ARRIVAL_POISSON = "poisson"    # exponential gaps (memoryless)
ARRIVAL_BURST = "burst"        # back-to-back bursts, then a pause
ARRIVALS = (ARRIVAL_UNIFORM, ARRIVAL_POISSON, ARRIVAL_BURST)

#: What every rig burst submits, and the cluster a load test serves it on.
WORKLOAD = "multiply"
SCALE = "tiny"
_CLUSTER = ("--instance", "m1.large", "--nodes", "8", "--slots", "2")

#: Safety timeout (seconds) for one rig run's server and clients.
_TIMEOUT = 600.0


def _connect(listen: str, timeout: float = 30.0) -> socket.socket:
    """Open a blocking socket to a server address, retrying until up."""
    kind, target, port = parse_listen(listen)
    deadline = time.monotonic() + timeout
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            if kind == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.connect(target)
            else:
                sock = socket.create_connection((target, port))
            sock.settimeout(timeout)
            return sock
        except OSError as error:
            last_error = error
            time.sleep(0.02)
    raise ServiceError(f"cannot connect to {listen!r}: {last_error}")


def wait_for_server(listen: str, timeout: float = 30.0,
                    proc: subprocess.Popen | None = None) -> None:
    """Block until the server accepts connections (or ``proc`` died)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is not None:
            raise ServiceError(
                f"server process exited early (rc={proc.returncode})")
        try:
            _connect(listen, timeout=0.2).close()
            return
        except ServiceError:
            continue
    raise ServiceError(f"server at {listen!r} never came up")


class ProtocolClient:
    """Blocking NDJSON client: one frame out, frames in, in order.

    The tests' client — no pipelining, no reader thread.
    ``request`` sends one frame and returns the next reply;  ``recv``
    reads one frame (None at EOF).  The load-generator workers use their
    own pipelined sender instead (see :func:`_worker_main`).
    """

    def __init__(self, listen: str, timeout: float = 30.0):
        self.sock = _connect(listen, timeout=timeout)
        self.file = self.sock.makefile("rb")

    def send(self, doc: dict) -> None:
        """Write one frame."""
        self.sock.sendall(encode_frame(doc))

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes (protocol-violation tests)."""
        self.sock.sendall(data)

    def recv(self) -> dict | None:
        """Read one frame; None on EOF (server hung up)."""
        line = self.file.readline()
        if not line:
            return None
        return decode_frame(line, max_bytes=1 << 30)

    def request(self, doc: dict) -> dict | None:
        """Send one frame and return the next frame the server sends."""
        self.send(doc)
        return self.recv()

    def recv_until(self, frame_type: str, limit: int = 10_000) -> dict:
        """Read frames until one of ``frame_type`` arrives (skip others)."""
        for __ in range(limit):
            doc = self.recv()
            if doc is None:
                raise ServiceError(
                    f"connection closed waiting for {frame_type!r}")
            if doc.get("type") == frame_type:
                return doc
        raise ServiceError(f"no {frame_type!r} frame within {limit} frames")

    def close(self) -> None:
        """Close the socket (idempotent)."""
        try:
            self.file.close()
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ProtocolClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServerThread:
    """Run a :class:`~repro.service.server.ReproServer` on a thread.

    The in-process flavor for tests: a live socket server without a
    subprocess.  ``stop()`` sends a ``shutdown`` frame and joins.
    """

    def __init__(self, server):
        self.server = server
        self.thread = threading.Thread(target=server.run, daemon=True)

    def start(self, timeout: float = 30.0) -> "ServerThread":
        """Start and block until the socket accepts connections."""
        self.thread.start()
        wait_for_server(self.server.listen, timeout=timeout)
        return self

    def stop(self, timeout: float = 60.0) -> None:
        """Drain the server via a ``shutdown`` frame and join the thread."""
        if self.thread.is_alive():
            try:
                with ProtocolClient(self.server.listen, timeout=5.0) as c:
                    c.send({"type": "shutdown"})
                    c.recv()  # bye (or EOF)
            except (ServiceError, OSError):
                pass
        self.thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# -- the multi-process load generator ------------------------------------------


def _arrival_sleep(arrival: str, rate: float, rng: random.Random,
                   index: int, burst_size: int) -> float:
    """Seconds to wait before sending submission ``index``."""
    if rate <= 0:
        return 0.0
    if arrival == ARRIVAL_POISSON:
        return rng.expovariate(rate)
    if arrival == ARRIVAL_BURST:
        if index % burst_size == 0 and index > 0:
            return burst_size / rate
        return 0.0
    return 1.0 / rate  # uniform


def _worker_main(out_q, listen: str, worker_id: int, tenants: list[str],
                 arrival: str = ARRIVAL_UNIFORM, rate: float = 0.0,
                 seed: int = 0, burst_size: int = 1) -> None:
    """One load-generator process: pipelined submits + a reader thread.

    ``tenants`` names the tenant of each of this worker's submissions
    (all :data:`WORKLOAD` at :data:`SCALE`).  Admission latency is
    measured client-side — wall seconds from the ``submit`` frame hitting
    the socket to its ``ack`` arriving — which includes batching delay,
    pricing, and the group commit.
    """
    rng = random.Random(seed)
    send_times: dict[int, float] = {}
    latencies: dict[int, float] = {}
    acked: list[str] = []
    states: dict[str, int] = {}
    errors: list[str] = []
    drained = threading.Event()
    died = threading.Event()

    try:
        sock = _connect(listen, timeout=_TIMEOUT)
    except ServiceError:
        out_q.put({"worker": worker_id, "sent": 0, "latencies": [],
                   "acked": [], "states": {}, "errors": ["connect-failed"],
                   "drained": False})
        return
    file = sock.makefile("rb")

    def reader() -> None:
        while True:
            try:
                line = file.readline()
            except OSError:  # reset by a server that died mid-frame
                line = b""
            if not line:
                died.set()
                drained.set()
                return
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            kind = doc.get("type")
            if kind == T_ACK and "req" in doc:
                req = doc["req"]
                if req in send_times:
                    latencies[req] = time.perf_counter() - send_times[req]
                if doc.get("job_id"):
                    acked.append(doc["job_id"])
            elif kind == T_RESULT:
                state = doc.get("state", "?")
                states[state] = states.get(state, 0) + 1
            elif kind == T_ERROR:
                errors.append(doc.get("code", "?"))
            elif kind == T_DRAINED:
                drained.set()
            elif kind == T_BYE:
                drained.set()
                return

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    try:
        sock.sendall(encode_frame({"type": "hello",
                                   "client": f"loadgen-{worker_id}"}))
        for index, tenant in enumerate(tenants):
            gap = _arrival_sleep(arrival, rate, rng, index, burst_size)
            if gap > 0:
                time.sleep(gap)
            frame = encode_frame({"type": "submit", "tenant": tenant,
                                  "workload": WORKLOAD, "scale": SCALE,
                                  "req": index})
            send_times[index] = time.perf_counter()
            sock.sendall(frame)
            if died.is_set():
                break
        if not died.is_set():
            sock.sendall(encode_frame({"type": "drain"}))
            drained.wait(_TIMEOUT)
            try:
                sock.sendall(encode_frame({"type": "bye"}))
            except OSError:
                pass
    except OSError:
        pass
    finally:
        try:
            sock.close()
        except OSError:
            pass
    out_q.put({
        "worker": worker_id,
        "sent": len(send_times),
        "latencies": list(latencies.values()),
        "acked": acked,
        "states": states,
        "errors": errors,
        "drained": drained.is_set() and not died.is_set(),
    })


# -- the loadtest driver -------------------------------------------------------


@dataclass
class LoadTestReport:
    """Everything one :func:`run_loadtest` run measured (JSON-able)."""

    jobs: int
    tenants: int
    processes: int
    arrival: str
    rate: float
    workload: str
    scale: str
    wall_seconds: float
    acked: int
    jobs_per_sec: float
    admission_p50_ms: float
    admission_p95_ms: float
    admission_p99_ms: float
    tick_p50_ms: float
    tick_p99_ms: float
    ticks: int
    group_commits: int
    max_batch_seen: int
    results: dict[str, int] = field(default_factory=dict)
    errors: int = 0
    workers_drained: int = 0
    audit: JournalAudit = field(default_factory=JournalAudit)

    @property
    def ok(self) -> bool:
        """All workers drained cleanly and the journal audit balances."""
        return self.audit.ok and self.workers_drained == self.processes

    def to_doc(self) -> dict:
        return {
            "jobs": self.jobs, "tenants": self.tenants,
            "processes": self.processes, "arrival": self.arrival,
            "rate": self.rate, "workload": self.workload,
            "scale": self.scale, "wall_seconds": self.wall_seconds,
            "acked": self.acked, "jobs_per_sec": self.jobs_per_sec,
            "admission_p50_ms": self.admission_p50_ms,
            "admission_p95_ms": self.admission_p95_ms,
            "admission_p99_ms": self.admission_p99_ms,
            "tick_p50_ms": self.tick_p50_ms,
            "tick_p99_ms": self.tick_p99_ms,
            "ticks": self.ticks, "group_commits": self.group_commits,
            "max_batch_seen": self.max_batch_seen,
            "results": self.results, "errors": self.errors,
            "workers_drained": self.workers_drained,
            "audit": self.audit.to_doc(),
            "ok": self.ok,
        }


def _spawn_serve(journal: Path, fsync_every: int, *args: str,
                 kill_after: int | None = None) -> subprocess.Popen:
    """Start ``repro serve ARGS --journal JOURNAL`` from this source tree.

    ``kill_after`` arms the deterministic crash hook
    (:data:`~repro.service.durability.KILL_AFTER_ENV`): the server
    SIGKILLs itself once that many journal records are durable.
    """
    env = dict(os.environ)
    src_root = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)] + ([env["PYTHONPATH"]]
                           if env.get("PYTHONPATH") else []))
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    command = [sys.executable, "-m", "repro", "serve", *args,
               "--journal", str(journal), "--fsync-every", str(fsync_every)]
    return subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _tenants(jobs: int, tenants: int) -> list[str]:
    """The tenant of each of ``jobs`` submissions, round-robin."""
    return [f"t{index % tenants:04d}" for index in range(jobs)]


def run_loadtest(directory: str | Path, *,
                 jobs: int = 1000,
                 tenants: int = 100,
                 processes: int = 4,
                 arrival: str = ARRIVAL_POISSON,
                 rate: float = 0.0,
                 burst_size: int = 32,
                 tick_interval: float = 0.02,
                 time_scale: float = 600.0,
                 fsync_every: int = 4096) -> LoadTestReport:
    """Drive a live socket server with a multi-process load burst.

    Spawns ``repro serve --listen`` as a subprocess under ``directory``,
    fans ``jobs`` submissions of :data:`WORKLOAD` at :data:`SCALE`
    across ``tenants`` synthetic tenants from ``processes`` OS
    processes, waits for every worker to drain, shuts the server down
    cleanly, and audits the journal.  ``rate`` is per-worker submissions
    per second (0 = as fast as the socket accepts); with ``burst``
    arrivals each worker pauses after every ``burst_size`` submissions.
    """
    if arrival not in ARRIVALS:
        raise ValidationError(
            f"arrival must be one of {ARRIVALS}, got {arrival!r}")
    if jobs <= 0 or tenants <= 0 or processes <= 0 or burst_size <= 0:
        raise ValidationError(
            "jobs, tenants, processes and burst_size must be > 0")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    journal = directory / "state"
    listen = str(directory / "server.sock")
    proc = _spawn_serve(
        journal, fsync_every, "--listen", listen, *_CLUSTER,
        "--tick-interval", str(tick_interval), "--max-batch", "512",
        "--time-scale", str(time_scale), "--json")
    try:
        wait_for_server(listen, timeout=60.0, proc=proc)

        names = _tenants(jobs, tenants)
        shares = [names[index::processes] for index in range(processes)]
        out_q = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=_worker_main,
                args=(out_q, listen, index, shares[index], arrival, rate,
                      7 + index, burst_size),
                daemon=True)
            for index in range(processes)
        ]
        started = time.perf_counter()
        for worker in workers:
            worker.start()
        outcomes = [out_q.get(timeout=_TIMEOUT) for __ in workers]
        for worker in workers:
            worker.join(timeout=30.0)
        wall = time.perf_counter() - started

        latencies = [value for outcome in outcomes
                     for value in outcome["latencies"]]
        acked = [job_id for outcome in outcomes
                 for job_id in outcome["acked"]]
        results: dict[str, int] = {}
        errors = 0
        drained = 0
        for outcome in outcomes:
            for state, count in outcome["states"].items():
                results[state] = results.get(state, 0) + count
            errors += len(outcome["errors"])
            drained += 1 if outcome["drained"] else 0

        server_doc = _stop_server(listen, proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)

    stats = (server_doc or {}).get("server", {})
    tick_stats = stats.get("tick_seconds", {})
    audit = audit_journal(journal, acked=acked) if journal.exists() \
        else JournalAudit()
    return LoadTestReport(
        jobs=jobs, tenants=tenants, processes=processes, arrival=arrival,
        rate=rate, workload=WORKLOAD, scale=SCALE, wall_seconds=wall,
        acked=len(acked),
        jobs_per_sec=len(acked) / wall if wall > 0 else 0.0,
        admission_p50_ms=_ms(latencies, 0.50),
        admission_p95_ms=_ms(latencies, 0.95),
        admission_p99_ms=_ms(latencies, 0.99),
        tick_p50_ms=float(tick_stats.get("p50", 0.0)) * 1e3,
        tick_p99_ms=float(tick_stats.get("p99", 0.0)) * 1e3,
        ticks=int(stats.get("ticks", 0)),
        group_commits=int(stats.get("group_commits", 0)),
        max_batch_seen=int(stats.get("max_batch_seen", 0)),
        results=results, errors=errors, workers_drained=drained,
        audit=audit,
    )


def _ms(values: list[float], fraction: float) -> float:
    return percentile(values, fraction) * 1e3 if values else 0.0


def _stop_server(listen: str, proc: subprocess.Popen) -> dict | None:
    """Shut the server down cleanly; returns its final JSON report."""
    try:
        with ProtocolClient(listen, timeout=10.0) as client:
            client.send({"type": "shutdown"})
            client.recv()  # bye (or EOF)
    except (ServiceError, OSError):
        pass
    try:
        stdout, __ = proc.communicate(timeout=_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, __ = proc.communicate(timeout=30.0)
    try:
        return json.loads(stdout)
    except (ValueError, TypeError):
        return None


# -- SIGKILL chaos: kill, recover, audit ---------------------------------------


@dataclass
class KillRecoverReport:
    """Outcome of one SIGKILL-mid-burst + ``recover()`` chaos run.

    The script facts (``full_run_records``, ``bills_match``,
    ``schedules_match``) are None for a live burst; the wire facts
    (``sent``, ``acked``, ``lost_acked``) are None for a script replay.
    """

    kill_after: int
    killed: bool
    exit_code: int
    #: Jobs in the script, or submissions in the live burst.
    jobs: int
    durable_records: int
    #: Jobs the recovered journal held, and script jobs it never saw.
    recovered_jobs: int
    resubmitted: int
    #: Admitted jobs with no terminal record after the recovery drain.
    lost_jobs: int
    #: Jobs with more than one terminal record.
    double_billed: int
    decisions_replayed: int
    decisions_repriced: int
    recovery_wall_seconds: float
    full_run_records: int | None = None
    bills_match: bool | None = None
    schedules_match: bool | None = None
    sent: int | None = None
    acked: int | None = None
    #: Acked submissions missing from the journal (must be 0: acks follow
    #: the group commit).
    lost_acked: int | None = None

    @property
    def ok(self) -> bool:
        """Killed for real, nothing lost or billed twice, digests equal."""
        return (self.killed and self.lost_jobs == 0
                and self.double_billed == 0 and not self.lost_acked
                and self.bills_match is not False
                and self.schedules_match is not False)

    def describe(self) -> str:
        verdict = "OK" if self.ok else "DIVERGED"
        fate = "killed" if self.killed else f"exit {self.exit_code}"
        wire = ("" if self.sent is None else
                f"{self.acked}/{self.sent} acked ({self.lost_acked} "
                f"acked-but-lost), ")
        digests = ("" if self.bills_match is None else
                   f", bills {'match' if self.bills_match else 'differ'}, "
                   f"schedules "
                   f"{'match' if self.schedules_match else 'differ'}")
        return (f"kill@{self.kill_after} ({fate}): {verdict} — {wire}"
                f"{self.recovered_jobs}/{self.jobs} jobs recovered "
                f"({self.resubmitted} resubmitted, {self.lost_jobs} lost, "
                f"{self.double_billed} double-billed){digests}; "
                f"{self.decisions_replayed} decisions replayed / "
                f"{self.decisions_repriced} re-priced, recovery "
                f"{self.recovery_wall_seconds * 1e3:.1f}ms")

    def to_doc(self) -> dict:
        doc = {key: value for key, value in asdict(self).items()
               if value is not None}
        doc["ok"] = self.ok
        return doc


def kill_and_recover(script: dict | None, directory: str | Path, *,
                     kill_after: int | None = None,
                     jobs: int = 120,
                     tenants: int = 12,
                     time_scale: float = 600.0) -> KillRecoverReport:
    """SIGKILL a journaled ``repro serve`` mid-burst, recover, audit.

    With a submission ``script`` the server replays it on the virtual
    clock.  A journaled in-process run of the same script (in
    ``directory/baseline``) first counts the records a full run writes —
    ``kill_after`` must fall among them and defaults to half way — and
    gives the bills and schedule the recovered run must reproduce.
    Without one, the server listens on a socket at ``time_scale`` and
    takes a burst of ``jobs`` submissions of :data:`WORKLOAD` at
    :data:`SCALE` across ``tenants`` tenants; ``kill_after`` defaults to
    twice ``jobs``.

    Either way every record is synced and the server dies by real
    ``SIGKILL`` after the ``kill_after``-th.  The journal is recovered
    in-process, script jobs it never saw are resubmitted, the service
    drains, and :func:`audit_journal` recounts it: no admitted job
    without a terminal record or with two, every acked job journaled.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    journal = directory / "state"
    if script is not None:
        baseline = build_service(
            script, store=DurabilityStore(directory / "baseline"))
        submit_script_jobs(baseline, script)
        baseline.drain()
        baseline.close_durability()
        full_run_records = baseline.journal.records
        if kill_after is None:
            kill_after = max(2, full_run_records // 2)
        if kill_after > full_run_records:
            raise ValidationError(
                f"kill_after={kill_after} is past the last of the "
                f"{full_run_records} records a full run writes")
        script_path = directory / "script.json"
        script_path.write_text(json.dumps(script, sort_keys=True))
        serve_args = [str(script_path)]
    else:
        full_run_records = None
        if kill_after is None:
            kill_after = max(8, jobs * 2)
        listen = str(directory / "server.sock")
        serve_args = ["--listen", listen, "--tick-interval", "0.01",
                      "--max-batch", "64", "--time-scale", str(time_scale)]
    if kill_after < 1:
        raise ValidationError(f"kill_after must be >= 1, got {kill_after}")

    proc = _spawn_serve(journal, 1, *serve_args, kill_after=kill_after)
    sent = acked = None
    try:
        if script is None:
            wait_for_server(listen, timeout=60.0, proc=proc)
            outcome = queue.SimpleQueue()
            _worker_main(outcome, listen, 0, _tenants(jobs, tenants))
            burst = outcome.get()
            sent, acked = burst["sent"], burst["acked"]
        __, stderr = proc.communicate(timeout=_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30.0)
    killed = proc.returncode == -signal.SIGKILL
    if not killed and proc.returncode != 0:
        raise JournalError(
            f"journaled serve failed (rc={proc.returncode}) without being "
            f"killed:\n{stderr[-2000:]}")

    started = time.perf_counter()
    service = recover(journal, fsync_every=1)
    recovery_wall = time.perf_counter() - started
    recovered_jobs = len(service.jobs)
    resubmitted = (len(submit_script_jobs(service, script))
                   if script is not None else 0)
    service.drain()
    bills_match = schedules_match = None
    if script is not None:
        bills_match = (report_digest(service.report())
                       == report_digest(baseline.report()))
        schedules_match = schedule_digest(service) == schedule_digest(baseline)
    service.close_durability()

    audit = audit_journal(journal, acked=acked)
    return KillRecoverReport(
        kill_after=kill_after,
        killed=killed,
        exit_code=proc.returncode,
        jobs=len(script["jobs"]) if script is not None else jobs,
        durable_records=service.recovery.records_scanned,
        recovered_jobs=recovered_jobs,
        resubmitted=resubmitted,
        lost_jobs=audit.lost,
        double_billed=audit.double_billed,
        decisions_replayed=service.recovery.decisions_replayed,
        decisions_repriced=service.recovery.decisions_repriced,
        recovery_wall_seconds=recovery_wall,
        full_run_records=full_run_records,
        bills_match=bills_match,
        schedules_match=schedules_match,
        sent=sent,
        acked=None if acked is None else len(acked),
        lost_acked=None if acked is None else audit.unjournaled_acks,
    )
