"""``serve_closed``: submit -> ack through the live ``repro serve`` socket.

The harness spawns the real server as a subprocess and drives it from
one asyncio thread over a fixed number of connections, each keeping a
fixed window of ``submit`` frames in flight (closed loop: the next
submit goes out only when an ack frees a slot).
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from repro.api import DurabilityStore, ProtocolError, audit_journal, recover
from repro.service.durability import scan_journal
from repro.service.jobs import EV_SUBMIT
from repro.service.protocol import decode_frame, encode_frame
from repro.workloads import WORKLOAD_NAMES

from benchmarks.layercake import harness
from benchmarks.layercake.harness import Block, OpFailed

READ_LIMIT = 1 << 20

#: What a read raises when the server stays silent, hangs up or sends
#: something that is not a frame.
WIRE_ERRORS = (asyncio.TimeoutError, asyncio.IncompleteReadError,
               asyncio.LimitOverrunError, ConnectionError, ProtocolError)


def job_list(definition: dict, count: int, seed: int
             ) -> list[tuple[str, str]]:
    """``count`` (tenant, workload) pairs: a seeded shuffle of a balanced
    list, so every seed submits the same mix in a different order."""
    rng = random.Random(f"jobs:{seed}")
    tenants = [f"t{index % definition['tenants']:04d}"
               for index in range(count)]
    workloads = [WORKLOAD_NAMES[index % len(WORKLOAD_NAMES)]
                 for index in range(count)]
    rng.shuffle(tenants)
    rng.shuffle(workloads)
    return list(zip(tenants, workloads))


def server_command(definition: dict, listen: str, journal: str) -> list[str]:
    command = [sys.executable, "-m", "repro", "serve",
               "--listen", listen, "--journal", journal]
    for flag, value in definition["server_flags"].items():
        command += [flag, str(value)]
    return command + ["--json"]


class Connection:
    """One client connection and what it has seen come back."""

    def __init__(self, index: int, reader, writer):
        self.index = index
        self.reader = reader
        self.writer = writer
        self.acks: dict[str, int] = {}      # job id -> acks seen
        self.results: dict[str, int] = {}   # job id -> results seen
        self.errors: list[str] = []
        self.broken = False                 # a read failed: nothing more
        #                                     can be sent or expected

    async def read_frame(self, timeout: float) -> dict:
        line = await asyncio.wait_for(self.reader.readuntil(b"\n"), timeout)
        return decode_frame(line)

    def note(self, frame: dict) -> None:
        """Book a frame that is not the ack being waited for."""
        kind = frame["type"]
        if kind == "result":
            job_id = frame["job_id"]
            self.results[job_id] = self.results.get(job_id, 0) + 1
        elif kind == "error":
            self.errors.append(f"{frame.get('code')}: "
                               f"{frame.get('message')}")

    def give_up(self, where: str, error: Exception) -> None:
        self.broken = True
        self.errors.append(f"connection {self.index}, {where}: "
                           f"{type(error).__name__} {error}")

    async def run_block(self, jobs: list[tuple[str, str]], scale: str,
                        window: int, timeout: float, tracer, block_span,
                        block_index: int) -> list[float]:
        """Submit ``jobs`` keeping ``window`` in flight; returns the
        submit->ack latencies.  A submit answered by an ``error`` frame,
        or still unanswered when the connection times out or drops, gets
        no latency: the block's attempted count makes it a failed op.
        """
        sent: dict[int, float] = {}
        latencies: list[float] = []
        refused = 0
        next_job = 0
        try:
            while not self.broken and len(latencies) + refused < len(jobs):
                while len(sent) < window and next_job < len(jobs):
                    tenant, workload = jobs[next_job]
                    self.writer.write(encode_frame({
                        "type": "submit", "tenant": tenant,
                        "workload": workload, "scale": scale,
                        "req": next_job}))
                    sent[next_job] = time.perf_counter()
                    next_job += 1
                frame = await self.read_frame(timeout)
                if frame["type"] == "ack" and frame.get("req") in sent:
                    now = time.perf_counter()
                    started = sent.pop(frame["req"])
                    job_id = frame["job_id"]
                    self.acks[job_id] = self.acks.get(job_id, 0) + 1
                    latencies.append(now - started)
                    tracer.add("service.submit_to_ack", started, now,
                               parent=block_span,
                               op=f"{block_index}:{self.index}:"
                                  f"{frame['req']}",
                               lane=self.index + 1)
                elif frame["type"] == "error" and frame.get("req") in sent:
                    sent.pop(frame["req"])
                    refused += 1
                    self.note(frame)
                else:
                    self.note(frame)
        except WIRE_ERRORS as error:
            self.give_up(f"block {block_index} with {len(sent)} submits "
                         f"unanswered", error)
        return latencies

    async def drain(self, timeout: float) -> None:
        self.writer.write(encode_frame({"type": "drain"}))
        while True:
            frame = await self.read_frame(timeout)
            if frame["type"] == "drained":
                return
            self.note(frame)


async def connect(listen: str, proc: subprocess.Popen, timeout: float):
    """Open one connection, retrying while the server is still starting."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return await asyncio.open_unix_connection(listen,
                                                      limit=READ_LIMIT)
        except (FileNotFoundError, ConnectionRefusedError):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise OpFailed("the server did not come up") from None
            await asyncio.sleep(0.005)


async def finish(connections: list[Connection], proc: subprocess.Popen,
                 timeout: float) -> tuple[float, dict]:
    """After the last ack: ``drain`` on every connection, ``shutdown``,
    then the server's ``--json`` report.  Returns the drain seconds too.
    """
    started = time.perf_counter()
    await asyncio.gather(*(connection.drain(timeout)
                           for connection in connections))
    drain_s = time.perf_counter() - started
    connections[0].writer.write(encode_frame({"type": "shutdown"}))
    await connections[0].writer.drain()
    stdout, __ = await asyncio.get_running_loop().run_in_executor(
        None, lambda: proc.communicate(timeout=timeout))
    return drain_s, json.loads(stdout)


async def drive(config: dict, listen: str, proc: subprocess.Popen,
                tracer: harness.Tracer) -> dict:
    """Everything that talks to the socket; returns the raw measurements."""
    definition = config["definition"]
    timeout = config["op_timeout_s"]
    window = definition["in_flight_per_connection"]
    count = harness.scaled_count(
        definition["quick_jobs_per_block" if config["quick"]
                   else "jobs_per_block"], config["scale"])
    jobs = job_list(definition, count, config["seed"])
    connections = []
    for index in range(definition["connections"]):
        reader, writer = await connect(listen, proc, timeout)
        connection = Connection(index, reader, writer)
        writer.write(encode_frame({"type": "hello",
                                   "client": f"layercake-{index}"}))
        welcome = await connection.read_frame(timeout)
        if welcome["type"] != "welcome":
            raise OpFailed(f"expected welcome, got {welcome}")
        connections.append(connection)
    shares = [jobs[index::len(connections)]
              for index in range(len(connections))]

    blocks: list[Block] = []
    probes: list[float] = []
    ready = None
    for block_index in range(config["blocks"] + 1):
        if block_index == 1:
            ready = time.monotonic()
        started = time.perf_counter()
        block_span = tracer.reserve() if tracer.enabled else None
        outcomes = await asyncio.gather(*(
            connection.run_block(share, definition["scale"], window,
                                 timeout, tracer, block_span, block_index)
            for connection, share in zip(connections, shares)))
        ended = time.perf_counter()
        if tracer.enabled:
            tracer.store(block_span, "block", started, ended, None, None,
                         {"block": block_index})
        probes.append(harness.speed_probe())
        if block_index > 0:
            blocks.append(Block(
                ended - started,
                [value for latencies in outcomes for value in latencies],
                len(jobs)))

    # The server's report exists only after an orderly shutdown; with a
    # broken connection the run has failed anyway and ``run`` kills it.
    drain_s, report, peak_rss = 0.0, None, 0.0
    try:
        peak_rss = harness.peak_rss_mib(proc.pid)
        if not any(connection.broken for connection in connections):
            drain_s, report = await finish(connections, proc, timeout)
    except (*WIRE_ERRORS, OSError, subprocess.TimeoutExpired,
            ValueError) as error:
        connections[0].give_up("shutdown", error)
    for connection in connections:
        connection.writer.close()
    return {"blocks": blocks, "probes": probes, "ready": ready,
            "drain_s": drain_s, "peak_rss": peak_rss,
            "connections": connections, "report": report,
            "jobs_per_block": len(jobs)}


def run(config: dict) -> dict:
    definition = config["definition"]
    traced = config["traced"]
    tracer = harness.Tracer(traced)
    workdir = Path(config["workdir"])
    listen = str(workdir / "s")
    journal = workdir / "state"
    proc = None
    try:
        with open(workdir / "server.err", "wb") as stderr:
            proc = subprocess.Popen(
                server_command(definition, listen, str(journal)),
                stdout=subprocess.PIPE, stderr=stderr)
        try:
            seen = asyncio.run(drive(config, listen, proc, tracer))
        except Exception:
            sys.stderr.write((workdir / "server.err").read_text()[-2000:])
            raise
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    errors = check(seen, journal, workdir / "crash",
                   definition["replay_jobs"])
    report = seen["report"]
    exact = {}
    layer = {}
    if report is None:
        sys.stderr.write((workdir / "server.err").read_text()[-2000:])
    else:
        exact = {"jobs_journaled": seen["audit"].submitted,
                 "price_misses": report["price_misses"]}
    if traced and report is not None:
        server = report["server"]
        layer = {
            "service.server.tick_ms_p50": server["tick_seconds"]["p50"] * 1e3,
            "service.server.tick_ms_p99": server["tick_seconds"]["p99"] * 1e3,
            "service.server.group_commits": server["group_commits"],
            "service.server.max_batch_seen": server["max_batch_seen"],
            "service.server.drain_s": seen["drain_s"],
            "service.durability.bytes_per_job":
                report["journal"]["bytes"] / max(1, server["submissions"]),
            "service.durability.replay_ms": seen["replay_ms"],
        }
        tracer.write(harness.OUT_DIR / "trace-serve_closed.json")
    return harness.result_doc(
        workload="serve_closed", quick=config["quick"], traced=traced,
        seed=config["seed"],
        setup_s=seen["ready"] - config["t_spawn"],
        timed=seen["blocks"], probes=seen["probes"],
        peak_rss=seen["peak_rss"], errors=errors, exact=exact, layer=layer,
        tracer=tracer)


def check(seen: dict, journal: Path, crash: Path,
          replay_jobs: int) -> list[str]:
    """The output checks: wire bookkeeping, journal audit, replay."""
    errors: list[str] = []
    acks: dict[str, int] = {}
    results: dict[str, int] = {}
    for connection in seen["connections"]:
        errors += connection.errors
        for job_id, count in connection.acks.items():
            acks[job_id] = acks.get(job_id, 0) + count
        for job_id, count in connection.results.items():
            results[job_id] = results.get(job_id, 0) + count
    expected = seen["jobs_per_block"] * (len(seen["blocks"]) + 1)
    if len(acks) != expected or any(n != 1 for n in acks.values()):
        errors.append(f"{len(acks)} distinct jobs acked for {expected} "
                      f"submits (each must be acked exactly once)")
    if seen["report"] is None:
        return errors + ["the server was not shut down in order: no "
                         "report, journal not audited"]
    unresulted = [job_id for job_id in acks if results.get(job_id) != 1]
    if unresulted or len(results) != len(acks):
        errors.append(f"{len(unresulted)} acked jobs without exactly one "
                      f"result ({len(results)} results for {len(acks)} "
                      f"acks)")
    audit = audit_journal(journal, acked=list(acks))
    seen["audit"] = audit
    if not audit.ok or audit.submitted != expected:
        errors.append(f"journal audit failed: {audit.to_doc()}")

    # recover() costs 1-2 ms per journaled job, so it replays the journal
    # as a crash ``replay_jobs`` submissions in would have left it: the
    # first bytes of the file, torn wherever the cut falls.  A journal
    # that holds fewer jobs (a quick run's) is replayed whole.
    data = DurabilityStore(journal).journal_path.read_bytes()
    torn = DurabilityStore(crash).journal_path
    crash.mkdir()
    torn.write_bytes(data[:len(data) * min(expected, replay_jobs)
                          // expected])
    journaled = sum(1 for record in scan_journal(torn).records
                    if record["ev"] == EV_SUBMIT)
    started = time.perf_counter()
    service = recover(crash)
    seen["replay_ms"] = (time.perf_counter() - started) * 1e3
    recovered = len(service.jobs)
    service.close_durability()
    if recovered != journaled or journaled < min(expected, replay_jobs) // 2:
        errors.append(f"recover() replayed {recovered} jobs of the "
                      f"{journaled} in the journal's first "
                      f"{torn.stat().st_size} bytes")
    return errors
