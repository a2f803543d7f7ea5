"""Durable crash-safe control plane for the multi-tenant job service.

The :class:`~repro.service.jobs.JobService` replays everything on a
deterministic virtual clock, which makes durability unusually cheap: the
journal only needs the *commands* (tenant registrations, submissions,
cancellations, clock advances) to reconstruct the exact schedule, and the
*effects* (admissions, starts, completions, bills) ride along purely so
replay can be validated record-for-record against what the event loop
regenerates.  Recovery is therefore a replay, not a reconciliation — the
same property the determinism suite locks for ordinary runs.

Who owns what
-------------
The service owns its state and its record vocabulary:
:meth:`JobService.header`, :meth:`JobService.snapshot`,
:meth:`JobService.restore` and :meth:`JobService.replay` write and read
them.  This module owns the files: the record framing, the
:class:`Journal`, the :class:`DurabilityStore` (layout, epochs,
rotation), :func:`read_store`, the audit, :func:`recover` and the
digests.

Journal format
--------------
A journal file is a flat sequence of length-prefixed, checksummed
records::

    +------------------+----------------+-----------------------+
    | payload length   | CRC32(payload) | payload (compact JSON)|
    | 4 bytes, big-end | 4 bytes        | `length` bytes        |
    +------------------+----------------+-----------------------+

The first record of every segment is a ``header`` carrying the journal
schema version, the snapshot *epoch*, and the service configuration.
Appends are batched: ``fsync`` runs every ``fsync_every`` records, so the
durable prefix after a crash is the last synced batch — anything after it
is a *torn tail*, detected at the exact record boundary (truncated frame)
or by checksum (mid-record corruption) and truncated away on recovery.

Snapshots + compaction
----------------------
``snapshot_every`` bounds replay time for long uptimes: at quiescent
points the full service state is written (atomically) to
``snapshot.json`` with epoch ``E+1`` and the journal is rotated to a
fresh segment whose header carries the same epoch.  The state of a
directory is ``snapshot ∘ journal-tail``; a journal whose epoch predates
the snapshot (crash between the two writes) is already compacted in and
contributes nothing.  :func:`read_store` is the one reader that applies
these rules — recovery, the audit and ``repro submit --journal`` all
read a directory through it.

Admission decisions
-------------------
Journaled admission decisions are replayed verbatim, so recovery performs
**zero re-pricings** of anything already decided (``decisions_replayed``
vs ``decisions_priced`` on the recovered service prove it).  Only jobs
the crash left undecided are priced again, and the simulator is
deterministic, so they price exactly as before.

:func:`audit_journal` recounts a journal directory independently of the
service that wrote it: one decision per submission, one terminal record
per admitted job.  See ``docs/service.md`` ("Durability and recovery")
for the operator view; the SIGKILL chaos harness that E25, E26 and the
tests drive is ``kill_and_recover`` in ``benchmarks/rigs.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import struct
import time
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.errors import (
    JournalCorruptionError,
    JournalError,
    RecoveryError,
    ValidationError,
)
from repro.observability.metrics import NULL_METRICS
from repro.observability.trace import (
    NULL_RECORDER,
    PHASE_SPAN,
    STATUS_SUCCESS,
    TraceEvent,
)
from repro.service.jobs import (
    COMMAND_EVENTS,
    EFFECT_EVENTS,
    EV_ADMIT,
    EV_CANCELLED,
    EV_COMPLETE,
    EV_FAILED,
    EV_HEADER,
    EV_RECOVERED,
    EV_REJECT,
    EV_SUBMIT,
    JOURNAL_VERSION,
    JobService,
    STATE_CANCELLED,
    STATE_COMPLETED,
    STATE_FAILED,
    STATE_PENDING,
    STATE_REJECTED,
)

#: Bytes of framing per record: 4-byte length + 4-byte CRC32, big-endian.
HEADER_STRUCT = struct.Struct(">II")
RECORD_OVERHEAD = HEADER_STRUCT.size

#: Every record kind the journal can carry (property tests iterate this).
EVENT_KINDS = (EV_HEADER, EV_RECOVERED) + tuple(sorted(COMMAND_EVENTS)) \
    + tuple(sorted(EFFECT_EVENTS))

#: Scan error categories.
ERROR_TORN = "torn"          # truncated frame or payload at the tail
ERROR_CORRUPT = "corrupt"    # checksum / JSON failure mid-record

#: Env var the CLI reads to arm the deterministic crash hook (chaos).
KILL_AFTER_ENV = "REPRO_JOURNAL_KILL_AFTER"

#: Crash-hook modes.
KILL_SIGKILL = "sigkill"     # os.kill(self, SIGKILL): a real crash
KILL_RAISE = "raise"         # raise JournalKilled: in-process tests

class JournalKilled(JournalError):
    """The deterministic crash hook fired in ``raise`` mode."""


# -- record codec --------------------------------------------------------------


def encode_record(record: dict) -> bytes:
    """Frame one record: length + CRC32 header, compact-JSON payload."""
    payload = json.dumps(record, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return HEADER_STRUCT.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class JournalScan:
    """Result of walking a journal byte string record-by-record.

    ``valid_bytes`` is the exact boundary of the last good record — the
    length recovery truncates the file to before reattaching it.
    """

    records: list[dict] = field(default_factory=list)
    valid_bytes: int = 0
    total_bytes: int = 0
    error: str | None = None        # ERROR_TORN / ERROR_CORRUPT / None
    error_index: int | None = None  # index of the first bad record

    @property
    def clean(self) -> bool:
        return self.error is None


def scan_records(data: bytes) -> JournalScan:
    """Decode every intact record; stop cleanly at the first bad one."""
    scan = JournalScan(total_bytes=len(data))
    offset = 0
    while offset < len(data):
        if offset + RECORD_OVERHEAD > len(data):
            scan.error = ERROR_TORN
            break
        length, crc = HEADER_STRUCT.unpack_from(data, offset)
        start = offset + RECORD_OVERHEAD
        end = start + length
        if end > len(data):
            scan.error = ERROR_TORN
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            scan.error = ERROR_CORRUPT
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            scan.error = ERROR_CORRUPT
            break
        if not isinstance(record, dict) or "ev" not in record:
            scan.error = ERROR_CORRUPT
            break
        scan.records.append(record)
        offset = end
        scan.valid_bytes = offset
    if scan.error is not None:
        scan.error_index = len(scan.records)
    return scan


def scan_journal(path: str | Path) -> JournalScan:
    """Scan a journal file (missing file scans as empty)."""
    target = Path(path)
    if not target.exists():
        return JournalScan()
    return scan_records(target.read_bytes())


def read_journal(path: str | Path) -> list[dict]:
    """Strictly read a journal: any bad record raises, with its boundary."""
    scan = scan_journal(path)
    if not scan.clean:
        raise JournalCorruptionError(
            f"journal {path}: {scan.error} record #{scan.error_index} "
            f"at byte {scan.valid_bytes} (of {scan.total_bytes})")
    return scan.records


# -- journal audit -------------------------------------------------------------


@dataclass
class JournalAudit:
    """Ground-truth recount of a server run from its journal directory."""

    submitted: int = 0
    decided: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    #: Jobs with more than one admission decision (must be 0).
    double_decided: int = 0
    #: Jobs with more than one terminal record (double billing; must be 0).
    double_billed: int = 0
    #: Admitted jobs with no terminal record (lost work; 0 after a drain).
    lost: int = 0
    #: Acked job ids missing from the journal (group-commit violation).
    unjournaled_acks: int = 0

    @property
    def ok(self) -> bool:
        """Zero lost, double-billed, double-decided, or unjournaled jobs."""
        return (self.lost == 0 and self.double_billed == 0
                and self.double_decided == 0 and self.unjournaled_acks == 0)

    def to_doc(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def audit_journal(directory: str | Path,
                  acked: list[str] | None = None) -> JournalAudit:
    """Recount a journal directory: decisions and terminals per job.

    Reads the directory through :func:`read_store`, so compacted history
    in the snapshot counts and a stale pre-snapshot segment does not.
    ``acked`` optionally cross-checks the wire against the disk: every
    job id a client saw an ``ack`` for must appear as a journaled
    submission (the group-commit guarantee).
    """
    state = read_store(directory)
    submits: dict[str, int] = {}
    decisions: dict[str, int] = {}
    admitted: set[str] = set()
    rejected: set[str] = set()
    terminals: dict[str, int] = {}
    by_terminal = {EV_COMPLETE: 0, EV_FAILED: 0, EV_CANCELLED: 0}
    terminal_states = {STATE_COMPLETED: EV_COMPLETE, STATE_FAILED: EV_FAILED,
                       STATE_CANCELLED: EV_CANCELLED}
    for jdoc in (state.snapshot or {}).get("jobs", []):
        job_id = jdoc["job_id"]
        submits[job_id] = 1
        if jdoc["state"] != STATE_PENDING:
            decisions[job_id] = 1
            (rejected if jdoc["state"] == STATE_REJECTED
             else admitted).add(job_id)
        if jdoc["state"] in terminal_states:
            terminals[job_id] = 1
            by_terminal[terminal_states[jdoc["state"]]] += 1
    for record in state.tail:
        kind = record.get("ev")
        job_id = record.get("job_id")
        if kind == EV_SUBMIT:
            submits[job_id] = submits.get(job_id, 0) + 1
        elif kind in (EV_ADMIT, EV_REJECT):
            decisions[job_id] = decisions.get(job_id, 0) + 1
            (admitted if kind == EV_ADMIT else rejected).add(job_id)
        elif kind in by_terminal:
            terminals[job_id] = terminals.get(job_id, 0) + 1
            by_terminal[kind] += 1
    audit = JournalAudit(
        submitted=len(submits),
        decided=len(decisions),
        admitted=len(admitted),
        rejected=len(rejected),
        completed=by_terminal[EV_COMPLETE],
        failed=by_terminal[EV_FAILED],
        cancelled=by_terminal[EV_CANCELLED],
        double_decided=sum(1 for n in decisions.values() if n > 1),
        double_billed=sum(1 for n in terminals.values() if n > 1),
        lost=sum(1 for job_id in admitted if job_id not in terminals),
    )
    if acked:
        audit.unjournaled_acks = sum(1 for job_id in set(acked)
                                     if job_id not in submits)
    return audit


# -- the write-ahead journal ---------------------------------------------------


class Journal:
    """Append-only record log with batched fsync and a crash hook.

    ``fsync_every=1`` makes every record durable before ``append``
    returns (what the determinism tests use); larger batches amortize the
    sync cost — the E25 bench measures the overhead either way.
    ``kill_after=N`` arms the deterministic chaos hook: after the N-th
    appended record is *synced*, the process SIGKILLs itself (or raises
    :class:`JournalKilled` in ``raise`` mode), so every kill point is a
    durable-prefix boundary that recovery must handle.
    """

    def __init__(self, path: str | Path, fsync_every: int = 32,
                 metrics=NULL_METRICS, kill_after: int = 0,
                 kill_mode: str = KILL_SIGKILL):
        if fsync_every <= 0:
            raise ValidationError("fsync_every must be positive")
        if kill_mode not in (KILL_SIGKILL, KILL_RAISE):
            raise ValidationError(f"unknown kill_mode {kill_mode!r}")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.metrics = metrics
        self.kill_after = kill_after
        self.kill_mode = kill_mode
        self.records = 0             # appended by this process
        self.records_in_segment = 0  # since the last rotation
        self.appended_bytes = 0
        self.fsyncs = 0
        self._pending = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")

    @property
    def closed(self) -> bool:
        return self._file is None

    def append(self, record: dict) -> None:
        """Durably enqueue one record (fsync per the batching policy)."""
        if self._file is None:
            raise JournalError(f"journal {self.path} is closed")
        data = encode_record(record)
        self._file.write(data)
        self.records += 1
        self.records_in_segment += 1
        self.appended_bytes += len(data)
        self._pending += 1
        if self.metrics.enabled:
            self.metrics.inc("journal.appends")
            self.metrics.inc("journal.bytes", len(data))
        if self._pending >= self.fsync_every:
            self.sync()
        if self.kill_after and self.records >= self.kill_after:
            self.sync()
            if self.kill_mode == KILL_SIGKILL:
                os.kill(os.getpid(), signal.SIGKILL)
            raise JournalKilled(
                f"deterministic crash after record {self.records}")

    @property
    def pending(self) -> int:
        """Records appended since the last fsync (the group-commit batch)."""
        return self._pending

    def sync(self) -> None:
        """Flush and fsync everything appended so far."""
        if self._file is None or self._pending == 0:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._pending = 0
        self.fsyncs += 1
        if self.metrics.enabled:
            self.metrics.inc("journal.fsyncs")

    def rotate(self, header: dict) -> None:
        """Compact: atomically replace the segment with header-only."""
        self.sync()
        self._file.close()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as fresh:
            fresh.write(encode_record(header))
            fresh.flush()
            os.fsync(fresh.fileno())
        os.replace(tmp, self.path)
        self._file = open(self.path, "ab")
        self.records_in_segment = 1  # the header
        if self.metrics.enabled:
            self.metrics.inc("journal.rotations")

    def close(self) -> None:
        """Flush, fsync, and close (idempotent)."""
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None

    def stats(self) -> dict:
        """JSON-able counters snapshot."""
        return {"records": self.records, "bytes": self.appended_bytes,
                "fsyncs": self.fsyncs, "fsync_every": self.fsync_every,
                "segment_records": self.records_in_segment}


def _write_json_atomic(path: Path, document: dict) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


# -- the durability store ------------------------------------------------------


class DurabilityStore:
    """One directory holding a service's journal and snapshot.

    Layout: ``journal.wal`` (the live segment) and ``snapshot.json`` (the
    latest full-state snapshot, if any).  All replacements are atomic
    (tmp + rename), so a crash at any instant leaves a recoverable pair.
    """

    JOURNAL_NAME = "journal.wal"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, directory: str | Path, *, fsync_every: int = 32,
                 snapshot_every: int = 0, kill_after: int = 0,
                 kill_mode: str = KILL_SIGKILL, metrics=NULL_METRICS):
        if snapshot_every < 0:
            raise ValidationError("snapshot_every must be >= 0")
        self.directory = Path(directory)
        self.fsync_every = fsync_every
        self.snapshot_every = snapshot_every
        self.kill_after = kill_after
        self.kill_mode = kill_mode
        self.metrics = metrics
        self.journal: Journal | None = None
        self.epoch = 0
        self.snapshots_taken = 0

    @property
    def journal_path(self) -> Path:
        return self.directory / self.JOURNAL_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    def has_state(self) -> bool:
        """Whether this directory already holds a recoverable service."""
        journal = self.journal_path
        return (journal.exists() and journal.stat().st_size > 0) \
            or self.snapshot_path.exists()

    def _open_journal(self) -> Journal:
        return Journal(self.journal_path, fsync_every=self.fsync_every,
                       metrics=self.metrics, kill_after=self.kill_after,
                       kill_mode=self.kill_mode)

    def start(self, service: JobService) -> None:
        """Begin a fresh journal (refuses to clobber existing state)."""
        if self.has_state():
            raise JournalError(
                f"{self.directory} already holds service state; "
                f"recover() it instead of starting fresh")
        self.epoch = 0
        self.journal = self._open_journal()
        self.journal.append(service.header(0))

    def resume(self, epoch: int, valid_bytes: int,
               rotate_header: dict | None = None) -> None:
        """Reattach after recovery: truncate the torn tail, reopen.

        ``rotate_header`` discards a pre-snapshot (stale-epoch) segment
        instead, replacing it with a fresh header at ``epoch``.
        """
        self.epoch = epoch
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.journal_path.exists():
            with open(self.journal_path, "ab") as handle:
                handle.truncate(valid_bytes)
        self.journal = self._open_journal()
        if rotate_header is not None:
            self.journal.rotate(rotate_header)

    def snapshot(self, service: JobService) -> None:
        """Write a full snapshot, then compact the journal to epoch+1."""
        if self.journal is None:
            raise JournalError("store has no open journal")
        self.epoch += 1
        _write_json_atomic(self.snapshot_path, service.snapshot(self.epoch))
        self.journal.rotate(service.header(self.epoch))
        self.snapshots_taken += 1
        if self.metrics.enabled:
            self.metrics.inc("journal.snapshots")


# -- recovery ------------------------------------------------------------------


@dataclass
class RecoveryStats:
    """What one ``recover()`` call did, attached as ``service.recovery``."""

    records_scanned: int
    commands_replayed: int
    effects_validated: int
    decisions_replayed: int
    decisions_repriced: int
    snapshot_epoch: int | None
    truncated_bytes: int
    scan_error: str | None
    wall_seconds: float
    clock: float

    def describe(self) -> str:
        origin = ("snapshot+journal" if self.snapshot_epoch is not None
                  else "journal")
        return (f"recovered from {origin}: {self.commands_replayed} "
                f"commands replayed, {self.effects_validated} effects "
                f"validated, {self.decisions_replayed} decisions replayed "
                f"({self.decisions_repriced} re-priced), clock "
                f"{self.clock:.0f}s, {self.wall_seconds * 1e3:.1f}ms wall"
                + (f"; dropped {self.truncated_bytes}B {self.scan_error} "
                   f"tail" if self.truncated_bytes else ""))


@dataclass
class StoredState:
    """A durability directory read back: its state is ``snapshot ∘ tail``.

    ``tail`` is the journal after its header (empty for a stale segment,
    which ``rotate_header`` then replaces); ``scan`` is the raw segment
    scan, whose ``valid_bytes`` is where recovery truncates.
    """

    snapshot: dict | None
    tail: list[dict]
    scan: JournalScan
    rotate_header: dict | None = None


def read_store(directory: str | Path, strict: bool = False) -> StoredState:
    """Read a durability directory, composing snapshot and journal by epoch.

    The one place that knows how ``snapshot.json`` and ``journal.wal``
    fit together.  No state reads as empty.  A segment behind the
    snapshot's epoch (a crash between the snapshot write and the
    rotation) is already compacted in: it adds nothing and is marked for
    rotation.  An unreadable snapshot, a bad version, no snapshot and no
    header, or a segment ahead of the snapshot raise
    :class:`RecoveryError`; ``strict=True`` also refuses scan errors.
    """
    store = DurabilityStore(Path(directory))
    if not store.has_state():
        return StoredState(None, [], JournalScan())
    snapshot = None
    if store.snapshot_path.exists():
        try:
            snapshot = json.loads(store.snapshot_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise RecoveryError(
                f"unreadable snapshot {store.snapshot_path}: "
                f"{error}") from error
    scan = scan_journal(store.journal_path)
    if strict and not scan.clean:
        raise JournalCorruptionError(
            f"journal {store.journal_path}: {scan.error} record "
            f"#{scan.error_index} at byte {scan.valid_bytes}")
    header = (scan.records[0] if scan.records
              and scan.records[0].get("ev") == EV_HEADER else None)
    if snapshot is None:
        if header is None:
            raise RecoveryError(
                f"journal {store.journal_path} does not start with a "
                f"header record")
        _check_version(header, "journal")
        return StoredState(None, scan.records[1:], scan)
    _check_version(snapshot, "snapshot")
    epoch = int(snapshot["epoch"])
    journal_epoch = int(header.get("epoch", -1)) if header else -1
    if journal_epoch > epoch:
        raise RecoveryError(
            f"journal epoch {journal_epoch} is ahead of snapshot "
            f"epoch {epoch}; refusing to guess")
    if journal_epoch < epoch:
        return StoredState(snapshot, [], scan,
                           rotate_header=snapshot["config"])
    return StoredState(snapshot, scan.records[1:], scan)


def recover(directory: str | Path, *,
            metrics=NULL_METRICS,
            recorder=NULL_RECORDER,
            fsync_every: int = 32,
            snapshot_every: int = 0,
            strict: bool = False) -> JobService:
    """Reconstruct a journaled :class:`JobService` exactly.

    :func:`read_store` (``strict=True`` refuses any scan error), then
    :func:`_restore`, :meth:`JobService.replay` of the tail,
    :func:`_validate` and :func:`_reattach`.  The recovered service
    journals on from where the crash stopped and carries a
    :class:`RecoveryStats` at ``service.recovery``.
    """
    started = time.perf_counter()
    state = read_store(directory, strict=strict)
    service = _restore(state, directory, metrics, recorder)
    replayed_from = service.now
    commands, journaled = service.replay(state.tail)
    redone = _validate(journaled, service.journal)
    store = DurabilityStore(Path(directory), fsync_every=fsync_every,
                            snapshot_every=snapshot_every, metrics=metrics)
    _reattach(service, store, state, redone, commands=commands,
              effects=len(journaled), started=started,
              replayed_from=replayed_from)
    return service


def _restore(state: StoredState, directory, metrics,
             recorder) -> JobService:
    """The service as the snapshot (or, without one, the header) left it.

    It journals into a list until :func:`_reattach`: replay appends what
    it regenerates there, and :func:`_validate` reads it.
    """
    if state.snapshot is None and not state.scan.records:
        raise RecoveryError(f"nothing to recover in {directory}")
    service = JobService.restore(state.snapshot or state.scan.records[0],
                                 metrics=metrics, recorder=recorder)
    # RecoveryStats counts this recovery's decisions, not the snapshot's.
    service.decisions_priced = service.decisions_replayed = 0
    service.journal = []
    return service


def _validate(journaled: list[dict], written: list[dict]) -> list[dict]:
    """Match the journaled effects against the regenerated ones.

    They must agree record for record, or :class:`RecoveryError`.  A
    crash inside a ``run_until`` window leaves its ``advance`` durable
    but only some of its effects; replay re-ran the whole window, and the
    effects past the journaled ones are returned, to be redone.
    """
    regenerated = [record for record in written
                   if record["ev"] in EFFECT_EVENTS]
    prefix = regenerated[:len(journaled)]
    if journaled != prefix:
        index = next((i for i, (a, b) in enumerate(zip(journaled, prefix))
                      if a != b), len(prefix))
        expected = journaled[index] if index < len(journaled) else None
        got = prefix[index] if index < len(prefix) else None
        raise RecoveryError(
            f"replay diverged at effect #{index}: journaled "
            f"{expected!r} vs regenerated {got!r}")
    return regenerated[len(journaled):]


def _reattach(service: JobService, store: DurabilityStore,
              state: StoredState, redone: list[dict], *, commands: int,
              effects: int, started: float, replayed_from: float) -> None:
    """Truncate the torn tail, reopen the journal and write down the rest.

    The redone effects and a ``recovered`` marker keep the journal the
    full record (audits, a second recovery) of what the service did.
    """
    scan = state.scan
    truncated = scan.total_bytes - scan.valid_bytes
    epoch = int(state.snapshot["epoch"]) if state.snapshot else None
    store.resume(epoch or 0, scan.valid_bytes,
                 rotate_header=state.rotate_header)
    service.attach_durability(store, fresh=False)
    for effect in redone:
        store.journal.append(effect)
    wall = time.perf_counter() - started
    store.journal.append({"ev": EV_RECOVERED, "clock": service.now,
                          "commands": commands,
                          "truncated_bytes": truncated})
    service.recovery = RecoveryStats(
        records_scanned=len(scan.records), commands_replayed=commands,
        effects_validated=effects,
        decisions_replayed=service.decisions_replayed,
        decisions_repriced=service.decisions_priced,
        snapshot_epoch=epoch, truncated_bytes=truncated,
        scan_error=scan.error, wall_seconds=wall, clock=service.now)
    if store.metrics.enabled:
        store.metrics.inc("journal.replay_records", len(scan.records))
        store.metrics.inc("journal.replay_commands", commands)
        store.metrics.observe("journal.replay_seconds", wall)
    if service.recorder.enabled:
        service.recorder.record(TraceEvent(
            job_id="service", task_id="recovery", phase=PHASE_SPAN,
            slot=str(store.directory), start=replayed_from, end=service.now,
            status=STATUS_SUCCESS, label=service.recovery.describe()))


def _check_version(doc: dict, what: str) -> None:
    if doc.get("version") != JOURNAL_VERSION:
        raise RecoveryError(
            f"{what} version {doc.get('version')!r} is not "
            f"{JOURNAL_VERSION}")


# -- digests ------------------------------------------------------------------


def report_digest(report) -> str:
    """Byte-stable digest of a :class:`ServiceReport` (bills included)."""
    payload = json.dumps(report.summary(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def schedule_digest(service: JobService) -> str:
    """Byte-stable digest of every job's schedule and terminal state."""
    rows = [[record.job_id, record.tenant, record.state, record.submit_at,
             record.started_at, record.finished_at, record.slot_seconds,
             record.dollars, record.missed_deadline, record.reject_reason]
            for record in sorted(service.jobs.values(),
                                 key=lambda r: r.job_id)]
    payload = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
