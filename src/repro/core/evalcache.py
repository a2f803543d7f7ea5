"""Content-addressed memoization of candidate-deployment simulations.

The deployment optimizer prices every candidate by *re-simulating* the
compiled job DAG on the candidate cluster — and the reliability-aware
search multiplies that by N seeded failure scenarios.  Most of those
simulations are exact repeats: the same plan fingerprint on the same
cluster under the same failure draw always yields the same timeline
(the simulator is deterministic by design), so pricing it twice is pure
waste.  An :class:`EvalCache` is a content-addressed memo over those
simulations, which is what makes deadline sweeps, repeated solver calls,
and the reliability search cheap (see ``docs/optimizer.md``,
"Search performance").

Cache-coherence invariant
-------------------------

A memo entry may be reused **only** when every input that can change the
simulated timeline is part of the key:

* the compiled DAG (via :func:`repro.hadoop.simulator.dag_fingerprint` —
  content-addressed, so two optimizers compiling identical programs share
  entries when handed the same cache);
* the cluster spec (instance type, node count, slots per node);
* scheduler options (``locality_aware``, ``min_live_nodes``);
* the cost model (coefficients + config, via :func:`model_fingerprint`);
* the failure model, **including its seeds**, via
  ``NodeFailureModel.fingerprint()``.  A model that cannot prove its
  identity (a user subclass without a fingerprint) returns ``None`` and
  the simulation **bypasses the cache entirely** — a stale hit across
  chaos seeds would silently corrupt the reliability search, so the
  failure mode is "slower", never "wrong".

Hits and misses are counted on the cache and, when a
:class:`~repro.observability.metrics.MetricsRegistry` is attached, mirrored
into ``optimizer.evalcache_hits`` / ``optimizer.evalcache_misses``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, is_dataclass

from repro.errors import ValidationError

#: Default bound on memo entries; oldest entries are evicted FIFO beyond it.
DEFAULT_MAX_ENTRIES = 65536

#: Key component marking "no node failures injected".
NO_FAILURES_FP = "none"


def model_fingerprint(model) -> str | None:
    """Stable identity of a task-time model, or ``None`` if unprovable.

    A :class:`~repro.core.costmodel.CumulonCostModel` is identified by the
    field values of its coefficients and config dataclasses.  Any model
    shape this function does not recognize yields ``None``, which makes
    callers bypass the cache rather than risk a stale hit.
    """
    parts: list[str] = [type(model).__name__]
    for attr in ("coefficients", "config"):
        value = getattr(model, attr, None)
        if value is None:
            continue
        if not is_dataclass(value):
            return None
        parts.append(":".join(
            f"{f.name}={getattr(value, f.name)!r}" for f in fields(value)))
    if len(parts) == 1:  # nothing recognizable to fingerprint
        return None
    return "|".join(parts)


@dataclass(frozen=True)
class EvalKey:
    """The full identity of one candidate simulation.

    Two simulations with equal keys are guaranteed to produce the same
    timeline; any differing component — plan, hardware, configuration, or
    failure seed — produces a different key (property-tested in
    ``tests/test_props_evalcache.py``).
    """

    dag_fp: str
    instance: str
    nodes: int
    slots: int
    locality_aware: bool
    min_live_nodes: int
    model_fp: str
    failures_fp: str = NO_FAILURES_FP


def eval_key(dag_fp: str | None, spec, model_fp: str | None,
             locality_aware: bool = True, min_live_nodes: int = 1,
             failures_fp: str | None = NO_FAILURES_FP) -> EvalKey | None:
    """Build the memo key for one simulation, or ``None`` to bypass.

    ``None`` for any fingerprint means that component cannot prove its
    identity; the only safe answer is "don't cache this simulation".
    """
    if dag_fp is None or model_fp is None or failures_fp is None:
        return None
    return EvalKey(
        dag_fp=dag_fp,
        instance=spec.instance_type.name,
        nodes=spec.num_nodes,
        slots=spec.slots_per_node,
        locality_aware=locality_aware,
        min_live_nodes=min_live_nodes,
        model_fp=model_fp,
        failures_fp=failures_fp,
    )


@dataclass(frozen=True)
class CachedEstimate:
    """The slim, immutable payload stored per key.

    Only what the optimizer consumes is kept — the makespan and per-job
    durations — not the full :class:`SimulationResult` with its attempt
    lists, so a long search holds bounded memory per entry.  ``aborted``
    records scenarios that raised (quorum lost / retries exhausted), so a
    deterministic failure replays as the same exception without re-running
    the simulation.
    """

    seconds: float
    job_seconds: tuple[tuple[str, float], ...] = ()
    aborted: bool = False
    abort_message: str = ""
    #: True when the abort was a quorum loss (so the replayed exception
    #: keeps its type).
    abort_quorum: bool = False


class EvalCache:
    """Thread-safe content-addressed memo of candidate simulations.

    Shared freely: several optimizers over the same program, or across
    threads, may share one instance (keys are content-addressed, so
    cross-optimizer hits are sound).  It lives in memory only; a
    recovered service rebuilds its admission decisions from the journal.
    """

    enabled = True

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 metrics=None):
        if max_entries <= 0:
            raise ValidationError("max_entries must be positive")
        self.max_entries = max_entries
        self.metrics = metrics
        self._entries: dict[EvalKey, CachedEstimate] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: EvalKey | None) -> CachedEstimate | None:
        """Look up one simulation; counts a hit or miss."""
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
            else:
                self.misses += 1
        if self.metrics is not None and self.metrics.enabled:
            name = ("optimizer.evalcache_hits" if entry is not None
                    else "optimizer.evalcache_misses")
            self.metrics.inc(name)
        return entry

    def put(self, key: EvalKey | None, entry: CachedEstimate) -> None:
        """Store one simulation result (no-op for uncacheable keys)."""
        if key is None:
            return
        with self._lock:
            if key not in self._entries and \
                    len(self._entries) >= self.max_entries:
                # FIFO eviction: dicts preserve insertion order.
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry

    @property
    def requests(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0.0 when unused)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """JSON-able counters snapshot."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries),
                "hit_rate": self.hit_rate}

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


class NullEvalCache(EvalCache):
    """Disabled cache: every lookup misses, nothing is stored.

    The uncached-baseline object: an optimizer holding this prices every
    candidate from scratch, which is what the differential tests and the
    E22 bench compare the memoized search against.
    """

    enabled = False

    def __init__(self):
        """No configuration; nothing is ever stored."""
        super().__init__()

    def get(self, key):
        """Always a miss (uncounted)."""
        return None

    def put(self, key, entry):
        """No-op."""


#: Shared disabled instance (stateless, so sharing is safe).
NULL_EVAL_CACHE = NullEvalCache()
