"""Failure models for the cluster simulator.

Hadoop's fault tolerance (retry failed tasks, speculate on stragglers) is
part of why Cumulon can run on cheap cloud nodes at all; these models let
the simulator inject deterministic, seeded failures so that behaviour is
testable and its cost measurable.

Two granularities are modeled:

* **task-attempt failures** (:class:`FailureModel` subclasses) — one attempt
  dies partway through and is retried on any node, Hadoop's bread-and-butter
  recovery path;
* **node failures** (:class:`NodeFailureModel` subclasses) — a whole node
  leaves the cluster mid-run, taking its running attempts, its slots, and
  any map outputs parked on its local disk with it.  This is the failure
  mode that dominates on spot markets, where a price spike revokes a
  correlated wave of instances at once
  (:class:`SpotRevocationWaves` reuses the seeded price process from
  :mod:`repro.cloud.spot`).

Everything is a pure function of seeds, so a simulation replays identically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.cloud.spot import MAX_SIMULATED_HOURS, SpotMarket
from repro.errors import ValidationError


class FailureModel:
    """Decides whether a given task attempt fails, and when.

    ``max_attempts`` (attempts per task before the job is declared failed;
    Hadoop defaults to 4) is validated here, once, and is always an instance
    attribute — the simulator reads it uniformly regardless of the subclass.
    """

    def __init__(self, max_attempts: int = 4):
        if max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.max_attempts = max_attempts

    def failure_fraction(self, task_id: str, attempt_index: int) -> float | None:
        """None = attempt succeeds; else the fraction of the attempt's
        duration after which it dies (in (0, 1])."""
        raise NotImplementedError


def _validate_fraction(fail_at_fraction: float) -> float:
    if not 0.0 < fail_at_fraction <= 1.0:
        raise ValidationError(
            f"fail_at_fraction must be in (0, 1], got {fail_at_fraction}"
        )
    return fail_at_fraction


class RandomFailures(FailureModel):
    """Each attempt independently fails with a fixed probability.

    Deterministic: the outcome is a pure function of (seed, task_id,
    attempt_index), so a simulation replays identically.
    """

    def __init__(self, probability: float, seed: int = 0,
                 fail_at_fraction: float = 0.5, max_attempts: int = 4):
        super().__init__(max_attempts)
        if not 0.0 <= probability < 1.0:
            raise ValidationError(
                f"failure probability must be in [0, 1), got {probability}"
            )
        self.probability = probability
        self.seed = seed
        self.fail_at_fraction = _validate_fraction(fail_at_fraction)

    def failure_fraction(self, task_id: str, attempt_index: int) -> float | None:
        rng = random.Random(f"{self.seed}:{task_id}:{attempt_index}")
        if rng.random() < self.probability:
            return self.fail_at_fraction
        return None


class TargetedFailures(FailureModel):
    """Fail specific (task_id, attempt_index) pairs — precise test control."""

    def __init__(self, failures: set[tuple[str, int]],
                 fail_at_fraction: float = 0.5, max_attempts: int = 4):
        super().__init__(max_attempts)
        self.failures = set(failures)
        self.fail_at_fraction = _validate_fraction(fail_at_fraction)

    def failure_fraction(self, task_id: str, attempt_index: int) -> float | None:
        if (task_id, attempt_index) in self.failures:
            return self.fail_at_fraction
        return None


# ---------------------------------------------------------------------------
# Node-level failures.
# ---------------------------------------------------------------------------

#: Why a node left the cluster.
CAUSE_CRASH = "crash"
CAUSE_REVOCATION = "revocation"


@dataclass(frozen=True)
class NodeFailure:
    """One node leaving the cluster at a point in virtual time."""

    node: str
    at: float
    cause: str = CAUSE_CRASH

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValidationError(
                f"node failure time must be >= 0, got {self.at}"
            )
        if self.cause not in (CAUSE_CRASH, CAUSE_REVOCATION):
            raise ValidationError(f"unknown failure cause {self.cause!r}")


class NodeFailureModel:
    """Decides which nodes die during a run, and when."""

    def failures(self, node_names: list[str]) -> list[NodeFailure]:
        """Deaths scheduled for this run (nodes absent from the list
        survive).  Must be a pure function of the model's seeds and
        ``node_names`` so a simulation replays identically."""
        raise NotImplementedError

    def fingerprint(self) -> str | None:
        """Stable identity of this failure draw, for the simulation memo.

        Two models with equal fingerprints must schedule identical deaths
        on any node list; any parameter or **seed** difference must change
        the fingerprint.  The base class answers ``None`` — "cannot prove
        my identity" — which makes :class:`~repro.core.evalcache.EvalCache`
        consumers bypass the memo rather than risk reusing a simulation
        from a different failure scenario.  Subclasses that are pure
        functions of their constructor arguments override this.
        """
        return None


class NoNodeFailures(NodeFailureModel):
    """Every node survives."""

    def failures(self, node_names: list[str]) -> list[NodeFailure]:
        return []

    def fingerprint(self) -> str | None:
        return "none"


class TargetedNodeFailures(NodeFailureModel):
    """Kill specific nodes at specific times — precise test control."""

    def __init__(self, times: dict[str, float], cause: str = CAUSE_CRASH):
        self.events = [NodeFailure(node, at, cause)
                       for node, at in sorted(times.items())]

    def failures(self, node_names: list[str]) -> list[NodeFailure]:
        names = set(node_names)
        return [event for event in self.events if event.node in names]

    def fingerprint(self) -> str | None:
        script = ",".join(f"{e.node}@{e.at}:{e.cause}" for e in self.events)
        return f"targeted[{script}]"


class RandomNodeFailures(NodeFailureModel):
    """Independent exponential crash times, one per node.

    ``rate_per_hour`` is each node's Poisson crash rate; the sampled time is
    a pure function of (seed, node name), so one seed is one reproducible
    failure scenario.  Crash times beyond the run's makespan simply never
    fire.
    """

    def __init__(self, rate_per_hour: float, seed: int = 0):
        if rate_per_hour < 0:
            raise ValidationError(
                f"rate_per_hour must be >= 0, got {rate_per_hour}"
            )
        self.rate_per_hour = rate_per_hour
        self.seed = seed

    def failures(self, node_names: list[str]) -> list[NodeFailure]:
        if self.rate_per_hour == 0:
            return []
        events = []
        for name in sorted(node_names):
            rng = random.Random(f"node-crash:{self.seed}:{name}")
            hours = rng.expovariate(self.rate_per_hour)
            events.append(NodeFailure(name, hours * 3600.0, CAUSE_CRASH))
        return events

    def fingerprint(self) -> str | None:
        return f"random[rate={self.rate_per_hour},seed={self.seed}]"


class SpotRevocationWaves(NodeFailureModel):
    """A correlated revocation wave driven by a seeded spot price path.

    Walks the same hourly price process :mod:`repro.cloud.spot` uses; the
    first hour whose market price exceeds ``bid_fraction`` revokes
    ``victim_fraction`` of the cluster *at once* — the correlated loss that
    makes spot failures qualitatively different from independent crashes.
    Hour 0 is assumed acquired under the bid (otherwise the cluster never
    starts), so the earliest wave lands at ``hour_seconds``.

    ``hour_seconds`` maps one market hour onto virtual seconds; the default
    is real time, but tests and short simulated runs can compress it so a
    price path measured in hours exercises a run measured in minutes.
    """

    def __init__(self, market: SpotMarket | None = None,
                 bid_fraction: float = 0.35, seed: int = 0,
                 victim_fraction: float = 1.0,
                 hour_seconds: float = 3600.0):
        if bid_fraction <= 0:
            raise ValidationError("bid_fraction must be positive")
        if not 0.0 < victim_fraction <= 1.0:
            raise ValidationError("victim_fraction must be in (0, 1]")
        if hour_seconds <= 0:
            raise ValidationError("hour_seconds must be positive")
        self.market = market if market is not None else SpotMarket()
        self.bid_fraction = bid_fraction
        self.seed = seed
        self.victim_fraction = victim_fraction
        self.hour_seconds = hour_seconds

    def first_wave_hour(self) -> int | None:
        """The first hour whose price exceeds the bid (None = never)."""
        for hour in range(1, MAX_SIMULATED_HOURS):
            if self.market.price_fraction(self.seed, hour) > self.bid_fraction:
                return hour
        return None

    def failures(self, node_names: list[str]) -> list[NodeFailure]:
        hour = self.first_wave_hour()
        if hour is None or not node_names:
            return []
        at = hour * self.hour_seconds
        count = max(1, math.ceil(self.victim_fraction * len(node_names)))
        victims = sorted(node_names)
        random.Random(f"spot-wave:{self.seed}").shuffle(victims)
        return [NodeFailure(node, at, CAUSE_REVOCATION)
                for node in sorted(victims[:count])]

    def fingerprint(self) -> str | None:
        market = (f"{self.market.base_discount},{self.market.volatility},"
                  f"{self.market.floor}")
        return (f"spot-wave[market=({market}),bid={self.bid_fraction},"
                f"seed={self.seed},victims={self.victim_fraction},"
                f"hour={self.hour_seconds}]")


class CompositeNodeFailures(NodeFailureModel):
    """Union of several node-failure models; a node dies at its earliest
    scheduled death across the components."""

    def __init__(self, models: list[NodeFailureModel]):
        self.models = list(models)

    def failures(self, node_names: list[str]) -> list[NodeFailure]:
        earliest: dict[str, NodeFailure] = {}
        for model in self.models:
            for event in model.failures(node_names):
                current = earliest.get(event.node)
                if current is None or event.at < current.at:
                    earliest[event.node] = event
        return [earliest[node] for node in sorted(earliest)]

    def fingerprint(self) -> str | None:
        parts = [model.fingerprint() for model in self.models]
        if any(part is None for part in parts):
            return None  # one unprovable component poisons the composite
        return "composite[" + ";".join(parts) + "]"
