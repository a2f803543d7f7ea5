"""Checkpoint advice for spot deployments.

:func:`advise_checkpoint_interval` reads :mod:`repro.cloud.spot`: it turns
a seeded spot-market price path into a revocation rate and a Young/Daly
checkpoint interval, so an iterative program knows how often to snapshot
before bidding on spot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.spot import MAX_SIMULATED_HOURS, SpotMarket
from repro.errors import ValidationError


def revocation_probability(market: SpotMarket, bid_fraction: float,
                           sample_hours: int = 2000,
                           seed: int = 0) -> float:
    """Fraction of sampled hours whose spot price exceeds the bid.

    This is the per-hour revocation hazard implied by the seeded price
    process — the empirical counterpart of the rate the Young/Daly formula
    needs.
    """
    if bid_fraction <= 0:
        raise ValidationError("bid_fraction must be positive")
    if sample_hours < 1:
        raise ValidationError("sample_hours must be >= 1")
    hours = min(sample_hours, MAX_SIMULATED_HOURS - 1)
    exceeded = sum(
        1 for hour in range(1, hours + 1)
        if market.price_fraction(seed, hour) > bid_fraction
    )
    return exceeded / hours


@dataclass(frozen=True)
class CheckpointAdvice:
    """Recommended checkpoint cadence for a spot deployment."""

    revocation_probability_per_hour: float
    mtbf_seconds: float
    interval_seconds: float
    checkpoint_seconds: float
    expected_overhead_fraction: float

    def describe(self) -> str:
        if math.isinf(self.mtbf_seconds):
            return ("revocation hazard ~0/hour at this bid — "
                    "checkpointing optional")
        return (
            f"revocation hazard {self.revocation_probability_per_hour:.3f}"
            f"/hour (MTBF {self.mtbf_seconds / 3600:.1f}h): checkpoint "
            f"every {self.interval_seconds:.0f}s "
            f"(snapshot costs {self.checkpoint_seconds:.0f}s, expected "
            f"overhead {self.expected_overhead_fraction * 100:.1f}%)"
        )


def advise_checkpoint_interval(market: SpotMarket, bid_fraction: float,
                               checkpoint_seconds: float,
                               work_seconds: float | None = None,
                               sample_hours: int = 2000,
                               seed: int = 0) -> CheckpointAdvice:
    """Young/Daly checkpoint interval for a bid on a seeded spot market.

    ``interval = sqrt(2 * C * MTBF)`` with the MTBF read off the market's
    empirical hourly revocation hazard.  ``work_seconds`` (total run
    length, when known) clamps the interval — checkpointing less than once
    per run is just "checkpoint at the end".
    """
    if checkpoint_seconds <= 0:
        raise ValidationError("checkpoint_seconds must be positive")
    if work_seconds is not None and work_seconds <= 0:
        raise ValidationError("work_seconds must be positive")
    hazard = revocation_probability(market, bid_fraction,
                                    sample_hours=sample_hours, seed=seed)
    if hazard == 0:
        return CheckpointAdvice(
            revocation_probability_per_hour=0.0,
            mtbf_seconds=float("inf"),
            interval_seconds=(work_seconds if work_seconds is not None
                              else float("inf")),
            checkpoint_seconds=checkpoint_seconds,
            expected_overhead_fraction=0.0,
        )
    mtbf = 3600.0 / hazard
    interval = math.sqrt(2.0 * checkpoint_seconds * mtbf)
    if work_seconds is not None:
        interval = min(interval, work_seconds)
    overhead = checkpoint_seconds / interval + interval / (2.0 * mtbf)
    return CheckpointAdvice(
        revocation_probability_per_hour=hazard,
        mtbf_seconds=mtbf,
        interval_seconds=interval,
        checkpoint_seconds=checkpoint_seconds,
        expected_overhead_fraction=overhead,
    )
