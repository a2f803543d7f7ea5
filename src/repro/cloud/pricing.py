"""Billing models.

2013 EC2 billed by the *instance-hour*, rounding usage up — which is exactly
why Cumulon's cost/deadline curves are step functions and why slightly
relaxing a deadline can massively cut cost.  A per-second model is included
for ablations (it smooths those steps away).
"""

from __future__ import annotations

import math

from repro.cloud.instances import ClusterSpec
from repro.errors import ValidationError


class BillingModel:
    """Interface: dollars charged for running ``spec`` for ``seconds``."""

    name = "abstract"

    def cost(self, spec: ClusterSpec, seconds: float) -> float:
        """Dollars for ``seconds`` of ``spec``.  Contract: non-decreasing
        in ``seconds`` — the search prices a time floor into a cost floor
        (``DeploymentOptimizer.floor``) on the strength of it."""
        raise NotImplementedError

    @staticmethod
    def _check(seconds: float) -> None:
        if seconds < 0 or not math.isfinite(seconds):
            raise ValidationError(f"usage seconds must be finite and >= 0: {seconds}")


class HourlyBilling(BillingModel):
    """EC2-2013 semantics: every started instance-hour is charged in full."""

    name = "hourly"

    def cost(self, spec: ClusterSpec, seconds: float) -> float:
        self._check(seconds)
        hours = max(1, math.ceil(seconds / 3600)) if seconds > 0 else 1
        return hours * spec.hourly_rate


class PerSecondBilling(BillingModel):
    """Modern clouds: usage charged exactly, with a minimum of one minute."""

    name = "per-second"

    def __init__(self, minimum_seconds: float = 60.0):
        if minimum_seconds < 0:
            raise ValidationError("minimum_seconds must be >= 0")
        self.minimum_seconds = minimum_seconds

    def cost(self, spec: ClusterSpec, seconds: float) -> float:
        self._check(seconds)
        billed = max(seconds, self.minimum_seconds)
        return billed / 3600.0 * spec.hourly_rate


#: Billing model used throughout the reproduction unless stated otherwise.
DEFAULT_BILLING = HourlyBilling()
