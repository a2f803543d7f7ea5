"""A live cost meter: dollars accrued *during* a run, not after it.

Cumulon's constraints are money and time, yet the repro's billing model is
only consulted post-hoc, once a simulation has finished.  A
:class:`CostMeter` flips that: wired into the simulator's event loop (or any
other clock source), it re-prices the cluster at every observed instant
under the billing model — so cost accrues at *billing granularity* (hourly
billing makes it a step function in virtual time) — and raises
:class:`CostOverrun` flags the moment a budget or deadline is crossed,
rather than reporting the violation after the fact.

The meter optionally feeds a ``cost.accrued_dollars`` time series into a
:class:`~repro.observability.metrics.MetricsRegistry`, which is what the
ASCII dashboard and the exporters render.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.instances import ClusterSpec
from repro.cloud.pricing import DEFAULT_BILLING, BillingModel
from repro.errors import ValidationError
from repro.observability.metrics import NULL_METRICS, MetricsRegistry

#: Overrun kinds.
OVERRUN_BUDGET = "budget"
OVERRUN_DEADLINE = "deadline"

#: Series name the meter samples into its registry.
COST_SERIES = "cost.accrued_dollars"


@dataclass(frozen=True)
class CostOverrun:
    """One constraint violation, stamped with when it was first seen."""

    kind: str  # OVERRUN_BUDGET or OVERRUN_DEADLINE
    at_seconds: float  # observed clock when the violation was detected
    limit: float  # the budget ($) or deadline (s) that was crossed
    value: float  # accrued dollars / elapsed seconds at detection

    def describe(self) -> str:
        if self.kind == OVERRUN_BUDGET:
            return (f"budget overrun at t={self.at_seconds:.0f}s: "
                    f"${self.value:.2f} accrued > ${self.limit:.2f} budget")
        return (f"deadline overrun at t={self.at_seconds:.0f}s: "
                f"{self.value:.0f}s elapsed > {self.limit:.0f}s deadline")


class CostMeter:
    """Accrues dollars as a clock advances, flagging overruns live.

    ``offset_seconds`` shifts the billed time — e.g. the cluster startup
    time that elapses before the simulated clock starts at zero — so the
    meter's total matches what the optimizer's plan pricing charges.
    """

    def __init__(self, spec: ClusterSpec,
                 billing: BillingModel | None = None,
                 budget_dollars: float | None = None,
                 deadline_seconds: float | None = None,
                 offset_seconds: float = 0.0,
                 registry: MetricsRegistry = NULL_METRICS):
        if budget_dollars is not None and budget_dollars <= 0:
            raise ValidationError("budget_dollars must be positive")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValidationError("deadline_seconds must be positive")
        if offset_seconds < 0:
            raise ValidationError("offset_seconds must be >= 0")
        self.spec = spec
        self.billing = billing if billing is not None else DEFAULT_BILLING
        self.budget_dollars = budget_dollars
        self.deadline_seconds = deadline_seconds
        self.offset_seconds = offset_seconds
        self.registry = registry
        self.overruns: list[CostOverrun] = []
        self._accrued = 0.0
        self._last_seconds = 0.0
        self._budget_flagged = False
        self._deadline_flagged = False

    @property
    def accrued_dollars(self) -> float:
        return self._accrued

    @property
    def elapsed_seconds(self) -> float:
        return self._last_seconds

    def restore(self, accrued_dollars: float, elapsed_seconds: float) -> None:
        """Resume at a saved ``accrued_dollars`` and ``elapsed_seconds``."""
        self._accrued = accrued_dollars
        self._last_seconds = elapsed_seconds

    @property
    def over_budget(self) -> bool:
        return self._budget_flagged

    @property
    def past_deadline(self) -> bool:
        return self._deadline_flagged

    def observe(self, seconds: float) -> list[CostOverrun]:
        """Advance the meter to ``seconds`` on the caller's clock.

        Returns the overruns *newly* detected by this observation (each
        constraint flags at most once); all overruns accumulate on
        :attr:`overruns`.
        """
        if seconds < 0:
            raise ValidationError(f"observed time must be >= 0: {seconds}")
        # A meter never runs backwards; out-of-order observations (e.g.
        # repeated events at one virtual instant) clamp forward.
        seconds = max(seconds, self._last_seconds)
        self._last_seconds = seconds
        billed = self.billing.cost(self.spec, seconds + self.offset_seconds)
        new: list[CostOverrun] = []
        if billed != self._accrued:
            self._accrued = billed
            if self.registry.enabled:
                self.registry.sample(COST_SERIES, billed, t=seconds)
        if (self.budget_dollars is not None and not self._budget_flagged
                and self._accrued > self.budget_dollars):
            self._budget_flagged = True
            new.append(CostOverrun(OVERRUN_BUDGET, seconds,
                                   self.budget_dollars, self._accrued))
        if (self.deadline_seconds is not None and not self._deadline_flagged
                and seconds + self.offset_seconds > self.deadline_seconds):
            self._deadline_flagged = True
            new.append(CostOverrun(OVERRUN_DEADLINE, seconds,
                                   self.deadline_seconds,
                                   seconds + self.offset_seconds))
        if new:
            self.overruns.extend(new)
        return new

    def summary(self) -> dict:
        """JSON-able digest of the meter's final state."""
        return {
            "spec": self.spec.describe(),
            "billing": self.billing.name,
            "elapsed_seconds": self._last_seconds,
            "offset_seconds": self.offset_seconds,
            "accrued_dollars": self._accrued,
            "budget_dollars": self.budget_dollars,
            "deadline_seconds": self.deadline_seconds,
            "over_budget": self._budget_flagged,
            "past_deadline": self._deadline_flagged,
            "overruns": [overrun.describe() for overrun in self.overruns],
        }

    def describe(self) -> str:
        lines = [
            f"cost meter [{self.billing.name}] on {self.spec.describe()}: "
            f"${self._accrued:.2f} accrued over "
            f"{self._last_seconds:.0f}s"
            + (f" (+{self.offset_seconds:.0f}s startup)"
               if self.offset_seconds else "")
        ]
        if self.budget_dollars is not None:
            state = "OVER" if self._budget_flagged else "within"
            lines.append(f"  budget ${self.budget_dollars:.2f}: {state}")
        if self.deadline_seconds is not None:
            state = "OVER" if self._deadline_flagged else "within"
            lines.append(f"  deadline {self.deadline_seconds:.0f}s: {state}")
        for overrun in self.overruns:
            lines.append(f"  ! {overrun.describe()}")
        return "\n".join(lines)
