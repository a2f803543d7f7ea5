"""Deployment plans and the time/cost skyline.

A *deployment plan* fixes everything Cumulon must decide before running a
program: the physical plan parameters, the instance type, the number of
nodes, and the slots-per-node configuration.  Each plan maps to a point in
the time/cost plane; the optimizer reasons over the skyline (Pareto
frontier) of those points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.cloud.instances import ClusterSpec
from repro.core.compiler import CompilerParams
from repro.errors import ValidationError


@dataclass(frozen=True)
class DeploymentPlan:
    """One evaluated point in the deployment space."""

    spec: ClusterSpec
    compiler_params: CompilerParams
    #: Wall-clock estimate including cluster startup, seconds.
    estimated_seconds: float
    #: Dollar cost under the optimizer's billing model.
    estimated_cost: float
    #: Storage tile side chosen for the plan (0 = optimizer default).
    tile_size: int = 0

    def __post_init__(self) -> None:
        if self.estimated_seconds <= 0:
            raise ValidationError("estimated_seconds must be positive")
        if self.estimated_cost < 0:
            raise ValidationError("estimated_cost must be >= 0")
        if self.tile_size < 0:
            raise ValidationError("tile_size must be >= 0")

    def dominates(self, other: "DeploymentPlan") -> bool:
        """Pareto dominance: no worse on both axes, better on one."""
        no_worse = (self.estimated_seconds <= other.estimated_seconds
                    and self.estimated_cost <= other.estimated_cost)
        better = (self.estimated_seconds < other.estimated_seconds
                  or self.estimated_cost < other.estimated_cost)
        return no_worse and better

    def describe(self) -> str:
        return (f"{self.spec.describe()} "
                f"time={self.estimated_seconds:.0f}s "
                f"cost=${self.estimated_cost:.2f}")


def skyline(plans: Iterable[DeploymentPlan]) -> list[DeploymentPlan]:
    """Pareto-optimal plans, ordered by increasing time.

    Sort by (time, cost), then sweep: a plan joins only when it is
    strictly cheaper than the last plan kept, so of two plans tied on
    both axes the earlier one stays.
    """
    frontier: list[DeploymentPlan] = []
    for plan in sorted(plans, key=lambda plan: (plan.estimated_seconds,
                                                plan.estimated_cost)):
        if not frontier or plan.estimated_cost < frontier[-1].estimated_cost:
            frontier.append(plan)
    return frontier


def cheapest_within_deadline(plans: list[DeploymentPlan],
                             deadline_seconds: float) -> DeploymentPlan | None:
    """Lowest-cost plan finishing within the deadline, or None."""
    feasible = [plan for plan in plans
                if plan.estimated_seconds <= deadline_seconds]
    if not feasible:
        return None
    return min(feasible, key=lambda plan: (plan.estimated_cost,
                                           plan.estimated_seconds))


def fastest_within_budget(plans: list[DeploymentPlan],
                          budget_dollars: float) -> DeploymentPlan | None:
    """Fastest plan costing at most the budget, or None."""
    feasible = [plan for plan in plans
                if plan.estimated_cost <= budget_dollars]
    if not feasible:
        return None
    return min(feasible, key=lambda plan: (plan.estimated_seconds,
                                           plan.estimated_cost))
