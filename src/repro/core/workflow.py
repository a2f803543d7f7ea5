"""Workflow optimization: multi-stage analyses on rented clusters.

Real analyses are pipelines — load, factorize, post-process — and the
deployment question compounds: rent **one** cluster for the whole workflow
(pay its rate even for stages that cannot use it) or provision **per
stage** (right-size each stage but pay startup and billing minimums per
stage).  This module prices both strategies over the same search space:

* ``optimize_shared`` — one spec for every stage; each stage still gets its
  own tuned physical parameters on that spec.
* ``optimize_per_stage`` — each stage gets its own cluster; the total
  deadline is apportioned to stages in proportion to their best achievable
  times (a documented heuristic — the true joint problem is a knapsack).

The crossover is the interesting output: homogeneous pipelines favor one
shared cluster (startup amortizes), while pipelines mixing heavy and light
stages favor right-sizing (an 8-node hour for a 2-minute cleanup stage is
pure waste under hourly billing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.instances import ClusterSpec
from repro.cloud.pricing import DEFAULT_BILLING, BillingModel
from repro.cloud.provisioning import DEFAULT_STARTUP_SECONDS
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.plans import DeploymentPlan
from repro.core.program import Program
from repro.core.search import SearchSpec, search
from repro.errors import InfeasibleConstraintError, ValidationError


@dataclass
class WorkflowStage:
    """One pipeline stage: a named program."""

    name: str
    program: Program

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("stage name must be non-empty")


@dataclass
class StageAssignment:
    """A stage with its chosen plan (shared plans repeat the same spec)."""

    stage: WorkflowStage
    plan: DeploymentPlan


@dataclass
class WorkflowPlan:
    """A priced strategy for the whole workflow."""

    strategy: str
    assignments: list[StageAssignment]
    total_seconds: float
    total_cost: float

    def describe(self) -> str:
        lines = [f"{self.strategy}: {self.total_seconds:.0f}s, "
                 f"${self.total_cost:.2f}"]
        for assignment in self.assignments:
            lines.append(
                f"  {assignment.stage.name:<12} on "
                f"{assignment.plan.spec.describe()}  "
                f"{assignment.plan.estimated_seconds:.0f}s"
            )
        return "\n".join(lines)


class WorkflowOptimizer:
    """Prices shared-cluster vs per-stage deployment of a pipeline."""

    def __init__(self, stages: list[WorkflowStage], tile_size: int,
                 billing: BillingModel | None = None,
                 startup_seconds: float = DEFAULT_STARTUP_SECONDS):
        if not stages:
            raise ValidationError("workflow needs at least one stage")
        self.stages = list(stages)
        self.tile_size = tile_size
        self.billing = billing if billing is not None else DEFAULT_BILLING
        self.startup_seconds = startup_seconds
        self._optimizers = {
            stage.name: DeploymentOptimizer(
                stage.program, tile_size,
                billing=self.billing, startup_seconds=0.0,
            )
            for stage in self.stages
        }

    # -- shared cluster -----------------------------------------------------

    def evaluate_shared(self, spec: ClusterSpec,
                        space: SearchSpace) -> WorkflowPlan:
        """One cluster for everything; per-stage physical tuning."""
        assignments = []
        stage_seconds = 0.0
        for stage in self.stages:
            plan = self._optimizers[stage.name].best_params_for(spec, space)
            assignments.append(StageAssignment(stage, plan))
            stage_seconds += plan.estimated_seconds
        total = self.startup_seconds + stage_seconds
        return WorkflowPlan(
            strategy="shared",
            assignments=assignments,
            total_seconds=total,
            total_cost=self.billing.cost(spec, total),
        )

    def optimize_shared(self, deadline_seconds: float,
                        space: SearchSpace | None = None) -> WorkflowPlan:
        """Cheapest single cluster completing the workflow in time."""
        space = space if space is not None else SearchSpace()
        best: WorkflowPlan | None = None
        for spec in self._optimizers[self.stages[0].name].grid_specs(space):
            plan = self.evaluate_shared(spec, space)
            if plan.total_seconds > deadline_seconds:
                continue
            if best is None or plan.total_cost < best.total_cost:
                best = plan
        if best is None:
            raise InfeasibleConstraintError(
                f"no shared cluster finishes within {deadline_seconds:.0f}s"
            )
        return best

    # -- per-stage clusters ---------------------------------------------------

    def optimize_per_stage(self, deadline_seconds: float,
                           space: SearchSpace | None = None) -> WorkflowPlan:
        """Each stage on its own right-sized cluster.

        Deadline apportionment: each stage receives a share of the total
        deadline proportional to its fastest achievable time (including its
        own startup), then gets its min-cost plan under that share.
        """
        space = space if space is not None else SearchSpace()
        fastest = {
            stage.name: search(self._optimizers[stage.name], SearchSpec(
                objective="min-time", budget_dollars=math.inf,
                space=space)).plan.estimated_seconds
            for stage in self.stages}
        total_fastest = sum(fastest[stage.name] + self.startup_seconds
                            for stage in self.stages)
        if total_fastest > deadline_seconds:
            raise InfeasibleConstraintError(
                f"even the fastest per-stage plans need "
                f"{total_fastest:.0f}s > {deadline_seconds:.0f}s"
            )
        assignments = []
        total_seconds = 0.0
        total_cost = 0.0
        for stage in self.stages:
            share = ((fastest[stage.name] + self.startup_seconds)
                     / total_fastest) * deadline_seconds
            stage_deadline = max(1.0, share - self.startup_seconds)
            plan = search(self._optimizers[stage.name], SearchSpec(
                deadline_seconds=stage_deadline, space=space)).plan
            assignments.append(StageAssignment(stage, plan))
            stage_total = plan.estimated_seconds + self.startup_seconds
            total_seconds += stage_total
            total_cost += self.billing.cost(plan.spec, stage_total)
        return WorkflowPlan(
            strategy="per-stage",
            assignments=assignments,
            total_seconds=total_seconds,
            total_cost=total_cost,
        )

    def recommend(self, deadline_seconds: float,
                  space: SearchSpace | None = None) -> WorkflowPlan:
        """The cheaper of the two strategies under the deadline."""
        candidates = []
        for solver in (self.optimize_shared, self.optimize_per_stage):
            try:
                candidates.append(solver(deadline_seconds, space))
            except InfeasibleConstraintError:
                continue
        if not candidates:
            raise InfeasibleConstraintError(
                f"no strategy meets the {deadline_seconds:.0f}s deadline"
            )
        return min(candidates, key=lambda plan: plan.total_cost)
