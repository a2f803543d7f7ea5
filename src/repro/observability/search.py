"""Search-space telemetry for the deployment optimizer.

``DeploymentOptimizer`` evaluates hundreds of candidate deployments and
returns one winner; a :class:`SearchTrace` keeps the rest of the story.
Every candidate ``(instance type, node count, slots, tile size, physical
params)`` the optimizer prices becomes one :class:`CandidateRecord` with
its predicted time/cost, how it fared (kept or pruned), why, whether it
sits on the Pareto frontier, and — for the surrogate — at which step it was
priced, so the whole search is replayable and explainable (``repro explain
--search``).

The usual null-object pattern applies: producers default to
:data:`NULL_SEARCH_TRACE` and gate recording on ``trace.enabled``, so the
optimizer pays one attribute check when telemetry is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ValidationError

if TYPE_CHECKING:  # import would be circular at runtime (core -> observability)
    from repro.core.plans import DeploymentPlan

#: Candidate statuses.
STATUS_EVALUATED = "evaluated"  # priced, survived per-spec tuning
STATUS_PRUNED = "pruned"        # priced, beaten by a sibling on its spec

#: Candidate origins.
ORIGIN_GRID = "grid"
ORIGIN_SURROGATE = "surrogate"
ORIGIN_ADHOC = "adhoc"


@dataclass
class SearchStats:
    """How one optimizer search spent (and saved) its simulation budget.

    Attached to a :class:`SearchTrace` by the optimizer's solvers and
    printed by ``explain_search`` / ``repro explain --search``.  The
    central ratio is ``sims_executed`` vs ``sim_requests``: the memo
    never changes what a search *requests* (that is the bit-identical
    guarantee), only how many of those requests actually *run* — the
    cache misses.  Early abort skips reliability scenarios it can prove
    irrelevant.
    """

    #: Simulations the search asked for (cache hits + misses + bypasses).
    sim_requests: int = 0
    #: Simulations that actually ran.
    sims_executed: int = 0
    cache_hits: int = 0
    #: Reliability scenario simulations skipped by early abort / bounds.
    scenarios_skipped: int = 0
    wall_seconds: float = 0.0
    #: Simulations the search never requested at all, relative to pricing
    #: the full grid without early abort — specs settled by their floor,
    #: scenarios skipped, and what the surrogate never looked at.
    simulations_avoided: int = 0
    #: Model-guided acquisition rounds a surrogate search ran (0 = the
    #: search was exhaustive).
    surrogate_rounds: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of simulation requests served from the memo."""
        return self.cache_hits / self.sim_requests if self.sim_requests \
            else 0.0

    @property
    def estimated_speedup(self) -> float:
        """Simulation work avoided, as a multiplier vs the uncached search.

        ``(requests + skipped) / executed`` — i.e. how many simulations a
        memo-less, no-early-abort search would have run per simulation
        this one ran.  1.0 when nothing was saved; an all-hits search
        (zero executed) counts as if it had run exactly one.
        """
        saved = self.sim_requests + self.scenarios_skipped
        if not saved:
            return 1.0
        return saved / max(self.sims_executed, 1)

    def to_dict(self) -> dict:
        """JSON-ready form (what ``--search-out`` serializes)."""
        return {
            "sim_requests": self.sim_requests,
            "sims_executed": self.sims_executed,
            "cache_hits": self.cache_hits,
            "hit_rate": self.hit_rate,
            "scenarios_skipped": self.scenarios_skipped,
            "wall_seconds": self.wall_seconds,
            "estimated_speedup": self.estimated_speedup,
            "simulations_avoided": self.simulations_avoided,
            "surrogate_rounds": self.surrogate_rounds,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "SearchStats":
        """Rebuild stats from :meth:`to_dict` output (derived keys ignored).

        This is the ``--json`` round-trip the benchdiff gate leans on:
        ``SearchStats.from_dict(stats.to_dict()) == stats`` for every
        stored field (``hit_rate``/``estimated_speedup`` are recomputed).
        """
        return cls(
            sim_requests=int(document.get("sim_requests", 0)),
            sims_executed=int(document.get("sims_executed", 0)),
            cache_hits=int(document.get("cache_hits", 0)),
            scenarios_skipped=int(document.get("scenarios_skipped", 0)),
            wall_seconds=float(document.get("wall_seconds", 0.0)),
            simulations_avoided=int(document.get("simulations_avoided", 0)),
            surrogate_rounds=int(document.get("surrogate_rounds", 0)),
        )


def format_matmul(matmul) -> str:
    """Compact ``ixjxk`` rendering of split factors."""
    return (f"{matmul.tiles_per_task_i}x{matmul.tiles_per_task_j}"
            f"x{matmul.k_splits}")


@dataclass
class CandidateRecord:
    """One point the optimizer looked at in the deployment space."""

    index: int
    origin: str
    instance: str
    nodes: int
    slots: int
    tile_size: int
    matmul: str
    predicted_seconds: float | None = None
    predicted_cost: float | None = None
    status: str = STATUS_EVALUATED
    reason: str = ""
    #: None until a constraint solver annotated it; then the verdict.
    feasible: bool | None = None
    on_frontier: bool = False
    #: Which surrogate step priced this candidate (0 = seed; None = grid).
    step: int | None = None
    #: The priced plan itself.
    plan: DeploymentPlan | None = field(default=None, repr=False)

    def annotation(self) -> str:
        """The one-word-ish verdict ``explain_search`` prints."""
        if self.status == STATUS_PRUNED:
            return f"pruned ({self.reason})" if self.reason else "pruned"
        parts = []
        if self.on_frontier:
            parts.append("frontier")
        elif self.reason:
            parts.append(self.reason)
        if self.feasible is True:
            parts.append("feasible")
        elif self.feasible is False:
            parts.append("infeasible")
        return ", ".join(parts) if parts else "kept"

    def to_dict(self) -> dict:
        """JSON-ready form of the record (plan object omitted)."""
        return {
            "index": self.index,
            "origin": self.origin,
            "instance": self.instance,
            "nodes": self.nodes,
            "slots": self.slots,
            "tile_size": self.tile_size,
            "matmul": self.matmul,
            "predicted_seconds": self.predicted_seconds,
            "predicted_cost": self.predicted_cost,
            "status": self.status,
            "reason": self.reason,
            "feasible": self.feasible,
            "on_frontier": self.on_frontier,
            "step": self.step,
        }


class SearchTrace:
    """Accumulates candidate records across one or more optimizer searches."""

    enabled = True

    def __init__(self):
        """Start an empty trace; pass it to ``DeploymentOptimizer(trace=)``."""
        self.records: list[CandidateRecord] = []
        self._frontier: list[DeploymentPlan] = []
        #: Performance accounting for the most recent search (or None).
        self.stats: SearchStats | None = None
        #: True once a search actually had sibling plans to prune among —
        #: lets ``explain_search`` tell "0 pruned" from "pruning n/a"
        #: (e.g. a single-matmul space where no candidate has a sibling).
        self.pruning_applicable = False
        #: Specs the last search settled by floor, never priced (so no
        #: record): (over the limit, behind the incumbent).
        self.settled = (0, 0)

    def __len__(self) -> int:
        return len(self.records)

    # -- recording (called by the optimizer) ---------------------------------

    def add(self, plan: DeploymentPlan, origin: str = ORIGIN_ADHOC,
            step: int | None = None) -> CandidateRecord:
        """Record one priced candidate and return its record."""
        record = CandidateRecord(
            index=len(self.records),
            origin=origin,
            instance=plan.spec.instance_type.name,
            nodes=plan.spec.num_nodes,
            slots=plan.spec.slots_per_node,
            tile_size=plan.tile_size,
            matmul=format_matmul(plan.compiler_params.matmul),
            predicted_seconds=plan.estimated_seconds,
            predicted_cost=plan.estimated_cost,
            step=step,
            plan=plan,
        )
        self.records.append(record)
        return record

    def prune(self, index: int, reason: str) -> None:
        """Demote record ``index`` to pruned, remembering why."""
        record = self.records[index]
        record.status = STATUS_PRUNED
        record.reason = reason

    def set_stats(self, stats: SearchStats) -> None:
        """Attach one search's performance accounting (latest wins)."""
        self.stats = stats

    def mark_frontier(self, frontier: list[DeploymentPlan]) -> None:
        """Flag frontier membership; non-frontier survivors get a reason."""
        self._frontier = list(frontier)
        remaining = list(frontier)
        for record in self.records:
            if record.plan is None or record.status != STATUS_EVALUATED:
                continue
            if record.plan in remaining:
                record.on_frontier = True
                remaining.remove(record.plan)
            elif not record.reason:
                record.reason = "dominated"

    def mark_deadline(self, deadline_seconds: float) -> None:
        """Annotate surviving candidates against a deadline constraint."""
        if deadline_seconds <= 0:
            raise ValidationError("deadline must be positive")
        for record in self.records:
            if record.status == STATUS_EVALUATED \
                    and record.predicted_seconds is not None:
                record.feasible = (record.predicted_seconds
                                   <= deadline_seconds)
                if not record.feasible and not record.reason:
                    record.reason = (f"exceeds {deadline_seconds:.0f}s "
                                     "deadline")

    def mark_budget(self, budget_dollars: float) -> None:
        """Annotate surviving candidates against a budget constraint."""
        if budget_dollars <= 0:
            raise ValidationError("budget must be positive")
        for record in self.records:
            if record.status == STATUS_EVALUATED \
                    and record.predicted_cost is not None:
                record.feasible = record.predicted_cost <= budget_dollars
                if not record.feasible and not record.reason:
                    record.reason = (f"exceeds ${budget_dollars:.2f} budget")

    # -- queries -------------------------------------------------------------

    def kept(self) -> list[CandidateRecord]:
        """Records that survived per-spec tuning."""
        return [r for r in self.records if r.status == STATUS_EVALUATED]

    def pruned(self) -> list[CandidateRecord]:
        """Records priced but beaten by a sibling on their spec."""
        return [r for r in self.records if r.status == STATUS_PRUNED]

    def frontier_plans(self) -> list[DeploymentPlan]:
        """The Pareto frontier exactly as the optimizer computed it."""
        return list(self._frontier)

    def frontier_records(self) -> list[CandidateRecord]:
        """Records flagged as Pareto-frontier members."""
        return [r for r in self.records if r.on_frontier]

    def best_record(self) -> CandidateRecord | None:
        """Cheapest surviving feasible candidate (or cheapest overall)."""
        pool = [r for r in self.kept() if r.feasible is not False]
        if not pool:
            pool = self.kept()
        if not pool:
            return None
        return min(pool, key=lambda r: (r.predicted_cost,
                                        r.predicted_seconds))

    def to_dicts(self) -> list[dict]:
        """Every record as a JSON-ready dict, in evaluation order."""
        return [record.to_dict() for record in self.records]

    def clear(self) -> None:
        """Forget all records, the frontier, and the search stats."""
        self.records.clear()
        self._frontier = []
        self.stats = None
        self.pruning_applicable = False
        self.settled = (0, 0)


class NullSearchTrace(SearchTrace):
    """Discards everything; the optimizer's default."""

    enabled = False

    def add(self, plan, origin=ORIGIN_ADHOC, step=None):
        """Return a throwaway record without storing anything."""
        return CandidateRecord(index=-1, origin=origin, instance="",
                               nodes=0, slots=0, tile_size=0, matmul="")

    def prune(self, index, reason):
        """No-op."""

    def set_stats(self, stats):
        """No-op."""

    def mark_frontier(self, frontier):
        """No-op."""

    def mark_deadline(self, deadline_seconds):
        """No-op."""

    def mark_budget(self, budget_dollars):
        """No-op."""


#: Shared default instance (stateless, so sharing is safe).
NULL_SEARCH_TRACE = NullSearchTrace()
