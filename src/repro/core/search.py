"""Constrained deployment search: one spec, one ``search()``, one core.

A declarative :class:`SearchSpec` says what to optimize (``objective``),
under which constraint (``deadline_seconds`` / ``budget_dollars``), over
which grid (``space``), with which failure model (``reliability``), and
by which ``method``.  :func:`search` is the only constrained-search entry
point; it returns a :class:`SearchResult` carrying the chosen plan, the
reliability stress-test when one ran, the reliable candidates explored,
and the :class:`~repro.observability.search.SearchStats` for the whole
search — including ``simulations_avoided``, the gap to pricing the full
grid.

Both methods run on the one :class:`GridSolver` core, which holds the
single definition of objective, feasibility, tie-break, prunes and the
infeasibility error.  They differ only in the *order* candidates reach
it: ``exhaustive`` offers every grid index, best floor first, so each is
priced or proven irrelevant (the ground-truth oracle); ``surrogate``
prices seeds, then model picks, then the incumbent's neighbors
(:mod:`repro.core.surrogate`).  Pricing itself is
:class:`~repro.core.optimizer.DeploymentOptimizer`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.cloud.instances import ClusterSpec
from repro.core.compiler import CompilerParams
from repro.core.optimizer import (
    DeploymentOptimizer,
    ReliabilityModel,
    ReliablePlan,
    SearchSpace,
)
from repro.core.plans import DeploymentPlan
from repro.core.surrogate import reliability_frontier, surrogate_order
from repro.errors import InfeasibleConstraintError, ValidationError
from repro.observability.search import (
    ORIGIN_GRID,
    ORIGIN_SURROGATE,
    SearchStats,
)

#: Minimize dollar cost subject to a wall-clock deadline.
OBJECTIVE_MIN_COST = "min-cost"
#: Minimize wall-clock time subject to a dollar budget.
OBJECTIVE_MIN_TIME = "min-time"
#: Price one fixed deployment (no search).
OBJECTIVE_EVALUATE = "evaluate"
OBJECTIVES = (OBJECTIVE_MIN_COST, OBJECTIVE_MIN_TIME, OBJECTIVE_EVALUATE)

#: Scan the full type x count x slots grid (the ground-truth oracle).
METHOD_EXHAUSTIVE = "exhaustive"
#: Model-guided search pricing a fraction of the grid.
METHOD_SURROGATE = "surrogate"
METHODS = (METHOD_EXHAUSTIVE, METHOD_SURROGATE)


@dataclass(frozen=True)
class SearchSpec:
    """Declarative description of one deployment search.

    Exactly one constraint accompanies each objective: ``min-cost`` needs
    ``deadline_seconds``, ``min-time`` needs ``budget_dollars``, and
    ``evaluate`` needs a fixed ``cluster`` plus ``compiler_params``
    (it prices that single deployment instead of searching).  The
    optional ``reliability`` block makes the search stress-test its
    candidates across failure scenarios; ``method`` picks between the
    exhaustive grid and the surrogate-guided candidate order.
    """

    objective: str = OBJECTIVE_MIN_COST
    method: str = METHOD_EXHAUSTIVE
    deadline_seconds: float | None = None
    budget_dollars: float | None = None
    space: SearchSpace | None = None
    cluster: ClusterSpec | None = None
    compiler_params: CompilerParams | None = None
    tile_size: int | None = None
    reliability: ReliabilityModel | None = None

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValidationError(
                f"objective must be one of {OBJECTIVES}, "
                f"got {self.objective!r}")
        if self.method not in METHODS:
            raise ValidationError(
                f"method must be one of {METHODS}, got {self.method!r}")
        if self.objective == OBJECTIVE_MIN_COST:
            if self.deadline_seconds is None:
                raise ValidationError(
                    "objective \"min-cost\" needs deadline_seconds")
            if self.budget_dollars is not None:
                raise ValidationError(
                    "objective \"min-cost\" takes no budget_dollars "
                    "(use objective \"min-time\")")
            self._reject_fixed_deployment()
        elif self.objective == OBJECTIVE_MIN_TIME:
            if self.budget_dollars is None:
                raise ValidationError(
                    "objective \"min-time\" needs budget_dollars")
            if self.deadline_seconds is not None:
                raise ValidationError(
                    "objective \"min-time\" takes no deadline_seconds "
                    "(use objective \"min-cost\")")
            if self.reliability is not None:
                raise ValidationError(
                    "objective \"min-time\" has no reliability-aware "
                    "search yet; drop the reliability block")
            self._reject_fixed_deployment()
        else:  # evaluate
            if self.cluster is None or self.compiler_params is None:
                raise ValidationError(
                    "objective \"evaluate\" needs cluster and "
                    "compiler_params")
            if self.deadline_seconds is not None \
                    or self.budget_dollars is not None:
                raise ValidationError(
                    "objective \"evaluate\" prices one fixed deployment; "
                    "it takes no deadline or budget")
            if self.method != METHOD_EXHAUSTIVE:
                raise ValidationError(
                    "objective \"evaluate\" prices one fixed deployment; "
                    "method does not apply")

    def _reject_fixed_deployment(self) -> None:
        if self.cluster is not None or self.compiler_params is not None:
            raise ValidationError(
                f"objective {self.objective!r} searches the grid; "
                f"cluster/compiler_params only apply to \"evaluate\"")


@dataclass
class SearchResult:
    """What one ``search()`` call found.

    ``plan`` is always the failure-free deployment plan; ``reliable``
    carries the scenario stress-test when the spec had a reliability
    block, and ``reliable_candidates`` every candidate the search
    stress-tested in full (grid order).
    """

    plan: DeploymentPlan
    stats: SearchStats
    objective: str
    method: str
    reliable: ReliablePlan | None = None
    reliable_candidates: list[ReliablePlan] = field(default_factory=list)

    @property
    def reliable_frontier(self) -> list[ReliablePlan]:
        """Three-objective Pareto skyline (p95 time, mean cost, completion
        rate) over :attr:`reliable_candidates`."""
        return reliability_frontier(self.reliable_candidates)

    def to_dict(self) -> dict:
        """JSON-shaped summary (the CLI's ``--json`` building block)."""
        plan = self.plan
        document = {
            "objective": self.objective,
            "method": self.method,
            "instance_type": plan.spec.instance_type.name,
            "num_nodes": plan.spec.num_nodes,
            "slots_per_node": plan.spec.slots_per_node,
            "estimated_seconds": plan.estimated_seconds,
            "estimated_cost": plan.estimated_cost,
            "stats": self.stats.to_dict(),
        }
        if self.reliable is not None:
            document["reliable"] = {
                "completion_rate": self.reliable.completion_rate,
                "mean_seconds": self.reliable.mean_seconds,
                "p95_seconds": self.reliable.p95_seconds,
                "mean_cost": self.reliable.mean_cost,
                "scenarios": len(self.reliable.scenario_seconds),
            }
        return document


class GridSolver:
    """The one solver core: price → tune → prune → stress → incumbent.

    Every search method feeds grid indices to :meth:`price`; the answer is
    :attr:`incumbent`, the best *proven-feasible* candidate by
    :meth:`rank`.  ``early_abort=False`` disables the floor and the four
    reliable prunes and keeps grid order — the unpruned reference pass the
    differential tests and E22 compare against; the chosen plan is
    identical either way, only the number of simulations differs.
    """

    def __init__(self, optimizer: DeploymentOptimizer, spec: SearchSpec,
                 early_abort: bool = True):
        self.optimizer = optimizer
        self.space = spec.space if spec.space is not None else SearchSpace()
        self.reliability = spec.reliability
        self.early_abort = early_abort
        #: min-cost under a deadline, else min-time under a budget.
        self.minimize_cost = spec.objective == OBJECTIVE_MIN_COST
        self.limit = (spec.deadline_seconds if self.minimize_cost
                      else spec.budget_dollars)
        if self.limit <= 0:
            raise ValidationError(
                "deadline must be positive" if self.minimize_cost
                else "budget must be positive")
        self.origin = (ORIGIN_SURROGATE if spec.method == METHOD_SURROGATE
                       else ORIGIN_GRID)
        self.specs = optimizer.grid_specs(self.space)
        #: grid index -> tuned failure-free plan, for priced specs.
        self.plans: dict[int, DeploymentPlan] = {}
        #: grid index -> full stress test, for specs that got one.
        self.reliable_plans: dict[int, ReliablePlan] = {}
        self.incumbent: int | None = None
        #: grid index -> proven (seconds, dollars) floor on its tuned plan;
        #: the reference pass takes the trivial floor, which settles nothing.
        self.floors = [optimizer.floor(spec, self.space) if early_abort
                       else (0.0, 0.0) for spec in self.specs]
        #: grid index -> settled unsimulated: True = its floor is over the
        #: limit, False = its floor ranks behind the incumbent.
        self.settled: dict[int, bool] = {}
        #: Every grid index, best floor rank first (reference: grid order).
        self.order = sorted(range(len(self.specs)), key=self._floor_rank)

    def _floor_rank(self, index: int) -> tuple:
        """The best :meth:`rank` the floor of ``index`` still allows."""
        seconds, cost = self.floors[index]
        if self.reliability is not None:
            return (cost, index)
        if self.minimize_cost:
            return (cost, seconds, index)
        return (seconds, cost, index)

    def is_open(self, index: int) -> bool:
        """Whether ``index`` still needs pricing: not priced, not settled.

        Settling happens here.  The floor holds for every physical combo
        and failure scenario of the spec, so the spec is irrelevant once
        its constraint-side floor breaks the limit, or the best rank its
        floors allow is behind the incumbent's — compared as whole tuples,
        never on the objective alone, so ties break as they do unpruned.
        """
        if index in self.plans or index in self.settled:
            return False
        seconds, cost = self.floors[index]
        over = (seconds if self.minimize_cost else cost) > self.limit
        if not over and (self.incumbent is None or self._floor_rank(index)
                         <= self.rank(self.incumbent)):
            return True
        self.settled[index] = over
        if self.reliability is not None:
            self.optimizer.note_scenarios_skipped(self.reliability.scenarios)
        return False

    def price(self, indices: Iterable[int], step: int | None = None) -> None:
        """Run the per-candidate step over ``indices``, in that order.

        One spec at a time: whether the next still needs simulating hangs
        on the incumbent this one may set (the pool spans its combos).
        """
        for index in indices:
            if not self.is_open(index):
                continue
            tuned = self.optimizer.best_params_for(
                self.specs[index], self.space, self.origin, step)
            self.plans[index] = tuned
            if self.reliability is not None:
                self._stress(index, tuned)
            if self.feasible(index) and (
                    self.incumbent is None
                    or self.rank(index) < self.rank(self.incumbent)):
                self.incumbent = index

    def _stress(self, index: int, tuned: DeploymentPlan) -> None:
        """Scenario-price one tuned spec unless it is provably irrelevant.

        Physical parameters are tuned failure-free per spec (failures do
        not change which split factors are good), then the winner is
        stress-tested.  Four prunes skip scenario simulations; none ever
        changes the chosen plan (``tests/test_fast_search.py``).

        Two lean on *failure monotonicity* — injected failures never make
        a run faster or cheaper, which holds for every failure model in
        this simulator (failures only re-execute work):

        1. a candidate whose failure-free time already exceeds the
           deadline cannot meet it at p95 under failures;
        2. a candidate whose failure-free cost exceeds the incumbent's
           mean scenario cost cannot beat it.  On an exact tie it could
           still *tie* the incumbent and win the first-in-grid-order
           tie-break, so a tie only skips at a later grid index.

        Two are unconditional (they never guess about the scenarios they
        skip) and live in ``stress_test``, which stops the moment

        3. any scenario aborts (quorum lost / retries exhausted), since
           every scenario must complete; or
        4. enough scenarios exceed the deadline that the nearest-rank p95
           must — out of ``n``, that takes ``n - ceil(0.95 n) + 1``
           exceedances (one, for n <= 20).
        """
        optimizer = self.optimizer
        if not self.early_abort:
            self.reliable_plans[index] = optimizer.stress_test(
                tuned, self.reliability)
            return
        incumbent = self.reliable_plans.get(self.incumbent)
        if tuned.estimated_seconds > self.limit or (
                incumbent is not None
                and (tuned.estimated_cost, index)
                > (incumbent.mean_cost, self.incumbent)):
            optimizer.note_scenarios_skipped(self.reliability.scenarios)
            return
        reliable = optimizer.stress_test(tuned, self.reliability,
                                         deadline_seconds=self.limit)
        if reliable is not None:
            self.reliable_plans[index] = reliable

    def feasible(self, index: int) -> bool:
        """Whether a priced spec satisfies the constraint (proven)."""
        if self.reliability is not None:
            reliable = self.reliable_plans.get(index)
            return (reliable is not None
                    and reliable.completion_rate >= 1.0
                    and reliable.p95_seconds <= self.limit)
        plan = self.plans[index]
        if self.minimize_cost:
            return plan.estimated_seconds <= self.limit
        return plan.estimated_cost <= self.limit

    def objective(self, index: int) -> float:
        """The value being minimized, for a feasible spec."""
        if self.reliability is not None:
            return self.reliable_plans[index].mean_cost
        plan = self.plans[index]
        return (plan.estimated_cost if self.minimize_cost
                else plan.estimated_seconds)

    def rank(self, index: int) -> tuple:
        """Total order over feasible specs; the minimum is the answer.

        Cost ties break on time (time ties on cost), then on grid index;
        the reliable search keeps the first grid-order plan among
        mean-cost ties.  One definition for every method, so they agree
        whenever both priced the winner.
        """
        if self.reliability is not None:
            return (self.objective(index), index)
        plan = self.plans[index]
        if self.minimize_cost:
            return (plan.estimated_cost, plan.estimated_seconds, index)
        return (plan.estimated_seconds, plan.estimated_cost, index)

    def infeasible_error(self) -> InfeasibleConstraintError:
        if self.reliability is not None:
            return InfeasibleConstraintError(
                f"no deployment meets the {self.limit:.0f}s deadline at "
                f"p95 across {self.reliability.scenarios} failure "
                f"scenario(s)")
        if self.minimize_cost:
            return InfeasibleConstraintError(
                f"no deployment finishes within {self.limit:.0f}s")
        return InfeasibleConstraintError(
            f"no deployment costs at most ${self.limit:.2f}")


def search(optimizer: DeploymentOptimizer, spec: SearchSpec) -> SearchResult:
    """Run one declarative deployment search on ``optimizer``.

    Whatever the combination of objective, constraint, reliability, and
    method, the caller gets the same :class:`SearchResult` shape back.

    Raises :class:`~repro.errors.InfeasibleConstraintError` when no
    deployment in the grid satisfies the constraint (both methods price
    every spec, or prove it over the limit by its floor, before
    concluding that).
    """
    return _search(optimizer, spec)


def _search(optimizer: DeploymentOptimizer, spec: SearchSpec,
            early_abort: bool = True) -> SearchResult:
    """The one driver behind :func:`search` (``early_abort``: see
    :class:`GridSolver`)."""
    if spec.objective == OBJECTIVE_EVALUATE:
        baseline = optimizer.begin_search()
        plan = optimizer.price(spec.cluster, spec.compiler_params,
                               spec.tile_size)
        reliable = (optimizer.stress_test(plan, spec.reliability)
                    if spec.reliability is not None else None)
        return SearchResult(plan=plan, objective=spec.objective,
                            method=spec.method, reliable=reliable,
                            stats=optimizer.finish_search(baseline))
    solver = GridSolver(optimizer, spec, early_abort)
    baseline = optimizer.begin_search()
    rounds = 0
    with optimizer.recorder.span(f"{spec.method}-search", "optimizer"):
        if spec.method == METHOD_SURROGATE:
            rounds = surrogate_order(solver)
        else:
            solver.price(solver.order)
    stats = optimizer.finish_search(
        baseline, surrogate_rounds=rounds,
        grid_requests=optimizer.grid_sim_requests(
            solver.space, scenarios=spec.reliability.scenarios
            if spec.reliability is not None else 0))
    if optimizer.search_trace.enabled:
        over = sum(solver.settled.values())
        optimizer.search_trace.settled = (over, len(solver.settled) - over)
    if solver.minimize_cost:
        optimizer.search_trace.mark_deadline(solver.limit)
    else:
        optimizer.search_trace.mark_budget(solver.limit)
    if solver.incumbent is None:
        raise solver.infeasible_error()
    return SearchResult(
        plan=solver.plans[solver.incumbent], stats=stats,
        objective=spec.objective, method=spec.method,
        reliable=solver.reliable_plans.get(solver.incumbent),
        reliable_candidates=[solver.reliable_plans[index] for index
                             in sorted(solver.reliable_plans)])
