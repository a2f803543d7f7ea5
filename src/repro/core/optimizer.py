"""The deployment optimizer: benchmarking + simulation + modeling + search.

Given a program and a time or money constraint, the optimizer chooses —
jointly, as the paper emphasizes — the physical plan parameters (matmul
split factors, element-wise task granularity), the instance type, the
cluster size, and the slots-per-node configuration.

The pipeline mirrors the paper:

1. coefficients fitted by **benchmarking** (:mod:`repro.core.benchmarking`);
2. each candidate deployment priced by **modeling** each task and
   **simulating** the slot scheduler (:mod:`repro.core.simcost`);
3. **search** over the deployment space, with physical parameters tuned
   *per cluster spec* (a split factor good on 4 fat nodes is bad on 32 thin
   ones).

This module is the *pricing* layer: compile cache, simulation, per-spec
physical tuning, the scenario stress test and the search-stats window.
Candidates are priced one at a time on the calling thread; what makes a
search cheap is the simulation memo (:mod:`repro.core.evalcache`), the
proven floor and early scenario abort, not parallelism.
Constrained search over what it prices lives in :mod:`repro.core.search`.

Costs follow the billing model (hourly by default), which is what makes the
cost-versus-deadline curve a step function (E6).
"""

from __future__ import annotations


import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.cloud.instances import EC2_CATALOG, ClusterSpec, InstanceType
from repro.cloud.pricing import DEFAULT_BILLING, BillingModel
from repro.cloud.spot import SpotMarket
from repro.cloud.provisioning import DEFAULT_STARTUP_SECONDS
from repro.core.benchmarking import HardwareCoefficients
from repro.core.compiler import CompiledProgram, CompilerParams, compile_program
from repro.core.costmodel import CostModelConfig, CumulonCostModel
from repro.core.evalcache import EvalCache
from repro.core.physical import ElementwiseParams, MatMulParams, PhysicalContext
from repro.core.plans import DeploymentPlan, skyline
from repro.core.program import Program
from repro.core.simcost import job_floors, makespan_lower_bound, \
    simulate_program
from repro.errors import SchedulingError, ValidationError
from repro.hadoop.faults import (
    CompositeNodeFailures,
    NodeFailureModel,
    NoNodeFailures,
    RandomNodeFailures,
    SpotRevocationWaves,
)
from repro.observability.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    percentile,
)
from repro.observability.search import (
    NULL_SEARCH_TRACE,
    ORIGIN_ADHOC,
    ORIGIN_GRID,
    SearchStats,
    SearchTrace,
)
from repro.observability.trace import NULL_RECORDER, TraceRecorder

#: Default search grid.
DEFAULT_NODE_COUNTS = (1, 2, 4, 8, 16, 32)
DEFAULT_MATMUL_OPTIONS = (
    MatMulParams(1, 1, 1),
    MatMulParams(2, 2, 1),
    MatMulParams(1, 1, 2),
    MatMulParams(2, 2, 2),
    MatMulParams(4, 4, 1),
    # Deep inner-dimension splits: essential for Gram-matrix shapes
    # (X'X with a tall X), where an unsplit task would buffer an entire
    # tile strip and blow past slot memory.
    MatMulParams(1, 1, 8),
    MatMulParams(1, 1, 32),
    MatMulParams(1, 1, 128),
)


@dataclass
class SearchSpace:
    """The grid of deployment choices the optimizer enumerates."""

    instance_types: tuple[InstanceType, ...] = tuple(EC2_CATALOG.values())
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS
    #: None = try 1..max_slots for each type; else explicit options.
    slots_options: tuple[int, ...] | None = None
    matmul_options: tuple[MatMulParams, ...] = DEFAULT_MATMUL_OPTIONS
    elementwise: ElementwiseParams = ElementwiseParams()
    #: Storage tile sides to consider; None = the optimizer's default only.
    tile_size_options: tuple[int, ...] | None = None

    def slots_for(self, instance: InstanceType) -> list[int]:
        """Slot counts to try on ``instance`` (clamped to its max)."""
        if self.slots_options is not None:
            return [slots for slots in self.slots_options
                    if 1 <= slots <= instance.max_slots]
        return list(range(1, instance.max_slots + 1))

    def tile_sizes_for(self, default: int) -> list[int]:
        """Tile sides to try (just ``default`` unless overridden)."""
        if self.tile_size_options is not None:
            return list(self.tile_size_options)
        return [default]


@dataclass(frozen=True)
class ReliabilityModel:
    """The failure environment a deployment must survive.

    Each scenario index derives its own seed, so N scenarios are N distinct
    (but individually reproducible) failure draws: independent node crashes
    at ``crash_rate_per_hour``, plus — when a ``market`` is given —
    correlated spot-revocation waves whenever the market price crosses
    ``bid_fraction``.  ``failure_factory`` overrides the built-in
    composition entirely (scenario index in, model out).
    """

    crash_rate_per_hour: float = 0.0
    market: SpotMarket | None = None
    bid_fraction: float = 0.35
    victim_fraction: float = 0.5
    hour_seconds: float = 3600.0
    scenarios: int = 5
    seed: int = 0
    min_live_nodes: int = 1
    failure_factory: Callable[[int], NodeFailureModel] | None = None

    def __post_init__(self) -> None:
        if self.scenarios < 1:
            raise ValidationError(
                f"scenarios must be >= 1, got {self.scenarios}")
        if self.crash_rate_per_hour < 0:
            raise ValidationError("crash_rate_per_hour must be >= 0")

    def node_failures(self, index: int) -> NodeFailureModel:
        """The node-failure model for scenario ``index``."""
        if self.failure_factory is not None:
            return self.failure_factory(index)
        models: list[NodeFailureModel] = []
        if self.crash_rate_per_hour > 0:
            models.append(RandomNodeFailures(self.crash_rate_per_hour,
                                             seed=self.seed + index))
        if self.market is not None:
            models.append(SpotRevocationWaves(
                self.market, bid_fraction=self.bid_fraction,
                seed=self.seed + index,
                victim_fraction=self.victim_fraction,
                hour_seconds=self.hour_seconds))
        if not models:
            return NoNodeFailures()
        if len(models) == 1:
            return models[0]
        return CompositeNodeFailures(models)


@dataclass
class ReliablePlan:
    """A deployment plan priced across seeded failure scenarios.

    ``plan`` holds the failure-free estimate; the scenario lists hold one
    entry per seeded scenario, with ``inf`` marking runs that aborted
    (quorum lost or retries exhausted).  Summary statistics ignore aborted
    scenarios — ``completion_rate`` tells you how many there were.
    """

    plan: DeploymentPlan
    scenario_seconds: list[float] = field(default_factory=list)
    scenario_costs: list[float] = field(default_factory=list)
    min_live_nodes: int = 1

    @property
    def spec(self) -> ClusterSpec:
        return self.plan.spec

    @property
    def completion_rate(self) -> float:
        if not self.scenario_seconds:
            return 1.0
        done = sum(1 for s in self.scenario_seconds if math.isfinite(s))
        return done / len(self.scenario_seconds)

    def _finite_seconds(self) -> list[float]:
        return [s for s in self.scenario_seconds if math.isfinite(s)]

    def _finite_costs(self) -> list[float]:
        return [c for c in self.scenario_costs if math.isfinite(c)]

    @property
    def mean_seconds(self) -> float:
        finite = self._finite_seconds()
        if not finite:
            return float("inf")
        return sum(finite) / len(finite)

    @property
    def p95_seconds(self) -> float:
        finite = self._finite_seconds()
        if not finite:
            return float("inf")
        return percentile(finite, 0.95)

    @property
    def mean_cost(self) -> float:
        finite = self._finite_costs()
        if not finite:
            return float("inf")
        return sum(finite) / len(finite)

    @property
    def p95_cost(self) -> float:
        finite = self._finite_costs()
        if not finite:
            return float("inf")
        return percentile(finite, 0.95)

    def describe(self) -> str:
        """Human-readable reliability summary of this plan."""
        n = len(self.scenario_seconds)
        lines = [
            f"{self.spec.describe()} under {n} failure scenario(s):",
            f"  failure-free:  {self.plan.estimated_seconds:.1f}s  "
            f"${self.plan.estimated_cost:.2f}",
            f"  completion:    {self.completion_rate * 100:.0f}%",
        ]
        if self.completion_rate > 0:
            lines += [
                f"  time (mean):   {self.mean_seconds:.1f}s",
                f"  time (p95):    {self.p95_seconds:.1f}s",
                f"  cost (mean):   ${self.mean_cost:.2f}",
                f"  cost (p95):    ${self.p95_cost:.2f}",
            ]
        return "\n".join(lines)




class DeploymentOptimizer:
    """Prices deployments of one program (the layer every search runs on).

    ``cache`` memoizes candidate simulations on a content-addressed key
    (see :mod:`repro.core.evalcache`); the default is a fresh enabled
    cache, so repeated searches and the reliability-aware search reuse
    earlier pricings.  Pass :data:`~repro.core.evalcache.NULL_EVAL_CACHE`
    to price every candidate from scratch (the uncached baseline the
    differential tests and the E22 bench compare against).
    """

    def __init__(self, program: Program, tile_size: int,
                 coefficients: HardwareCoefficients | None = None,
                 cost_config: CostModelConfig | None = None,
                 billing: BillingModel | None = None,
                 startup_seconds: float = DEFAULT_STARTUP_SECONDS,
                 locality_aware: bool = True,
                 recorder: TraceRecorder = NULL_RECORDER,
                 metrics: MetricsRegistry = NULL_METRICS,
                 search_trace: SearchTrace = NULL_SEARCH_TRACE,
                 cache: EvalCache | None = None,
                 workers: int = 0):
        # Pinned to 0: the layer-cake benchmark still passes workers=0.
        if workers != 0:
            raise ValidationError(
                f"workers={workers}: the pricing thread pool was removed; "
                f"candidates are priced sequentially")
        self.program = program
        self.tile_size = tile_size
        self.model = CumulonCostModel(coefficients, cost_config)
        self.billing = billing if billing is not None else DEFAULT_BILLING
        self.startup_seconds = startup_seconds
        self.locality_aware = locality_aware
        self.recorder = recorder
        self.metrics = metrics
        self.search_trace = search_trace
        self.cache = cache if cache is not None else EvalCache(metrics=metrics)
        self._compiled_cache: dict[tuple[CompilerParams, int],
                                   CompiledProgram] = {}
        #: ``job_floors`` per (compile key, instance type): see :meth:`floor`.
        self._floor_cache: dict[tuple, list[tuple]] = {}
        #: Search-performance accounting (see :class:`SearchStats`).
        self._sim_requests = 0
        self._scenarios_skipped = 0
        #: Stats of the most recent search, kept even when no
        #: :class:`SearchTrace` is attached (what ``search()`` reports).
        self.last_search_stats: SearchStats | None = None

    # -- pricing ---------------------------------------------------------------

    def compile_with(self, params: CompilerParams,
                     tile_size: int | None = None) -> CompiledProgram:
        """Compile (simulation-only) once per distinct (params, tile size)."""
        tile_size = tile_size if tile_size is not None else self.tile_size
        key = (params, tile_size)
        if key not in self._compiled_cache:
            if self.metrics.enabled:
                self.metrics.inc("optimizer.compile_cache_misses")
            context = PhysicalContext(tile_size)
            with self.recorder.span(
                    f"compile:tile={tile_size}:{params.matmul}", "optimizer"):
                self._compiled_cache[key] = compile_program(
                    self.program, context, params
                )
        elif self.metrics.enabled:
            self.metrics.inc("optimizer.compile_cache_hits")
        return self._compiled_cache[key]

    def _price(self, compiled: CompiledProgram,
               spec: ClusterSpec) -> tuple[float, float]:
        """Pure pricing of one compiled program on one spec: (seconds, $)."""
        self._sim_requests += 1
        estimate = simulate_program(compiled.dag, spec, self.model,
                                    locality_aware=self.locality_aware,
                                    cache=self.cache)
        seconds = estimate.seconds + self.startup_seconds
        return seconds, self.billing.cost(spec, seconds)

    def price(self, spec: ClusterSpec, compiler_params: CompilerParams,
              tile_size: int | None = None) -> DeploymentPlan:
        """Price one (cluster, physical-plan, tile-size) combination."""
        return self._plan(spec, compiler_params, tile_size)

    def _plan(self, spec: ClusterSpec, compiler_params: CompilerParams,
              tile_size: int | None = None,
              origin: str = ORIGIN_ADHOC,
              step: int | None = None) -> DeploymentPlan:
        """Price one combination and record it (trace, metrics, spans).

        ``origin``/``step`` tag the search trace record with which search
        asked, and when.
        """
        tile_size = tile_size if tile_size is not None else self.tile_size
        compiled = self.compile_with(compiler_params, tile_size)
        with self.recorder.span(f"simulate:{spec.describe()}", "optimizer"):
            seconds, cost = self._price(compiled, spec)
        plan = DeploymentPlan(spec, compiler_params, seconds, cost,
                              tile_size=tile_size)
        if self.metrics.enabled:
            self.metrics.inc("optimizer.candidates_evaluated")
        if self.search_trace.enabled:
            self.search_trace.add(plan, origin=origin, step=step)
        return plan

    def _combos(self, space: SearchSpace) -> list[tuple[int, CompilerParams]]:
        """The per-spec physical tuning grid, in deterministic order."""
        return [(tile_size, CompilerParams(matmul=matmul,
                                           elementwise=space.elementwise))
                for tile_size in space.tile_sizes_for(self.tile_size)
                for matmul in space.matmul_options]

    def tune_specs(self, specs: list[ClusterSpec], space: SearchSpace,
                   origin: str = ORIGIN_ADHOC, step: int | None = None
                   ) -> Iterator[DeploymentPlan]:
        """Each spec's best physical plan, lazily and in ``specs`` order.

        The one pricing path: every search method, the grid enumeration
        and the service's admission pricing come through here.  One spec
        is priced per ``next()``, so a caller can interleave its own work
        (stress tests) between specs.
        """
        combos = self._combos(space)
        for spec in specs:
            yield self._tune(spec, combos, origin, step)

    def best_params_for(self, spec: ClusterSpec, space: SearchSpace,
                        origin: str = ORIGIN_ADHOC,
                        step: int | None = None) -> DeploymentPlan:
        """Tune physical parameters and tile size for a fixed cluster spec."""
        return next(self.tune_specs([spec], space, origin, step))

    def _tune(self, spec: ClusterSpec,
              combos: list[tuple[int, CompilerParams]],
              origin: str, step: int | None) -> DeploymentPlan:
        """Price one spec's combos and fold them down to the fastest."""
        trace = self.search_trace
        if trace.enabled and len(combos) > 1:
            trace.pruning_applicable = True
        best: DeploymentPlan | None = None
        best_index: int | None = None
        for tile_size, params in combos:
            plan = self._plan(spec, params, tile_size,
                              origin=origin, step=step)
            index = len(trace) - 1 if trace.enabled else None
            if (best is None
                    or plan.estimated_seconds < best.estimated_seconds):
                if best_index is not None:
                    trace.prune(best_index,
                                "slower sibling physical plan")
                best, best_index = plan, index
            elif index is not None:
                trace.prune(index, "slower sibling physical plan")
        assert best is not None  # space.matmul_options is non-empty
        return best

    def floor(self, spec: ClusterSpec,
              space: SearchSpace) -> tuple[float, float]:
        """Proven ``(seconds, dollars)`` floor on ``spec``'s tuned plan.

        Seconds: the smallest :func:`makespan_lower_bound` over the
        spec's physical combos, plus startup; dollars: billing for that
        (``BillingModel.cost`` never falls as seconds rise).  No
        simulation; the per-(DAG, instance type) half is memoised.
        """
        seconds = float("inf")
        for tile_size, params in self._combos(space):
            dag = self.compile_with(params, tile_size).dag
            key = (params, tile_size, spec.instance_type)
            if key not in self._floor_cache:
                self._floor_cache[key] = job_floors(
                    dag, spec.instance_type, self.model)
            seconds = min(seconds, makespan_lower_bound(
                dag, spec, self.model, self._floor_cache[key]))
        seconds += self.startup_seconds
        return seconds, self.billing.cost(spec, seconds)

    def stress_test(self, plan: DeploymentPlan,
                    reliability: ReliabilityModel,
                    deadline_seconds: float | None = None
                    ) -> ReliablePlan | None:
        """Price ``plan`` across the model's N seeded failure scenarios.

        Each scenario re-simulates the DAG under that scenario's
        node-failure draw; a run that aborts (quorum lost, retries
        exhausted) records ``inf``.  With ``deadline_seconds`` the pricing
        stops — returning ``None`` — the moment the plan provably cannot
        have every scenario complete with p95 within the deadline (the two
        unconditional prunes explained in :mod:`repro.core.search`).
        """
        n = reliability.scenarios
        exceed_limit = n - math.ceil(0.95 * n) + 1
        compiled = self.compile_with(plan.compiler_params,
                                     plan.tile_size or self.tile_size)
        seconds: list[float] = []
        costs: list[float] = []
        exceeded = 0
        for index in range(n):
            node_failures = reliability.node_failures(index)
            self._sim_requests += 1
            try:
                estimate = simulate_program(
                    compiled.dag, plan.spec, self.model,
                    locality_aware=self.locality_aware,
                    node_failures=node_failures,
                    min_live_nodes=reliability.min_live_nodes,
                    cache=self.cache)
            except SchedulingError:
                if self.metrics.enabled:
                    self.metrics.inc("optimizer.scenario_aborts")
                if deadline_seconds is not None:
                    self.note_scenarios_skipped(n - index - 1)
                    return None
                seconds.append(float("inf"))
                costs.append(float("inf"))
                continue
            total = estimate.seconds + self.startup_seconds
            seconds.append(total)
            costs.append(self.billing.cost(plan.spec, total))
            if deadline_seconds is not None and total > deadline_seconds:
                exceeded += 1
                if exceeded >= exceed_limit:
                    self.note_scenarios_skipped(n - index - 1)
                    return None
        return ReliablePlan(plan=plan, scenario_seconds=seconds,
                            scenario_costs=costs,
                            min_live_nodes=reliability.min_live_nodes)

    # -- search-performance accounting ----------------------------------------

    def begin_search(self) -> dict:
        """Snapshot the counters a search's :class:`SearchStats` diff against."""
        return {"started": time.perf_counter(),
                "requests": self._sim_requests,
                "hits": self.cache.hits,
                "skipped": self._scenarios_skipped}

    def finish_search(self, baseline: dict,
                      surrogate_rounds: int = 0,
                      grid_requests: int | None = None) -> SearchStats:
        """Attach this search's :class:`SearchStats` to the trace/metrics.

        ``grid_requests`` is what a full unpruned grid search would have
        requested for the same problem (:meth:`grid_sim_requests`); the
        gap to this search's requests is ``simulations_avoided``.  The
        stats also land on :attr:`last_search_stats` unconditionally, so
        callers get them without wiring up a :class:`SearchTrace`, and on
        the ``search.simulations`` / ``search.simulations_avoided``
        metrics so the registry round-trips what ``--json`` reports.
        """
        requests = self._sim_requests - baseline["requests"]
        hits = self.cache.hits - baseline["hits"]
        avoided = 0
        if grid_requests is not None:
            avoided = max(0, grid_requests - requests)
        stats = SearchStats(
            sim_requests=requests,
            sims_executed=requests - hits,
            cache_hits=hits,
            scenarios_skipped=self._scenarios_skipped - baseline["skipped"],
            wall_seconds=time.perf_counter() - baseline["started"],
            simulations_avoided=avoided,
            surrogate_rounds=surrogate_rounds)
        self.last_search_stats = stats
        if self.search_trace.enabled:
            self.search_trace.set_stats(stats)
        if self.metrics.enabled:
            self.metrics.set_gauge("optimizer.search_wall_seconds",
                                   stats.wall_seconds)
            self.metrics.set_gauge("optimizer.search_hit_rate",
                                   stats.hit_rate)
            self.metrics.set_gauge("search.simulations",
                                   stats.sim_requests)
            self.metrics.set_gauge("search.simulations_avoided",
                                   stats.simulations_avoided)
            self.metrics.set_gauge("search.surrogate_rounds",
                                   stats.surrogate_rounds)
        return stats

    def note_scenarios_skipped(self, count: int) -> None:
        """Account reliability scenarios proven irrelevant without running."""
        if count <= 0:
            return
        self._scenarios_skipped += count
        if self.metrics.enabled:
            self.metrics.inc("optimizer.scenarios_skipped", count)

    # -- the grid ----------------------------------------------------------------

    def grid_specs(self, space: SearchSpace) -> list[ClusterSpec]:
        """The grid's cluster specs, in deterministic enumeration order."""
        return [ClusterSpec(instance, num_nodes, slots)
                for instance in space.instance_types
                for num_nodes in space.node_counts
                for slots in space.slots_for(instance)]

    def grid_sim_requests(self, space: SearchSpace | None = None,
                          scenarios: int = 0) -> int:
        """Simulation requests a full unpruned grid search issues.

        The exhaustive baseline prices every spec across every physical
        combo, and — in reliable mode — stress-tests every spec across
        ``scenarios`` failure draws.  This is the denominator behind
        ``SearchStats.simulations_avoided``.
        """
        space = space if space is not None else SearchSpace()
        specs = len(self.grid_specs(space))
        return specs * (len(self._combos(space)) + max(0, scenarios))

    def enumerate_plans(self, space: SearchSpace | None = None
                        ) -> list[DeploymentPlan]:
        """Evaluate the full grid: every spec with its best physical params."""
        space = space if space is not None else SearchSpace()
        baseline = self.begin_search()
        with self.recorder.span("grid-search", "optimizer"):
            plans = list(self.tune_specs(self.grid_specs(space), space,
                                         origin=ORIGIN_GRID))
        self.finish_search(baseline)
        if self.metrics.enabled:
            self.metrics.inc("optimizer.grid_searches")
            self.metrics.set_gauge("optimizer.grid_plans", len(plans))
        return plans

    def skyline(self, space: SearchSpace | None = None) -> list[DeploymentPlan]:
        """The Pareto time/cost frontier of the enumerated grid."""
        frontier = skyline(self.enumerate_plans(space))
        if self.search_trace.enabled:
            self.search_trace.mark_frontier(frontier)
        if self.metrics.enabled:
            self.metrics.set_gauge("optimizer.frontier_size", len(frontier))
        return frontier
