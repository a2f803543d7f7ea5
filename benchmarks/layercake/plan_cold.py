"""``plan_cold``: plan one program from scratch, over and over.

One op = a fresh ``DeploymentOptimizer`` (empty ``EvalCache``, empty
compile cache) plus one exhaustive min-cost ``search()`` under a
deadline.  The module also owns what the layer probes share with the
workload: the program list, the search grid and the deadline rule.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass

from repro.api import (
    CompilerParams,
    DeploymentOptimizer,
    InMemoryRecorder,
    MetricsRegistry,
    Program,
    ReliabilityModel,
    SearchSpace,
    SearchSpec,
    build_workload,
    get_instance_type,
    search,
)
from repro.core.compiler import compile_program
from repro.core.physical import MatMulParams, PhysicalContext
from repro.errors import InfeasibleConstraintError

from benchmarks.layercake import harness
from benchmarks.layercake.harness import OpFailed


@dataclass
class PlanOp:
    """One (program, deadline) planning problem."""

    key: str
    program: Program
    tile_size: int
    reliability: ReliabilityModel | None
    #: Deadline factor fixed by the definition; ``None`` = a seeded pick.
    factor: float | None = None
    deadline: float = 0.0


def search_space(definition: dict) -> SearchSpace:
    """The grid ``G`` every op searches."""
    grid = definition["grid"]
    return SearchSpace(
        instance_types=tuple(get_instance_type(name)
                             for name in grid["instance_types"]),
        node_counts=tuple(grid["node_counts"]),
        slots_options=tuple(grid["slots_options"]),
        matmul_options=tuple(MatMulParams(*split)
                             for split in grid["matmul_options"]),
    )


def build_ops(definition: dict, quick: bool) -> list[PlanOp]:
    """The catalog programs of the block, in definition order."""
    reliability = ReliabilityModel(**definition["reliability"])
    entries = definition["quick_programs" if quick else "programs"]
    ops = []
    for entry in entries:
        program, tile_size = build_workload(entry["name"], entry["scale"])
        ops.append(PlanOp(
            key=f"{entry['name']}/{entry['scale']}", program=program,
            tile_size=tile_size,
            reliability=reliability if entry["scale"] == "medium" else None,
            factor=entry.get("deadline_factor")))
    return ops


def derive_deadlines(ops: list[PlanOp], space: SearchSpace, seed: int,
                     factors: list[float]) -> None:
    """Set each op's deadline: its factor times the program's minimum
    time over the grid.  The factor is a seeded pick of ``factors`` unless
    the definition fixes it (it does for the reliable programs, whose
    search cost depends on the deadline; see ``workloads.json``).

    The minimum is what a min-time search with an unlimited budget
    returns; it is derived here, once, because a later change to the
    simulator may move it.
    """
    rng = random.Random(f"deadlines:{seed}")
    for op in ops:
        optimizer = DeploymentOptimizer(op.program, op.tile_size, workers=0)
        fastest = search(optimizer, SearchSpec(
            objective="min-time", budget_dollars=1e12, space=space)).plan
        factor = rng.choice(factors) if op.factor is None else op.factor
        op.deadline = factor * fastest.estimated_seconds


def plan_key(plan) -> str:
    """Everything that identifies a chosen plan, floats bit-exact."""
    matmul = plan.compiler_params.matmul
    return "|".join(str(part) for part in (
        plan.spec.instance_type.name, plan.spec.num_nodes,
        plan.spec.slots_per_node,
        matmul.tiles_per_task_i, matmul.tiles_per_task_j, matmul.k_splits,
        plan.tile_size,
        plan.estimated_seconds.hex(), float(plan.estimated_cost).hex()))


def plan_with(optimizer: DeploymentOptimizer, op: PlanOp,
              space: SearchSpace, method: str = "exhaustive"):
    """One min-cost search on ``optimizer``: ``(plan, SearchStats)``.

    A ``None`` plan is the valid answer "nothing in the grid meets the
    deadline"; the search still priced the grid to prove it.
    """
    try:
        plan = search(optimizer, SearchSpec(
            objective="min-cost", method=method,
            deadline_seconds=op.deadline, space=space,
            reliability=op.reliability)).plan
    except InfeasibleConstraintError:
        plan = None
    return plan, optimizer.last_search_stats


def plan_op(op: PlanOp, space: SearchSpace, method: str = "exhaustive",
            **optimizer_kwargs):
    """The op itself: plan ``op`` from scratch on a fresh optimizer."""
    optimizer = DeploymentOptimizer(op.program, op.tile_size, workers=0,
                                    **optimizer_kwargs)
    return plan_with(optimizer, op, space, method)


def task_count(op: PlanOp, matmul: MatMulParams) -> int:
    compiled = compile_program(op.program, PhysicalContext(op.tile_size),
                               CompilerParams(matmul=matmul))
    return sum(job.num_tasks for job in compiled.dag)


def run(config: dict) -> dict:
    definition = config["definition"]
    traced = config["traced"]
    tracer = harness.Tracer(traced)
    space = search_space(definition)
    ops = build_ops(definition, config["quick"])
    derive_deadlines(ops, space, config["seed"],
                     definition["deadline_factors"])
    order = list(range(len(ops)))
    random.Random(f"order:{config['seed']}").shuffle(order)
    count = harness.scaled_count(len(ops), config["scale"])
    sequence = [ops[order[index % len(order)]] for index in range(count)]

    chosen: dict[str, str] = {}       # op key -> plan key (or "infeasible")
    plans: dict[str, object] = {}     # op key -> DeploymentPlan
    stats: list[tuple[PlanOp, object]] = []

    def run_op(op: PlanOp):
        if not traced:
            return plan_op(op, space)
        recorder = InMemoryRecorder()
        epoch = time.perf_counter()
        with tracer.span("core.search.search", program=op.key) as span:
            result = plan_op(op, space, recorder=recorder,
                             metrics=MetricsRegistry())
        # The optimizer's own compile/simulate spans, re-based onto the
        # harness clock (the recorder's epoch is its construction time).
        for event in recorder.trace().span_events():
            name = ("core.compiler.compile"
                    if event.task_id.startswith("compile")
                    else "hadoop.simulator.simulate"
                    if event.task_id.startswith("simulate")
                    else f"core.optimizer.{event.task_id}")
            tracer.add(name, epoch + event.start, epoch + event.end,
                       parent=span.id)
        return result

    def check_op(op: PlanOp, result, block: int, index: int,
                 elapsed: float) -> None:
        plan, search_stats = result
        if block > 0:
            stats.append((op, search_stats))
        if plan is None:
            key = "infeasible"
        else:
            if plan.estimated_seconds > op.deadline:
                raise OpFailed(
                    f"{op.key}: plan takes {plan.estimated_seconds}s, "
                    f"deadline {op.deadline}s")
            key = plan_key(plan)
            plans[op.key] = plan
        if chosen.setdefault(op.key, key) != key:
            raise OpFailed(f"{op.key}: plan changed between blocks "
                           f"({chosen[op.key]} -> {key})")

    run = harness.run_sync_blocks(sequence, run_op, check_op,
                                  config["blocks"], tracer,
                                  config["op_timeout_s"])
    peak_rss = harness.peak_rss_mib()
    errors = run.errors

    # Every distinct plan must re-price, on a fresh optimizer, to exactly
    # the seconds and dollars the search reported.
    for op in ops:
        plan = plans.get(op.key)
        if plan is None:
            continue
        optimizer = DeploymentOptimizer(op.program, op.tile_size, workers=0)
        again = search(optimizer, SearchSpec(
            objective="evaluate", cluster=plan.spec,
            compiler_params=plan.compiler_params,
            tile_size=plan.tile_size or None)).plan
        if (again.estimated_seconds != plan.estimated_seconds
                or again.estimated_cost != plan.estimated_cost):
            errors.append(f"{op.key}: re-pricing gave "
                          f"{again.estimated_seconds}s "
                          f"${again.estimated_cost}, search said "
                          f"{plan.estimated_seconds}s "
                          f"${plan.estimated_cost}")

    digest = hashlib.sha256("\n".join(
        f"{op.key}={chosen.get(op.key)}" for op in ops).encode()).hexdigest()
    grid_requests = DeploymentOptimizer(
        ops[0].program, ops[0].tile_size).grid_sim_requests(space)
    reliable = [(op, stat) for op, stat in stats
                if op.reliability is not None]
    skipped = sum(stat.scenarios_skipped for __, stat in reliable)
    scenarios_run = sum(stat.sim_requests - grid_requests
                        for __, stat in reliable)
    task_counts = [task_count(op, matmul) for op in ops
                   for matmul in space.matmul_options]
    infeasible = sum(1 for op in sequence if chosen.get(op.key)
                     == "infeasible")
    exact = {
        "plans_digest": digest,
        "core.search.sims_per_search":
            sum(stat.sim_requests for __, stat in stats) / len(stats)
            if stats else 0.0,
        "core.compiler.tasks_per_program":
            sum(task_counts) / len(task_counts),
    }
    layer = {}
    if traced:
        layer = {
            "core.search.sims_per_search":
                exact["core.search.sims_per_search"],
            "core.search.scenarios_skipped_frac":
                skipped / (skipped + scenarios_run)
                if skipped + scenarios_run else 0.0,
            "core.search.infeasible_frac": infeasible / len(sequence),
        }
        tracer.write(harness.OUT_DIR / "trace-plan_cold.json")
    return harness.result_doc(
        workload="plan_cold", quick=config["quick"], traced=traced,
        seed=config["seed"],
        setup_s=run.ready - config["t_spawn"],
        timed=run.blocks, probes=run.probes, peak_rss=peak_rss,
        errors=errors, exact=exact, layer=layer,
        diag={"infeasible_ops": infeasible}, tracer=tracer)
