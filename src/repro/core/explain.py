"""EXPLAIN for Cumulon plans: human-readable and graphviz renderings.

``explain_program`` prints the job DAG the way a database EXPLAIN prints an
operator tree — per job: template, task count, bytes in/out, flops, and
dependencies.  ``dag_to_dot`` emits Graphviz source for papers/notebooks.
``explain_plan`` summarizes a deployment plan end to end.  ``explain_trace``
and ``explain_trace_diff`` do the same for execution traces and
predicted-vs-actual comparisons, and ``explain_search`` for the optimizer's
deployment-space search telemetry.
"""

from __future__ import annotations

from repro.core.compiler import CompiledProgram
from repro.core.plans import DeploymentPlan
from repro.hadoop.job import Job, JobDag, JobKind
from repro.observability.diff import TraceDiff
from repro.observability.search import SearchTrace
from repro.observability.trace import STATUS_SUCCESS, Trace


def _human_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024 or unit == "TB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{value:.1f}TB"  # pragma: no cover - loop always returns


def _human_flops(count: int) -> str:
    value = float(count)
    for unit in ("", "K", "M", "G", "T"):
        if value < 1000 or unit == "T":
            return f"{value:.1f}{unit}F" if unit else f"{int(value)}F"
        value /= 1000
    return f"{value:.1f}TF"  # pragma: no cover - loop always returns


def explain_job(job: Job) -> str:
    """One-line summary of a job's shape and resource demands."""
    kind = "MAP" if job.kind is JobKind.MAP_ONLY else "MR "
    parts = [
        f"[{kind}] {job.job_id}",
        f"maps={len(job.map_tasks)}",
    ]
    if job.reduce_tasks:
        parts.append(f"reduces={len(job.reduce_tasks)}")
    if job.shuffle_bytes:
        parts.append(f"shuffle={_human_bytes(job.shuffle_bytes)}")
    parts.append(f"read={_human_bytes(job.total_bytes_read())}")
    parts.append(f"write={_human_bytes(job.total_bytes_written())}")
    parts.append(f"compute={_human_flops(job.total_flops())}")
    if job.label:
        parts.append(f"({job.label})")
    return " ".join(parts)


def explain_program(compiled: CompiledProgram) -> str:
    """Multi-line EXPLAIN of a compiled program."""
    lines = [f"program {compiled.program.name}: "
             f"{len(list(compiled.dag))} jobs, "
             f"{compiled.dag.num_tasks()} tasks"]
    for job in compiled.dag.topological_order():
        indent = "  " if not job.depends_on else "    "
        deps = (f" <- {', '.join(sorted(job.depends_on))}"
                if job.depends_on else "")
        lines.append(f"{indent}{explain_job(job)}{deps}")
    for name in compiled.program.outputs:
        info = compiled.output_info(name)
        lines.append(f"  output {name}: {info.shape[0]}x{info.shape[1]} "
                     f"as {info.name} ({_human_bytes(info.total_bytes())})")
    return "\n".join(lines)


def explain_plan(plan: DeploymentPlan) -> str:
    """Summary of a deployment decision."""
    lines = [
        f"deploy on {plan.spec.describe()}",
        f"  estimated time: {plan.estimated_seconds:.0f}s "
        f"({plan.estimated_seconds / 3600:.2f}h)",
        f"  estimated cost: ${plan.estimated_cost:.2f}",
        f"  multiply split: {plan.compiler_params.matmul}",
        f"  elementwise tiles/task: "
        f"{plan.compiler_params.elementwise.tiles_per_task}",
    ]
    if plan.tile_size:
        lines.append(f"  storage tile size: {plan.tile_size}")
    return "\n".join(lines)


def explain_trace(trace: Trace) -> str:
    """Multi-line summary of one execution trace (simulated or actual)."""
    task_events = trace.task_events()
    lines = [
        f"trace [{trace.source}]: {len(trace.events)} events, "
        f"{len(task_events)} task attempts, "
        f"makespan {trace.makespan:.3f}s"
    ]
    by_job: dict[str, list] = {}
    for event in task_events:
        by_job.setdefault(event.job_id, []).append(event)
    for job_id in sorted(by_job):
        events = by_job[job_id]
        ok = sum(1 for event in events if event.status == STATUS_SUCCESS)
        span_start = min(event.start for event in events)
        span_end = max(event.end for event in events)
        read = sum(event.bytes_read for event in events)
        written = sum(event.bytes_written for event in events)
        parts = [
            f"  {job_id}: {len(events)} attempts ({ok} ok)",
            f"span {span_end - span_start:.3f}s",
            f"read {_human_bytes(read)}",
            f"write {_human_bytes(written)}",
        ]
        lines.append(" ".join(parts))
    spans = trace.span_events()
    if spans:
        lines.append(f"  {len(spans)} profiling spans:")
        for event in sorted(spans, key=lambda item: item.start):
            lines.append(f"    {event.job_id}/{event.task_id}: "
                         f"{event.duration:.3f}s")
    return "\n".join(lines)


def explain_search(trace: SearchTrace) -> str:
    """Every candidate the deployment optimizer looked at, one per line.

    Candidates print in evaluation order with their predicted time/cost and
    verdict (frontier / dominated / pruned, plus feasibility when
    a constraint solver annotated them); the Pareto frontier, when marked,
    is listed again at the bottom in full, followed by the search's
    performance accounting (memo hit rate, scenarios skipped, wall clock)
    when the optimizer attached it.

    The header distinguishes "0 pruned" (pruning ran, nothing lost) from
    "pruning n/a" (no candidate ever had a sibling to lose to — e.g. a
    single-matmul search space).
    """
    pruned = trace.pruned()
    if not pruned and not getattr(trace, "pruning_applicable", True):
        pruned_part = "pruning n/a"
    else:
        pruned_part = f"{len(pruned)} pruned"
    lines = [
        f"search: {len(trace.records)} candidates priced ({pruned_part})"
    ]
    for record in trace.records:
        where = f"{record.instance} x{record.nodes} nodes x{record.slots} slots"
        label = f"  #{record.index:03d} [{record.origin}] {where}"
        if record.step is not None:
            label += f" step={record.step}"
        label += (f" tile={record.tile_size} matmul={record.matmul}: "
                  f"{record.predicted_seconds:.1f}s "
                  f"${record.predicted_cost:.2f}")
        lines.append(f"{label} [{record.annotation()}]")
    frontier = trace.frontier_plans()
    if frontier:
        lines.append(f"pareto frontier ({len(frontier)} plans):")
        for plan in frontier:
            lines.append(f"  {plan.spec.describe()}: "
                         f"{plan.estimated_seconds:.1f}s "
                         f"${plan.estimated_cost:.2f}")
    stats = getattr(trace, "stats", None)
    if stats is not None:
        lines.append(
            f"search performance: {stats.sims_executed}/{stats.sim_requests}"
            f" simulations run, {stats.cache_hits} memo hits "
            f"({stats.hit_rate * 100.0:.0f}% hit rate), "
            f"{stats.scenarios_skipped} scenarios skipped")
        lines.append(
            f"  wall={stats.wall_seconds:.2f}s "
            f"~{stats.estimated_speedup:.1f}x vs uncached")
        if stats.surrogate_rounds or stats.simulations_avoided:
            lines.append(
                f"  {stats.simulations_avoided} simulations avoided vs the "
                f"full grid, {stats.surrogate_rounds} model-guided "
                f"surrogate rounds")
    over_limit, behind = getattr(trace, "settled", (0, 0))
    if over_limit or behind:
        lines.append(
            f"  {over_limit + behind} specs settled by their floor "
            f"({over_limit} over the limit, {behind} behind the incumbent)")
    return "\n".join(lines)


def explain_trace_diff(diff: TraceDiff) -> str:
    """Predicted-vs-actual comparison, one line per job plus totals."""
    return diff.describe()


def dag_to_dot(dag: JobDag, name: str = "plan") -> str:
    """Graphviz source for a job DAG (render with ``dot -Tpng``)."""
    lines = [f'digraph "{name}" {{', "  rankdir=TB;",
             "  node [shape=box, fontname=monospace];"]
    for job in dag.topological_order():
        shape_color = ("lightblue" if job.kind is JobKind.MAP_ONLY
                       else "lightsalmon")
        label = (f"{job.job_id}\\n{len(job.map_tasks)}m"
                 + (f"+{len(job.reduce_tasks)}r" if job.reduce_tasks else ""))
        lines.append(f'  "{job.job_id}" [label="{label}", '
                     f'style=filled, fillcolor={shape_color}];')
    for job in dag.topological_order():
        for dep in sorted(job.depends_on):
            lines.append(f'  "{dep}" -> "{job.job_id}";')
    lines.append("}")
    return "\n".join(lines)
