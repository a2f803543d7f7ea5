"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``catalog``
    Print the cloud instance catalog the optimizer searches.
``explain WORKLOAD``
    Compile a named workload and print its job-DAG EXPLAIN (or Graphviz
    source with ``--dot``, or the optimizer's full candidate-by-candidate
    search telemetry with ``--search``).
``simulate WORKLOAD --instance TYPE --nodes N --slots S``
    Predict the workload's wall-clock on one specific cluster.
``optimize WORKLOAD (--deadline MIN | --budget USD)``
    Search the deployment space and print the chosen plan.
``trace WORKLOAD [--format chrome|summary] [--diff]``
    Emit the workload's execution trace (simulated; with ``--diff`` also a
    real local run, aligned task by task against the prediction).
``profile WORKLOAD [--backend thread|process] [--top N]``
    Run the workload for real (use ``--scale tiny``) and print where the
    wall time went: top kernel plans by cumulative time, top task groups,
    and per-lane utilization.  With ``--backend process`` the plan rows
    come from worker-side spans and a coverage line reports how much of
    the wall time they account for.
``metrics WORKLOAD [--format prom|json|dashboard]``
    Simulate the workload with telemetry on and emit the collected metrics
    (Prometheus text, JSON, or an ASCII dashboard with sparklines).
``chaos WORKLOAD --scenario node-crash|revocation-wave|flaky-tasks``
    Run the workload under a seeded failure scenario and report the damage
    (recovery overhead, nodes lost, re-executed tasks, re-replication
    traffic); ``--trace-out`` / ``--metrics-out`` capture the recovery in
    the unified trace/metrics schemas, ``--advise-checkpoint`` prints the
    spot-market checkpoint-interval advice.

``submit SCRIPT WORKLOAD --tenant NAME``
    Append a timed job submission (creating the script file on first use)
    to a JSON submission script for the multi-tenant job service.
``serve SCRIPT``
    Replay a submission script on the shared-cluster job service and
    print the per-tenant report (latency percentiles, fairness, dollars).
    ``--journal DIR`` makes the run crash-safe via a write-ahead journal
    (``--snapshot-every`` compacts it, ``--fsync-every`` batches syncs);
    ``--recover`` resumes a journaled run after a crash (the SIGKILL
    rig of benchmarks E25/E26, ``benchmarks/rigs.py``, proves recovery
    loses and double-bills nothing).
``serve --listen SOCK``
    Run the service as a live wall-clock socket server: streaming NDJSON
    submissions over a unix socket (or ``HOST:PORT``), batched admission
    per scheduler tick, group-committed journal writes, graceful drain
    (see docs/serving.md).  ``--time-scale`` maps wall seconds to
    virtual cluster seconds.

``trace`` and ``metrics`` also accept ``--scenario``/``--chaos-seed`` to
inject the same seeded failures into their simulated runs.

Shared flags are hoisted into parent parsers so every command spells them
the same way: ``--scenario``/``--chaos-seed`` (failure injection),
``--workers``/``--backend`` (executor threads and backend, on ``trace``
and ``profile`` only), ``--instance``/``--nodes``/``--slots`` (cluster
shape), the ``WORKLOAD``/``--scale`` pair, and ``--json``
(machine-readable output) which **every** subcommand honors: under
``--json`` stdout is exactly one JSON document, and a command that
writes files (``--out``, ``--trace-out``, ``--metrics-out``) names them
in its ``wrote`` object.

Workloads are the paper's evaluation programs at preset scales
(``--scale tiny|small|medium|large``; ``tiny`` is sized for real local
execution with ``trace --diff``).
"""

from __future__ import annotations

import argparse
import json as _json
import sys
from pathlib import Path

from repro.cloud.instances import EC2_CATALOG, ClusterSpec, get_instance_type
from repro.cloud.spot import SpotMarket
from repro.core.advisor import advise_checkpoint_interval
from repro.core.chaos import (
    RECOVERY_RESTART,
    RECOVERY_RESUME,
    SCENARIOS,
    inject_scenario,
    run_chaos,
)
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.executor import CumulonExecutor
from repro.core.explain import (
    dag_to_dot,
    explain_plan,
    explain_program,
    explain_search,
    explain_trace,
)
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.physical import PhysicalContext
from repro.core.search import METHODS, SearchSpec, search
from repro.core.simcost import simulate_program
from repro.errors import InfeasibleConstraintError, ReproError
from repro.observability.cost import CostMeter
from repro.observability.diff import trace_diff
from repro.observability.export import chrome_trace_json
from repro.observability.metrics import NULL_METRICS, MetricsRegistry
from repro.observability.metrics_export import (
    metrics_to_json,
    render_dashboard,
    to_prometheus,
)
from repro.observability.search import SearchTrace
from repro.observability.trace import (
    NULL_RECORDER,
    SOURCE_ACTUAL,
    SOURCE_SIMULATED,
    InMemoryRecorder,
)
from repro.service.scheduler import POLICIES, POLICY_FAIR
from repro.workloads.catalog import SCALES, WORKLOAD_NAMES, build_workload


def package_version() -> str:
    """The installed distribution version, falling back to the source tree."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("repro")
    except PackageNotFoundError:
        import repro
        return repro.__version__


def emit_json(document, out) -> int:
    """Print ``document`` as pretty JSON (the ``--json`` output path)."""
    print(_json.dumps(document, indent=2, sort_keys=True), file=out)
    return 0


def _say_wrote(args, out, kind: str, path: str, text: str) -> None:
    """Report one written file: ``{"wrote": {kind: path}}`` under
    ``--json``, else the human-readable ``text``."""
    if args.json:
        emit_json({"wrote": {kind: path}}, out)
    else:
        print(text, file=out)


def _write_out(path: str, text: str) -> None:
    """Write ``text`` to an ``--out``-style path; failures exit 1 cleanly."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as error:
        raise ReproError(f"cannot write {path}: {error}") from error


def cmd_catalog(args, out) -> int:
    if args.json:
        return emit_json([
            {"name": instance.name, "cores": instance.cores,
             "memory_gb": instance.memory_gb,
             "disk_MBps": instance.disk_bandwidth / 2**20,
             "network_MBps": instance.network_bandwidth / 2**20,
             "core_speed": instance.core_speed,
             "price_per_hour": instance.price_per_hour}
            for instance in EC2_CATALOG.values()
        ], out)
    print(f"{'name':<12} {'cores':>5} {'mem_gb':>7} {'disk_MBps':>10} "
          f"{'net_MBps':>9} {'speed':>6} {'$/hour':>7}", file=out)
    for instance in EC2_CATALOG.values():
        print(f"{instance.name:<12} {instance.cores:>5} "
              f"{instance.memory_gb:>7.1f} "
              f"{instance.disk_bandwidth / 2**20:>10.0f} "
              f"{instance.network_bandwidth / 2**20:>9.0f} "
              f"{instance.core_speed:>6.2f} "
              f"{instance.price_per_hour:>7.3f}", file=out)
    return 0


def _parse_list(text: str, label: str, convert=str) -> tuple:
    """Parse a comma-separated CLI option into a tuple of values."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ReproError(f"--{label} needs at least one value")
    try:
        return tuple(convert(item) for item in items)
    except ValueError as error:
        raise ReproError(f"bad --{label} value: {error}") from error


def build_search_space(args) -> SearchSpace:
    """A (possibly restricted) deployment grid from CLI options."""
    kwargs = {}
    if getattr(args, "instances", None):
        names = _parse_list(args.instances, "instances")
        kwargs["instance_types"] = tuple(get_instance_type(name)
                                         for name in names)
    if getattr(args, "node_counts", None):
        kwargs["node_counts"] = _parse_list(args.node_counts, "node-counts",
                                            int)
    if getattr(args, "slot_options", None):
        kwargs["slots_options"] = _parse_list(args.slot_options,
                                              "slot-options", int)
    return SearchSpace(**kwargs)


def build_search_spec(args, space: SearchSpace) -> SearchSpec:
    """A declarative :class:`SearchSpec` from the shared search flags.

    The objective defaults to whichever constraint was given
    (``--deadline`` implies min-cost, ``--budget`` implies min-time);
    an explicit ``--objective`` must agree with its constraint.
    """
    deadline = getattr(args, "deadline", None)
    budget = getattr(args, "budget", None)
    objective = getattr(args, "objective", None)
    if objective is None:
        objective = "min-time" if budget is not None else "min-cost"
    if objective == "min-cost" and deadline is None:
        raise ReproError("--objective min-cost needs --deadline")
    if objective == "min-time" and budget is None:
        raise ReproError("--objective min-time needs --budget")
    return SearchSpec(
        objective=objective,
        method=getattr(args, "method", "exhaustive"),
        deadline_seconds=(deadline * 60.0 if objective == "min-cost"
                          else None),
        budget_dollars=budget if objective == "min-time" else None,
        space=space)


def cmd_explain(args, out) -> int:
    program, tile = build_workload(args.workload, args.scale)
    stats = None
    if args.search:
        trace = SearchTrace()
        optimizer = DeploymentOptimizer(program, tile_size=tile,
                                        search_trace=trace)
        space = build_search_space(args)
        if args.method == "surrogate":
            if args.deadline is None and args.budget is None:
                raise ReproError("--method surrogate needs --deadline "
                                 "or --budget")
            try:
                search(optimizer, build_search_spec(args, space))
            except InfeasibleConstraintError:
                pass  # the trace still shows every candidate it priced
        else:
            optimizer.skyline(space)
            if args.deadline is not None:
                trace.mark_deadline(args.deadline * 60.0)
            elif args.budget is not None:
                trace.mark_budget(args.budget)
        stats = optimizer.last_search_stats
        document = explain_search(trace)
    else:
        compiled = compile_program(program, PhysicalContext(tile))
        if args.dot:
            document = dag_to_dot(compiled.dag, name=program.name)
        else:
            document = explain_program(compiled)
    if args.json:
        payload = {"workload": args.workload, "scale": args.scale,
                   "explain": document}
        if stats is not None:
            payload["search_stats"] = stats.to_dict()
        return emit_json(payload, out)
    print(document, file=out)
    return 0


def cmd_simulate(args, out) -> int:
    program, tile = build_workload(args.workload, args.scale)
    spec = ClusterSpec(get_instance_type(args.instance), args.nodes,
                       args.slots)
    compiled = compile_program(program, PhysicalContext(tile))
    estimate = simulate_program(compiled.dag, spec, CumulonCostModel())
    if args.json:
        return emit_json({"workload": args.workload, "scale": args.scale,
                          "cluster": spec.describe(),
                          "estimated_seconds": estimate.seconds}, out)
    print(estimate.describe(), file=out)
    return 0


def cmd_optimize(args, out) -> int:
    program, tile = build_workload(args.workload, args.scale)
    optimizer = DeploymentOptimizer(program, tile_size=tile)
    if any(getattr(args, name, None)
           for name in ("instances", "node_counts", "slot_options")):
        space = build_search_space(args)
    else:
        # The historical default grid for this command.
        space = SearchSpace(node_counts=(1, 2, 4, 8, 16, 32),
                            slots_options=(1, 2, 4, 8))
    result = search(optimizer, build_search_spec(args, space))
    plan = result.plan
    if result.objective == "min-cost":
        headline = f"cheapest plan within {args.deadline:g} min:"
    else:
        headline = f"fastest plan within ${args.budget:.2f}:"
    if args.json:
        return emit_json({
            "workload": args.workload, "scale": args.scale,
            "constraint": ({"deadline_minutes": args.deadline}
                           if result.objective == "min-cost"
                           else {"budget_dollars": args.budget}),
            "objective": result.objective,
            "method": result.method,
            "cluster": plan.spec.describe(),
            "tile_size": plan.tile_size,
            "estimated_seconds": plan.estimated_seconds,
            "estimated_cost": plan.estimated_cost,
            "search_stats": result.stats.to_dict(),
        }, out)
    print(headline, file=out)
    print(explain_plan(plan), file=out)
    if result.method == "surrogate":
        print(f"surrogate search: {result.stats.sim_requests} simulations "
              f"({result.stats.simulations_avoided} avoided, "
              f"{result.stats.surrogate_rounds} model-guided rounds)",
              file=out)
    return 0


def _workload_input_files(program) -> dict[str, int]:
    """Virtual HDFS input files for a program (8 bytes per matrix cell)."""
    return {
        f"/input/{name}": var.shape[0] * var.shape[1] * 8
        for name, var in program.inputs.items()
    }


def _chaos_injection(args, program, dag, spec, model):
    """(failures, node_failures, namenode) for --scenario, else Nones."""
    if not getattr(args, "scenario", None):
        return None, None, None
    return inject_scenario(dag, spec, model, args.scenario, args.chaos_seed,
                           _workload_input_files(program))[1:]


def cmd_trace(args, out) -> int:
    program, tile = build_workload(args.workload, args.scale)
    spec = ClusterSpec(get_instance_type(args.instance), args.nodes,
                       args.slots)
    if args.diff and getattr(args, "scenario", None):
        raise ReproError("--diff and --scenario cannot be combined: a real "
                         "local run has no simulated node failures")
    model = CumulonCostModel()
    sim_recorder = InMemoryRecorder(source=SOURCE_SIMULATED)
    compiled = compile_program(program, PhysicalContext(tile))
    failures, node_failures, namenode = _chaos_injection(
        args, program, compiled.dag, spec, model)
    simulate_program(compiled.dag, spec, model,
                     recorder=sim_recorder,
                     failures=failures, node_failures=node_failures,
                     namenode=namenode)
    traces = [sim_recorder.trace()]
    diff_text = None
    if args.diff:
        import numpy as np

        rng = np.random.default_rng(7)
        inputs = {name: rng.random(var.shape) * 0.9 + 0.1
                  for name, var in program.inputs.items()}
        actual_recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
        with CumulonExecutor(tile_size=tile, max_workers=args.workers,
                             recorder=actual_recorder,
                             backend=args.backend) as executor:
            executor.run(program, inputs)
        traces.append(actual_recorder.trace())
        diff_text = trace_diff(traces[0], traces[1]).describe()
    if args.json:
        args.format = "chrome"  # --json means the machine-readable format
    if args.format == "chrome":
        document = chrome_trace_json(traces, indent=2)
    else:
        document = "\n\n".join(explain_trace(trace) for trace in traces)
    if args.out:
        _write_out(args.out, document)
        _say_wrote(args, out, "trace", args.out,
                   f"wrote {args.format} trace ({len(traces)} trace(s)) "
                   f"to {args.out}")
    else:
        print(document, file=out)
    if diff_text is not None:
        if args.format == "summary" or (args.out and not args.json):
            print(diff_text, file=out)
        else:
            # Keep stdout a valid chrome/JSON document; the
            # human-facing diff report goes to stderr.
            print(diff_text, file=sys.stderr)
    return 0


def cmd_profile(args, out) -> int:
    """Run a workload for real and print the execution profile.

    The profile is the rolled-up "where did the wall time go" view: top
    kernel plans by cumulative time, top task groups, and per-lane
    utilization.  With ``--backend process`` the kernel-plan rows come
    from worker-side spans shipped across the process boundary, and the
    coverage line reports how much of the execution-only wall time those
    spans account for.
    """
    import numpy as np

    from repro.observability.profiling import profile_trace, render_profile

    program, tile = build_workload(args.workload, args.scale)
    rng = np.random.default_rng(7)
    inputs = {name: rng.random(var.shape) * 0.9 + 0.1
              for name, var in program.inputs.items()}
    recorder = InMemoryRecorder(source=SOURCE_ACTUAL)
    registry = MetricsRegistry()
    with CumulonExecutor(tile_size=tile, max_workers=args.workers,
                         recorder=recorder, metrics=registry,
                         backend=args.backend) as executor:
        result = executor.run(program, inputs)
    profile = profile_trace(recorder.trace(),
                            wall_seconds=result.report.total_seconds,
                            registry=registry)
    if args.json:
        payload = profile.to_document()
        payload.update({"workload": args.workload, "scale": args.scale,
                        "backend": args.backend, "workers": args.workers})
        document = _json.dumps(payload, indent=2, sort_keys=True)
    else:
        header = (f"{args.workload}/{args.scale} on backend="
                  f"{args.backend} ({args.workers} workers)")
        document = f"{header}\n{render_profile(profile, top=args.top)}"
    if args.out:
        _write_out(args.out, document + "\n")
        _say_wrote(args, out, "profile", args.out,
                   f"wrote profile to {args.out}")
    else:
        print(document, file=out)
    return 0


def cmd_metrics(args, out) -> int:
    program, tile = build_workload(args.workload, args.scale)
    spec = ClusterSpec(get_instance_type(args.instance), args.nodes,
                       args.slots)
    if args.json:
        args.format = "json"  # --json means the machine-readable format
    registry = MetricsRegistry()
    cost_meter = None
    if args.budget is not None or args.deadline is not None:
        deadline = args.deadline * 60.0 if args.deadline is not None else None
        cost_meter = CostMeter(spec, budget_dollars=args.budget,
                               deadline_seconds=deadline, registry=registry)
    compiled = compile_program(program, PhysicalContext(tile),
                               metrics=registry)
    model = CumulonCostModel()
    failures, node_failures, namenode = _chaos_injection(
        args, program, compiled.dag, spec, model)
    estimate = simulate_program(compiled.dag, spec, model,
                                metrics=registry, cost_meter=cost_meter,
                                failures=failures,
                                node_failures=node_failures,
                                namenode=namenode)
    if args.format == "prom":
        document = to_prometheus(registry)
    elif args.format == "json":
        extra = {"workload": args.workload, "scale": args.scale,
                 "cluster": spec.describe(),
                 "makespan_seconds": estimate.seconds}
        if cost_meter is not None:
            extra["cost"] = cost_meter.summary()
        document = metrics_to_json(registry, indent=2, extra=extra)
    else:
        document = render_dashboard(registry)
    if args.out:
        _write_out(args.out, document)
        _say_wrote(args, out, "metrics", args.out,
                   f"wrote {args.format} metrics to {args.out}")
    else:
        print(document, file=out)
    if cost_meter is not None and not args.json:
        # (with --json the cost summary is already inside the document)
        print(cost_meter.describe(), file=out)
    return 0


def cmd_chaos(args, out) -> int:
    program, tile = build_workload(args.workload, args.scale)
    searched = None
    if args.deadline is not None or args.budget is not None:
        # The shared search flags pick the cluster instead of
        # --instance/--nodes/--slots: run the (failure-free) optimizer,
        # then stress the chosen deployment under the scenario.
        optimizer = DeploymentOptimizer(program, tile_size=tile)
        searched = search(optimizer,
                          build_search_spec(args, build_search_space(args)))
        spec = searched.plan.spec
    else:
        spec = ClusterSpec(get_instance_type(args.instance), args.nodes,
                           args.slots)
    compiled = compile_program(program, PhysicalContext(tile))
    recorder = (InMemoryRecorder(source=SOURCE_SIMULATED)
                if args.trace_out else None)
    registry = MetricsRegistry() if args.metrics_out else None
    report = run_chaos(
        compiled.dag, spec, CumulonCostModel(),
        scenario=args.scenario, seed=args.chaos_seed,
        recovery=args.recovery,
        input_files=_workload_input_files(program),
        min_live_nodes=args.min_live_nodes,
        recorder=recorder if recorder is not None else NULL_RECORDER,
        metrics=registry if registry is not None else NULL_METRICS)
    if not args.json:
        if searched is not None:
            print(f"optimizer chose {spec.describe()} "
                  f"({searched.method} {searched.objective})", file=out)
        print(report.describe(), file=out)
    wrote = {}
    if args.trace_out:
        _write_out(args.trace_out,
                   chrome_trace_json([recorder.trace()], indent=2))
        wrote["trace"] = args.trace_out
        if not args.json:
            print(f"wrote chrome trace to {args.trace_out}", file=out)
    if args.metrics_out:
        extra = {"workload": args.workload, "scale": args.scale,
                 "scenario": args.scenario, "seed": args.chaos_seed,
                 "recovery": args.recovery,
                 "cluster": spec.describe(),
                 "completed": report.completed,
                 "baseline_seconds": report.baseline_seconds,
                 "makespan_seconds": (report.makespan_seconds
                                      if report.completed else None)}
        _write_out(args.metrics_out,
                   metrics_to_json(registry, indent=2, extra=extra))
        wrote["metrics"] = args.metrics_out
        if not args.json:
            print(f"wrote json metrics to {args.metrics_out}", file=out)
    if args.json:
        payload = {
            "workload": args.workload, "scale": args.scale,
            "scenario": report.scenario, "seed": report.seed,
            "recovery": report.recovery, "cluster": spec.describe(),
            "completed": report.completed,
            "baseline_seconds": report.baseline_seconds,
            "makespan_seconds": (report.makespan_seconds
                                 if report.completed else None),
            "nodes_lost": len(report.nodes_lost),
            "attempts_lost": report.attempts_lost,
            "reexecuted_tasks": report.reexecuted_tasks,
            "rereplicated_bytes": report.rereplicated_bytes,
            "abort_reason": report.abort_reason,
        }
        if searched is not None:
            payload["search"] = searched.to_dict()
        if wrote:
            payload["wrote"] = wrote
        emit_json(payload, out)
    if args.advise_checkpoint and not args.json:
        advice = advise_checkpoint_interval(
            SpotMarket(), bid_fraction=0.35,
            checkpoint_seconds=max(1.0, 0.02 * report.baseline_seconds),
            work_seconds=report.baseline_seconds)
        print(advice.describe(), file=out)
    return 0 if report.completed else 1


def _load_script_or_die(load_script, path: Path) -> dict:
    """Load a submission script, mapping I/O and syntax errors to CLI errors."""
    try:
        return load_script(path)
    except OSError as error:
        raise ReproError(f"cannot read {path}: {error}") from error
    except _json.JSONDecodeError as error:
        raise ReproError(f"{path} is not valid JSON: {error}") from error


def cmd_submit(args, out) -> int:
    """Append one timed job to a JSON submission script (creating it)."""
    from repro.service.script import load_script, save_script

    path = Path(args.script)
    if path.exists():
        script = _load_script_or_die(load_script, path)
    else:
        script = {
            "cluster": {"instance": args.instance, "nodes": args.nodes,
                        "slots_per_node": args.slots},
            "policy": args.policy if args.policy else POLICY_FAIR,
            "tenants": [],
            "jobs": [],
        }
    tenant = next((entry for entry in script["tenants"]
                   if entry["name"] == args.tenant), None)
    if tenant is None:
        tenant = {"name": args.tenant}
        script["tenants"].append(tenant)
    if args.budget is not None:
        tenant["budget_dollars"] = args.budget
    if args.deadline is not None:
        tenant["deadline_seconds"] = args.deadline * 60.0
    if args.weight is not None:
        tenant["weight"] = args.weight
    job = {"tenant": args.tenant, "workload": args.workload,
           "scale": args.scale, "submit_at": args.submit_at}
    script["jobs"].append(job)
    save_script(script, path)
    pending = None
    if getattr(args, "journal", None):
        # Report how much of the (updated) script a journaled service at
        # --journal has already made durable, and how much `serve
        # --recover` would pick up fresh.  Only submissions carrying a
        # script_index are this script's jobs.
        from repro.service.durability import read_store
        from repro.service.jobs import EV_SUBMIT

        state = read_store(Path(args.journal))
        durable = {(doc.get("source") or {}).get("script_index")
                   for doc in (state.snapshot or {}).get("jobs", [])
                   + [r for r in state.tail if r.get("ev") == EV_SUBMIT]}
        pending = sum(index not in durable
                      for index in range(len(script["jobs"])))
    if args.json:
        document = {"script": str(path), "jobs": len(script["jobs"]),
                    "tenants": [entry["name"]
                                for entry in script["tenants"]],
                    "appended": job}
        if pending is not None:
            document["journal_pending_jobs"] = pending
        return emit_json(document, out)
    print(f"queued {args.workload}/{args.scale} for tenant "
          f"{args.tenant!r} at t={args.submit_at:g}s "
          f"({len(script['jobs'])} job(s) in {path})", file=out)
    if pending is not None:
        print(f"  journal {args.journal}: serve --recover would submit "
              f"{pending} job(s) not yet durable", file=out)
    return 0


def _durable_start(args, script):
    """Open ``--journal DIR`` for a serve run; returns ``(service, store)``.

    With ``--recover`` the journal is replayed into a running service
    (its store already attached) and the script's not-yet-durable jobs
    are re-submitted: ``(service, None)``.  Otherwise DIR must be fresh
    and the caller builds its service on the new store: ``(None, store)``.
    """
    import os

    from repro.service.durability import (
        KILL_AFTER_ENV,
        DurabilityStore,
        recover,
    )
    from repro.service.script import submit_script_jobs

    journal_dir = Path(args.journal)
    if args.recover:
        service = recover(journal_dir, fsync_every=args.fsync_every,
                          snapshot_every=args.snapshot_every)
        if script is not None:
            submit_script_jobs(service, script)
        return service, None
    store = DurabilityStore(
        journal_dir, fsync_every=args.fsync_every,
        snapshot_every=args.snapshot_every,
        kill_after=int(os.environ.get(KILL_AFTER_ENV, "0") or 0))
    if store.has_state():
        raise ReproError(
            f"{journal_dir} already holds journaled service "
            f"state; pass --recover to resume it")
    return None, store


def cmd_serve(args, out) -> int:
    """Replay a submission script on the job service and report.

    With ``--journal DIR`` the run is crash-safe: every service event
    lands in a write-ahead journal under DIR (snapshot-compacted every
    ``--snapshot-every`` records, fsynced every ``--fsync-every``), and
    ``--recover`` resumes a previous journaled run after a crash —
    replaying the journal, re-submitting whatever was never durable, and
    draining to the same schedule and bills the uninterrupted run
    produces.

    With ``--listen`` the service instead runs as a live wall-clock
    socket server accepting streaming NDJSON submissions (see
    :mod:`repro.service.server` and docs/serving.md); the script becomes
    optional seed state.
    """
    from repro.service.script import (
        build_service,
        load_script,
        run_script,
        submit_script_jobs,
    )

    script = (_load_script_or_die(load_script, Path(args.script))
              if args.script else None)
    if script is not None and args.policy:
        script["policy"] = args.policy
    if args.listen:
        return _cmd_serve_listen(args, out, script)
    if script is None and not (args.journal and args.recover):
        raise ReproError(
            "serve needs a submission script (or --listen for the socket "
            "server, or --journal DIR --recover to finish a crashed run)")
    service = None
    if args.journal:
        service, store = _durable_start(args, script)
        if service is None:
            service = build_service(script, store=store)
            submit_script_jobs(service, script)
        service.drain()
        report = service.report()
        service.close_durability()
        jobs = [{"job_id": record.job_id, "state": record.state}
                for record in sorted(service.jobs.values(),
                                     key=lambda record: record.order)]
    else:
        report, handles = run_script(script)
        jobs = [{"job_id": handle.job_id, "state": handle.status}
                for handle in handles]
    if args.json:
        document = report.summary()
        document["jobs"] = jobs
        if service is not None and service.journal is not None:
            document["journal"] = service.journal.stats()
        if service is not None and service.recovery is not None:
            document["recovery"] = {
                "commands_replayed": service.recovery.commands_replayed,
                "decisions_replayed": service.recovery.decisions_replayed,
                "decisions_repriced": service.recovery.decisions_repriced,
                "truncated_bytes": service.recovery.truncated_bytes,
                "wall_seconds": service.recovery.wall_seconds,
            }
        return emit_json(document, out)
    if service is not None and service.recovery is not None:
        print(service.recovery.describe(), file=out)
    print(report.describe(), file=out)
    for job in jobs:
        print(f"  {job['job_id']}: {job['state']}", file=out)
    if service is not None and service.journal is not None:
        stats = service.journal.stats()
        print(f"  journal: {stats['records']} record(s), "
              f"{stats['bytes']}B, {stats['fsyncs']} fsync(s)", file=out)
    return 0


def _cmd_serve_listen(args, out, script) -> int:
    """Run the wall-clock socket server until a ``shutdown`` frame;
    ``script`` (optional) seeds the service before it starts listening."""
    from repro.service.jobs import JobService
    from repro.service.script import build_service, submit_script_jobs
    from repro.service.server import ReproServer

    service = store = None
    if args.journal:
        service, store = _durable_start(args, script)
    if service is None:
        if script is not None:
            service = build_service(script, store=store)
            submit_script_jobs(service, script)
        else:
            spec = ClusterSpec(get_instance_type(args.instance),
                               args.nodes, args.slots)
            service = JobService(spec, policy=args.policy or POLICY_FAIR)
            if store is not None:
                service.attach_durability(store)
    server = ReproServer(service, args.listen,
                         tick_interval=args.tick_interval,
                         max_batch=args.max_batch,
                         max_wait=args.max_wait,
                         time_scale=args.time_scale)
    if not args.json:
        print(f"listening on {args.listen} (wall clock, time-scale "
              f"{args.time_scale:g}x, tick {args.tick_interval:g}s, "
              f"batch <= {args.max_batch})", file=out, flush=True)
    server.run()
    report = server.report()
    if args.json:
        return emit_json(report, out)
    stats = report["server"]
    tick = stats["tick_seconds"]
    accept = stats["accept_seconds"]
    print(f"served {stats['submissions']} submission(s) over "
          f"{stats['connections']} connection(s): {stats['accepted']} "
          f"accepted, {stats['rejected']} rejected, "
          f"{stats['results_sent']} result(s) delivered", file=out)
    if accept.get("count"):
        print(f"  admission latency p50 {accept['p50'] * 1e3:.1f}ms / "
              f"p99 {accept['p99'] * 1e3:.1f}ms", file=out)
    if tick.get("count"):
        print(f"  {stats['ticks']} tick(s), p50 {tick['p50'] * 1e3:.1f}ms "
              f"/ p99 {tick['p99'] * 1e3:.1f}ms, {stats['group_commits']} "
              f"group commit(s), max batch {stats['max_batch_seen']}",
              file=out)
    if "journal" in report:
        journal = report["journal"]
        print(f"  journal: {journal['records']} record(s), "
              f"{journal['bytes']}B, {journal['fsyncs']} fsync(s)",
              file=out)
    return 0


def _json_parent() -> argparse.ArgumentParser:
    """Parent parser: ``--json``, honored by every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    return parent


def _workload_parent() -> argparse.ArgumentParser:
    """Parent parser: the ``WORKLOAD --scale`` pair."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("workload", help=" | ".join(WORKLOAD_NAMES))
    parent.add_argument("--scale", default="medium", choices=sorted(SCALES))
    return parent


def _cluster_parent() -> argparse.ArgumentParser:
    """Parent parser: the cluster shape (``--instance/--nodes/--slots``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--instance", default="m1.large",
                        help="instance type (see `repro catalog`)")
    parent.add_argument("--nodes", type=int, default=8)
    parent.add_argument("--slots", type=int, default=2,
                        help="task slots per node")
    return parent


def _chaos_parent(required: bool = False) -> argparse.ArgumentParser:
    """Parent parser: seeded failure injection (``--scenario/--chaos-seed``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--scenario", required=required,
                        default=None, choices=tuple(SCENARIOS),
                        help="inject a seeded failure scenario into the "
                             "simulated run")
    parent.add_argument("--chaos-seed", dest="chaos_seed", type=int,
                        default=0,
                        help="scenario seed (same seed = same failures)")
    return parent


def _search_parent(require_constraint: bool = False
                   ) -> argparse.ArgumentParser:
    """Parent parser: the declarative deployment-search spec.

    One spelling for every command that runs the optimizer: the method
    (``--method exhaustive|surrogate``), the objective (inferred from
    whichever of ``--deadline``/``--budget`` is given, or forced with
    ``--objective``), and the grid restriction flags.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--method", choices=METHODS, default="exhaustive",
                        help="how to search the deployment grid: price "
                             "every candidate (exhaustive) or let a "
                             "surrogate model pick candidates (surrogate)")
    parent.add_argument("--objective", choices=("min-cost", "min-time"),
                        default=None,
                        help="search objective (default: min-cost with "
                             "--deadline, min-time with --budget)")
    group = parent.add_mutually_exclusive_group(required=require_constraint)
    group.add_argument("--deadline", type=float, default=None,
                       help="deadline in minutes (objective min-cost)")
    group.add_argument("--budget", type=float, default=None,
                       help="budget in dollars (objective min-time)")
    parent.add_argument("--instances", default=None,
                        help="comma-separated instance types to search "
                             "(default: full catalog)")
    parent.add_argument("--node-counts", dest="node_counts", default=None,
                        help="comma-separated cluster sizes to search")
    parent.add_argument("--slot-options", dest="slot_options", default=None,
                        help="comma-separated slots-per-node options")
    return parent


def _workers_parent() -> argparse.ArgumentParser:
    """Parent parser: how ``trace`` and ``profile`` run the executor."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workers", type=int, default=2,
                        help="executor threads for the real run "
                             "(default 2)")
    parent.add_argument("--backend", choices=["thread", "process"],
                        default="thread",
                        help="local execution backend for real runs: "
                             "'thread' (default) or 'process' (kernel "
                             "worker pool over shared memory)")
    return parent


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cumulon reproduction: matrix programs in the cloud.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    as_json = _json_parent()
    workload = _workload_parent()
    cluster = _cluster_parent()
    chaos_injection = _chaos_parent()
    workers = _workers_parent()

    subparsers.add_parser("catalog", parents=[as_json],
                          help="print the instance catalog")

    explain = subparsers.add_parser("explain",
                                    parents=[workload, _search_parent(),
                                             as_json],
                                    help="EXPLAIN a workload")
    explain.add_argument("--dot", action="store_true",
                         help="emit Graphviz source instead of text")
    explain.add_argument("--search", action="store_true",
                         help="run the deployment optimizer and print every "
                              "candidate it evaluated (the search flags "
                              "--method/--objective/--deadline/--budget and "
                              "the grid restrictions apply)")

    subparsers.add_parser(
        "simulate", parents=[workload, cluster, as_json],
        help="predict wall-clock on one cluster")

    subparsers.add_parser(
        "optimize",
        parents=[workload, _search_parent(require_constraint=True),
                 as_json],
        help="search deployments under a constraint")

    trace = subparsers.add_parser(
        "trace", parents=[workload, cluster, chaos_injection, workers,
                          as_json],
        help="emit an execution trace (chrome://tracing or summary)")
    trace.add_argument("--format", default="chrome",
                       choices=("chrome", "summary"))
    trace.add_argument("--out", default=None,
                       help="write the trace to this file instead of stdout")
    trace.add_argument("--diff", action="store_true",
                       help="also run the workload for real (use --scale "
                            "tiny) and report predicted-vs-actual error")

    profile = subparsers.add_parser(
        "profile", parents=[workload, workers, as_json],
        help="run a workload for real (use --scale tiny) and print where "
             "the wall time went")
    profile.add_argument("--top", type=int, default=10,
                         help="rows per table (top plans / task groups)")
    profile.add_argument("--out", default=None,
                         help="write the profile to this file instead of "
                              "stdout")

    metrics = subparsers.add_parser(
        "metrics", parents=[workload, cluster, chaos_injection, as_json],
        help="simulate with telemetry on and emit the metrics")
    metrics.add_argument("--format", default="dashboard",
                         choices=("prom", "json", "dashboard"))
    metrics.add_argument("--out", default=None,
                         help="write metrics to this file instead of stdout")
    metrics.add_argument("--budget", type=float, default=None,
                         help="watch spend against this budget in dollars")
    metrics.add_argument("--deadline", type=float, default=None,
                         help="watch elapsed time against this deadline "
                              "in minutes")

    chaos = subparsers.add_parser(
        "chaos", parents=[workload, cluster, _search_parent(),
                          _chaos_parent(required=True), as_json],
        help="run a workload under a seeded failure scenario")
    chaos.add_argument("--seed", dest="chaos_seed", type=int,
                       default=argparse.SUPPRESS,
                       help="alias for --chaos-seed")
    chaos.add_argument("--recovery", default=RECOVERY_RESUME,
                       choices=(RECOVERY_RESUME, RECOVERY_RESTART),
                       help="resume on survivors (checkpoint-by-HDFS) or "
                            "restart the whole run from scratch")
    chaos.add_argument("--min-live-nodes", dest="min_live_nodes", type=int,
                       default=1, help="abort below this many live nodes")
    chaos.add_argument("--trace-out", dest="trace_out", default=None,
                       help="write a chrome trace of the chaos run here")
    chaos.add_argument("--metrics-out", dest="metrics_out", default=None,
                       help="write json metrics of the chaos run here")
    chaos.add_argument("--advise-checkpoint", dest="advise_checkpoint",
                       action="store_true",
                       help="also print the spot-market checkpoint-interval "
                            "advice for this workload")

    submit = subparsers.add_parser(
        "submit", parents=[cluster, as_json],
        help="append a timed job to a service submission script")
    submit.add_argument("script",
                        help="JSON submission script (created on first use; "
                             "the cluster flags only apply then)")
    submit.add_argument("workload", help=" | ".join(WORKLOAD_NAMES))
    submit.add_argument("--scale", default="medium", choices=sorted(SCALES))
    submit.add_argument("--tenant", required=True,
                        help="tenant the job bills to")
    submit.add_argument("--submit-at", dest="submit_at", type=float,
                        default=0.0,
                        help="virtual-clock arrival time in seconds")
    submit.add_argument("--budget", type=float, default=None,
                        help="set the tenant's total budget in dollars")
    submit.add_argument("--deadline", type=float, default=None,
                        help="set the tenant's per-job deadline in minutes")
    submit.add_argument("--weight", type=float, default=None,
                        help="set the tenant's fair-share weight")
    submit.add_argument("--policy", default=None, choices=POLICIES,
                        help="scheduling policy (applies when the script "
                             "is created)")
    submit.add_argument("--journal", default=None,
                        help="journal directory of a durable service; "
                             "reports how many script jobs a `serve "
                             "--recover` there would pick up")

    serve = subparsers.add_parser(
        "serve", parents=[cluster, as_json],
        help="replay a submission script on the multi-tenant job service, "
             "or run the live wall-clock socket server with --listen")
    serve.add_argument("script", nargs="?", default=None,
                       help="JSON submission script to replay (optional "
                            "with --listen or --recover; the cluster flags "
                            "apply only when no script defines the cluster)")
    serve.add_argument("--policy", default=None, choices=POLICIES,
                       help="override the script's scheduling policy")
    serve.add_argument("--journal", default=None,
                       help="write-ahead journal directory: makes the run "
                            "crash-safe (see docs/service.md)")
    serve.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                       default=0,
                       help="snapshot + compact the journal every N "
                            "records (0 = never)")
    serve.add_argument("--fsync-every", dest="fsync_every", type=int,
                       default=32,
                       help="fsync the journal every N records (1 = every "
                            "record is durable before submit returns)")
    serve.add_argument("--recover", action="store_true",
                       help="recover the journaled service in --journal, "
                            "resubmit whatever the crash lost, and finish "
                            "the script")
    serve.add_argument("--listen", default=None,
                       help="serve a live NDJSON socket (unix path, or "
                            "HOST:PORT for TCP) on the wall clock instead "
                            "of replaying a script (see docs/serving.md)")
    serve.add_argument("--tick-interval", dest="tick_interval", type=float,
                       default=0.05,
                       help="scheduler tick period in wall seconds (with "
                            "--listen)")
    serve.add_argument("--max-batch", dest="max_batch", type=int,
                       default=256,
                       help="max submissions admitted per scheduler tick "
                            "(with --listen)")
    serve.add_argument("--max-wait", dest="max_wait", type=float,
                       default=None,
                       help="max wall seconds a submission may wait for a "
                            "batch to fill (default: one tick interval; "
                            "with --listen)")
    serve.add_argument("--time-scale", dest="time_scale", type=float,
                       default=1.0,
                       help="virtual cluster seconds per wall second (with "
                            "--listen)")

    return parser


COMMANDS = {
    "catalog": cmd_catalog,
    "explain": cmd_explain,
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "metrics": cmd_metrics,
    "chaos": cmd_chaos,
    "submit": cmd_submit,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
