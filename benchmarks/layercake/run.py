"""The layer-cake benchmark's one command.

``python -m benchmarks.layercake.run`` (or ``python3
benchmarks/layercake/run.py``) runs the four workloads, each in a fresh
subprocess, checks their outputs and prints every end-to-end metric by
name with its unit.  ``--workload W`` selects one, ``--seed S`` the input
seed, ``--seconds T`` the size of the measured phase, ``--trace`` adds the
traced run and the per-layer table, ``--quick`` is the smoke mode.

With ``--workload`` the last stdout line is the result object the
benchmark contract asks for: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  This process only spawns, waits and prints; it never imports the
program under test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if not __package__:  # run as a script: make ``benchmarks.layercake`` importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.layercake import harness  # noqa: E402

WORKLOADS = ("plan_cold", "exec_fine", "exec_coarse", "serve_closed")

#: Every per-layer metric: name -> (unit, better).  ``BENCHMARK.json``
#: lists the same names and every run checks that the two agree.
LAYER_METRICS = {
    "core.compiler.compile_ms": ("ms", "lower"),
    "core.compiler.tasks_per_program": ("count", "lower"),
    "core.search.sims_per_search": ("count", "lower"),
    "core.search.scenarios_skipped_frac": ("ratio", "higher"),
    "core.search.self_ms": ("ms", "lower"),
    "core.search.infeasible_frac": ("ratio", "lower"),
    "core.surrogate.search_ms": ("ms", "lower"),
    "core.surrogate.sims_per_search": ("count", "lower"),
    "core.surrogate.oracle_match_frac": ("ratio", "higher"),
    "core.evalcache.hit_ms": ("ms", "lower"),
    "core.evalcache.repeat_search_ms": ("ms", "lower"),
    "hadoop.simulator.sim_ms": ("ms", "lower"),
    "hadoop.simulator.tasks_per_s": ("1/s", "higher"),
    "hadoop.simulator.share_of_plan": ("ratio", "lower"),
    "cloud.pricing.cost_us": ("us", "lower"),
    "matrix.tiled.from_numpy_ms": ("ms", "lower"),
    "hdfs.tilestore.get_tiles_per_s": ("1/s", "higher"),
    "hdfs.tilestore.put_tiles_per_s": ("1/s", "higher"),
    "hadoop.local.dag_ms.fine": ("ms", "lower"),
    "hadoop.local.dag_ms.coarse": ("ms", "lower"),
    "hadoop.local.outside_dag_ms.fine": ("ms", "lower"),
    "hadoop.local.outside_dag_ms.coarse": ("ms", "lower"),
    "hadoop.local.tasks_per_s.fine": ("1/s", "higher"),
    "hadoop.local.tasks_per_s.coarse": ("1/s", "higher"),
    "hadoop.local.thread_run_ms.fine": ("ms", "lower"),
    "hadoop.local.thread_run_ms.coarse": ("ms", "lower"),
    "hadoop.local.task_retries.fine": ("count", "lower"),
    "hadoop.local.task_retries.coarse": ("count", "lower"),
    "hadoop.kernels.grid_mult_ms": ("ms", "lower"),
    "hadoop.kernels.gflops": ("GFLOP/s", "higher"),
    "hadoop.kernels.computed_gb_per_s": ("GB/s", "higher"),
    "hadoop.procpool.roundtrip_ms": ("ms", "lower"),
    "hadoop.procpool.dispatches_per_op.fine": ("count", "lower"),
    "hadoop.procpool.dispatches_per_op.coarse": ("count", "lower"),
    "hadoop.procpool.request_bytes_per_op.fine": ("B", "lower"),
    "hadoop.procpool.request_bytes_per_op.coarse": ("B", "lower"),
    "hadoop.procpool.spawn_s": ("s", "lower"),
    "service.protocol.encode_frames_per_s": ("1/s", "higher"),
    "service.protocol.decode_frames_per_s": ("1/s", "higher"),
    "service.admission.price_hit_ms": ("ms", "lower"),
    "service.admission.price_miss_ms": ("ms", "lower"),
    "service.durability.append_records_per_s": ("1/s", "higher"),
    "service.durability.fsync_ms": ("ms", "lower"),
    "service.durability.bytes_per_job": ("B", "lower"),
    "service.durability.replay_ms": ("ms", "lower"),
    "service.jobs.inproc_jobs_per_s": ("1/s", "higher"),
    "service.jobs.batch_cost_ratio": ("ratio", "lower"),
    "service.server.tick_ms_p50": ("ms", "lower"),
    "service.server.tick_ms_p99": ("ms", "lower"),
    "service.server.group_commits": ("count", "lower"),
    "service.server.max_batch_seen": ("count", "higher"),
    "service.server.drain_s": ("s", "lower"),
    "harness.speed_probe_ms": ("ms", "lower"),
    "harness.speed_probe_cv": ("ratio", "lower"),
    "observability.trace_overhead_frac": ("ratio", "lower"),
}

#: A child that runs longer is killed and the run fails.  With
#: ``--workload`` the limit covers the whole invocation, which the
#: contract allows 180 s.
TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not produce a result (as opposed to a result
    that says the program is wrong)."""


def spawn(config: dict, deadline: float | None = None) -> dict:
    """Run one child to the end and return its result document.

    ``deadline`` (``time.monotonic()``) is when it must be done; without
    one it has ``TIMEOUT_S``.

    The child gets its own session so that whatever it started — the
    ``repro serve`` subprocess, the kernel pool — can be killed as one
    group on every exit path, including ours being interrupted.
    """
    env = dict(os.environ)
    env.update(harness.PINNED_ENV)
    paths = [str(harness.ROOT / "src"), str(harness.ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Scratch space for sockets and journals, owned here so that it goes
    # away on every exit path (a killed child cannot clean up).  The path
    # is relative to the checkout root, the child's cwd: a unix socket
    # path may not exceed 108 bytes, and the checkout can sit anywhere.
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=harness.OUT_DIR)
    config = dict(config, t_spawn=time.monotonic(),
                  workdir=os.path.relpath(workdir, harness.ROOT))
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.layercake.child",
         json.dumps(config)],
        cwd=harness.ROOT, env=env, stdout=subprocess.PIPE,
        start_new_session=True)
    timeout = (TIMEOUT_S if deadline is None
               else max(1.0, deadline - time.monotonic()))
    try:
        stdout, __ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(
            f"{config['kind']} was killed: the run overran its "
            f"{TIMEOUT_S:.0f}s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.decode().strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(
            f"{config['kind']} exited {proc.returncode} without a "
            f"result") from None
    if not isinstance(doc, dict) or "correct" not in doc:
        raise BenchmarkError(f"{config['kind']} printed no result")
    return doc


def workload_config(definitions: dict, name: str, *, seed: int,
                    seconds: float, traced: bool, quick: bool,
                    blocks: int | None = None) -> dict:
    if quick:
        blocks = definitions["quick_blocks"]
    return {
        "kind": name, "workload": name, "seed": seed,
        "scale": seconds / definitions["run_seconds"],
        "traced": traced, "quick": quick,
        "blocks": blocks or definitions["blocks"],
        "threads": definitions["threads"],
        "op_timeout_s": definitions["op_timeout_s"],
        "definition": definitions["workloads"][name],
    }


def trace_overhead(traced: dict, untraced: dict) -> float:
    """Traced ``op_ms_p50`` over untraced, minus one.

    The two runs are half a minute apart, so on a box whose speed drifts
    the number carries that drift as well as the telemetry's cost.
    """
    return (traced["metrics"]["op_ms_p50"]["value"]
            / untraced["metrics"]["op_ms_p50"]["value"] - 1.0)


def layer_table(traced: dict[str, dict], untraced: dict[str, dict],
                probes: dict, subject: str) -> dict[str, float]:
    """Merge the traced runs' reports and the probes into one table.

    The ``harness.*`` speed probe and the tracing overhead describe
    ``subject``'s runs: they are properties of a run, not of a layer.
    """
    table: dict[str, float] = dict(probes["layer"])
    for doc in traced.values():
        table.update(doc["layer"])
    for name in ("speed_probe_ms", "speed_probe_cv"):
        table[f"harness.{name}"] = traced[subject]["diag"][name]
    table["observability.trace_overhead_frac"] = trace_overhead(
        traced[subject], untraced[subject])
    return table


def check_contract(contract: dict) -> list[str]:
    """Every name and unit this harness prints must be in BENCHMARK.json."""
    problems = []
    declared = [entry["name"] for entry in contract["workloads"]]
    if declared != list(WORKLOADS):
        problems.append(f"workloads: BENCHMARK.json has {declared}, "
                        f"the harness runs {list(WORKLOADS)}")
    e2e = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    if e2e != harness.E2E_UNITS:
        problems.append(f"end_to_end: BENCHMARK.json has {e2e}, the "
                        f"harness prints {harness.E2E_UNITS}")
    layers = {entry["name"]: (entry["unit"], entry["better"])
              for entry in contract["per_layer"]}
    for name in sorted(set(layers) ^ set(LAYER_METRICS)):
        problems.append(f"per_layer: {name} is in only one of "
                        f"BENCHMARK.json and the harness")
    for name in sorted(set(layers) & set(LAYER_METRICS)):
        if layers[name] != LAYER_METRICS[name]:
            problems.append(f"per_layer: {name} is {layers[name]} in "
                            f"BENCHMARK.json, {LAYER_METRICS[name]} in "
                            f"the harness")
    return problems


def print_run(doc: dict, out) -> None:
    label = doc["workload"] + (" [traced]" if doc["traced"] else "") \
        + (" [QUICK: never comparable]" if doc["quick"] else "")
    print(f"== {label}: seed {doc['seed']}, {doc['attempted']} ops "
          f"attempted, {doc['failed']} failed, outputs "
          f"{'correct' if doc['correct'] else 'WRONG'}", file=out)
    for name, entry in doc["metrics"].items():
        print(f"{doc['workload']}/{name} {entry['value']:.6g} "
              f"{entry['unit']}", file=out)
    diag = doc["diag"]
    print(f"  diag: op_ms_tail {diag['op_ms_tail']:.4g} ms at "
          f"p{diag['tail_fraction'] * 100:.2f} of {diag['samples']} "
          f"samples; speed probe {diag['speed_probe_ms']:.3g} ms "
          f"(cv {diag['speed_probe_cv']:.3f})", file=out)
    for name, value in doc["exact"].items():
        print(f"  exact: {name} = {value}", file=out)
    for error in doc["errors"]:
        print(f"  ERROR: {error}", file=out)
    for row in doc.get("spans", []):
        print(f"  span {row['name']}: {row['count']} x, total "
              f"{row['total_ms']:.1f} ms, self {row['self_ms']:.1f} ms",
              file=out)


def parse_args(argv: list[str], definitions: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.layercake.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=definitions["seed"],
                        help="input seed (default: workloads.json)")
    parser.add_argument("--seconds", type=float,
                        default=definitions["run_seconds"],
                        help="measured-phase size the op counts scale to")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also make the traced run and print the "
                             "per-layer table")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: 2 blocks of few ops; results "
                             "are never comparable")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args: argparse.Namespace, definitions: dict, out=sys.stdout) -> dict:
    """Run what ``args`` asks for; returns everything that was measured.

    The untraced runs come first: end-to-end metrics are theirs alone.
    ``--trace`` follows them with the traced runs and the layer probes.
    A layer metric read from a workload's own report needs that workload
    to run, so with ``--workload W`` the other three make a quick traced
    pass, and W's own two runs time ``traced_call_blocks`` blocks.
    """
    selected = [args.workload] if args.workload else list(WORKLOADS)
    deadline = time.monotonic() + TIMEOUT_S if args.workload else None
    common = dict(seed=args.seed, seconds=args.seconds)
    if args.workload and args.trace:
        # The contract's per-layer call: its two runs of W feed only the
        # ungated layer table, so they time fewer blocks (of the same ops)
        # and the call costs about one run's time, which the contract's
        # cap on all runs together needs.
        common["blocks"] = definitions["traced_call_blocks"]
    untraced: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for name in selected:
        untraced[name] = spawn(workload_config(
            definitions, name, traced=False, quick=args.quick, **common),
            deadline)
        print_run(untraced[name], out)
    if args.trace:
        for name in WORKLOADS:
            traced[name] = spawn(workload_config(
                definitions, name, traced=True,
                quick=args.quick or name not in selected, **common),
                deadline)
            print_run(traced[name], out)
        probes = spawn({
            "kind": "probes", "seed": args.seed, "quick": args.quick,
            "threads": definitions["threads"], "definitions": definitions},
            deadline)
        for name in selected:
            print(f"{name}/observability.trace_overhead_frac "
                  f"{trace_overhead(traced[name], untraced[name]):.4f} "
                  f"ratio", file=out)
        table = layer_table(traced, untraced, probes, selected[-1])
        layers = {name: {"value": table[name], "unit": unit}
                  for name, (unit, __) in LAYER_METRICS.items()}
        for name, entry in layers.items():
            print(f"layer/{name} {entry['value']:.6g} {entry['unit']}",
                  file=out)
        (harness.OUT_DIR / "layers.json").write_text(
            json.dumps(layers, indent=1))
    return {"untraced": untraced, "traced": traced, "layers": layers}


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    definitions = harness.load_definitions()
    args = parse_args(sys.argv[1:] if argv is None else argv, definitions)
    problems = check_contract(harness.load_contract())
    if problems:
        for problem in problems:
            print(f"BENCHMARK.json mismatch: {problem}", file=sys.stderr)
        return 2
    try:
        measured = run(args, definitions)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    docs = list(measured["untraced"].values()) \
        + list(measured["traced"].values())
    correct = all(doc["correct"] for doc in docs)
    if args.workload:
        subject = measured["untraced"][args.workload]
        final = {"correct": correct, "attempted": subject["attempted"],
                 "failed": subject["failed"],
                 "metrics": measured["layers"] if args.trace
                 else subject["metrics"]}
    else:
        final = {"correct": correct,
                 "attempted": sum(doc["attempted"] for doc in docs),
                 "failed": sum(doc["failed"] for doc in docs),
                 "metrics": {f"{name}/{metric}": entry
                             for name, doc in measured["untraced"].items()
                             for metric, entry in doc["metrics"].items()}}
    if args.quick:
        final["quick"] = True
    print(json.dumps(final), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
