"""Layer probes: timed calls into one layer's public function at a time.

Each probe takes its inputs from the workload definitions (the same
programs, grid, chain and job mix the workloads use), calls one public
function of one module in a loop, and reports a rate or a median.  They
run in their own subprocess during a traced run only; end-to-end metrics
never come from here.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.api import (
    AdmissionController,
    ClusterSpec,
    CompilerParams,
    DeploymentOptimizer,
    EvalCache,
    HourlyBilling,
    JobService,
    Journal,
    build_workload,
    get_instance_type,
)
from repro.core.compiler import compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import PhysicalContext
from repro.core.simcost import simulate_program
from repro.hadoop.kernels import (
    GridMultPlan,
    InlineDispatcher,
    execute_grid_mult,
)
from repro.hadoop.procpool import KernelPool, ProcessDispatcher
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.tilestore import TileStore
from repro.matrix.tile import Tile, TileId
from repro.matrix.tiled import DenseBacking, TiledMatrix
from repro.service.protocol import decode_frame, encode_frame
from repro.workloads import WORKLOAD_NAMES
from repro.workloads.chains import build_chain_program

from benchmarks.layercake import exec_chain, plan_cold, serve_closed


def median_ms(call, repeats: int) -> float:
    """Median wall milliseconds of ``call()`` over ``repeats`` calls."""
    samples = []
    for __ in range(repeats):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3


def rate_per_s(call, count: int) -> float:
    """Calls per second of ``call(index)`` over ``count`` calls."""
    started = time.perf_counter()
    for index in range(count):
        call(index)
    return count / (time.perf_counter() - started)


# -- core.compiler, hadoop.simulator, core.evalcache, cloud.pricing ------------


def probe_planning(definition: dict, quick: bool, seed: int) -> dict:
    space = plan_cold.search_space(definition)
    ops = plan_cold.build_ops(definition, quick)
    plan_cold.derive_deadlines(ops, space, seed,
                               definition["deadline_factors"])
    model = CumulonCostModel()
    specs = [ClusterSpec(instance, nodes, slots)
             for instance in space.instance_types
             for nodes in space.node_counts
             for slots in space.slots_for(instance)]
    grid_requests = len(specs) * len(space.matmul_options)

    compile_ms = []
    task_counts = []
    sim_s: list[float] = []
    attempts = 0
    op_ms = []
    sims_ms = []      # per op: time its simulations take on their own
    compiles_ms = []  # per op: time its compiles take on their own
    repeat_ms = []
    surrogate_ms = []
    surrogate_sims = []
    matches = 0
    for op in ops:
        # Replay, one call at a time and uncached, what one op asks of the
        # compiler and the simulator: every physical plan compiled, every
        # (plan, spec) of the grid simulated.
        op_compile = 0.0
        op_sims: list[float] = []
        for matmul in space.matmul_options:
            params = CompilerParams(matmul=matmul,
                                    elementwise=space.elementwise)
            context = PhysicalContext(op.tile_size)
            started = time.perf_counter()
            compiled = compile_program(op.program, context, params)
            elapsed = time.perf_counter() - started
            compile_ms.append(elapsed * 1e3)
            op_compile += elapsed
            task_counts.append(sum(job.num_tasks for job in compiled.dag))
            for spec in specs:
                started = time.perf_counter()
                estimate = simulate_program(compiled.dag, spec, model)
                op_sims.append(time.perf_counter() - started)
                attempts += sum(
                    len(timeline.attempts) for timeline in
                    estimate.simulation.job_timelines.values())
        sim_s += op_sims

        # The op itself (the surrogate's oracle), then a second search at
        # a new deadline on the same, now warm, optimizer.
        optimizer = DeploymentOptimizer(op.program, op.tile_size, workers=0)
        started = time.perf_counter()
        oracle, stats = plan_cold.plan_with(optimizer, op, space)
        op_ms.append((time.perf_counter() - started) * 1e3)
        # Reliability scenarios beyond the grid are priced at the
        # program's mean simulation time.
        scenarios = stats.sim_requests - grid_requests
        sims_ms.append((sum(op_sims) + scenarios * statistics.fmean(op_sims))
                       * 1e3)
        compiles_ms.append(op_compile * 1e3)
        op.deadline *= 1.1
        started = time.perf_counter()
        plan_cold.plan_with(optimizer, op, space)
        repeat_ms.append((time.perf_counter() - started) * 1e3)
        op.deadline /= 1.1

        # The same op through the surrogate, on a fresh optimizer.
        started = time.perf_counter()
        plan, stats = plan_cold.plan_op(op, space, method="surrogate")
        surrogate_ms.append((time.perf_counter() - started) * 1e3)
        surrogate_sims.append(stats.sim_requests)
        same = (plan is None and oracle is None) or (
            plan is not None and oracle is not None
            and plan_cold.plan_key(plan) == plan_cold.plan_key(oracle))
        matches += 1 if same else 0

    # A memoized key: the second identical request is a pure cache hit.
    cache = EvalCache()
    simulate_program(compiled.dag, specs[0], model, cache=cache)
    hit_ms = median_ms(lambda: simulate_program(
        compiled.dag, specs[0], model, cache=cache), 200)

    billing = HourlyBilling()
    cost_rate = rate_per_s(
        lambda index: billing.cost(specs[index % len(specs)],
                                   100.0 + index), 50_000)
    return {
        "core.compiler.compile_ms": statistics.median(compile_ms),
        "core.compiler.tasks_per_program": statistics.fmean(task_counts),
        "hadoop.simulator.sim_ms": statistics.median(sim_s) * 1e3,
        "hadoop.simulator.tasks_per_s": attempts / sum(sim_s),
        "hadoop.simulator.share_of_plan": sum(sims_ms) / sum(op_ms),
        "core.search.self_ms": statistics.fmean(
            total - sims - compiles for total, sims, compiles
            in zip(op_ms, sims_ms, compiles_ms)),
        "core.evalcache.hit_ms": hit_ms,
        "core.evalcache.repeat_search_ms": statistics.median(repeat_ms),
        "core.surrogate.search_ms": statistics.median(surrogate_ms),
        "core.surrogate.sims_per_search": statistics.fmean(surrogate_sims),
        "core.surrogate.oracle_match_frac": matches / len(ops),
        "cloud.pricing.cost_us": 1e6 / cost_rate,
    }


# -- matrix.tiled, hdfs.tilestore, hadoop.kernels, hadoop.procpool, local ------


def probe_execution(definitions: dict, seed: int, threads: int) -> dict:
    fine = definitions["exec_fine"]
    program = build_chain_program(dimension=fine["dimension"],
                                  length=fine["length"])
    inputs = exec_chain.chain_inputs(program, seed)
    tile = fine["tile_size"]
    tiles = -(-fine["dimension"] // tile)

    def load_inputs():
        backing = DenseBacking()
        for name, array in inputs.items():
            TiledMatrix.from_numpy(name, array, tile, backing)
    from_numpy_ms = median_ms(load_inputs, 15)

    namenode = NameNode(replication=1)
    for index in range(threads):
        namenode.register_datanode(DataNode(f"node-{index}", 10 ** 10))
    store = TileStore(namenode, codec="none")
    rng = np.random.default_rng(seed)
    resident = [Tile(TileId("P", row, col), rng.random((tile, tile)))
                for row in range(tiles) for col in range(tiles)]
    put_rate = rate_per_s(
        lambda index: store.put(resident[index % len(resident)]), 2000)
    get_rate = rate_per_s(
        lambda index: store.get(resident[index % len(resident)].tile_id),
        20_000)

    # One whole-grid multiply (a coarse task's kernel), in this process.
    grid = GridMultPlan(tiles, tiles, tiles, (tile, tile), (tile, tile),
                        False, False, (tile, tile))
    a_block = rng.random((grid.a_count, tile, tile))
    b_block = rng.random((grid.b_count, tile, tile))
    grid_ms = median_ms(lambda: execute_grid_mult(grid, a_block, b_block),
                        15)
    flops = 2.0 * fine["dimension"] ** 3
    moved = a_block.nbytes + b_block.nbytes + grid.n_outputs * tile * tile * 8

    # One-tile plan: through a pool worker minus in the calling thread.
    one = GridMultPlan(1, 1, 1, (tile, tile), (tile, tile), False, False,
                       (tile, tile))
    left, right = [a_block[0]], [b_block[0]]
    started = time.perf_counter()
    pool = KernelPool(threads)
    spawn_s = time.perf_counter() - started
    try:
        dispatcher = ProcessDispatcher(pool)
        dispatcher.run_grid_mult(left, right, one)  # attach the segments
        pooled_ms = median_ms(
            lambda: dispatcher.run_grid_mult(left, right, one), 400)
    finally:
        pool.close()
    inline = InlineDispatcher()
    inline_ms = median_ms(lambda: inline.run_grid_mult(left, right, one),
                          400)

    metrics = {
        "matrix.tiled.from_numpy_ms": from_numpy_ms,
        "hdfs.tilestore.put_tiles_per_s": put_rate,
        "hdfs.tilestore.get_tiles_per_s": get_rate,
        "hadoop.kernels.grid_mult_ms": grid_ms,
        "hadoop.kernels.gflops": flops / (grid_ms / 1e3) / 1e9,
        "hadoop.kernels.computed_gb_per_s": moved / (grid_ms / 1e3) / 1e9,
        "hadoop.procpool.roundtrip_ms": pooled_ms - inline_ms,
        "hadoop.procpool.spawn_s": spawn_s,
    }
    # The same op on the thread backend: the plain baseline per split.
    for name, repeats in (("exec_fine", 5), ("exec_coarse", 15)):
        with exec_chain.make_executor(definitions[name], threads,
                                      backend="thread") as executor:
            executor.run(program, inputs)
            metrics[f"hadoop.local.thread_run_ms."
                    f"{exec_chain.SUFFIX[name]}"] = median_ms(
                lambda: executor.run(program, inputs), repeats)
    return metrics


# -- service.protocol, service.admission, service.durability, service.jobs -----


def run_in_process(spec: ClusterSpec, jobs: list, programs: dict,
                   batch: int, cache: EvalCache) -> float:
    """Seconds to take ``jobs`` through a bare ``JobService`` in batches:
    submit a batch, admit it, then let the clock run it to completion —
    a server tick without the socket and without the journal."""
    service = JobService(spec, cache=cache)
    for tenant in sorted({tenant for tenant, __ in jobs}):
        service.add_tenant(tenant)

    def submit(tenant: str, workload: str) -> None:
        program, tile_size, scale = programs[workload]
        service.submit(program, tenant, tile_size=tile_size,
                       source={"workload": workload, "scale": scale})

    # Fill the admission price memo first, as the warm-up block does.
    service.add_tenant("warm-up")
    for workload in programs:
        submit("warm-up", workload)
    service.drain()
    started = time.perf_counter()
    for offset in range(0, len(jobs), batch):
        for tenant, workload in jobs[offset:offset + batch]:
            submit(tenant, workload)
        service.run_until(service.now)
        service.drain()
    return time.perf_counter() - started


def probe_service(definition: dict, quick: bool, seed: int,
                  workdir: str) -> dict:
    flags = definition["server_flags"]
    spec = ClusterSpec(get_instance_type(flags["--instance"]),
                       flags["--nodes"], flags["--slots"])
    count = definition["quick_jobs_per_block" if quick
                       else "jobs_per_block"]
    jobs = serve_closed.job_list(definition, count, seed)
    programs = {name: (*build_workload(name, definition["scale"]),
                       definition["scale"])
                for name in WORKLOAD_NAMES}

    submits = [encode_frame({"type": "submit", "tenant": tenant,
                             "workload": workload,
                             "scale": definition["scale"], "req": index})
               for index, (tenant, workload) in enumerate(jobs)]
    ack = {"type": "ack", "job_id": "t0001-j0001", "state": "running",
           "estimated_dollars": 0.0123, "req": 17}
    encode_rate = rate_per_s(lambda index: encode_frame(ack), 50_000)
    decode_rate = rate_per_s(
        lambda index: decode_frame(submits[index % len(submits)]), 50_000)

    controller = AdmissionController(spec)
    miss_ms = []
    for program, tile_size, __ in programs.values():
        started = time.perf_counter()
        controller.price(program, tile_size)
        miss_ms.append((time.perf_counter() - started) * 1e3)
    program, tile_size, __ = programs[WORKLOAD_NAMES[0]]
    hit_rate = rate_per_s(lambda index: controller.price(program, tile_size),
                          100_000)

    # The record mix one job leaves in the journal, batch by batch.
    records = []
    for index, (tenant, workload) in enumerate(jobs):
        job_id = f"{tenant}-j{index:04d}"
        records += [
            {"ev": "submit", "clock": 1.5 * index, "at": 1.5 * index,
             "job_id": job_id, "tenant": tenant, "program": workload,
             "tile_size": 256,
             "source": {"workload": workload, "scale": "tiny"}},
            {"ev": "admit", "job_id": job_id, "dollars": 0.0123,
             "work": 412.5, "max_slots": 16, "digest": "0" * 16},
            {"ev": "complete", "job_id": job_id, "clock": 1.5 * index + 9,
             "slot_seconds": 412.5, "dollars": 0.0123},
        ]
    journal = Journal(f"{workdir}/journal.wal",
                      fsync_every=flags["--fsync-every"])
    batch = 3 * flags["--max-batch"]  # one tick's worth of records
    fsync_ms = []
    append_s = 0.0
    for offset in range(0, len(records), batch):
        started = time.perf_counter()
        for record in records[offset:offset + batch]:
            journal.append(record)
        appended = time.perf_counter()
        journal.sync()
        fsync_ms.append((time.perf_counter() - appended) * 1e3)
        append_s += appended - started
    journal.close()

    cache = controller.cache  # warm: the services below re-price nothing
    inproc_s = run_in_process(spec, jobs, programs, flags["--max-batch"],
                              cache)
    # Per-job cost admitting 512 at once over 64 at once: 1.0 = O(work).
    big = run_in_process(spec, jobs[:512], programs, 512, cache)
    small = run_in_process(spec, jobs[:512], programs, 64, cache)

    return {
        "service.protocol.encode_frames_per_s": encode_rate,
        "service.protocol.decode_frames_per_s": decode_rate,
        "service.admission.price_miss_ms": statistics.median(miss_ms),
        "service.admission.price_hit_ms": 1e3 / hit_rate,
        "service.durability.append_records_per_s": len(records) / append_s,
        "service.durability.fsync_ms": statistics.median(fsync_ms),
        "service.jobs.inproc_jobs_per_s": len(jobs) / inproc_s,
        "service.jobs.batch_cost_ratio": big / small,
    }


def run(config: dict) -> dict:
    definitions = config["definitions"]["workloads"]
    layer = {}
    layer.update(probe_planning(definitions["plan_cold"],
                                config["quick"], config["seed"]))
    layer.update(probe_execution(definitions, config["seed"],
                                 config["threads"]))
    layer.update(probe_service(definitions["serve_closed"],
                               config["quick"], config["seed"],
                               config["workdir"]))
    return {"kind": "probes", "correct": True, "layer": layer, "errors": []}
