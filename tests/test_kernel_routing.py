"""Routing census: which plan kind each task's kernel declares.

The plan kind is decided once, in ``repro.core.physical._mult_kernel``: a
mult task whose tiles are uniform per operand declares a
:class:`GridMultPlan`, a ragged-edge mult task and every add-partials chunk
a :class:`BlockPlan`.  This census pins that split on real compiled DAGs —
without processes: it walks the compiled tasks in job order, asks each for
its ``kernel()``, classifies the call, and evaluates it in place so the
next job finds its inputs.  The process-gated twin
(``tests/test_backend_differential.py::TestPlanRouting``) checks what the
pool is actually sent; the one process-gated test here checks *whose* pool:
two executors in one process never route through each other.
"""

import threading

import numpy as np
import pytest

from repro.core.compiler import CompilerParams, compile_program
from repro.core.executor import CumulonExecutor, run_program
from repro.core.physical import MatMulParams, PhysicalContext
from repro.hadoop.kernels import GridMultPlan, execute_plan, expand_grid
from repro.observability.metrics import MetricsRegistry
from repro.workloads.catalog import build_workload
from repro.workloads.chains import build_chain_program
from tests.test_backend_differential import metric_total

SPLITS = ((1, 1, 1), (1, 1, 2), (2, 2, 3))


class Census:
    """Counts kernel calls per kind and checks each is where it belongs."""

    def __init__(self):
        self.grid_mults = []
        self.ragged_mults = []
        self.add_chunks = []

    def take(self, call):
        """Classify ``call``, then evaluate and store it."""
        plan, payloads = call.plan, call.payloads
        if isinstance(plan, GridMultPlan):
            assert {p.shape for p in payloads[:plan.a_count]} \
                == {plan.a_shape}
            assert {p.shape for p in payloads[plan.a_count:]} \
                == {plan.b_shape}
            self.grid_mults.append(plan)
            plan = expand_grid(plan)
        else:
            rights = {right is None
                      for terms in plan.outputs for __, right in terms}
            assert len(rights) == 1, \
                "a task is all multiplies or all addends"
            if rights == {True}:
                self.add_chunks.append(plan)
            else:
                # A mult task declares a block plan only for a ragged
                # block: some operand or output tile differs in shape from
                # its neighbours.
                n_left = 1 + max(left for terms in plan.outputs
                                 for left, __ in terms)
                shapes = ({p.shape for p in payloads[:n_left]},
                          {p.shape for p in payloads[n_left:]},
                          set(plan.out_shapes))
                assert any(len(group) > 1 for group in shapes), shapes
                self.ragged_mults.append(plan)
        call.store(execute_plan(plan, payloads))


def compiled_task_counts(compiled):
    """(mult tasks, add-chunk tasks) in a compiled DAG, by task label."""
    labels = [task.label for job in compiled.dag for task in job.map_tasks]
    return (sum(label.startswith("mult ") for label in labels),
            sum(label.startswith("add partials") for label in labels))


def census(program, tile_size, split):
    rng = np.random.default_rng(1802)
    inputs = {name: rng.random(var.shape) * 0.9 + 0.1
              for name, var in program.inputs.items()}
    params = CompilerParams(matmul=MatMulParams(*split))
    reference = run_program(program, inputs, tile_size=tile_size,
                            compiler_params=params)
    executor = CumulonExecutor(tile_size=tile_size, compiler_params=params)
    executor._load_inputs(program, inputs)
    compiled = compile_program(
        program, PhysicalContext(tile_size, executor.backing,
                                 attach_run=True), params)
    recording = Census()
    for job in compiled.dag.topological_order():
        for task in job.map_tasks:
            if task.kernel is None:
                task.run()
            else:
                recording.take(task.kernel())
    outputs, __ = executor._collect_outputs(program, compiled)
    for name, expected in reference.outputs.items():
        assert np.array_equal(outputs[name], expected), name
    mult_tasks, add_tasks = compiled_task_counts(compiled)
    assert len(recording.grid_mults) + len(recording.ragged_mults) \
        == mult_tasks
    assert len(recording.add_chunks) == add_tasks
    return recording, mult_tasks, add_tasks


@pytest.mark.parametrize("split", SPLITS, ids=str)
@pytest.mark.parametrize("workload", ["multiply", "gnmf", "kmeans"])
def test_catalog_workloads_ship_grids_and_add_chunks(workload, split):
    # Every tiny-scale catalog dimension is a multiple of the tile size (or
    # a single narrow tile), so no mult task is ragged.
    program, tile_size = build_workload(workload, "tiny")
    recording, mult_tasks, add_tasks = census(program, tile_size, split)
    assert mult_tasks > 0
    assert not recording.ragged_mults
    assert len(recording.grid_mults) == mult_tasks
    assert (add_tasks > 0) == (split[2] > 1)


@pytest.mark.parametrize("split", SPLITS, ids=str)
def test_ragged_chain_ships_block_plans(split):
    # 100 = 3 x 32 + 4: the last tile row and column are 4 wide, so a task
    # is uniform only if it stays clear of every edge its operands touch.
    program = build_chain_program(dimension=100, length=3)
    recording, mult_tasks, add_tasks = census(program, 32, split)
    assert recording.ragged_mults
    if split == (1, 1, 1):
        # One output tile over the whole inner dimension: every task reads
        # the ragged last k tile.
        assert not recording.grid_mults
    assert (add_tasks > 0) == (split[2] > 1)


@pytest.mark.process_backend
def test_concurrent_executors_keep_their_kernels_apart():
    # A thread-backend and a process-backend executor driven from two
    # threads at once.  While runners looked the dispatcher up in a
    # process-wide registry, the thread executor's tasks went through
    # whichever pool was installed last (2,866 dispatches metered where the
    # process executor's own runs account for 2,016).
    runs = 7
    program = build_chain_program(dimension=96, length=3)
    rng = np.random.default_rng(1802)
    inputs = {name: rng.random(var.shape)
              for name, var in program.inputs.items()}
    params = CompilerParams(matmul=MatMulParams(1, 1, 1))
    solo = run_program(program, inputs, tile_size=16,
                       compiler_params=params)
    mult_tasks, __ = compiled_task_counts(solo.compiled)
    registries = {"thread": MetricsRegistry(), "process": MetricsRegistry()}
    outputs = {"thread": [], "process": []}

    def drive(backend):
        with CumulonExecutor(tile_size=16, max_workers=2,
                             compiler_params=params,
                             metrics=registries[backend],
                             backend=backend) as executor:
            for __ in range(runs):
                outputs[backend].append(
                    executor.run(program, inputs).output("C"))

    threads = [threading.Thread(target=drive, args=(backend,))
               for backend in registries]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
        assert not thread.is_alive()
    for backend, results in outputs.items():
        assert len(results) == runs, backend
        for result in results:
            assert np.array_equal(result, solo.output("C")), backend
    thread_names = {metric.name for metric in registries["thread"].metrics()}
    assert not {name for name in thread_names
                if name.startswith(("procpool.", "local.kernel_dispatch"))}
    assert metric_total(registries["process"], "procpool.dispatches") \
        == runs * mult_tasks
