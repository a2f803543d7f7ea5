"""Routing census: which dispatcher entry point each task's plan enters.

The plan kind is decided once, in ``repro.core.physical._dispatch_mult``:
a mult task whose tiles are uniform per operand goes to ``run_grid_mult``,
a ragged-edge mult task and every add-partials chunk go to ``run_plan``.
This census pins that split on real compiled DAGs — without processes: a
recording :class:`InlineDispatcher` rides the thread backend through the
dispatcher registry.  The process-gated twin
(``tests/test_backend_differential.py::TestPlanRouting``) checks what the
pool is actually sent.
"""

import numpy as np
import pytest

from repro.core.compiler import CompilerParams
from repro.core.executor import run_program
from repro.core.physical import MatMulParams
from repro.hadoop.kernels import (
    InlineDispatcher,
    execute_plan,
    expand_grid,
    use_dispatcher,
)
from repro.workloads import build_chain_program, build_workload

SPLITS = ((1, 1, 1), (1, 1, 2), (2, 2, 3))


class RecordingDispatcher(InlineDispatcher):
    """Counts plans per entry point and checks each is where it belongs."""

    def __init__(self):
        # Task threads call in concurrently; list.append is atomic.
        self.grid_mults = []
        self.ragged_mults = []
        self.add_chunks = []

    def run_grid_mult(self, a_payloads, b_payloads, plan):
        assert {p.shape for p in a_payloads} == {plan.a_shape}
        assert {p.shape for p in b_payloads} == {plan.b_shape}
        self.grid_mults.append(plan)
        # Not via super(): the default expands and re-enters run_plan.
        return execute_plan(expand_grid(plan),
                            list(a_payloads) + list(b_payloads))

    def run_plan(self, payloads, plan):
        rights = {right is None
                  for terms in plan.outputs for __, right in terms}
        assert len(rights) == 1, "a task is all multiplies or all addends"
        if rights == {True}:
            self.add_chunks.append(plan)
        else:
            # A mult task lands here only for a ragged block: some operand
            # or output tile differs in shape from its neighbours.
            n_left = 1 + max(left for terms in plan.outputs
                             for left, __ in terms)
            shapes = ({p.shape for p in payloads[:n_left]},
                      {p.shape for p in payloads[n_left:]},
                      set(plan.out_shapes))
            assert any(len(group) > 1 for group in shapes), shapes
            self.ragged_mults.append(plan)
        return execute_plan(plan, payloads)


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
    recording = RecordingDispatcher()
    with use_dispatcher(recording):
        result = run_program(program, inputs, tile_size=tile_size,
                             compiler_params=params)
    for name, expected in reference.outputs.items():
        assert np.array_equal(result.outputs[name], expected), name
    mult_tasks, add_tasks = compiled_task_counts(result.compiled)
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
