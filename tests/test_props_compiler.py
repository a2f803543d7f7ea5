"""Property-based tests: compiler determinism, structural invariants, and
task pricing against per-tile oracles."""

import math
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import systemml
from repro.baselines.systemml import plan_cpmm, plan_rmm
from repro.baselines.systemml_program import compile_systemml_program
from repro.core import compiler, physical
from repro.core.compiler import CompilerParams, compile_program
from repro.core.physical import (
    ElementwiseParams,
    FusedKernel,
    MatMulParams,
    MatrixInfo,
    Operand,
    PhysicalContext,
    broadcast_position,
    build_elementwise_job,
    build_matmul_jobs,
)
from repro.core.program import Program
from repro.hadoop.task import TaskWork
from repro.ingest.loader import plan_ingest_job
from repro.ingest.parser import TEXT_BYTES_PER_VALUE
from repro.matrix.tile import DENSE_ELEMENT_BYTES, matmul_flops
from repro.matrix.tiled import TileGrid

N = 8


@st.composite
def small_program(draw) -> Program:
    """A random 2-4 statement program over square NxN inputs."""
    program = Program("prop")
    a = program.declare_input("A", N, N)
    b = program.declare_input("B", N, N)
    bindings = [a, b]
    n_statements = draw(st.integers(2, 4))
    for index in range(n_statements):
        left = draw(st.sampled_from(bindings))
        right = draw(st.sampled_from(bindings))
        kind = draw(st.sampled_from(["matmul", "add", "scaled", "trans"]))
        if kind == "matmul":
            expr = left @ right
        elif kind == "add":
            expr = left + right
        elif kind == "scaled":
            expr = left * draw(st.sampled_from([0.5, 1.0, 2.0]))
        else:
            expr = left.T @ right
        bindings.append(program.assign(f"v{index}", expr))
    program.mark_output(f"v{n_statements - 1}")
    return program


def dag_signature(compiled):
    """Structure of a compiled DAG, independent of object identity."""
    return [
        (job.job_id, job.kind.value, len(job.map_tasks),
         len(job.reduce_tasks), tuple(sorted(job.depends_on)),
         job.total_bytes_read(), job.total_flops())
        for job in compiled.dag.topological_order()
    ]


@given(program_pair=st.tuples(small_program(), st.integers(1, 4)))
@settings(max_examples=50, deadline=None)
def test_compilation_is_deterministic(program_pair):
    program, tile = program_pair
    first = compile_program(program, PhysicalContext(tile))
    second = compile_program(program, PhysicalContext(tile))
    assert dag_signature(first) == dag_signature(second)


@given(program=small_program(), tile=st.integers(2, 8),
       ks=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_dependencies_reference_existing_jobs(program, tile, ks):
    params = CompilerParams(matmul=MatMulParams(1, 1, ks))
    compiled = compile_program(program, PhysicalContext(tile), params)
    job_ids = {job.job_id for job in compiled.dag}
    for job in compiled.dag:
        assert job.depends_on <= job_ids
        assert job.job_id not in job.depends_on


@given(program=small_program(), tile=st.integers(2, 8),
       seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_all_optimizations_preserve_results(program, tile, seed):
    """Fusion + CSE + reorder + simplify on vs all off: same numbers."""
    from repro.core.executor import run_program
    rng = np.random.default_rng(seed)
    env = {"A": rng.standard_normal((N, N)),
           "B": rng.standard_normal((N, N))}
    everything_on = run_program(program, env, tile_size=tile, max_workers=1)
    everything_off = run_program(
        program, env, tile_size=tile, max_workers=1,
        compiler_params=CompilerParams(
            fusion_enabled=False, cse_enabled=False,
            reorder_chains=False, simplify_enabled=False))
    output = program.outputs[0]
    np.testing.assert_allclose(everything_on.output(output),
                               everything_off.output(output), atol=1e-9)


# ---------------------------------------------------------------------------
# TaskWork is priced from tile-shape classes; these oracles visit every tile.
# ---------------------------------------------------------------------------

def mult_oracle(left, right, target, i_range, j_range, k_range) -> TaskWork:
    """One mult task's work, summed tile by tile."""
    rows_i, cols_j, inner_k = (range(*i_range), range(*j_range),
                               range(*k_range))
    flops = 0
    for i in rows_i:
        for j in cols_j:
            out_rows, out_cols = target.grid.tile_shape(i, j)
            for k in inner_k:
                rows, cols = left.info.grid.tile_shape(
                    *left.stored_position(i, k))
                flops += matmul_flops(
                    out_rows, rows if left.transposed else cols, out_cols)
    scale = max(left.info.density * right.info.density, 1e-6)
    ci, cj, seg = len(rows_i), len(cols_j), len(inner_k)
    tile_size = target.grid.tile_size
    return TaskWork(
        bytes_read=sum(left.tile_bytes(i, k) for i in rows_i for k in inner_k)
        + sum(right.tile_bytes(k, j) for k in inner_k for j in cols_j),
        bytes_written=sum(target.tile_bytes(i, j)
                          for i in rows_i for j in cols_j),
        flops=max(1, int(flops * min(1.0, scale * 4))),
        tile_ops=seg * (ci + cj) + 2 * ci * cj * seg + ci * cj,
        memory_bytes=(ci * cj + seg * (ci + cj)) * tile_size * tile_size
        * DENSE_ELEMENT_BYTES)


def chunked_oracle(output, per_chunk, reads, n_reads, n_ops, memory_tiles,
                   tile_size, extra_tile_ops):
    """A chunked map-only job's works: ``reads(row, col)`` lists the bytes
    of the input tiles one output tile reads."""
    positions = list(output.grid.positions())
    works = []
    for start in range(0, len(positions), per_chunk):
        chunk = positions[start:start + per_chunk]
        works.append(TaskWork(
            bytes_read=sum(sum(reads(row, col)) for row, col in chunk),
            bytes_written=sum(output.tile_bytes(row, col)
                              for row, col in chunk),
            element_ops=sum(math.prod(output.grid.tile_shape(row, col))
                            * n_ops for row, col in chunk),
            tile_ops=len(chunk) * (n_reads + extra_tile_ops),
            memory_bytes=memory_tiles * tile_size * tile_size
            * DENSE_ELEMENT_BYTES))
    return works


def elementwise_oracle(kernel, output, context, params):
    operands = kernel.operands
    return chunked_oracle(
        output, params.tiles_per_task,
        lambda row, col: [op.tile_bytes(*broadcast_position(op, row, col))
                          for op in operands],
        len(operands), kernel.n_operators, len(operands) + 1,
        context.tile_size, 2)


def add_oracle(partials, output):
    return chunked_oracle(
        output, 4,
        lambda row, col: [part.tile_bytes(row, col) for part in partials],
        len(partials), len(partials), 2, output.grid.tile_size, 1)


def works(tasks):
    return [task.work for task in tasks]


@contextmanager
def oracle_checked():
    """Compare every mult, element-wise and add task the compiler builds
    with its per-tile oracle; yields the list of tasks checked so far."""
    checked = []
    real_mult = physical._build_mult_task
    real_add = physical._build_add_job

    def mult(task_id, left, right, target, target_matrix, i_range, j_range,
             k_range, context):
        task = real_mult(task_id, left, right, target, target_matrix,
                         i_range, j_range, k_range, context)
        assert task.work == mult_oracle(left, right, target, i_range,
                                        j_range, k_range)
        checked.append(task)
        return task

    def elementwise(job_id, kernel, output, context, params, **kwargs):
        job = build_elementwise_job(job_id, kernel, output, context, params,
                                    **kwargs)
        assert works(job.map_tasks) == elementwise_oracle(kernel, output,
                                                          context, params)
        checked.extend(job.map_tasks)
        return job

    def add(job_id, partials, output, output_matrix, context, depends_on):
        job = real_add(job_id, partials, output, output_matrix, context,
                       depends_on)
        assert works(job.map_tasks) == add_oracle(partials, output)
        checked.extend(job.map_tasks)
        return job

    with patch.object(physical, "_build_mult_task", mult), \
            patch.object(physical, "_build_add_job", add), \
            patch.object(compiler, "build_elementwise_job", elementwise):
        yield checked


@st.composite
def ragged_program(draw) -> Program:
    """Multiplies (plain and transposed) and broadcast element-wise
    statements over ragged, possibly sparse inputs."""
    rows, inner, cols = (draw(st.integers(1, 23)) for __ in range(3))
    density = st.sampled_from([1.0, 0.6, 0.1, 0.01])
    program = Program("ragged")
    a = program.declare_input("A", rows, inner, draw(density))
    b = program.declare_input("B", inner, cols, draw(density))
    b_t = program.declare_input("Bt", cols, inner, draw(density))
    row_vec = program.declare_input("r", 1, cols)
    col_vec = program.declare_input("c", rows, 1, draw(density))
    product = program.assign("P", a @ b)
    statements = {
        "transposed": lambda: a @ b_t.T,
        "both_transposed": lambda: (b_t @ a.T).T,
        "broadcast": lambda: product * row_vec + col_vec,
        "left_transposed": lambda: a.T @ product,
        "sum": lambda: product + a @ b_t.T * 2.0,
    }
    chosen = draw(st.lists(st.sampled_from(sorted(statements)), min_size=1,
                           max_size=3, unique=True))
    for index, kind in enumerate(chosen):
        program.assign(f"v{index}", statements[kind]())
    program.mark_output(*(f"v{index}" for index in range(len(chosen))))
    return program


split = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 30))


@given(program=ragged_program(), tile=st.integers(2, 9), matmul=split,
       per_task=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_compiled_work_matches_per_tile_oracle(program, tile, matmul,
                                               per_task):
    params = CompilerParams(matmul=MatMulParams(*matmul),
                            elementwise=ElementwiseParams(per_task))
    with oracle_checked() as checked:
        compiled = compile_program(program, PhysicalContext(tile), params)
    assert len(checked) == compiled.dag.num_tasks()


@st.composite
def operand_pair(draw):
    """A conforming (left, right) pair with ragged edges, transposes,
    sparse densities and compression (``bytes_scale``)."""
    tile = draw(st.integers(2, 9))
    rows, inner, cols = (draw(st.integers(1, 40)) for __ in range(3))
    operands = []
    for name, shape in (("A", (rows, inner)), ("B", (inner, cols))):
        transposed = draw(st.booleans())
        stored = shape[::-1] if transposed else shape
        operands.append(Operand(MatrixInfo(
            name, TileGrid(*stored, tile),
            draw(st.sampled_from([1.0, 0.3, 0.05])),
            draw(st.sampled_from([1.0, 0.37, 2.5]))), transposed))
    return operands[0], operands[1], tile


@given(pair=operand_pair(), matmul=split, per_task=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_job_builders_match_per_tile_oracle(pair, matmul, per_task):
    left, right, tile = pair
    context = PhysicalContext(tile)
    with oracle_checked() as checked:
        jobs = build_matmul_jobs("mm", left, right, "C", context,
                                 MatMulParams(*matmul))
    assert len(checked) == sum(len(job.map_tasks) for job in jobs.jobs())
    rows, cols = left.shape
    row_vec = Operand(MatrixInfo("r", TileGrid(cols, 1, tile), 0.05, 2.5),
                      transposed=True)
    col_vec = Operand(MatrixInfo("c", TileGrid(rows, 1, tile), 1.0, 0.37))
    kernel = FusedKernel([left, row_vec, col_vec], lambda x, y, z: x * y + z,
                         2)
    output = MatrixInfo("E", TileGrid(rows, cols, tile), right.info.density,
                        right.info.bytes_scale)
    params = ElementwiseParams(per_task)
    job = build_elementwise_job("ew", kernel, output, context, params)
    assert works(job.map_tasks) == elementwise_oracle(kernel, output,
                                                      context, params)


def rmm_reduce_oracle(left, right, output):
    grid, k_tiles = output.grid, left.tile_cols
    reduces = []
    for row, col in grid.positions():
        incoming = (sum(left.tile_bytes(row, k) for k in range(k_tiles))
                    + sum(right.tile_bytes(k, col) for k in range(k_tiles)))
        rows, cols = grid.tile_shape(row, col)
        flops = sum(matmul_flops(rows, inner_width(left, row, k), cols)
                    for k in range(k_tiles))
        reduces.append(TaskWork(bytes_read=incoming,
                                bytes_written=output.tile_bytes(row, col),
                                flops=flops, element_ops=incoming // 8))
    return reduces


def cpmm_reduce_oracle(left, right, output):
    """Both CPMM jobs' reduce works: cross products, then partial sums."""
    grid, k_tiles = output.grid, left.tile_cols
    cross = []
    for k in range(k_tiles):
        incoming = (sum(left.tile_bytes(i, k) for i in range(grid.tile_rows))
                    + sum(right.tile_bytes(k, j)
                          for j in range(grid.tile_cols)))
        flops = sum(matmul_flops(grid.tile_shape(i, j)[0],
                                 inner_width(left, i, k),
                                 grid.tile_shape(i, j)[1])
                    for i, j in grid.positions())
        cross.append(TaskWork(bytes_read=incoming,
                              bytes_written=output.total_bytes(),
                              flops=flops, element_ops=incoming // 8))
    sums = []
    for row, col in grid.positions():
        incoming = k_tiles * output.tile_bytes(row, col)
        rows, cols = grid.tile_shape(row, col)
        sums.append(TaskWork(bytes_read=incoming,
                             bytes_written=output.tile_bytes(row, col),
                             element_ops=rows * cols * k_tiles
                             + incoming // 8))
    return cross, sums


def inner_width(left, tile_row, k):
    rows, cols = left.info.grid.tile_shape(*left.stored_position(tile_row, k))
    return rows if left.transposed else cols


@contextmanager
def baselines_checked():
    """Compare the reduce tasks of every RMM and CPMM plan with their
    per-tile oracles; yields the list of plans checked so far."""
    checked = []

    def rmm(left, right, output_name, context, **kwargs):
        plan = plan_rmm(left, right, output_name, context, **kwargs)
        (job,) = plan.dag.topological_order()
        assert works(job.reduce_tasks) == rmm_reduce_oracle(left, right,
                                                            plan.output)
        checked.append(plan)
        return plan

    def cpmm(left, right, output_name, context, **kwargs):
        plan = plan_cpmm(left, right, output_name, context, **kwargs)
        first, second = plan.dag.topological_order()
        assert (works(first.reduce_tasks), works(second.reduce_tasks)) \
            == cpmm_reduce_oracle(left, right, plan.output)
        checked.append(plan)
        return plan

    with patch.object(systemml, "plan_rmm", rmm), \
            patch.object(systemml, "plan_cpmm", cpmm):
        yield checked


@given(pair=operand_pair())
@settings(max_examples=40, deadline=None)
def test_baseline_work_matches_per_tile_oracle(pair):
    left, right, tile = pair
    context = PhysicalContext(tile)
    with baselines_checked() as checked:
        systemml.plan_rmm(left, right, "C", context)
        systemml.plan_cpmm(left, right, "C", context)
    assert len(checked) == 2


@given(program=ragged_program(), tile=st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_systemml_program_work_matches_per_tile_oracle(program, tile):
    with baselines_checked() as checked:
        compiled = compile_systemml_program(program, PhysicalContext(tile))
    assert checked
    assert len(checked) == sum(1 for job in compiled.dag
                               if job.label.startswith(("RMM", "CPMM-1")))


@given(rows=st.integers(1, 60), cols=st.integers(1, 60),
       tile=st.integers(2, 9), density=st.sampled_from([1.0, 0.3, 0.05]))
@settings(max_examples=40, deadline=None)
def test_ingest_work_matches_per_tile_oracle(rows, cols, tile, density):
    job, output = plan_ingest_job("load", "X", rows, cols,
                                  PhysicalContext(tile), density)
    grid = output.grid
    expected = []
    for strip in range(grid.tile_rows):
        values = grid.tile_shape(strip, 0)[0] * cols
        written = sum(output.tile_bytes(strip, col)
                      for col in range(grid.tile_cols))
        expected.append(TaskWork(
            bytes_read=values * TEXT_BYTES_PER_VALUE, bytes_written=written,
            element_ops=values * 4, tile_ops=grid.tile_cols,
            memory_bytes=written))
    assert works(job.map_tasks) == expected
