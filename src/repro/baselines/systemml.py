"""SystemML-style matrix multiply on MapReduce: RMM and CPMM.

The paper's headline comparison pits Cumulon's map-only pipeline against
Hadoop-based linear algebra systems, of which SystemML is the canonical
example.  SystemML executes ``C = A @ B`` as genuine MapReduce jobs using
one of two strategies:

**RMM (replication-based matrix multiply)** — one MR job.  Mappers read
input tiles and *replicate* them into the shuffle: tile ``A[i,k]`` is sent
to every reducer ``(i, j)`` and ``B[k,j]`` to every ``(i, j)`` — a shuffle
volume of ``|A| * Nj + |B| * Ni`` — and each reducer assembles one C tile.

**CPMM (cross-product matrix multiply)** — two MR jobs.  Job 1 shuffles
``|A| + |B|`` grouped by the inner index ``k``; each reducer forms the
cross-product partials ``P_k = A[:,k] @ B[k,:]`` and writes ``Nk`` full-size
copies of C to HDFS.  Job 2 shuffles those partials (``|C| * Nk``) and sums
them.

Both pay what Cumulon avoids: a sort-based shuffle, materialization between
phases, and the larger per-job overhead of full MapReduce.  The tasks still
carry real compute closures (reducers read the tiles they *would* have
received and do the real math), so baseline results are bit-checkable
against Cumulon's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.physical import MatrixInfo, Operand, PhysicalContext, add_runner
from repro.errors import ShapeError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.matrix.tile import TileId, matmul_flops
from repro.matrix.tiled import TileGrid, TiledMatrix


@dataclass
class BaselineMultiply:
    """A planned baseline multiply: the job DAG plus the output descriptor."""

    dag: JobDag
    output: MatrixInfo
    strategy: str


def plan_rmm(left: Operand, right: Operand, output_name: str,
             context: PhysicalContext,
             job_prefix: str = "rmm") -> BaselineMultiply:
    """Replication-based multiply: one MapReduce job."""
    _check_conforming(left, right)
    grid = TileGrid(left.shape[0], right.shape[1], context.tile_size)
    output = MatrixInfo(output_name, grid)
    tile_rows, tile_cols = grid.tile_rows, grid.tile_cols
    k_tiles = left.tile_cols

    map_tasks = []
    # One mapper per input tile; it replicates its tile into the shuffle.
    for index, (operand, replication) in enumerate(
            ((left, tile_cols), (right, tile_rows))):
        # Mappers read the stored layout directly; use stored positions.
        for tile_index, (row, col) in enumerate(operand.info.grid.positions()):
            tile_bytes = operand.info.tile_bytes(row, col)
            work = TaskWork(bytes_read=tile_bytes,
                            shuffle_bytes=tile_bytes * replication,
                            element_ops=tile_bytes // 8)
            map_tasks.append(make_map_task(
                task_id=f"{job_prefix}-m{index}-{tile_index}",
                work=work,
                preferred_nodes=context.preferred_nodes(
                    [TileId(operand.info.name, row, col)]),
                label=f"rmm map {operand.info.name}[{row},{col}] x{replication}",
            ))

    output_matrix = None
    if context.attach_run:
        output_matrix = TiledMatrix(output_name, grid, context.backing)

    reduce_tasks = []
    for reduce_index, (row, col) in enumerate(grid.positions()):
        incoming = (left.block_bytes((row, row + 1), (0, k_tiles))
                    + right.block_bytes((0, k_tiles), (col, col + 1)))
        out_rows, out_cols = grid.tile_shape(row, col)
        flops = matmul_flops(out_rows, left.shape[1], out_cols)
        # element_ops: deserializing/merging the sorted shuffle input.
        work = TaskWork(bytes_read=incoming,
                        bytes_written=output.tile_bytes(row, col),
                        flops=flops, element_ops=incoming // 8)
        run = None
        if context.attach_run:
            run = _reduce_runner(left, right, output_matrix, row, col,
                                 k_tiles, context)
        reduce_tasks.append(make_reduce_task(
            task_id=f"{job_prefix}-r{reduce_index}", work=work, run=run,
            label=f"rmm reduce C[{row},{col}]",
        ))

    job = Job(job_prefix, JobKind.MAPREDUCE, map_tasks, reduce_tasks,
              label=f"RMM {left.info.name}@{right.info.name} -> {output_name}")
    return BaselineMultiply(JobDag([job]), output, "RMM")


def plan_cpmm(left: Operand, right: Operand, output_name: str,
              context: PhysicalContext,
              job_prefix: str = "cpmm") -> BaselineMultiply:
    """Cross-product multiply: two MapReduce jobs."""
    _check_conforming(left, right)
    grid = TileGrid(left.shape[0], right.shape[1], context.tile_size)
    output = MatrixInfo(output_name, grid)
    k_tiles = left.tile_cols
    partials = [MatrixInfo(f"{output_name}#cp{k}", grid)
                for k in range(k_tiles)]

    partial_matrices: list[TiledMatrix | None] = [None] * k_tiles
    output_matrix = None
    if context.attach_run:
        partial_matrices = [TiledMatrix(info.name, grid, context.backing)
                            for info in partials]
        output_matrix = TiledMatrix(output_name, grid, context.backing)

    # --- Job 1: group by k, form cross products. ---
    map_tasks = []
    for index, operand in enumerate((left, right)):
        # Mappers read the stored layout directly; use stored positions.
        for tile_index, (row, col) in enumerate(operand.info.grid.positions()):
            tile_bytes = operand.info.tile_bytes(row, col)
            work = TaskWork(bytes_read=tile_bytes, shuffle_bytes=tile_bytes,
                            element_ops=tile_bytes // 8)
            map_tasks.append(make_map_task(
                task_id=f"{job_prefix}1-m{index}-{tile_index}", work=work,
                preferred_nodes=context.preferred_nodes(
                    [TileId(operand.info.name, row, col)]),
                label=f"cpmm map {operand.info.name}[{row},{col}]",
            ))
    reduce_tasks = []
    for k in range(k_tiles):
        incoming = (left.block_bytes((0, grid.tile_rows), (k, k + 1))
                    + right.block_bytes((k, k + 1), (0, grid.tile_cols)))
        ((inner, __),) = left.extents(1, k, k + 1)
        flops = matmul_flops(grid.rows, inner, grid.cols)
        written = partials[k].total_bytes()
        run = None
        if context.attach_run:
            run = _cross_product_runner(left, right, partial_matrices[k],
                                        k, grid, context)
        reduce_tasks.append(make_reduce_task(
            task_id=f"{job_prefix}1-r{k}",
            work=TaskWork(bytes_read=incoming, bytes_written=written,
                          flops=flops, element_ops=incoming // 8),
            run=run, label=f"cpmm cross-product k={k}",
        ))
    job1 = Job(f"{job_prefix}1", JobKind.MAPREDUCE, map_tasks, reduce_tasks,
               label=f"CPMM-1 {left.info.name}@{right.info.name}")

    # --- Job 2: regroup by (i, j), sum the k partials. ---
    map_tasks2 = []
    for k, partial in enumerate(partials):
        for tile_index, (row, col) in enumerate(partial.grid.positions()):
            tile_bytes = partial.tile_bytes(row, col)
            work = TaskWork(bytes_read=tile_bytes, shuffle_bytes=tile_bytes,
                            element_ops=tile_bytes // 8)
            map_tasks2.append(make_map_task(
                task_id=f"{job_prefix}2-m{k}-{tile_index}", work=work,
                label=f"cpmm map partial k={k} [{row},{col}]",
            ))
    reduce_tasks2 = []
    for reduce_index, (row, col) in enumerate(grid.positions()):
        # Every partial shares C's descriptor, so shares its tile sizes.
        incoming = k_tiles * output.tile_bytes(row, col)
        rows, cols = grid.tile_shape(row, col)
        run = None
        if context.attach_run:
            run = add_runner(partials, [(row, col)], output_matrix, context)
        reduce_tasks2.append(make_reduce_task(
            task_id=f"{job_prefix}2-r{reduce_index}",
            work=TaskWork(bytes_read=incoming,
                          bytes_written=output.tile_bytes(row, col),
                          element_ops=rows * cols * k_tiles + incoming // 8),
            run=run, label=f"cpmm sum C[{row},{col}]",
        ))
    job2 = Job(f"{job_prefix}2", JobKind.MAPREDUCE, map_tasks2, reduce_tasks2,
               depends_on={job1.job_id},
               label=f"CPMM-2 sum partials -> {output_name}")
    return BaselineMultiply(JobDag([job1, job2]), output, "CPMM")


def plan_best_systemml(left: Operand, right: Operand, output_name: str,
                       context: PhysicalContext) -> BaselineMultiply:
    """SystemML's strategy chooser: compare shuffle volumes.

    RMM shuffles ``|A| * Nj + |B| * Ni`` (input replication); CPMM shuffles
    ``|A| + |B|`` in job 1 and the partial products ``|C| * Nk`` in job 2.
    RMM wins when one side of the multiply is narrow (cheap to replicate),
    CPMM when both inputs span wide tile grids.
    """
    grid = TileGrid(left.shape[0], right.shape[1], context.tile_size)
    left_bytes = left.info.total_bytes()
    right_bytes = right.info.total_bytes()
    rmm_shuffle = left_bytes * grid.tile_cols + right_bytes * grid.tile_rows
    k_tiles = left.tile_cols
    output_bytes = MatrixInfo(output_name, grid).total_bytes()
    cpmm_shuffle = left_bytes + right_bytes + output_bytes * k_tiles
    if rmm_shuffle <= cpmm_shuffle:
        return plan_rmm(left, right, output_name, context)
    return plan_cpmm(left, right, output_name, context)


# ---------------------------------------------------------------------------
# Real-execution closures (reducers do the math Cumulon's tasks would).
# ---------------------------------------------------------------------------

def _reduce_runner(left: Operand, right: Operand, output_matrix: TiledMatrix,
                   row: int, col: int, k_tiles: int,
                   context: PhysicalContext):
    def run() -> None:
        total = None
        for k in range(k_tiles):
            left_payload = _dense_payload(left, row, k, context)
            right_payload = _dense_payload(right, k, col, context)
            product = left_payload @ right_payload
            total = product if total is None else total + product
        output_matrix.put_tile(row, col, total)

    return run


def _cross_product_runner(left: Operand, right: Operand,
                          partial_matrix: TiledMatrix, k: int,
                          grid: TileGrid, context: PhysicalContext):
    def run() -> None:
        for i in range(grid.tile_rows):
            left_payload = _dense_payload(left, i, k, context)
            for j in range(grid.tile_cols):
                right_payload = _dense_payload(right, k, j, context)
                partial_matrix.put_tile(i, j, left_payload @ right_payload)

    return run


def _dense_payload(operand: Operand, tile_row: int, tile_col: int,
                   context: PhysicalContext) -> np.ndarray:
    tile = context.read_tile(operand.tile_id(tile_row, tile_col))
    dense = tile.to_dense()
    return dense.T if operand.transposed else dense


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------

def _check_conforming(left: Operand, right: Operand) -> None:
    if left.shape[1] != right.shape[0]:
        raise ShapeError(
            f"cannot multiply shapes {left.shape} and {right.shape}"
        )
    if left.info.grid.tile_size != right.info.grid.tile_size:
        raise ShapeError("operands must share a tile size")

