"""Naive baseline: single-node execution.

``plan_single_node`` models running the whole computation as one task on one
machine — the "just use a big server" strawman whose crossover against
cluster plans the time/cost experiments show.  (The other naive comparison,
one MapReduce job per element-wise operator, is reached by compiling with
``CompilerParams(fusion_enabled=False)`` — see experiment E11.)
"""

from __future__ import annotations

from repro.core.physical import MatrixInfo, Operand, PhysicalContext
from repro.errors import ShapeError
from repro.hadoop.job import Job, JobDag, JobKind
from repro.hadoop.task import TaskWork, make_map_task
from repro.matrix.tile import matmul_flops
from repro.matrix.tiled import TileGrid


def plan_single_node(left: Operand, right: Operand, output_name: str,
                     context: PhysicalContext,
                     job_id: str = "single") -> tuple[JobDag, MatrixInfo]:
    """The whole multiply as one map task on one slot."""
    if left.shape[1] != right.shape[0]:
        raise ShapeError(
            f"cannot multiply shapes {left.shape} and {right.shape}"
        )
    grid = TileGrid(left.shape[0], right.shape[1], context.tile_size)
    output = MatrixInfo(output_name, grid)
    rows, inner = left.shape
    cols = right.shape[1]
    read = left.info.total_bytes() + right.info.total_bytes()
    written = output.total_bytes()
    work = TaskWork(bytes_read=read, bytes_written=written,
                    flops=matmul_flops(rows, inner, cols),
                    memory_bytes=read + written)
    task = make_map_task(f"{job_id}-m0", work,
                         label=f"single-node {output_name}")
    job = Job(job_id, JobKind.MAP_ONLY, [task],
              label=f"single-node multiply -> {output_name}")
    return JobDag([job]), output
