"""Whole-program SystemML-style compilation.

SystemML (2013) compiled linear-algebra scripts to MapReduce jobs: each
matrix multiply became an RMM or CPMM job and each element-wise operator its
own MR pass — binary operators need a join-by-key shuffle to align operand
blocks, so they are full MapReduce jobs.  This module reuses Cumulon's
compiler skeleton but swaps in those MapReduce templates, giving the
end-to-end GNMF/RSVD comparisons (E7, E8) a faithful whole-program
comparator on the identical substrate.
"""

from __future__ import annotations

from repro.baselines.systemml import plan_best_systemml
from repro.core.compiler import CompiledProgram, Compiler, CompilerParams
from repro.core.expr import MatMul
from repro.core.physical import (
    FusedKernel,
    MatrixInfo,
    PhysicalContext,
    broadcast_position,
    elementwise_runner,
)
from repro.core.program import Program
from repro.hadoop.job import Job, JobKind
from repro.hadoop.task import TaskWork, make_map_task, make_reduce_task
from repro.matrix.tile import TileId
from repro.matrix.tiled import TileGrid, TiledMatrix


class SystemMLCompiler(Compiler):
    """Compiles programs the way a 2013 MapReduce-based system would."""

    def __init__(self, context: PhysicalContext):
        # Fusion off: every logical operator becomes its own job.
        super().__init__(context, CompilerParams(fusion_enabled=False))

    def _materialize_matmul(self, expr: MatMul, output_name: str):
        left, left_deps = self._as_operand(expr.left)
        right, right_deps = self._as_operand(expr.right)
        baseline = plan_best_systemml(left, right, output_name, self.context)
        deps = set(left_deps | right_deps)
        renamed = {}
        for job in baseline.dag.topological_order():
            new_id = self._job_id(f"sysml-{output_name}")
            renamed[job.job_id] = new_id
            job_deps = {renamed[d] for d in job.depends_on} | deps
            self._dag.add(Job(new_id, job.kind, job.map_tasks,
                              job.reduce_tasks, depends_on=job_deps,
                              label=job.label))
            final_id = new_id
        self._materialized[output_name] = baseline.output
        if self.context.attach_run:
            self._output_matrices[output_name] = TiledMatrix(
                baseline.output.name, baseline.output.grid,
                self.context.backing)
        return baseline.output, frozenset({final_id})

    def _emit_single_kernel(self, kernel: FusedKernel, expr, output_name: str,
                            deps):
        """One element-wise operator as a full MapReduce job."""
        grid = TileGrid(expr.shape[0], expr.shape[1], self.context.tile_size)
        output = MatrixInfo(output_name, grid, expr.density)
        output_matrix = None
        if self.context.attach_run:
            output_matrix = TiledMatrix(output_name, grid,
                                        self.context.backing)
            self._output_matrices[output_name] = output_matrix
        job_id = self._job_id(f"sysml-ew-{output_name}")
        job = elementwise_as_mapreduce(job_id, kernel, output, self.context,
                                       set(deps), output_matrix)
        self._dag.add(job)
        self._materialized[output_name] = output
        return output, frozenset({job.job_id})


def elementwise_as_mapreduce(job_id: str, kernel: FusedKernel,
                             output: MatrixInfo, context: PhysicalContext,
                             depends_on: set[str],
                             output_matrix: TiledMatrix | None) -> Job:
    """An element-wise operator as map (read + shuffle) -> reduce (compute).

    Mappers tag each operand tile with its grid position and shuffle it;
    reducers join the co-positioned tiles, apply the operator, and write the
    output — the block-alignment join SystemML's binary operators required.
    """
    grid = output.grid
    map_tasks = []
    for op_index, operand in enumerate(kernel.operands):
        for tile_index, (row, col) in enumerate(operand.info.grid.positions()):
            tile_bytes = operand.info.tile_bytes(row, col)
            map_tasks.append(make_map_task(
                task_id=f"{job_id}-m{op_index}-{tile_index}",
                work=TaskWork(bytes_read=tile_bytes,
                              shuffle_bytes=tile_bytes,
                              element_ops=tile_bytes // 8, tile_ops=2),
                preferred_nodes=context.preferred_nodes(
                    [TileId(operand.info.name, row, col)]),
                label=f"sysml ew map {operand.info.name}[{row},{col}]",
            ))

    reduce_tasks = []
    for reduce_index, (row, col) in enumerate(grid.positions()):
        incoming = sum(
            operand.tile_bytes(*broadcast_position(operand, row, col))
            for operand in kernel.operands)
        rows, cols = grid.tile_shape(row, col)
        run = None
        if context.attach_run:
            run = elementwise_runner(kernel, [(row, col)], context,
                                     output_matrix)
        reduce_tasks.append(make_reduce_task(
            task_id=f"{job_id}-r{reduce_index}",
            work=TaskWork(bytes_read=incoming,
                          bytes_written=output.tile_bytes(row, col),
                          element_ops=rows * cols * kernel.n_operators
                                      + incoming // 8,
                          tile_ops=len(kernel.operands) + 1),
            run=run,
            label=f"sysml ew reduce [{row},{col}]",
        ))
    return Job(job_id, JobKind.MAPREDUCE, map_tasks, reduce_tasks,
               depends_on=depends_on,
               label=f"sysml {kernel.label or 'ew'} -> {output.name}")


def compile_systemml_program(program: Program,
                             context: PhysicalContext) -> CompiledProgram:
    """Compile ``program`` into SystemML-style MapReduce jobs."""
    return SystemMLCompiler(context).compile(program)
