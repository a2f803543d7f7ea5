"""Physical operators: Cumulon's map-only multi-input job templates.

Two templates cover all of the paper's workloads:

**Fused element-wise job** — a chain/tree of element-wise, scalar, and
transpose operators collapses into one map-only job.  Each map task owns a
chunk of output tile positions; for each position it reads the matching tile
of every input matrix (transposing indices where needed), evaluates the fused
kernel once, and writes the output tile.  One pass over the data regardless
of how many logical operators were fused — this is where Cumulon beats
one-job-per-operator MapReduce plans.

**Tiled matrix multiply** — ``C = A @ B`` parameterized by
:class:`MatMulParams`: each *mult* task computes the partial products of a
``ci x cj`` block of C tiles over one of ``k_splits`` segments of the inner
dimension.  With ``k_splits == 1`` the mult job writes C directly; otherwise
a second map-only *add* job sums the partials.  The parameters trade
task-count (scheduling overhead, ragged waves) against input re-reading and
per-task memory — the trade-off experiment E2 sweeps.

Every task carries a declarative :class:`~repro.hadoop.task.TaskWork` (bytes,
flops) so the simulator can price it, and optionally a ``run`` closure doing
the real tile math so the local executor can execute it.  Both are built from
the same description.  Mult and add-partials tasks also carry a ``kernel``:
the same arithmetic as one declarative plan a worker pool can evaluate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import CompilationError, ShapeError, ValidationError
from repro.hadoop import kernels
from repro.hadoop.job import Job, JobKind
from repro.hadoop.task import TaskWork, make_map_task
from repro.hdfs.tilestore import TileStore
from repro.matrix.tile import (
    DENSE_ELEMENT_BYTES,
    SPARSE_ELEMENT_BYTES,
    SPARSE_THRESHOLD,
    TileId,
    matmul_flops,
    tile_matmul,
)
from repro.matrix.tiled import TileBacking, TileGrid, TiledMatrix


@dataclass(frozen=True)
class MatrixInfo:
    """Descriptor of a stored (or to-be-stored) tiled matrix.

    ``bytes_scale`` models storage compression: a measured compressed/raw
    ratio (see :func:`repro.matrix.compression.compression_report`) applied
    to every tile's serialized size.
    """

    name: str
    grid: TileGrid
    density: float = 1.0
    bytes_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.density <= 1.0:
            raise ValidationError(f"density must be in [0, 1], got {self.density}")
        if self.bytes_scale <= 0:
            raise ValidationError(
                f"bytes_scale must be positive, got {self.bytes_scale}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def shape_bytes(self, rows: int, cols: int) -> int:
        """Estimated serialized size of a ``rows x cols`` tile, given
        density/compression."""
        if self.density >= SPARSE_THRESHOLD:
            raw = rows * cols * DENSE_ELEMENT_BYTES
        else:
            nnz = int(rows * cols * self.density)
            raw = nnz * SPARSE_ELEMENT_BYTES
        return max(64, int(raw * self.bytes_scale))

    def tile_bytes(self, tile_row: int, tile_col: int) -> int:
        return self.shape_bytes(*self.grid.tile_shape(tile_row, tile_col))

    def block_bytes(self, rows: tuple[int, int],
                    cols: tuple[int, int]) -> int:
        """Summed size of the tiles in rows x cols (``(start, stop)`` tile
        ranges), priced once per distinct tile shape."""
        return sum(self.shape_bytes(height, width) * n_rows * n_cols
                   for height, n_rows in self.grid.extents(0, *rows)
                   for width, n_cols in self.grid.extents(1, *cols))

    def total_bytes(self) -> int:
        return self.block_bytes((0, self.grid.tile_rows),
                                (0, self.grid.tile_cols))


@dataclass(frozen=True)
class Operand:
    """A matrix input with an optional logical transpose."""

    info: MatrixInfo
    transposed: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        rows, cols = self.info.shape
        return (cols, rows) if self.transposed else (rows, cols)

    @property
    def tile_rows(self) -> int:
        grid = self.info.grid
        return grid.tile_cols if self.transposed else grid.tile_rows

    @property
    def tile_cols(self) -> int:
        grid = self.info.grid
        return grid.tile_rows if self.transposed else grid.tile_cols

    def stored_position(self, tile_row: int, tile_col: int) -> tuple[int, int]:
        """Map a logical tile position to the stored tile position."""
        return (tile_col, tile_row) if self.transposed else (tile_row, tile_col)

    def tile_id(self, tile_row: int, tile_col: int) -> TileId:
        stored_row, stored_col = self.stored_position(tile_row, tile_col)
        return TileId(self.info.name, stored_row, stored_col)

    def tile_bytes(self, tile_row: int, tile_col: int) -> int:
        stored_row, stored_col = self.stored_position(tile_row, tile_col)
        return self.info.tile_bytes(stored_row, stored_col)

    def extents(self, axis: int, start: int,
                stop: int) -> tuple[tuple[int, int], ...]:
        """:meth:`TileGrid.extents` along a logical axis."""
        return self.info.grid.extents(axis ^ self.transposed, start, stop)

    def block_bytes(self, rows: tuple[int, int],
                    cols: tuple[int, int]) -> int:
        """:meth:`MatrixInfo.block_bytes` over logical tile ranges."""
        return self.info.block_bytes(*((cols, rows) if self.transposed
                                       else (rows, cols)))


@dataclass(frozen=True)
class MatMulParams:
    """Granularity knobs of the tiled multiply (Cumulon's split factors)."""

    tiles_per_task_i: int = 1
    tiles_per_task_j: int = 1
    k_splits: int = 1

    def __post_init__(self) -> None:
        if min(self.tiles_per_task_i, self.tiles_per_task_j, self.k_splits) < 1:
            raise ValidationError(f"matmul parameters must be >= 1: {self}")


@dataclass(frozen=True)
class ElementwiseParams:
    """Output tiles handled by one map task of a fused element-wise job."""

    tiles_per_task: int = 4

    def __post_init__(self) -> None:
        if self.tiles_per_task < 1:
            raise ValidationError(
                f"tiles_per_task must be >= 1, got {self.tiles_per_task}"
            )


class FusedKernel:
    """An element-wise computation over K broadcast-aligned operands.

    ``fn`` receives one dense ndarray per operand (already transposed as
    needed) and returns the output ndarray.  ``n_operators`` counts the fused
    logical operators, used for flop accounting.  Operands whose shape is 1
    along a dimension broadcast along it (row/column vectors, scalars), with
    numpy doing the within-tile stretching.
    """

    def __init__(self, operands: list[Operand], fn, n_operators: int,
                 label: str = "", shape: tuple[int, int] | None = None):
        if not operands:
            raise CompilationError("fused kernel needs at least one operand")
        if shape is None:
            shape = operands[0].shape
            for operand in operands[1:]:
                shape = _broadcast(shape, operand.shape)
        self._shape = shape
        for operand in operands:
            for out_dim, op_dim in zip(shape, operand.shape):
                if op_dim != out_dim and op_dim != 1:
                    raise ShapeError(
                        f"operand shape {operand.shape} does not broadcast "
                        f"to kernel shape {shape}"
                    )
        self.operands = operands
        self.fn = fn
        self.n_operators = max(1, n_operators)
        self.label = label

    @property
    def shape(self) -> tuple[int, int]:
        return self._shape


def _broadcast(left: tuple[int, int],
               right: tuple[int, int]) -> tuple[int, int]:
    dims = []
    for left_dim, right_dim in zip(left, right):
        if left_dim == right_dim or right_dim == 1:
            dims.append(left_dim)
        elif left_dim == 1:
            dims.append(right_dim)
        else:
            raise ShapeError(
                f"shapes {left} and {right} are not broadcastable"
            )
    return (dims[0], dims[1])


def broadcast_position(operand: Operand, tile_row: int,
                       tile_col: int) -> tuple[int, int]:
    """Logical tile position of ``operand`` feeding output tile (row, col):
    broadcast dimensions always read tile index 0."""
    row = tile_row if operand.tile_rows > 1 else 0
    col = tile_col if operand.tile_cols > 1 else 0
    return (row, col)


class PhysicalContext:
    """Everything job builders need to know about the target environment."""

    def __init__(self, tile_size: int,
                 backing: TileBacking | None = None,
                 attach_run: bool = False):
        if tile_size <= 0:
            raise ValidationError(f"tile size must be positive, got {tile_size}")
        if attach_run and backing is None:
            raise ValidationError("attach_run requires a tile backing")
        self.tile_size = tile_size
        self.backing = backing
        self.attach_run = attach_run

    # -- storage helpers ---------------------------------------------------------

    def preferred_nodes(self, tile_ids: Iterable[TileId]) -> frozenset[str]:
        """Nodes holding replicas of *all* the given tiles (for locality).

        Job builders pass a generator: only a :class:`TileStore` knows
        where tiles live, so without one (every planning compile) no id
        is ever built.
        """
        if not isinstance(self.backing, TileStore):
            return frozenset()
        nodes: set[str] | None = None
        for tile_id in tile_ids:
            replicas = self.backing.replica_nodes(tile_id)
            nodes = replicas if nodes is None else nodes & replicas
            if not nodes:
                return frozenset()
        return frozenset(nodes or ())

    def read_tile(self, tile_id: TileId):
        return self.backing.get(tile_id)


def _chunk_ranges(total: int, per_chunk: int):
    """Yield (start, stop) covering range(total) in per_chunk-sized pieces."""
    for start in range(0, total, per_chunk):
        yield (start, min(total, start + per_chunk))


def _span(extents) -> int:
    """Total length of :meth:`TileGrid.extents` runs."""
    return sum(length * count for length, count in extents)


def _priced_chunks(grid: TileGrid, per_chunk: int, price):
    """Cut the grid's row-major positions into ``per_chunk`` runs and yield
    ``(start, stop, positions, totals)`` per run, ``totals`` summing the
    dict ``price(row, col)`` field by field over the run's tiles.

    The tiles of one (last row?, last column?) class share a shape, so
    ``price`` runs once per class and a run is summed per class, not per
    tile.
    """
    rows, cols = grid.tile_rows, grid.tile_cols
    table = {(row, col): price(row, col)
             for row in {0, rows - 1} for col in {0, cols - 1}}
    last_row = (rows - 1) * cols
    for start, stop in _chunk_ranges(grid.num_tiles, per_chunk):
        totals = dict.fromkeys(table[0, 0], 0)
        for row, first, end in ((0, start, min(stop, last_row)),
                                (rows - 1, max(start, last_row), stop)):
            if first < end:
                edge = end // cols - first // cols  # in the last column
                for col, count in ((cols - 1, edge), (0, end - first - edge)):
                    for field, value in table[row, col].items():
                        totals[field] += count * value
        yield (start, stop, [divmod(position, cols)
                             for position in range(start, stop)], totals)


# ---------------------------------------------------------------------------
# Fused element-wise job.
# ---------------------------------------------------------------------------

def build_elementwise_job(job_id: str, kernel: FusedKernel,
                          output: MatrixInfo, context: PhysicalContext,
                          params: ElementwiseParams,
                          depends_on: set[str] | None = None,
                          output_matrix: TiledMatrix | None = None) -> Job:
    """One map-only job evaluating ``kernel`` tile-by-tile into ``output``."""
    if kernel.shape != output.shape:
        raise ShapeError(
            f"kernel shape {kernel.shape} != output shape {output.shape}"
        )
    grid = output.grid
    tile_elements = context.tile_size * context.tile_size
    chunks = _priced_chunks(grid, params.tiles_per_task, lambda row, col: dict(
        bytes_read=sum(
            operand.tile_bytes(*broadcast_position(operand, row, col))
            for operand in kernel.operands),
        bytes_written=output.tile_bytes(row, col),
        element_ops=math.prod(grid.tile_shape(row, col)) * kernel.n_operators))
    tasks = []
    for index, (start, stop, chunk, totals) in enumerate(chunks):
        input_ids = (operand.tile_id(*broadcast_position(operand, row, col))
                     for row, col in chunk for operand in kernel.operands)
        work = TaskWork(**totals,
                        tile_ops=len(chunk) * (len(kernel.operands) + 2),
                        memory_bytes=(len(kernel.operands) + 1)
                        * tile_elements * DENSE_ELEMENT_BYTES)
        run = None
        if context.attach_run:
            run = elementwise_runner(kernel, chunk, context, output_matrix)
        tasks.append(make_map_task(
            task_id=f"{job_id}-m{index}",
            work=work,
            preferred_nodes=context.preferred_nodes(input_ids),
            run=run,
            label=f"{kernel.label or 'ew'} tiles[{start}:{stop}]",
        ))
    return Job(job_id, JobKind.MAP_ONLY, tasks,
               depends_on=set(depends_on or ()),
               label=kernel.label or f"elementwise -> {output.name}")


def elementwise_runner(kernel: FusedKernel, chunk, context: PhysicalContext,
                       output_matrix: TiledMatrix):
    """Evaluate ``kernel`` at each output tile position of ``chunk``."""
    if output_matrix is None:
        raise CompilationError("attach_run requires the output TiledMatrix")

    def run() -> None:
        for row, col in chunk:
            payloads = []
            for operand in kernel.operands:
                position = broadcast_position(operand, row, col)
                tile = context.read_tile(operand.tile_id(*position))
                dense = tile.to_dense()
                payloads.append(dense.T if operand.transposed else dense)
            # numpy broadcasting stretches vector payloads within the tile.
            output_matrix.put_tile(row, col, kernel.fn(*payloads))

    return run


# ---------------------------------------------------------------------------
# Tiled matrix multiply: mult job (+ optional add job).
# ---------------------------------------------------------------------------

def partial_name(output_name: str, segment: int) -> str:
    """Name of the partial-product matrix for one inner-dimension segment."""
    return f"{output_name}#part{segment}"


@dataclass
class MatMulJobs:
    """Result of planning one multiply: 1 or 2 jobs plus the output info."""

    mult_job: Job
    add_job: Job | None
    output: MatrixInfo

    def jobs(self) -> list[Job]:
        return [self.mult_job] + ([self.add_job] if self.add_job else [])


def build_matmul_jobs(job_id: str, left: Operand, right: Operand,
                      output_name: str, context: PhysicalContext,
                      params: MatMulParams,
                      depends_on: set[str] | None = None,
                      output_density: float = 1.0) -> MatMulJobs:
    """Plan ``output = left @ right`` with the given split parameters."""
    if left.shape[1] != right.shape[0]:
        raise ShapeError(
            f"cannot multiply shapes {left.shape} and {right.shape}"
        )
    grid = TileGrid(left.shape[0], right.shape[1], context.tile_size)
    output = MatrixInfo(output_name, grid, output_density)
    k_tiles = left.tile_cols
    k_splits = min(params.k_splits, k_tiles)
    segments = _segment_bounds(k_tiles, k_splits)
    deps = set(depends_on or ())

    # Partial outputs (one per segment) or the final output directly.
    if k_splits == 1:
        targets = [output]
    else:
        targets = [MatrixInfo(partial_name(output_name, seg_index), grid,
                              output_density)
                   for seg_index in range(k_splits)]

    target_matrices: list[TiledMatrix | None] = [None] * len(targets)
    if context.attach_run:
        target_matrices = [TiledMatrix(info.name, grid, context.backing)
                           for info in targets]

    mult_tasks = []
    i_chunks = list(_chunk_ranges(grid.tile_rows, params.tiles_per_task_i))
    j_chunks = list(_chunk_ranges(grid.tile_cols, params.tiles_per_task_j))
    # A task's work depends only on its range lengths and on which ranges
    # hold the last (possibly ragged) tile: each such class is priced once.
    works: dict[tuple, TaskWork] = {}
    for seg_index, k_range in enumerate(segments):
        for i_range in i_chunks:
            for j_range in j_chunks:
                shape = (i_range[1] - i_range[0], i_range[1] == grid.tile_rows,
                         j_range[1] - j_range[0], j_range[1] == grid.tile_cols,
                         k_range[1] - k_range[0], k_range[1] == k_tiles)
                work = works.get(shape)
                if work is None:
                    work = works[shape] = _mult_work(
                        left, right, output, i_range, j_range, k_range)
                mult_tasks.append(_build_mult_task(
                    f"{job_id}-m{len(mult_tasks)}", left, right,
                    target_matrices[seg_index], i_range, j_range, k_range,
                    context, work))
    mult_job = Job(f"{job_id}", JobKind.MAP_ONLY, mult_tasks,
                   depends_on=deps,
                   label=f"mult {left.info.name}@{right.info.name}"
                         f" -> {output_name} (ks={k_splits})")

    add_job = None
    if k_splits > 1:
        output_matrix = None
        if context.attach_run:
            output_matrix = TiledMatrix(output.name, grid, context.backing)
        add_job = _build_add_job(f"{job_id}-add", targets, output,
                                 output_matrix, context,
                                 depends_on={mult_job.job_id})
    return MatMulJobs(mult_job, add_job, output)


def _segment_bounds(k_tiles: int, k_splits: int) -> list[tuple[int, int]]:
    """Split range(k_tiles) into k_splits near-equal contiguous segments."""
    bounds = []
    base = k_tiles // k_splits
    extra = k_tiles % k_splits
    start = 0
    for seg_index in range(k_splits):
        length = base + (1 if seg_index < extra else 0)
        bounds.append((start, start + length))
        start += length
    return bounds


def _mult_work(left: Operand, right: Operand, target: MatrixInfo,
               i_range: tuple[int, int], j_range: tuple[int, int],
               k_range: tuple[int, int]) -> TaskWork:
    """Declarative work of the mult task over one (i, j, k) block."""
    grid = target.grid
    bytes_read = (left.block_bytes(i_range, k_range)
                  + right.block_bytes(k_range, j_range))
    bytes_written = target.block_bytes(i_range, j_range)
    flops = matmul_flops(_span(grid.extents(0, *i_range)),
                         _span(left.extents(1, *k_range)),
                         _span(grid.extents(1, *j_range)))
    # Sparse inputs cut effective flops roughly with the density product.
    sparsity_scale = max(left.info.density * right.info.density, 1e-6)
    flops = int(flops * min(1.0, sparsity_scale * 4))

    # Working set: the ci x cj accumulator block plus the buffered A-strip
    # and B-strip of this task's k segment (Cumulon buffers whole strips).
    ci, cj, seg_len = (stop - start
                       for start, stop in (i_range, j_range, k_range))
    tiles_held = ci * cj + seg_len * (ci + cj)
    tile_size = target.grid.tile_size
    memory = tiles_held * tile_size * tile_size * DENSE_ELEMENT_BYTES
    # reads + per-tile multiplies/accumulations + writes
    tile_ops = seg_len * (ci + cj) + 2 * ci * cj * seg_len + ci * cj
    return TaskWork(bytes_read=bytes_read, bytes_written=bytes_written,
                    flops=max(1, flops), tile_ops=tile_ops,
                    memory_bytes=memory)


def _build_mult_task(task_id: str, left: Operand, right: Operand,
                     target_matrix: TiledMatrix | None,
                     i_range: tuple[int, int], j_range: tuple[int, int],
                     k_range: tuple[int, int], context: PhysicalContext,
                     work: TaskWork):
    left_ids = (left.tile_id(i, k)
                for i in range(*i_range) for k in range(*k_range))
    right_ids = (right.tile_id(k, j)
                 for k in range(*k_range) for j in range(*j_range))
    run = kernel = None
    if context.attach_run:
        run = _mult_runner(left, right, target_matrix, i_range, j_range,
                           k_range, context)
        kernel = _mult_kernel(left, right, target_matrix, i_range, j_range,
                              k_range, context)
    return make_map_task(
        task_id=task_id, work=work,
        preferred_nodes=context.preferred_nodes(chain(left_ids, right_ids)),
        run=run,
        label=f"mult i[{i_range[0]}:{i_range[1]}) "
              f"j[{j_range[0]}:{j_range[1]}) k[{k_range[0]}:{k_range[1]})",
        kernel=kernel,
    )


def _mult_runner(left: Operand, right: Operand, target_matrix: TiledMatrix,
                 i_range, j_range, k_range, context: PhysicalContext):
    if target_matrix is None:
        raise CompilationError("attach_run requires the target TiledMatrix")

    def run() -> None:
        # The inline reference path: what the thread backend runs, and what
        # any backend runs when ``kernel()`` declines (sparse payloads).
        for i in range(*i_range):
            for j in range(*j_range):
                accumulator = None
                for k in range(*k_range):
                    left_payload = _operand_payload(left, i, k, context)
                    right_payload = _operand_payload(right, k, j, context)
                    product = tile_matmul(left_payload, right_payload)
                    if accumulator is None:
                        accumulator = product
                    else:
                        accumulator = accumulator + product
                target_matrix.put_tile(i, j, _to_array(accumulator))

    return run


def _mult_kernel(left: Operand, right: Operand, target_matrix: TiledMatrix,
                 i_range, j_range, k_range, context: PhysicalContext):
    """This task's whole (i, j, k) block as one kernel plan.

    The kernel returns ``None`` (having computed nothing) when any input
    tile is sparse — the sparse*sparse kernel stays inline so its CSR
    arithmetic matches the reference path bit for bit.  Each input tile
    enters the payload table once, even though the inline loop would re-read
    it per output tile; results are identical, reads are fewer.
    """

    def kernel() -> kernels.KernelCall | None:
        left_payloads: list = []
        right_payloads: list = []
        for i in range(*i_range):
            for k in range(*k_range):
                tile = context.read_tile(left.tile_id(i, k))
                if tile.is_sparse:
                    return None
                left_payloads.append(tile.data)
        for k in range(*k_range):
            for j in range(*j_range):
                tile = context.read_tile(right.tile_id(k, j))
                if tile.is_sparse:
                    return None
                right_payloads.append(tile.data)
        positions = [(i, j)
                     for i in range(*i_range) for j in range(*j_range)]
        out_shapes = tuple(target_matrix.grid.tile_shape(i, j)
                           for i, j in positions)
        # The payload table already *is* the A block followed by the B
        # block, so when tile shapes are uniform per operand the whole task
        # reduces to grid geometry — backends then skip per-term encoding.
        a_shape = left_payloads[0].shape
        b_shape = right_payloads[0].shape
        if (all(p.shape == a_shape for p in left_payloads)
                and all(p.shape == b_shape for p in right_payloads)
                and all(shape == out_shapes[0] for shape in out_shapes)):
            plan = kernels.GridMultPlan(
                ni=i_range[1] - i_range[0], nj=j_range[1] - j_range[0],
                nk=k_range[1] - k_range[0],
                a_shape=(int(a_shape[0]), int(a_shape[1])),
                b_shape=(int(b_shape[0]), int(b_shape[1])),
                left_transposed=left.transposed,
                right_transposed=right.transposed,
                out_shape=out_shapes[0])
        else:
            n_left = len(left_payloads)
            n_k = k_range[1] - k_range[0]
            n_j = j_range[1] - j_range[0]
            outputs = tuple(
                tuple(((i - i_range[0]) * n_k + (k - k_range[0]),
                       n_left + (k - k_range[0]) * n_j + (j - j_range[0]))
                      for k in range(*k_range))
                for i, j in positions)
            transposed = (left.transposed,) * n_left \
                + (right.transposed,) * len(right_payloads)
            plan = kernels.BlockPlan(transposed, outputs, out_shapes)

        def store(results) -> None:
            for (i, j), (array, nnz) in zip(positions, results):
                target_matrix.put_tile(i, j, array, nnz=nnz)

        return kernels.KernelCall(plan, left_payloads + right_payloads, store)

    return kernel


def _operand_payload(operand: Operand, tile_row: int, tile_col: int,
                     context: PhysicalContext):
    tile = context.read_tile(operand.tile_id(tile_row, tile_col))
    payload = tile.data
    return payload.T if operand.transposed else payload


def _to_array(payload):
    if hasattr(payload, "todense"):
        return np.asarray(payload.todense())
    return payload


def _build_add_job(job_id: str, partials: list[MatrixInfo],
                   output: MatrixInfo, output_matrix: TiledMatrix | None,
                   context: PhysicalContext, depends_on: set[str]) -> Job:
    """Map-only job summing the per-segment partials into the final output."""
    grid = output.grid
    # Small chunks keep add tasks cheap; the add phase is I/O bound anyway.
    chunks = _priced_chunks(grid, 4, lambda row, col: dict(
        bytes_read=sum(partial.tile_bytes(row, col) for partial in partials),
        bytes_written=output.tile_bytes(row, col),
        element_ops=math.prod(grid.tile_shape(row, col)) * len(partials)))
    tasks = []
    for index, (start, stop, chunk, totals) in enumerate(chunks):
        input_ids = (TileId(partial.name, row, col)
                     for row, col in chunk for partial in partials)
        work = TaskWork(**totals, tile_ops=len(chunk) * (len(partials) + 1),
                        memory_bytes=2 * grid.tile_size * grid.tile_size
                        * DENSE_ELEMENT_BYTES)
        run = kernel = None
        if context.attach_run:
            run = add_runner(partials, chunk, output_matrix, context)
            kernel = _add_kernel(partials, chunk, output_matrix, context)
        tasks.append(make_map_task(
            task_id=f"{job_id}-m{index}", work=work,
            preferred_nodes=context.preferred_nodes(input_ids),
            run=run,
            label=f"add partials tiles[{start}:{stop}]",
            kernel=kernel,
        ))
    return Job(job_id, JobKind.MAP_ONLY, tasks, depends_on=depends_on,
               label=f"add {len(partials)} partials -> {output.name}")


def add_runner(partials: list[MatrixInfo], chunk,
               output_matrix: TiledMatrix, context: PhysicalContext):
    """Sum the co-positioned tiles of ``partials`` at each ``chunk`` tile."""
    if output_matrix is None:
        raise CompilationError("attach_run requires the output TiledMatrix")

    def run() -> None:
        for row, col in chunk:
            total = None
            for partial in partials:
                tile = context.read_tile(TileId(partial.name, row, col))
                payload = tile.to_dense()
                total = payload if total is None else total + payload
            output_matrix.put_tile(row, col, total)

    return run


def _add_kernel(partials: list[MatrixInfo], chunk,
                output_matrix: TiledMatrix, context: PhysicalContext):
    """A chunk of partial-sum positions as one kernel plan.

    Sparse partials are densified here exactly as the inline loop would
    (``tile.to_dense()``), so the summation the worker performs is the same
    operation sequence on the same floats.
    """

    def kernel() -> kernels.KernelCall:
        payloads: list = []
        outputs = []
        for row, col in chunk:
            terms = []
            for partial in partials:
                tile = context.read_tile(TileId(partial.name, row, col))
                terms.append((len(payloads), None))
                payloads.append(tile.to_dense())
            outputs.append(tuple(terms))
        grid = output_matrix.grid
        out_shapes = tuple(grid.tile_shape(row, col) for row, col in chunk)
        plan = kernels.BlockPlan((False,) * len(payloads), tuple(outputs),
                                 out_shapes)

        def store(results) -> None:
            for (row, col), (array, nnz) in zip(chunk, results):
                output_matrix.put_tile(row, col, array, nnz=nnz)

        return kernels.KernelCall(plan, payloads, store)

    return kernel
