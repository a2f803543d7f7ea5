"""Ingestion: turning text datasets into tiled HDFS matrices.

Two faces, like the rest of the system:

* :func:`ingest_csv` / :func:`ingest_array` really parse and tile data into
  a backing store (used by tests and small-scale pipelines);
* :func:`plan_ingest_job` produces the map-only *load* job the simulator
  prices: each task reads one tile-row strip of the text file (text is
  ~:data:`~repro.ingest.parser.TEXT_BYTES_PER_VALUE` bytes per value),
  parses it (element-wise work), and writes the strip's binary tiles.
"""

from __future__ import annotations

import numpy as np

from repro.core.physical import MatrixInfo, PhysicalContext
from repro.errors import ValidationError
from repro.hadoop.job import Job, JobKind
from repro.hadoop.task import TaskWork, make_map_task
from repro.ingest.parser import (
    TEXT_BYTES_PER_VALUE,
    parse_csv_matrix,
)
from repro.matrix.tiled import TileBacking, TileGrid, TiledMatrix


def ingest_array(name: str, array: np.ndarray, tile_size: int,
                 backing: TileBacking) -> TiledMatrix:
    """Tile an in-memory array into the backing store."""
    return TiledMatrix.from_numpy(name, array, tile_size, backing)


def ingest_csv(name: str, text: str, tile_size: int,
               backing: TileBacking, delimiter: str = ",") -> TiledMatrix:
    """Parse delimited text and tile it into the backing store."""
    array = parse_csv_matrix(text, delimiter=delimiter)
    return ingest_array(name, array, tile_size, backing)


def plan_ingest_job(job_id: str, name: str, rows: int, cols: int,
                    context: PhysicalContext,
                    density: float = 1.0) -> tuple[Job, MatrixInfo]:
    """The load job: text row-strips -> parsed, tiled binary matrix.

    One map task per tile-row strip: it scans the strip's share of the text
    file, parses every value, and writes the strip's tiles.  Returns the
    job plus the descriptor of the loaded matrix.
    """
    if rows <= 0 or cols <= 0:
        raise ValidationError("rows and cols must be positive")
    grid = TileGrid(rows, cols, context.tile_size)
    output = MatrixInfo(name, grid, density)
    tasks = []
    for strip in range(grid.tile_rows):
        strip_height = grid.tile_shape(strip, 0)[0]
        values = strip_height * cols
        strip_tiles_bytes = output.block_bytes((strip, strip + 1),
                                               (0, grid.tile_cols))
        work = TaskWork(
            bytes_read=values * TEXT_BYTES_PER_VALUE,
            bytes_written=strip_tiles_bytes,
            # Parsing costs several element-ops per value (char scanning,
            # float conversion) — text parsing is CPU-hungry.
            element_ops=values * 4,
            tile_ops=grid.tile_cols,
            memory_bytes=strip_tiles_bytes,
        )
        tasks.append(make_map_task(
            task_id=f"{job_id}-m{strip}", work=work,
            label=f"load {name} strip {strip}",
        ))
    job = Job(job_id, JobKind.MAP_ONLY, tasks,
              label=f"ingest text -> {name}")
    return job, output
