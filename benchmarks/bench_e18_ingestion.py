"""E18 — Extension: data-ingestion throughput.

Loading the dataset from delimited text into binary tiles is the first job
of any real deployment (the paper's workflows assume tiled inputs already in
HDFS; this prices getting them there).  Expected shape: ingestion is
read/parse bound and scales near-linearly with cluster size until the fixed
job overhead and the ragged final wave dominate; text input is an order of
magnitude larger than the binary tiles written.
"""

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import PhysicalContext
from repro.core.simcost import simulate_program
from repro.hadoop.job import JobDag
from repro.ingest.loader import plan_ingest_job

from benchmarks.common import Table, report

ROWS, COLS = 1048576, 4096  # ~32 GB binary, ~58 GB text
TILE = 4096
NODE_COUNTS = [1, 2, 4, 8, 16, 32]


def load_seconds(nodes: int) -> tuple[float, int, int]:
    job, info = plan_ingest_job("load", "X", ROWS, COLS,
                                PhysicalContext(TILE))
    spec = ClusterSpec(get_instance_type("m1.large"), nodes, 2)
    seconds = simulate_program(JobDag([job]), spec,
                               CumulonCostModel()).seconds
    return seconds, job.total_bytes_read(), info.total_bytes()


def build_series():
    rows = []
    base_seconds = None
    for nodes in NODE_COUNTS:
        seconds, text_bytes, binary_bytes = load_seconds(nodes)
        if base_seconds is None:
            base_seconds = seconds
        rows.append([nodes, seconds,
                     base_seconds / seconds,
                     text_bytes / 2**30, binary_bytes / 2**30])
    return rows


def test_e18_ingestion_scaling(benchmark):
    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    report(Table(
        experiment="E18",
        title=f"Ingest {ROWS}x{COLS} text -> tiles: cluster-size scaling",
        headers=["nodes", "time_s", "speedup_vs_1", "text_GB", "binary_GB"],
        rows=rows,
    ))
    times = {row[0]: row[1] for row in rows}
    speedups = {row[0]: row[2] for row in rows}
    # Monotone scaling...
    ordered = [times[n] for n in NODE_COUNTS]
    assert ordered == sorted(ordered, reverse=True)
    # ...roughly linear in the middle of the range...
    assert speedups[8] > 5.0
    # ...and visibly sub-linear at the top (overhead + ragged waves).
    assert speedups[32] < 32.0
    # Text is much bulkier than the binary tiles.
    assert rows[0][3] > 1.5 * rows[0][4]
