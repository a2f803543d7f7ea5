"""E12 — Ablation: locality-aware task placement on vs off.

Tiles are placed in the simulated HDFS (real replica placement), an
element-wise job is compiled against that store with one tile per map task
(so each task has a definite home node), and the same DAG is simulated with
and without locality-aware scheduling on a network-constrained instance
type (m1.small: network is half the disk bandwidth, so remote reads cost
2x).  Expected shape: locality-aware scheduling achieves a near-100%
node-local fraction and a visibly faster job; raising replication lifts the
blind scheduler's accidental locality and narrows the gap.
"""

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.provisioning import provision
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import (
    ElementwiseParams,
    FusedKernel,
    MatrixInfo,
    Operand,
    PhysicalContext,
    build_elementwise_job,
)
from repro.core.simcost import simulate_program
from repro.hadoop.job import JobDag
from repro.hdfs.tilestore import TileStore
from repro.matrix.tile import TileId
from repro.matrix.tiled import TileGrid

from benchmarks.common import Table, report

TILE = 2048
DIMENSION = 16384  # 8x8 = 64 tiles per matrix
NODES = 8


def run_case(replication: int, locality_aware: bool):
    spec = ClusterSpec(get_instance_type("m1.small"), NODES, 1)
    store = TileStore(provision(spec, replication=replication))
    info_a = MatrixInfo("A", TileGrid(DIMENSION, DIMENSION, TILE))
    info_b = MatrixInfo("B", TileGrid(DIMENSION, DIMENSION, TILE))
    # Permuted placement: tile i of A and tile i of B share a writer node,
    # but the node sequence (3i+1 mod 8) deliberately misaligns with the
    # scheduler's own round-robin so blind scheduling gets no free locality.
    names = spec.node_names()
    for info in (info_a, info_b):
        for index, (row, col) in enumerate(info.grid.positions()):
            writer = names[(3 * index + 1) % len(names)]
            store.put_virtual(TileId(info.name, row, col),
                              info.tile_bytes(row, col), writer=writer)
    context = PhysicalContext(TILE, store)
    kernel = FusedKernel([Operand(info_a), Operand(info_b)],
                         lambda a, b: a + b, 1, label="A+B")
    job = build_elementwise_job("add", kernel,
                                MatrixInfo("C", info_a.grid), context,
                                ElementwiseParams(tiles_per_task=1))
    estimate = simulate_program(JobDag([job]), spec, CumulonCostModel(),
                                locality_aware=locality_aware)
    timeline = estimate.simulation.job("add")
    return estimate.seconds, timeline.locality_fraction


def build_series():
    rows = []
    for replication in (1, 2, 3):
        t_aware, local_aware = run_case(replication, True)
        t_blind, local_blind = run_case(replication, False)
        rows.append([replication, t_aware, local_aware * 100,
                     t_blind, local_blind * 100, t_blind / t_aware])
    return rows


def test_e12_locality_ablation(benchmark):
    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    report(Table(
        experiment="E12",
        title="Locality-aware scheduling ablation (8 x m1.small, A+B)",
        headers=["replication", "aware_s", "aware_local_pct",
                 "blind_s", "blind_local_pct", "speedup"],
        rows=rows,
    ))
    for replication, t_aware, local_aware, t_blind, local_blind, speedup \
            in rows:
        assert local_aware >= local_blind
        assert t_aware <= t_blind + 1e-6
    # Locality-aware scheduling must be near-fully local at replication 1.
    assert rows[0][2] > 90.0
    # The blind scheduler pays a visible price at replication 1...
    assert rows[0][5] > 1.1
    # ...and accidental locality grows with replication.
    assert rows[2][4] >= rows[0][4]
