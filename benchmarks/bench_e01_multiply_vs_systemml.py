"""E1 — Matrix multiply: Cumulon vs SystemML (RMM/CPMM) vs single node.

Reconstructs the paper's headline operator comparison: simulated wall-clock
of ``C = A @ B`` on the reference cluster as the matrix dimension grows.
Expected shape: Cumulon's map-only plan beats both MapReduce strategies at
every size (roughly 1.5-3x), and the gap is widest for CPMM, which
materializes and re-shuffles the partial products.
"""

from repro.baselines.systemml import plan_cpmm, plan_rmm
from repro.core.physical import (
    MatMulParams,
    MatrixInfo,
    Operand,
    PhysicalContext,
)
from repro.core.simcost import simulate_program
from repro.hadoop.job import JobDag
from repro.matrix.tiled import TileGrid

from benchmarks.common import Table, reference_model, reference_spec, report

from repro.core.physical import build_matmul_jobs

TILE = 2048
SIZES = [8192, 16384, 32768]


def multiply_times(dimension: int) -> dict[str, float]:
    context = PhysicalContext(TILE)
    left = Operand(MatrixInfo("A", TileGrid(dimension, dimension, TILE)))
    right = Operand(MatrixInfo("B", TileGrid(dimension, dimension, TILE)))
    spec = reference_spec()
    model = reference_model()

    cumulon = build_matmul_jobs("cumulon", left, right, "C", context,
                                MatMulParams(1, 1, 1))
    times = {
        "cumulon": simulate_program(JobDag(cumulon.jobs()), spec,
                                    model).seconds,
        "rmm": simulate_program(plan_rmm(left, right, "C", context).dag,
                                spec, model).seconds,
        "cpmm": simulate_program(plan_cpmm(left, right, "C", context).dag,
                                 spec, model).seconds,
    }
    return times


def build_series():
    rows = []
    for dimension in SIZES:
        times = multiply_times(dimension)
        rows.append([
            f"{dimension}x{dimension}",
            times["cumulon"],
            times["rmm"],
            times["cpmm"],
            times["rmm"] / times["cumulon"],
            times["cpmm"] / times["cumulon"],
        ])
    return rows


def test_e01_multiply_vs_systemml(benchmark):
    rows = benchmark(build_series)
    report(Table(
        experiment="E01",
        title="Dense multiply on 8 x m1.large: Cumulon vs SystemML",
        headers=["size", "cumulon_s", "rmm_s", "cpmm_s",
                 "speedup_vs_rmm", "speedup_vs_cpmm"],
        rows=rows,
    ))
    for row in rows:
        __, cumulon_s, rmm_s, cpmm_s, speedup_rmm, speedup_cpmm = row
        assert cumulon_s < rmm_s, "Cumulon must beat RMM"
        assert cumulon_s < cpmm_s, "Cumulon must beat CPMM"
        assert speedup_rmm > 1.2
        assert speedup_cpmm > speedup_rmm
