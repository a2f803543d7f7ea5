"""E7 — GNMF per-iteration time: Cumulon vs SystemML (table).

The paper's end-to-end iterative workload comparison.  One GNMF iteration is
six multiplies plus two element-wise update passes; Cumulon runs it as fused
map-only jobs, SystemML as a chain of MapReduce jobs.  Expected shape:
Cumulon wins ~2-3x per iteration at every data scale, with the advantage
driven by avoided shuffles, fused element-wise passes, and fewer/cheaper
job launches.
"""

from repro.baselines.systemml_program import compile_systemml_program
from repro.core.compiler import compile_program
from repro.core.physical import PhysicalContext
from repro.core.simcost import simulate_program
from repro.workloads.gnmf import build_gnmf_program

from benchmarks.common import Table, reference_model, reference_spec, report

TILE = 2048
RANK = 128
SCALES = [(10240, 10240), (20480, 10240), (40960, 20480)]


def iteration_times(rows: int, cols: int) -> tuple[float, float]:
    program = build_gnmf_program(rows, cols, RANK, iterations=1)
    spec = reference_spec()
    model = reference_model()
    cumulon = compile_program(program, PhysicalContext(TILE))
    systemml = compile_systemml_program(program, PhysicalContext(TILE))
    t_cumulon = simulate_program(cumulon.dag, spec, model).seconds
    t_systemml = simulate_program(systemml.dag, spec, model).seconds
    return t_cumulon, t_systemml


def build_series():
    rows = []
    for v_rows, v_cols in SCALES:
        t_cumulon, t_systemml = iteration_times(v_rows, v_cols)
        rows.append([f"{v_rows}x{v_cols}", t_cumulon, t_systemml,
                     t_systemml / t_cumulon])
    return rows


def test_e07_gnmf_per_iteration(benchmark):
    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    report(Table(
        experiment="E07",
        title=f"GNMF (rank {RANK}) per-iteration time on 8 x m1.large",
        headers=["V_shape", "cumulon_s", "systemml_s", "speedup"],
        rows=rows,
    ))
    for __, t_cumulon, t_systemml, speedup in rows:
        assert t_cumulon < t_systemml
        assert speedup > 1.5, f"expected a clear win, got {speedup:.2f}x"
    # Times must grow with the data size for both systems.
    assert [row[1] for row in rows] == sorted(row[1] for row in rows)
    assert [row[2] for row in rows] == sorted(row[2] for row in rows)
