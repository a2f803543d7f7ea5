"""E11 — Ablation: element-wise fusion on vs off.

Cumulon folds chains of element-wise operators into the single map pass of
the consuming job; the ablation compiles one operator per job (the
MapReduce-era behaviour).  Expected shape: fusion cuts both the number of
jobs and the wall-clock of element-wise-heavy programs (GNMF updates,
power-iteration steps) by eliminating intermediate materialization and
repeated job overheads.
"""

from repro.core.compiler import CompilerParams, compile_program
from repro.core.physical import PhysicalContext
from repro.core.simcost import simulate_program
from repro.workloads.chains import build_power_iteration_program
from repro.workloads.gnmf import build_gnmf_program

from benchmarks.common import Table, reference_model, reference_spec, report

TILE = 2048

CASES = [
    ("gnmf 20480x10240 r128 x1",
     lambda: build_gnmf_program(20480, 10240, 128, iterations=1)),
    ("pagerank 65536 x5",
     lambda: build_power_iteration_program(65536, iterations=5,
                                           adjacency_density=0.001)),
]


def build_series():
    spec = reference_spec()
    model = reference_model()
    rows = []
    for name, factory in CASES:
        program = factory()
        fused = compile_program(program, PhysicalContext(TILE),
                                CompilerParams(fusion_enabled=True))
        unfused = compile_program(program, PhysicalContext(TILE),
                                  CompilerParams(fusion_enabled=False))
        t_fused = simulate_program(fused.dag, spec, model).seconds
        t_unfused = simulate_program(unfused.dag, spec, model).seconds
        rows.append([name, len(list(fused.dag)), t_fused,
                     len(list(unfused.dag)), t_unfused,
                     t_unfused / t_fused])
    return rows


def test_e11_fusion_ablation(benchmark):
    rows = benchmark(build_series)
    report(Table(
        experiment="E11",
        title="Element-wise fusion ablation (8 x m1.large)",
        headers=["program", "fused_jobs", "fused_s",
                 "unfused_jobs", "unfused_s", "speedup"],
        rows=rows,
    ))
    for name, fused_jobs, t_fused, unfused_jobs, t_unfused, speedup in rows:
        assert fused_jobs < unfused_jobs, f"{name}: fusion must merge jobs"
        assert speedup > 1.05, f"{name}: fusion must pay off"
