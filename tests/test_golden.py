"""Golden regression tests: pinned deterministic simulation numbers.

Every value here is fully determined by the reference hardware coefficients
and the deterministic simulator, so these tests catch *accidental* changes
to the cost model, the scheduler, or the compiler's work accounting.  When
a change is deliberate (e.g. recalibrating a coefficient), update the pins
and the affected EXPERIMENTS.md entries together.
"""

import pytest

from repro.baselines.systemml import plan_cpmm, plan_rmm
from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.pricing import HourlyBilling
from repro.core.compiler import CompilerParams, compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import (
    MatMulParams,
    MatrixInfo,
    Operand,
    PhysicalContext,
    build_matmul_jobs,
)
from repro.core.simcost import simulate_program
from repro.hadoop.job import JobDag
from repro.matrix.tiled import TileGrid
from repro.workloads.chains import build_multiply_program
from repro.workloads.gnmf import build_gnmf_program


def spec(nodes=8, slots=2, instance="m1.large"):
    return ClusterSpec(get_instance_type(instance), nodes, slots)


def simulate(dag, **kwargs):
    return simulate_program(dag, spec(**kwargs), CumulonCostModel()).seconds


def multiply_dag(dimension=16384, tile=2048, params=MatMulParams(1, 1, 1)):
    context = PhysicalContext(tile)
    grid = TileGrid(dimension, dimension, tile)
    jobs = build_matmul_jobs("mm", Operand(MatrixInfo("A", grid)),
                             Operand(MatrixInfo("B", grid)), "C",
                             context, params)
    return JobDag(jobs.jobs())


class TestGoldenSimulations:
    def test_multiply_16k_reference_cluster(self):
        assert simulate(multiply_dag()) == pytest.approx(422.0, rel=0.01)

    def test_multiply_16k_big_cluster(self):
        assert simulate(multiply_dag(), nodes=32) \
            == pytest.approx(110.0, rel=0.01)

    def test_rmm_16k(self):
        context = PhysicalContext(2048)
        grid = TileGrid(16384, 16384, 2048)
        dag = plan_rmm(Operand(MatrixInfo("A", grid)),
                       Operand(MatrixInfo("B", grid)), "C", context).dag
        assert simulate(dag) == pytest.approx(568.8, rel=0.01)

    def test_cpmm_16k(self):
        context = PhysicalContext(2048)
        grid = TileGrid(16384, 16384, 2048)
        dag = plan_cpmm(Operand(MatrixInfo("A", grid)),
                        Operand(MatrixInfo("B", grid)), "C", context).dag
        assert simulate(dag) == pytest.approx(969.3, rel=0.01)

    def test_gnmf_iteration(self):
        program = build_gnmf_program(20480, 10240, 128, iterations=1)
        compiled = compile_program(program, PhysicalContext(2048))
        assert simulate(compiled.dag) == pytest.approx(47.4, rel=0.01)

    def test_headline_speedups_stable(self):
        """The abstract's claim — Cumulon beats the MapReduce systems —
        pinned as ratio bands rather than exact values."""
        cumulon = simulate(multiply_dag())
        context = PhysicalContext(2048)
        grid = TileGrid(16384, 16384, 2048)
        rmm = simulate(plan_rmm(Operand(MatrixInfo("A", grid)),
                                Operand(MatrixInfo("B", grid)), "C",
                                context).dag)
        cpmm = simulate(plan_cpmm(Operand(MatrixInfo("A", grid)),
                                  Operand(MatrixInfo("B", grid)), "C",
                                  context).dag)
        assert 1.1 < rmm / cumulon < 1.6
        assert 1.8 < cpmm / cumulon < 2.6


class TestGoldenCosts:
    def test_hourly_cost_of_reference_run(self):
        seconds = simulate(multiply_dag())
        cost = HourlyBilling().cost(spec(), seconds)
        assert cost == pytest.approx(8 * 0.24)

    def test_task_level_prediction(self):
        """One mult task of the 16k multiply on an idle m1.large slot."""
        dag = multiply_dag()
        task = dag.topological_order()[0].map_tasks[0]
        model = CumulonCostModel()
        seconds = model.task_duration(task, get_instance_type("m1.large"),
                                      concurrency=1, local=True)
        assert seconds == pytest.approx(98.4, rel=0.01)


class TestGoldenCompilation:
    def test_gnmf_job_and_task_counts(self):
        program = build_gnmf_program(20480, 10240, 128, iterations=1)
        compiled = compile_program(program, PhysicalContext(2048))
        assert len(list(compiled.dag)) == 8
        assert compiled.dag.num_tasks() == 37

    def test_multiply_work_accounting(self):
        program = build_multiply_program(16384, 16384, 16384)
        compiled = compile_program(
            program, PhysicalContext(2048),
            CompilerParams(matmul=MatMulParams(1, 1, 1)))
        job = compiled.dag.topological_order()[0]
        assert job.total_flops() == 2 * 16384 ** 3
        # Each input read once per opposing tile dimension (8x).
        assert job.total_bytes_read() == 2 * 8 * 16384 * 16384 * 8
        assert job.total_bytes_written() == 16384 * 16384 * 8
