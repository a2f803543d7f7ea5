"""Unit tests for the SystemML-style baselines."""

import numpy as np
import pytest

from repro.baselines.systemml import plan_best_systemml, plan_cpmm, plan_rmm
from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import (
    MatMulParams,
    MatrixInfo,
    Operand,
    PhysicalContext,
    build_matmul_jobs,
)
from repro.core.simcost import simulate_program
from repro.errors import ShapeError
from repro.hadoop.job import JobDag, JobKind
from repro.hadoop.local import LocalExecutor
from repro.matrix.tiled import DenseBacking, TileGrid, TiledMatrix


def virtual_info(name, rows=4096, cols=4096, tile=1024):
    return MatrixInfo(name, TileGrid(rows, cols, tile))


@pytest.fixture
def real_setup():
    rng = np.random.default_rng(5)
    a = rng.random((48, 32))
    b = rng.random((32, 40))
    backing = DenseBacking()
    mat_a = TiledMatrix.from_numpy("A", a, 16, backing)
    mat_b = TiledMatrix.from_numpy("B", b, 16, backing)
    context = PhysicalContext(16, backing, attach_run=True)
    return a, b, mat_a, mat_b, context


class TestCorrectness:
    def run_and_read(self, baseline, backing):
        LocalExecutor(max_workers=2).run(baseline.dag)
        return TiledMatrix(baseline.output.name, baseline.output.grid,
                           backing).to_numpy()

    def test_rmm_matches_numpy(self, real_setup):
        a, b, mat_a, mat_b, context = real_setup
        baseline = plan_rmm(Operand(MatrixInfo("A", mat_a.grid)),
                            Operand(MatrixInfo("B", mat_b.grid)),
                            "C", context)
        np.testing.assert_allclose(
            self.run_and_read(baseline, context.backing), a @ b)

    def test_cpmm_matches_numpy(self, real_setup):
        a, b, mat_a, mat_b, context = real_setup
        baseline = plan_cpmm(Operand(MatrixInfo("A", mat_a.grid)),
                             Operand(MatrixInfo("B", mat_b.grid)),
                             "C", context)
        np.testing.assert_allclose(
            self.run_and_read(baseline, context.backing), a @ b)

    def test_rmm_with_transposed_operand(self, real_setup):
        a, b, mat_a, mat_b, context = real_setup
        baseline = plan_rmm(Operand(MatrixInfo("A", mat_a.grid), transposed=True),
                            Operand(MatrixInfo("A", mat_a.grid)),
                            "AtA", context)
        np.testing.assert_allclose(
            self.run_and_read(baseline, context.backing), a.T @ a)


class TestJobStructure:
    def test_rmm_is_one_mapreduce_job(self):
        baseline = plan_rmm(Operand(virtual_info("A")),
                            Operand(virtual_info("B")), "C",
                            PhysicalContext(1024))
        jobs = list(baseline.dag)
        assert len(jobs) == 1
        assert jobs[0].kind is JobKind.MAPREDUCE

    def test_cpmm_is_two_mapreduce_jobs(self):
        baseline = plan_cpmm(Operand(virtual_info("A")),
                             Operand(virtual_info("B")), "C",
                             PhysicalContext(1024))
        jobs = list(baseline.dag)
        assert len(jobs) == 2
        assert all(job.kind is JobKind.MAPREDUCE for job in jobs)
        assert jobs[1].depends_on == {jobs[0].job_id}

    def test_rmm_shuffle_volume_formula(self):
        left, right = virtual_info("A"), virtual_info("B")
        baseline = plan_rmm(Operand(left), Operand(right), "C",
                            PhysicalContext(1024))
        job = list(baseline.dag)[0]
        grid = baseline.output.grid
        expected = (left.total_bytes() * grid.tile_cols
                    + right.total_bytes() * grid.tile_rows)
        assert job.shuffle_bytes == expected

    def test_cpmm_first_job_shuffles_inputs_once(self):
        left, right = virtual_info("A"), virtual_info("B")
        baseline = plan_cpmm(Operand(left), Operand(right), "C",
                             PhysicalContext(1024))
        job1 = baseline.dag.topological_order()[0]
        assert job1.shuffle_bytes == left.total_bytes() + right.total_bytes()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            plan_rmm(Operand(virtual_info("A", 4096, 4096)),
                     Operand(virtual_info("B", 2048, 4096)), "C",
                     PhysicalContext(1024))


class TestPerformanceComparison:
    """The headline claim: Cumulon beats MapReduce-based multiplies."""

    def simulate(self, dag, nodes=8):
        spec = ClusterSpec(get_instance_type("m1.large"), nodes, 2)
        return simulate_program(dag, spec, CumulonCostModel()).seconds

    def test_cumulon_beats_rmm_and_cpmm(self):
        context = PhysicalContext(1024)
        left, right = Operand(virtual_info("A")), Operand(virtual_info("B"))
        cumulon = build_matmul_jobs("cum", left, right, "C", context,
                                    MatMulParams())
        t_cumulon = self.simulate(JobDag(cumulon.jobs()))
        t_rmm = self.simulate(plan_rmm(left, right, "C", context).dag)
        t_cpmm = self.simulate(plan_cpmm(left, right, "C", context).dag)
        assert t_cumulon < t_rmm
        assert t_cumulon < t_cpmm

    def test_best_systemml_picks_the_better_strategy(self):
        context = PhysicalContext(1024)
        # Square multiply with few tiles: RMM's replication is modest.
        square = plan_best_systemml(Operand(virtual_info("A")),
                                    Operand(virtual_info("B")), "C", context)
        t_chosen = self.simulate(square.dag)
        t_rmm = self.simulate(plan_rmm(Operand(virtual_info("A")),
                                       Operand(virtual_info("B")), "C",
                                       context).dag)
        t_cpmm = self.simulate(plan_cpmm(Operand(virtual_info("A")),
                                         Operand(virtual_info("B")), "C",
                                         context).dag)
        assert t_chosen <= max(t_rmm, t_cpmm)

    def test_best_systemml_prefers_cpmm_for_wide_grids(self):
        context = PhysicalContext(512)
        # 16x16 tile grid: RMM would replicate each input 16x.
        left = Operand(virtual_info("A", 8192, 8192, 512))
        right = Operand(virtual_info("B", 8192, 8192, 512))
        chosen = plan_best_systemml(left, right, "C", context)
        assert chosen.strategy == "CPMM"

    def test_best_systemml_prefers_rmm_for_narrow_output(self):
        context = PhysicalContext(512)
        # B is a single tile column: replicating it is nearly free.
        left = Operand(virtual_info("A", 8192, 8192, 512))
        right = Operand(virtual_info("B", 8192, 512, 512))
        chosen = plan_best_systemml(left, right, "C", context)
        assert chosen.strategy == "RMM"
