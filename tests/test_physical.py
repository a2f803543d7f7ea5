"""Unit tests for the physical operator layer: work accounting, locality."""

import numpy as np
import pytest

from repro.core.physical import (
    ElementwiseParams,
    FusedKernel,
    MatMulParams,
    MatrixInfo,
    Operand,
    PhysicalContext,
    build_elementwise_job,
    build_matmul_jobs,
    partial_name,
)
from repro.errors import ShapeError, ValidationError
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.tilestore import TileStore
from repro.matrix.tile import TileId
from repro.matrix.tiled import TileGrid, TiledMatrix


def info(name="A", rows=8, cols=8, tile=4, density=1.0):
    return MatrixInfo(name, TileGrid(rows, cols, tile), density)


class TestMatrixInfo:
    def test_tile_bytes_dense(self):
        assert info().tile_bytes(0, 0) == 4 * 4 * 8

    def test_tile_bytes_sparse_uses_density(self):
        sparse_info = info(density=0.01)
        assert sparse_info.tile_bytes(0, 0) < info().tile_bytes(0, 0)

    def test_total_bytes(self):
        assert info().total_bytes() == 8 * 8 * 8

    def test_density_validated(self):
        with pytest.raises(ValidationError):
            info(density=2.0)


class TestOperand:
    def test_plain_shape(self):
        operand = Operand(info(rows=8, cols=4))
        assert operand.shape == (8, 4)
        assert operand.tile_rows == 2
        assert operand.tile_cols == 1

    def test_transposed_shape(self):
        operand = Operand(info(rows=8, cols=4), transposed=True)
        assert operand.shape == (4, 8)
        assert operand.tile_rows == 1
        assert operand.tile_cols == 2

    def test_tile_id_mapping(self):
        operand = Operand(info(), transposed=True)
        tile_id = operand.tile_id(0, 1)
        assert (tile_id.row, tile_id.col) == (1, 0)


class TestMatMulParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MatMulParams(0, 1, 1)
        with pytest.raises(ValidationError):
            MatMulParams(1, 1, 0)

    def test_memory_estimate_grows_with_chunk(self):
        left = Operand(info("A", 16, 16, 4))
        right = Operand(info("B", 16, 16, 4))

        def peak(params):
            jobs = build_matmul_jobs("j", left, right, "C", PhysicalContext(4),
                                     params)
            return max(task.work.memory_bytes
                       for task in jobs.mult_job.map_tasks)

        # 4x4 accumulators + two 4-tile strips = 48 tiles, against 1 + 2 = 3.
        assert peak(MatMulParams(4, 4, 1)) > peak(MatMulParams(1, 1, 4))


class TestMatMulJobs:
    def test_no_split_single_job(self):
        jobs = build_matmul_jobs("j", Operand(info("A")), Operand(info("B")),
                                 "C", PhysicalContext(4), MatMulParams())
        assert jobs.add_job is None
        assert len(jobs.mult_job.map_tasks) == 4  # 2x2 output tiles

    def test_split_produces_add_job(self):
        jobs = build_matmul_jobs("j", Operand(info("A")), Operand(info("B")),
                                 "C", PhysicalContext(4), MatMulParams(1, 1, 2))
        assert jobs.add_job is not None
        assert jobs.add_job.depends_on == {jobs.mult_job.job_id}
        assert len(jobs.mult_job.map_tasks) == 8

    def test_ksplit_capped_by_tile_count(self):
        jobs = build_matmul_jobs("j", Operand(info("A")), Operand(info("B")),
                                 "C", PhysicalContext(4), MatMulParams(1, 1, 99))
        # only 2 k tiles exist -> 2 segments
        assert len(jobs.mult_job.map_tasks) == 8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            build_matmul_jobs("j", Operand(info("A", 8, 8)),
                              Operand(info("B", 4, 8)), "C",
                              PhysicalContext(4), MatMulParams())

    def test_total_read_amplification(self):
        # With 2x2 output tile grid and 1-tile chunks, A is read once per
        # output tile column and B once per output tile row.
        left, right = Operand(info("A")), Operand(info("B"))
        jobs = build_matmul_jobs("j", left, right, "C",
                                 PhysicalContext(4), MatMulParams())
        total_read = jobs.mult_job.total_bytes_read()
        assert total_read == 2 * left.info.total_bytes() \
            + 2 * right.info.total_bytes()

    def test_bigger_chunks_read_less(self):
        left, right = Operand(info("A", 16, 16, 4)), Operand(info("B", 16, 16, 4))
        small = build_matmul_jobs("j1", left, right, "C",
                                  PhysicalContext(4), MatMulParams(1, 1, 1))
        large = build_matmul_jobs("j2", left, right, "C2",
                                  PhysicalContext(4), MatMulParams(4, 4, 1))
        assert large.mult_job.total_bytes_read() \
            < small.mult_job.total_bytes_read()

    def test_flops_scale_with_density(self):
        dense = build_matmul_jobs(
            "j1", Operand(info("A")), Operand(info("B")), "C",
            PhysicalContext(4), MatMulParams())
        sparse = build_matmul_jobs(
            "j2", Operand(info("A", density=0.01)),
            Operand(info("B", density=0.01)), "C2",
            PhysicalContext(4), MatMulParams())
        assert sparse.mult_job.total_flops() < dense.mult_job.total_flops()

    def test_partial_name(self):
        assert partial_name("C", 2) == "C#part2"

    def test_tasks_have_memory_estimates(self):
        jobs = build_matmul_jobs("j", Operand(info("A")), Operand(info("B")),
                                 "C", PhysicalContext(4), MatMulParams())
        for task in jobs.mult_job.map_tasks:
            assert task.work.memory_bytes > 0


class TestElementwiseJob:
    def test_task_chunking(self):
        kernel = FusedKernel([Operand(info("A"))], lambda a: a, 1)
        job = build_elementwise_job("j", kernel, info("OUT"),
                                    PhysicalContext(4),
                                    ElementwiseParams(tiles_per_task=3))
        # 4 tiles in chunks of 3 -> 2 tasks.
        assert len(job.map_tasks) == 2

    def test_shape_mismatch_rejected(self):
        kernel = FusedKernel([Operand(info("A"))], lambda a: a, 1)
        with pytest.raises(ShapeError):
            build_elementwise_job("j", kernel, info("OUT", 4, 4),
                                  PhysicalContext(4), ElementwiseParams())

    def test_kernel_operand_shapes_checked(self):
        with pytest.raises(ShapeError):
            FusedKernel([Operand(info("A", 8, 8)), Operand(info("B", 4, 4))],
                        lambda a, b: a + b, 1)

    def test_kernel_needs_operands(self):
        from repro.errors import CompilationError
        with pytest.raises(CompilationError):
            FusedKernel([], lambda: None, 0)

    def test_element_ops_counted(self):
        kernel = FusedKernel([Operand(info("A"))], lambda a: a * 2, 3)
        job = build_elementwise_job("j", kernel, info("OUT"),
                                    PhysicalContext(4), ElementwiseParams())
        assert job.map_tasks[0].work.element_ops > 0


class TestLocality:
    def make_store(self):
        namenode = NameNode(replication=2)
        for index in range(3):
            namenode.register_datanode(DataNode(f"node-{index}", 10**9))
        return TileStore(namenode)

    def test_preferred_nodes_from_store(self):
        store = self.make_store()
        TiledMatrix.from_numpy("A", np.ones((8, 8)), 4, store)
        context = PhysicalContext(4, store)
        nodes = context.preferred_nodes([TileId("A", 0, 0)])
        assert nodes  # replication 2 on 3 nodes: at least one holder

    def test_preferred_nodes_intersection(self):
        store = self.make_store()
        TiledMatrix.from_numpy("A", np.ones((8, 8)), 4, store)
        context = PhysicalContext(4, store)
        all_ids = [TileId("A", r, c) for r in range(2) for c in range(2)]
        nodes = context.preferred_nodes(all_ids)
        for tile_id in all_ids:
            assert nodes <= store.replica_nodes(tile_id)

    def test_no_store_no_preference(self):
        context = PhysicalContext(4)
        assert context.preferred_nodes([TileId("A", 0, 0)]) == frozenset()

    def test_matmul_tasks_carry_locality(self):
        store = self.make_store()
        TiledMatrix.from_numpy("A", np.ones((8, 8)), 4, store)
        TiledMatrix.from_numpy("B", np.ones((8, 8)), 4, store)
        context = PhysicalContext(4, store)
        jobs = build_matmul_jobs("j", Operand(info("A")), Operand(info("B")),
                                 "C", context, MatMulParams())
        preferences = [task.preferred_nodes for task in jobs.mult_job.map_tasks]
        assert any(preferences)  # at least some tasks have co-located inputs


class TestContextValidation:
    def test_attach_run_requires_backing(self):
        with pytest.raises(ValidationError):
            PhysicalContext(4, backing=None, attach_run=True)

    def test_invalid_tile_size(self):
        with pytest.raises(ValidationError):
            PhysicalContext(0)
