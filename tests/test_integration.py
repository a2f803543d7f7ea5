"""Integration tests: full pipelines across every subsystem.

Each test tells one end-to-end story the library must support:
provision -> store -> compile -> simulate -> optimize -> execute -> verify.
"""

import numpy as np
import pytest

from repro.baselines.systemml_program import compile_systemml_program
from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.cloud.pricing import HourlyBilling
from repro.cloud.provisioning import provision
from repro.core.compiler import CompilerParams, compile_program
from repro.core.costmodel import CumulonCostModel
from repro.core.executor import CumulonExecutor
from repro.core.optimizer import DeploymentOptimizer, SearchSpace
from repro.core.physical import MatMulParams, PhysicalContext
from repro.core.search import SearchSpec, search
from repro.core.simcost import place_virtual_inputs, simulate_program
from repro.hadoop.faults import RandomFailures
from repro.hadoop.local import LocalExecutor
from repro.hadoop.simulator import ClusterSimulator
from repro.hdfs.tilestore import TileStore
from repro.matrix.tiled import TiledMatrix
from repro.workloads.gnmf import build_gnmf_program, reference_gnmf
from repro.workloads.rsvd import build_rsvd_program


class TestExecuteOnSimulatedHDFS:
    """Real numbers flowing through the simulated HDFS end to end."""

    def test_gnmf_on_hdfs_tilestore(self):
        rng = np.random.default_rng(71)
        v = rng.random((48, 32)) + 0.01
        w0 = rng.random((48, 4)) + 0.01
        h0 = rng.random((4, 32)) + 0.01

        spec = ClusterSpec(get_instance_type("m1.large"), 3, 2)
        namenode = provision(spec, replication=2)
        store = TileStore(namenode)

        # Load inputs as real tiles in HDFS.
        executor = CumulonExecutor(tile_size=16, max_workers=2,
                                   backing=store)
        program = build_gnmf_program(48, 32, 4, iterations=2)
        result = executor.run(program, {"V": v, "W0": w0, "H0": h0})

        w_ref, h_ref = reference_gnmf(v, w0, h0, 2)
        np.testing.assert_allclose(result.output("W"), w_ref, rtol=1e-8)

        # Every output tile really lives in the namenode with replicas.
        info = result.compiled.output_info("W")
        for row, col in info.grid.positions():
            path = store.path_for(result.tiled_outputs["W"]
                                  .tile_id(row, col))
            assert namenode.exists(path)
            assert len(namenode.replica_nodes(path)) == 2

    def test_storage_accounting_consistent(self):
        spec = ClusterSpec(get_instance_type("m1.large"), 3, 2)
        namenode = provision(spec, replication=2)
        store = TileStore(namenode)
        rng = np.random.default_rng(5)
        matrix = TiledMatrix.from_numpy("M", rng.random((32, 32)), 8, store)
        assert namenode.total_used_bytes() == 2 * matrix.nbytes()


class TestSimulateWithPlacement:
    """Virtual inputs placed in HDFS drive locality-aware simulation."""

    def test_locality_fraction_high_with_matching_names(self):
        spec = ClusterSpec(get_instance_type("m1.large"), 4, 2)
        namenode = provision(spec, replication=2)
        store = TileStore(namenode)
        program = build_rsvd_program(8192, 4096, 512, power_iterations=0)
        context = PhysicalContext(1024, store)
        compiled = compile_program(program, context)
        # Place the only input matrices referenced by the program.
        infos = [compiled.materialized["A"], compiled.materialized["G"]]
        place_virtual_inputs(store, infos, spec.node_names())
        # Recompile so tasks pick up replica locations.
        compiled = compile_program(program, context)
        estimate = simulate_program(compiled.dag, spec, CumulonCostModel())
        first_job = compiled.dag.topological_order()[0]
        timeline = estimate.simulation.job(first_job.job_id)
        assert timeline.locality_fraction > 0.4


class TestOptimizerToExecution:
    """The optimizer's chosen physical parameters execute correctly."""

    def test_chosen_plan_params_run_for_real(self):
        big = build_rsvd_program(16384, 8192, 1024, power_iterations=1)
        optimizer = DeploymentOptimizer(big, tile_size=2048)
        space = SearchSpace(
            instance_types=(get_instance_type("m1.large"),),
            node_counts=(4, 8),
            slots_options=(2,),
        )
        plan = search(optimizer, SearchSpec(
            deadline_seconds=4 * 3600.0, space=space)).plan

        # Re-run the same program shape, scaled down, with the chosen
        # physical parameters, and verify numerically.
        rng = np.random.default_rng(13)
        a = rng.standard_normal((64, 32))
        g = rng.standard_normal((32, 8))
        small = build_rsvd_program(64, 32, 8, power_iterations=1)
        executor = CumulonExecutor(tile_size=16, max_workers=2,
                                   compiler_params=plan.compiler_params)
        result = executor.run(small, {"A": a, "G": g})
        expected = a @ (a.T @ (a @ g))
        np.testing.assert_allclose(result.output("B"), expected, rtol=1e-8)


class TestFaultySimulationOfCompiledPrograms:
    """Compiled Cumulon plans survive failure injection."""

    def test_gnmf_completes_under_failures(self):
        program = build_gnmf_program(8192, 4096, 128, iterations=1)
        compiled = compile_program(program, PhysicalContext(1024))
        spec = ClusterSpec(get_instance_type("m1.large"), 4, 2)
        clean = ClusterSimulator(spec, CumulonCostModel()).run(compiled.dag)
        faulty = ClusterSimulator(
            spec, CumulonCostModel(),
            failures=RandomFailures(probability=0.05, seed=3,
                                    max_attempts=8),
        ).run(compile_program(program, PhysicalContext(1024)).dag)
        assert faulty.makespan >= clean.makespan
        assert faulty.makespan < 2.0 * clean.makespan


class TestCumulonVsSystemmlSameNumbers:
    """Both systems compute the identical result on the same store."""

    def test_identical_outputs(self):
        rng = np.random.default_rng(23)
        v = rng.random((32, 24)) + 0.01
        w0 = rng.random((32, 3)) + 0.01
        h0 = rng.random((3, 24)) + 0.01
        program = build_gnmf_program(32, 24, 3, iterations=1)

        cumulon = CumulonExecutor(tile_size=8, max_workers=2)
        result = cumulon.run(program, {"V": v, "W0": w0, "H0": h0})

        from repro.matrix.tiled import DenseBacking
        backing = DenseBacking()
        for name, data in (("V", v), ("W0", w0), ("H0", h0)):
            TiledMatrix.from_numpy(name, data, 8, backing)
        context = PhysicalContext(8, backing, attach_run=True)
        sys_compiled = compile_systemml_program(program, context)
        LocalExecutor(2).run(sys_compiled.dag)
        info = sys_compiled.output_info("W")
        sys_w = TiledMatrix(info.name, info.grid, backing).to_numpy()
        np.testing.assert_allclose(result.output("W"), sys_w, rtol=1e-10)


class TestBillingConsistency:
    """The optimizer's cost equals the billing model applied to its time."""

    def test_plan_cost_recomputable(self):
        program = build_rsvd_program(16384, 8192, 1024)
        optimizer = DeploymentOptimizer(program, tile_size=2048)
        space = SearchSpace(
            instance_types=(get_instance_type("m1.large"),),
            node_counts=(2, 4),
            slots_options=(2,),
            matmul_options=(MatMulParams(1, 1, 1),),
        )
        for plan in optimizer.enumerate_plans(space):
            recomputed = HourlyBilling().cost(plan.spec,
                                              plan.estimated_seconds)
            assert recomputed == pytest.approx(plan.estimated_cost)
