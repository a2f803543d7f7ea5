"""Unit tests for the session façade and the plan advisor."""

import numpy as np
import pytest

from repro.cloud.instances import ClusterSpec, get_instance_type
from repro.core.advisor import validate_plan
from repro.core.compiler import CompilerParams, compile_program
from repro.core.physical import MatMulParams, PhysicalContext
from repro.core.program import Program
from repro.core.session import CumulonSession
from repro.errors import ValidationError
from repro.ingest.parser import format_csv_matrix
from repro.workloads.regression import build_normal_equations_program

RNG = np.random.default_rng(91)


class TestSession:
    def test_ingest_and_run(self):
        session = CumulonSession(tile_size=8)
        a = RNG.random((16, 16))
        session.ingest_array("A", a)
        program = Program("p")
        av = program.declare_input("A", 16, 16)
        program.assign("S", av @ av)
        program.mark_output("S")
        result = session.run(program)  # input comes from the store
        np.testing.assert_allclose(result.output("S"), a @ a, rtol=1e-9)

    def test_ingest_csv(self):
        session = CumulonSession(tile_size=8)
        a = RNG.random((10, 6))
        session.ingest_csv("X", format_csv_matrix(a, precision=12))
        np.testing.assert_allclose(session.get_matrix("X", 10, 6), a,
                                   rtol=1e-10)

    def test_explicit_inputs_override(self):
        session = CumulonSession(tile_size=8)
        session.ingest_array("A", np.zeros((8, 8)))
        program = Program("p")
        av = program.declare_input("A", 8, 8)
        program.assign("S", av + av)
        program.mark_output("S")
        fresh = np.ones((8, 8))
        result = session.run(program, {"A": fresh})
        np.testing.assert_allclose(result.output("S"), 2 * fresh)

    def test_missing_input_raises(self):
        session = CumulonSession(tile_size=8)
        program = Program("p")
        av = program.declare_input("Z", 8, 8)
        program.assign("S", av + av)
        with pytest.raises(ValidationError, match="missing"):
            session.run(program)

    def test_storage_accounting_and_listing(self):
        session = CumulonSession(tile_size=8, replication=2)
        session.ingest_array("A", np.ones((16, 16)))
        session.ingest_array("B", np.ones((8, 8)))
        assert "A" in session.stored_matrices()
        assert "B" in session.stored_matrices()
        assert session.storage_used_bytes() > 0

    def test_optimize_returns_working_optimizer(self):
        session = CumulonSession(tile_size=8)
        big = build_normal_equations_program(65536, 4096)
        optimizer = session.optimize(big, tile_size=2048)
        from repro.core.optimizer import SearchSpace
        from repro.core.search import SearchSpec, search
        space = SearchSpace(
            instance_types=(get_instance_type("m1.large"),),
            node_counts=(4,), slots_options=(2,),
        )
        plan = search(optimizer, SearchSpec(
            deadline_seconds=4 * 3600.0, space=space)).plan
        assert plan.estimated_cost > 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            CumulonSession(nodes=0)


class TestAdvisor:
    def spec(self, instance="m1.large", nodes=8, slots=2):
        return ClusterSpec(get_instance_type(instance), nodes, slots)

    def test_clean_plan_has_no_warnings(self):
        program = Program("ok")
        a = program.declare_input("A", 16384, 16384)
        b = program.declare_input("B", 16384, 16384)
        program.assign("C", a @ b)
        compiled = compile_program(program, PhysicalContext(2048))
        assert validate_plan(compiled, self.spec()) == []

    def test_memory_warning_for_unsplit_gram(self):
        program = build_normal_equations_program(1048576, 4096)
        compiled = compile_program(
            program, PhysicalContext(2048),
            CompilerParams(matmul=MatMulParams(1, 1, 1),
                           reorder_chains=False))
        warnings = validate_plan(compiled, self.spec())
        assert any(w.kind == "memory" for w in warnings)
        assert any("k_splits" in w.message for w in warnings)

    def test_memory_warning_fixed_by_splitting(self):
        program = build_normal_equations_program(1048576, 4096)
        compiled = compile_program(
            program, PhysicalContext(2048),
            CompilerParams(matmul=MatMulParams(1, 1, 128)))
        warnings = validate_plan(compiled, self.spec())
        assert not any(w.kind == "memory" for w in warnings)

    def test_parallelism_warning_for_few_tasks(self):
        program = Program("small")
        a = program.declare_input("A", 4096, 4096)
        b = program.declare_input("B", 4096, 4096)
        program.assign("C", a @ b)
        compiled = compile_program(
            program, PhysicalContext(2048),
            CompilerParams(matmul=MatMulParams(2, 2, 1)))
        warnings = validate_plan(compiled, self.spec(nodes=16, slots=4))
        assert any(w.kind == "parallelism" for w in warnings)

    def test_granularity_warning_for_tiny_tasks(self):
        from repro.core.physical import ElementwiseParams
        program = Program("tiny")
        a = program.declare_input("A", 8192, 8192)
        program.assign("B", a * 2.0)
        compiled = compile_program(
            program, PhysicalContext(256),
            CompilerParams(elementwise=ElementwiseParams(tiles_per_task=1)))
        warnings = validate_plan(compiled, self.spec())
        assert any(w.kind == "granularity" for w in warnings)

    def test_shuffle_warning_for_rmm_replication(self):
        from repro.baselines.systemml import plan_rmm
        from repro.core.compiler import CompiledProgram
        from repro.core.physical import MatrixInfo, Operand
        from repro.matrix.tiled import TileGrid
        grid = TileGrid(32768, 32768, 2048)
        baseline = plan_rmm(Operand(MatrixInfo("A", grid)),
                            Operand(MatrixInfo("B", grid)), "C",
                            PhysicalContext(2048))
        program = Program("rmm")
        compiled = CompiledProgram(program, baseline.dag, {}, {})
        warnings = validate_plan(compiled, self.spec())
        assert any(w.kind == "shuffle" for w in warnings)

    def test_warning_str(self):
        from repro.core.advisor import Warning_
        text = str(Warning_("j1", "memory", "too big"))
        assert "j1" in text and "memory" in text
