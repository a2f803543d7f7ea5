"""Unit tests for the session façade."""

import numpy as np
import pytest

from repro.cloud.instances import get_instance_type
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
        namenode, root = session.store.namenode, session.store.root
        assert namenode.list_files(f"{root}/A/")
        assert namenode.list_files(f"{root}/B/")
        assert namenode.total_used_bytes() > 0

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

