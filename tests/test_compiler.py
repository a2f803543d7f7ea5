"""Unit tests for transpose normalization, fusion, and job planning."""

import numpy as np
import pytest

from repro.core.compiler import (
    CompilerParams,
    compile_program,
    normalize_transposes,
)
from repro.core.expr import Binary, MatMul, Transpose, Var, evaluate_with_numpy
from repro.core.physical import (
    ElementwiseParams,
    MatMulParams,
    MatrixInfo,
    PhysicalContext,
)
from repro.core.program import Program
from repro.hadoop.job import JobKind
from repro.workloads.chains import build_chain_program


def var(name="A", rows=6, cols=6):
    return Var(name, (rows, cols))


class TestNormalizeTransposes:
    def assert_equivalent(self, expr, env):
        normalized = normalize_transposes(expr)
        np.testing.assert_allclose(
            evaluate_with_numpy(normalized, env),
            evaluate_with_numpy(expr, env),
        )
        return normalized

    def env(self):
        rng = np.random.default_rng(1)
        return {"A": rng.random((6, 6)), "B": rng.random((6, 6))}

    def test_double_transpose_cancels(self):
        normalized = self.assert_equivalent(var().T.T, self.env())
        assert isinstance(normalized, Var)

    def test_transpose_of_sum_distributes(self):
        normalized = self.assert_equivalent((var("A") + var("B")).T, self.env())
        assert isinstance(normalized, Binary)
        assert isinstance(normalized.left, Transpose)

    def test_transpose_of_product_reverses(self):
        normalized = self.assert_equivalent((var("A") @ var("B")).T, self.env())
        assert isinstance(normalized, MatMul)
        # (AB)' = B'A'
        assert normalized.left.child.name == "B"
        assert normalized.right.child.name == "A"

    def test_transpose_of_scalar_op(self):
        self.assert_equivalent((var("A") * 3.0).T, self.env())

    def test_transpose_of_element_func(self):
        self.assert_equivalent(var("A").apply("sqrt").T, self.env())

    def test_deeply_nested(self):
        expr = ((var("A") @ var("B")).T + var("A")).T
        normalized = self.assert_equivalent(expr, self.env())
        # After normalization, no transpose sits above a non-Var node.
        stack = [normalized]
        while stack:
            node = stack.pop()
            if isinstance(node, Transpose):
                assert isinstance(node.child, Var)
            stack.extend(node.children())

    def test_no_transpose_untouched(self):
        expr = var("A") @ var("B")
        normalized = normalize_transposes(expr)
        assert isinstance(normalized, MatMul)


def compile_simple(expr_builder, params=None, tile_size=3):
    program = Program("t")
    a = program.declare_input("A", 6, 6)
    b = program.declare_input("B", 6, 6)
    program.assign("OUT", expr_builder(a, b))
    program.mark_output("OUT")
    context = PhysicalContext(tile_size)
    return compile_program(program, context, params)


class TestCompilerStructure:
    def test_single_matmul_one_job(self):
        compiled = compile_simple(lambda a, b: a @ b)
        jobs = list(compiled.dag)
        assert len(jobs) == 1
        assert jobs[0].kind is JobKind.MAP_ONLY

    def test_matmul_with_ksplit_adds_add_job(self):
        params = CompilerParams(matmul=MatMulParams(1, 1, 2))
        compiled = compile_simple(lambda a, b: a @ b, params)
        assert len(list(compiled.dag)) == 2

    def test_fused_elementwise_single_job(self):
        compiled = compile_simple(lambda a, b: (a + b) * 2.0 - a)
        jobs = list(compiled.dag)
        assert len(jobs) == 1
        assert "ew" in jobs[0].job_id

    def test_fusion_disabled_one_job_per_operator(self):
        params = CompilerParams(fusion_enabled=False)
        compiled = compile_simple(lambda a, b: (a + b) * 2.0 - a, params)
        # add, scalar-mul, sub: three separate jobs.
        assert len(list(compiled.dag)) == 3

    def test_matmul_then_elementwise_two_jobs(self):
        compiled = compile_simple(lambda a, b: (a @ b) + a)
        jobs = list(compiled.dag)
        assert len(jobs) == 2
        assert jobs[1].depends_on == {jobs[0].job_id}

    def test_alias_statement_costs_nothing(self):
        program = Program("alias")
        a = program.declare_input("A", 6, 6)
        program.assign("B", a)
        compiled = compile_program(program, PhysicalContext(3))
        assert len(list(compiled.dag)) == 0
        assert compiled.bindings["B"].name == "A"

    def test_bare_transpose_materializes(self):
        program = Program("t")
        a = program.declare_input("A", 6, 4)
        program.assign("B", a.T)
        compiled = compile_program(program, PhysicalContext(2))
        assert len(list(compiled.dag)) == 1
        assert compiled.bindings["B"].shape == (4, 6)

    def test_transposed_matmul_operand_needs_no_extra_job(self):
        compiled = compile_simple(lambda a, b: a.T @ b)
        assert len(list(compiled.dag)) == 1

    def test_rebinding_creates_versions(self):
        program = Program("v")
        a = program.declare_input("A", 6, 6)
        x = program.assign("X", a @ a)
        program.assign("X", x @ a)
        compiled = compile_program(program, PhysicalContext(3))
        assert compiled.bindings["X"].name == "X@2"
        assert "X@1" in compiled.materialized

    def test_task_counts_follow_split_params(self):
        # 6x6 with tile 3 -> 2x2 tile grid; chunks of 1 tile -> 4 tasks/seg.
        params = CompilerParams(matmul=MatMulParams(1, 1, 2))
        compiled = compile_simple(lambda a, b: a @ b, params)
        mult_job = compiled.dag.topological_order()[0]
        assert len(mult_job.map_tasks) == 8  # 4 positions x 2 k-segments

    def test_elementwise_tiles_per_task(self):
        params = CompilerParams(elementwise=ElementwiseParams(tiles_per_task=1))
        compiled = compile_simple(lambda a, b: a + b, params, tile_size=2)
        job = compiled.dag.topological_order()[0]
        assert len(job.map_tasks) == 9  # 3x3 tile grid, one tile per task

    def test_shared_subexpression_deduplicated(self):
        # CSE (on by default) compiles the repeated A@B once.
        compiled = compile_simple(lambda a, b: (a @ b) + (a @ b))
        mult_jobs = [j for j in compiled.dag if "mul" in j.job_id]
        assert len(mult_jobs) == 1

    def test_cse_disabled_duplicates(self):
        params = CompilerParams(cse_enabled=False)
        compiled = compile_simple(lambda a, b: (a @ b) + (a @ b), params)
        mult_jobs = [j for j in compiled.dag if "mul" in j.job_id]
        assert len(mult_jobs) == 2

    def test_cse_respects_rebinding(self):
        # X changes between the two uses of X @ A: no reuse allowed.
        program = Program("rebind")
        a = program.declare_input("A", 6, 6)
        x = program.assign("X", a @ a)
        program.assign("Y1", x @ a)
        x = program.assign("X", x + a)
        program.assign("Y2", x @ a)
        compiled = compile_program(program, PhysicalContext(3))
        mult_jobs = [j for j in compiled.dag if "mul" in j.job_id]
        # A@A, X@1 @ A, X@2 @ A: three distinct multiplies.
        assert len(mult_jobs) == 3

    def test_cse_reuse_across_statements_is_correct(self):
        import numpy as np
        from repro.core.executor import run_program
        rng = np.random.default_rng(3)
        env = {"A": rng.random((12, 12)), "B": rng.random((12, 12))}
        program = Program("share")
        a = program.declare_input("A", 12, 12)
        b = program.declare_input("B", 12, 12)
        program.assign("P", a @ b)
        program.assign("Q", (a @ b) * 2.0)
        program.mark_output("P", "Q")
        result = run_program(program, env, tile_size=4)
        np.testing.assert_allclose(result.output("P"), env["A"] @ env["B"])
        np.testing.assert_allclose(result.output("Q"),
                                   2 * (env["A"] @ env["B"]))

    def test_mult_pricing_does_not_visit_tiles(self, monkeypatch):
        # Tripwire: a task's work is priced once per shape class of its
        # job, so neither the coarse split of the 384^3 chain (2 tasks over
        # 12x12x12 tiles each) nor the one-tile split (288 tasks, 4 classes
        # per job: last row or not x last column or not) prices per task.
        calls = []
        real = MatrixInfo.shape_bytes

        def counting(self, rows, cols):
            calls.append((rows, cols))
            return real(self, rows, cols)

        monkeypatch.setattr(MatrixInfo, "shape_bytes", counting)
        program = build_chain_program(dimension=384, length=3)
        counts = {}
        for split in ((12, 12, 1), (1, 1, 1)):
            calls.clear()
            compiled = compile_program(
                program, PhysicalContext(32),
                CompilerParams(matmul=MatMulParams(*split)))
            counts[split] = len(calls)
            # Three block sums (A, B, C) of one shape each per shape class;
            # the tasks of a class share its one TaskWork.
            classes = sum(len({id(task.work) for task in job.map_tasks})
                          for job in compiled.dag)
            assert len(calls) == 3 * classes
        assert counts == {(12, 12, 1): 3 * 2, (1, 1, 1): 3 * 2 * 4}

    def test_work_accounting_positive(self):
        compiled = compile_simple(lambda a, b: (a @ b) * 3.0)
        for job in compiled.dag:
            assert job.total_bytes_read() > 0
            assert job.total_bytes_written() > 0


class TestCompiledOutputs:
    def test_output_info_lookup(self):
        compiled = compile_simple(lambda a, b: a @ b)
        info = compiled.output_info("OUT")
        assert info.shape == (6, 6)

    def test_output_info_missing(self):
        from repro.errors import CompilationError
        compiled = compile_simple(lambda a, b: a @ b)
        with pytest.raises(CompilationError):
            compiled.output_info("NOPE")
