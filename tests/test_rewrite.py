"""Unit tests for matrix-chain reordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import CompilerParams, compile_program
from repro.core.executor import run_program
from repro.core.expr import MatMul, Var, evaluate_with_numpy
from repro.core.program import Program
from repro.core.rewrite import reorder_matmul_chains

RNG = np.random.default_rng(41)


def chain_expr(shapes):
    factors = [Var(f"M{i}", shape) for i, shape in enumerate(shapes)]
    expr = factors[0]
    for factor in factors[1:]:
        expr = expr @ factor
    return expr, factors


def total_flops(expr) -> int:
    own = 0
    if isinstance(expr, MatMul):
        rows, inner = expr.left.shape
        cols = expr.right.shape[1]
        own = 2 * rows * inner * cols
    return own + sum(total_flops(child) for child in expr.children())


class TestReordering:
    def test_vector_chain_reassociates_right(self):
        # (A @ B) @ v should become A @ (B @ v).
        expr, __ = chain_expr([(100, 100), (100, 100), (100, 1)])
        reordered = reorder_matmul_chains(expr)
        assert isinstance(reordered.right, MatMul)
        assert total_flops(reordered) < total_flops(expr)

    def test_left_heavy_chain_kept_when_optimal(self):
        # v' @ A @ B: left-to-right is already optimal.
        expr, __ = chain_expr([(1, 100), (100, 100), (100, 100)])
        reordered = reorder_matmul_chains(expr)
        assert total_flops(reordered) <= total_flops(expr)

    def test_pair_untouched(self):
        expr, factors = chain_expr([(4, 5), (5, 6)])
        reordered = reorder_matmul_chains(expr)
        assert isinstance(reordered, MatMul)
        assert reordered.shape == (4, 6)

    def test_textbook_example(self):
        # Dims 10x30 @ 30x5 @ 5x60: optimal is (A(BC))? No: ((AB)C) with
        # 10*30*5 + 10*5*60 = 4500 mults vs A(BC) = 30*5*60+10*30*60 = 27000.
        expr, __ = chain_expr([(10, 30), (30, 5), (5, 60)])
        reordered = reorder_matmul_chains(expr)
        assert total_flops(reordered) == 2 * (10 * 30 * 5 + 10 * 5 * 60)

    def test_preserves_semantics(self):
        shapes = [(7, 13), (13, 3), (3, 19), (19, 2)]
        expr, factors = chain_expr(shapes)
        env = {f"M{i}": RNG.random(shape) for i, shape in enumerate(shapes)}
        reordered = reorder_matmul_chains(expr)
        np.testing.assert_allclose(evaluate_with_numpy(reordered, env),
                                   evaluate_with_numpy(expr, env))

    def test_chains_inside_other_nodes_rewritten(self):
        expr, __ = chain_expr([(50, 50), (50, 50), (50, 1)])
        wrapped = (expr * 2.0).apply("abs")
        reordered = reorder_matmul_chains(wrapped)
        assert total_flops(reordered) < total_flops(wrapped)


class TestCompilerIntegration:
    def test_reordering_reduces_compiled_flops(self):
        program = Program("chain")
        a = program.declare_input("A", 64, 64)
        b = program.declare_input("B", 64, 64)
        v = program.declare_input("v", 64, 1)
        program.assign("r", a @ b @ v)
        from repro.core.physical import PhysicalContext
        on = compile_program(program, PhysicalContext(16),
                             CompilerParams(reorder_chains=True))
        program2 = Program("chain")
        a = program2.declare_input("A", 64, 64)
        b = program2.declare_input("B", 64, 64)
        v = program2.declare_input("v", 64, 1)
        program2.assign("r", a @ b @ v)
        off = compile_program(program2, PhysicalContext(16),
                              CompilerParams(reorder_chains=False))
        flops_on = sum(job.total_flops() for job in on.dag)
        flops_off = sum(job.total_flops() for job in off.dag)
        assert flops_on < flops_off / 5

    def test_execution_correct_with_reordering(self):
        shapes = [(24, 16), (16, 40), (40, 4)]
        env = {f"M{i}": RNG.random(shape) for i, shape in enumerate(shapes)}
        program = Program("exec")
        factors = [program.declare_input(f"M{i}", *shape)
                   for i, shape in enumerate(shapes)]
        program.assign("r", factors[0] @ factors[1] @ factors[2])
        program.mark_output("r")
        result = run_program(program, env, tile_size=8)
        expected = env["M0"] @ env["M1"] @ env["M2"]
        np.testing.assert_allclose(result.output("r"), expected, rtol=1e-9)


@given(dims=st.lists(st.integers(1, 30), min_size=3, max_size=7),
       seed=st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_property_reordering_never_worse_and_correct(dims, seed):
    shapes = [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    expr, __ = chain_expr(shapes)
    reordered = reorder_matmul_chains(expr)
    assert reordered.shape == expr.shape
    assert total_flops(reordered) <= total_flops(expr)
    rng = np.random.default_rng(seed)
    env = {f"M{i}": rng.random(shape) for i, shape in enumerate(shapes)}
    np.testing.assert_allclose(evaluate_with_numpy(reordered, env),
                               evaluate_with_numpy(expr, env), rtol=1e-7)
