"""Unit tests for constant matrices and the aggregation sugar."""

import numpy as np
import pytest

from repro.core.compiler import compile_program, normalize_transposes
from repro.core.executor import run_program
from repro.core.expr import Constant, Var, evaluate_with_numpy, ones
from repro.core.physical import PhysicalContext
from repro.core.program import Program
from repro.errors import ShapeError, ValidationError

RNG = np.random.default_rng(31)


class TestConstant:
    def test_shape_and_density(self):
        c = Constant(2.0, (3, 4))
        assert c.shape == (3, 4)
        assert c.density == 1.0
        assert Constant(0.0, (3, 4)).density == 0.0

    def test_validation(self):
        with pytest.raises(ShapeError):
            Constant(1.0, (0, 4))
        with pytest.raises(ValidationError):
            Constant(float("inf"), (2, 2))

    def test_ones_helper(self):
        c = ones(2, 5)
        assert c.value == 1.0
        assert c.shape == (2, 5)

    def test_numpy_evaluation(self):
        np.testing.assert_array_equal(
            evaluate_with_numpy(Constant(3.0, (2, 2)), {}),
            np.full((2, 2), 3.0))

    def test_transpose_normalizes_to_swapped_constant(self):
        normalized = normalize_transposes(Constant(2.0, (3, 5)).T)
        assert isinstance(normalized, Constant)
        assert normalized.shape == (5, 3)

    def test_describe(self):
        assert "2" in Constant(2.0, (3, 5)).describe()

    def test_constant_in_expression(self):
        a = Var("A", (4, 4))
        expr = a + Constant(1.0, (4, 4))
        env = {"A": RNG.random((4, 4))}
        np.testing.assert_allclose(evaluate_with_numpy(expr, env),
                                   env["A"] + 1.0)

    def test_compiler_materializes_constant_once(self):
        program = Program("c")
        a = program.declare_input("A", 8, 8)
        program.assign("R1", a @ ones(8, 1))
        program.assign("R2", (a * 2.0) @ ones(8, 1))
        compiled = compile_program(program, PhysicalContext(4))
        const_names = [name for name in compiled.materialized
                       if name.startswith("_const")]
        assert len(const_names) == 1

    def test_distinct_constants_materialized_separately(self):
        program = Program("c")
        a = program.declare_input("A", 8, 8)
        program.assign("R1", a @ ones(8, 1))
        program.assign("R2", a @ Constant(2.0, (8, 1)))
        compiled = compile_program(program, PhysicalContext(4))
        const_names = [name for name in compiled.materialized
                       if name.startswith("_const")]
        assert len(const_names) == 2


class TestAggregates:
    def run_aggregate(self, build, rows=24, cols=18, tile=8):
        data = RNG.random((rows, cols))
        program = Program("agg")
        x = program.declare_input("X", rows, cols)
        program.assign("OUT", build(x))
        program.mark_output("OUT")
        result = run_program(program, {"X": data}, tile_size=tile)
        return data, result.output("OUT")

    def test_row_sums(self):
        data, out = self.run_aggregate(lambda x: x.row_sums())
        assert out.shape == (24, 1)
        np.testing.assert_allclose(out.ravel(), data.sum(axis=1))

    def test_col_sums(self):
        data, out = self.run_aggregate(lambda x: x.col_sums())
        assert out.shape == (1, 18)
        np.testing.assert_allclose(out.ravel(), data.sum(axis=0))

    def test_sum_all(self):
        data, out = self.run_aggregate(lambda x: x.row_sums().col_sums())
        assert out.shape == (1, 1)
        np.testing.assert_allclose(out[0, 0], data.sum())

    def test_row_sums_of_expression(self):
        data, out = self.run_aggregate(lambda x: (x * 2.0).row_sums())
        np.testing.assert_allclose(out.ravel(), 2.0 * data.sum(axis=1))

    def test_ragged_tiles(self):
        data, out = self.run_aggregate(lambda x: x.row_sums().col_sums(),
                                       rows=23, cols=17, tile=5)
        np.testing.assert_allclose(out[0, 0], data.sum())

    def test_row_centering_pattern(self):
        rows, cols = 16, 12
        data = RNG.random((rows, cols))
        program = Program("center")
        x = program.declare_input("X", rows, cols)
        row_means = x.row_sums() * (1.0 / cols)
        program.assign("C", x - row_means @ ones(1, cols))
        program.mark_output("C")
        result = run_program(program, {"X": data}, tile_size=8)
        np.testing.assert_allclose(
            result.output("C"), data - data.mean(axis=1, keepdims=True))
