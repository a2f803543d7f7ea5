"""Unit tests for kernel plans and the inline dispatcher.

Everything here is single-process (tier 1): plan semantics are locked via
:class:`InlineDispatcher` and plain :func:`execute_plan` calls; the
process pool itself is exercised by the differential harness.
"""

import pickle

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.hadoop.kernels import (
    BlockPlan,
    GridMultPlan,
    InlineDispatcher,
    execute_grid_mult,
    execute_plan,
    expand_grid,
)

RNG = np.random.default_rng(11)


class TestBlockPlan:
    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one output"):
            BlockPlan((), (), ())
        with pytest.raises(ValidationError, match="align"):
            BlockPlan((False,), (((0, None),),), ())
        with pytest.raises(ValidationError, match="at least one term"):
            BlockPlan((False,), ((),), ((2, 2),))
        with pytest.raises(ValidationError, match="outside"):
            BlockPlan((False,), (((0, 3),),), ((2, 2),))

    def test_num_tiles_counts_terms_and_outputs(self):
        plan = BlockPlan((False, False),
                         (((0, 1), (1, 0)), ((0, None),)),
                         ((2, 2), (2, 2)))
        assert plan.num_tiles == 3 + 2

    def test_matmul_matches_numpy(self):
        a, b = RNG.random((3, 4)), RNG.random((4, 5))
        plan = BlockPlan((False, False), (((0, 1),),), ((3, 5),))
        [(result, nnz)] = execute_plan(plan, [a, b])
        assert np.array_equal(result, a @ b)
        assert nnz == np.count_nonzero(a @ b)

    def test_transposed_flag_matches_dot_of_t(self):
        a, b = RNG.random((4, 3)), RNG.random((4, 5))
        plan = BlockPlan((True, False), (((0, 1),),), ((3, 5),))
        [(result, __)] = execute_plan(plan, [a, b])
        assert np.array_equal(result, a.T @ b)

    def test_sum_of_products_accumulates_left_to_right(self):
        # Bit-identity requires the exact accumulation order: (ab + cd) + e.
        a, b = RNG.random((2, 3)), RNG.random((3, 2))
        c, d = RNG.random((2, 3)), RNG.random((3, 2))
        e = RNG.random((2, 2))
        plan = BlockPlan((False,) * 5,
                         (((0, 1), (2, 3), (4, None)),), ((2, 2),))
        [(result, __)] = execute_plan(plan, [a, b, c, d, e])
        assert np.array_equal(result, (a @ b + c @ d) + e)

    def test_passthrough_term_copies(self):
        a = RNG.random((3, 3))
        plan = BlockPlan((False,), (((0, None),),), ((3, 3),))
        [(result, __)] = execute_plan(plan, [a])
        assert np.array_equal(result, a)
        result[0, 0] = -1.0  # must not write through to the payload
        assert a[0, 0] != -1.0

    def test_payload_count_validated(self):
        plan = BlockPlan((False,), (((0, None),),), ((2, 2),))
        with pytest.raises(ValidationError, match="payloads"):
            execute_plan(plan, [])

    def test_plans_are_picklable(self):
        plan = BlockPlan((False, True), (((0, 1),),), ((4, 4),))
        assert pickle.loads(pickle.dumps(plan)) == plan


def reference_results(plan, payloads):
    return execute_plan(plan, payloads)


def assert_matches_reference(outputs, counts, reference):
    assert len(outputs) == len(reference)
    for index, (array, nnz) in enumerate(reference):
        assert np.array_equal(outputs[index], array), index
        assert int(counts[index]) == nnz, index


class TestGridMultPlan:
    """The structured mult plan equals its BlockPlan expansion."""

    def make_blocks(self, plan):
        a = RNG.random((plan.a_count, *plan.a_shape))
        b = RNG.random((plan.b_count, *plan.b_shape))
        return a, b

    @pytest.mark.parametrize("flags", [(False, False), (True, False),
                                       (False, True), (True, True)])
    def test_matches_expanded_block_plan(self, flags):
        shape = (4, 4) if flags[0] == flags[1] else (4, 4)
        plan = GridMultPlan(ni=3, nj=2, nk=4, a_shape=shape, b_shape=shape,
                            left_transposed=flags[0],
                            right_transposed=flags[1], out_shape=(4, 4))
        a, b = self.make_blocks(plan)
        outputs, counts = execute_grid_mult(plan, a, b)
        reference = reference_results(expand_grid(plan), list(a) + list(b))
        assert_matches_reference(outputs, counts, reference)

    def test_rectangular_tiles(self):
        plan = GridMultPlan(ni=2, nj=3, nk=2, a_shape=(5, 4),
                            b_shape=(4, 6), left_transposed=False,
                            right_transposed=False, out_shape=(5, 6))
        a, b = self.make_blocks(plan)
        outputs, counts = execute_grid_mult(plan, a, b)
        reference = reference_results(expand_grid(plan), list(a) + list(b))
        assert_matches_reference(outputs, counts, reference)

    def test_single_k_owns_its_data(self):
        plan = GridMultPlan(ni=1, nj=1, nk=1, a_shape=(3, 3),
                            b_shape=(3, 3), left_transposed=False,
                            right_transposed=False, out_shape=(3, 3))
        a, b = self.make_blocks(plan)
        outputs, __ = execute_grid_mult(plan, a, b)
        assert np.array_equal(outputs[0], a[0] @ b[0])

    def test_block_shapes_validated(self):
        plan = GridMultPlan(ni=2, nj=2, nk=2, a_shape=(3, 3),
                            b_shape=(3, 3), left_transposed=False,
                            right_transposed=False, out_shape=(3, 3))
        a, b = self.make_blocks(plan)
        with pytest.raises(ValidationError, match="A block"):
            execute_grid_mult(plan, a[:1], b)
        with pytest.raises(ValidationError, match="B block"):
            execute_grid_mult(plan, a, b[:1])

    def test_default_dispatcher_route_uses_expansion(self):
        plan = GridMultPlan(ni=2, nj=2, nk=3, a_shape=(4, 4),
                            b_shape=(4, 4), left_transposed=False,
                            right_transposed=False, out_shape=(4, 4))
        a, b = self.make_blocks(plan)
        results = InlineDispatcher().run_grid_mult(list(a), list(b), plan)
        reference = reference_results(expand_grid(plan), list(a) + list(b))
        for (array, nnz), (ref_array, ref_nnz) in zip(results, reference):
            assert np.array_equal(array, ref_array)
            assert nnz == ref_nnz


class TestDispatcherRegistry:
    # The process-wide registry this class was named for is gone (tasks
    # declare their kernels); the inline evaluator it also covered stays.
    def test_inline_dispatcher_runs_plans(self):
        a, b = RNG.random((2, 3)), RNG.random((3, 2))
        plan = BlockPlan((False, False), (((0, 1),),), ((2, 2),))
        [(result, __)] = InlineDispatcher().run_plan([a, b], plan)
        assert np.array_equal(result, a @ b)
