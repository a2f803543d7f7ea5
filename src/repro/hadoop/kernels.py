"""Declarative tile-kernel plans: the unit of work a backend can ship.

The local executor's task closures are *not* picklable (the compiler fuses
element-wise operators into nested lambdas), so the process backend cannot
ship a task's ``run`` callable to a worker.  What it ships instead is a
:class:`BlockPlan`: a batch of sum-of-products over a shared table of dense
payloads — exactly the arithmetic a mult or add task performs, with every
per-tile Python overhead (store lookups, shape checks, sparsity probes)
stripped out.  Batching a whole task into one plan is what amortizes the
dispatch round-trip; :func:`execute_plan` is the single shared evaluator, so
the inline fallback, the unit tests, and the pool workers all run the same
operation sequence and produce bit-identical floats.

A *term* ``(left, right)`` names indices into the payload table and
contributes ``payloads[left] @ payloads[right]`` to its output; with
``right is None`` it contributes ``payloads[left]`` (the add-partials job).
Terms of one output accumulate left-to-right with ``+``, matching the
reference thread-backend runners in :mod:`repro.core.physical` term for
term.

There are exactly two plan kinds, and the compiler's mult runner picks
between them once: a mult task whose tiles are uniform per operand ships
as a :class:`GridMultPlan` (grid geometry alone), everything else — a
ragged-edge mult task, every add-partials chunk — as a :class:`BlockPlan`.
A dispatcher ships what it is handed; the only conversion left is
:func:`expand_grid`, the reference semantics of a grid plan.

A task declares its kernel instead of looking one up: the compiler gives
every mult and add-partials task a ``kernel`` callable that does the task's
reads and returns a :class:`KernelCall` (or ``None`` when the task must run
inline this time).  The executor that owns the task decides where the call
is evaluated — there is no process-wide "active dispatcher", so two
executors in one process never see each other's pool.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError

#: One addend of an output: (left payload index, right payload index|None).
Term = tuple[int, "int | None"]


@dataclass(frozen=True)
class BlockPlan:
    """A batch of sum-of-products over one shared payload table.

    ``transposed[i]`` applies a logical transpose to payload ``i`` before
    use (the stored array crosses the process boundary untransposed, the
    worker applies ``.T`` exactly like the inline runner does).
    ``outputs[o]`` lists the terms of output ``o`` in accumulation order.
    ``out_shapes[o]`` is the dense shape of output ``o`` — the dispatcher
    sizes response buffers from it without touching any payload.
    """

    transposed: tuple[bool, ...]
    outputs: tuple[tuple[Term, ...], ...]
    out_shapes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.outputs) != len(self.out_shapes):
            raise ValidationError("outputs and out_shapes must align")
        if not self.outputs:
            raise ValidationError("plan must have at least one output")
        n = len(self.transposed)
        for terms in self.outputs:
            if not terms:
                raise ValidationError("every output needs at least one term")
            for left, right in terms:
                if not 0 <= left < n or (right is not None
                                         and not 0 <= right < n):
                    raise ValidationError(
                        f"term ({left}, {right}) outside payload table "
                        f"of size {n}")

    @property
    def num_tiles(self) -> int:
        """Tile-level kernel invocations this plan batches (for metrics)."""
        return sum(len(terms) for terms in self.outputs) + len(self.outputs)


@dataclass(frozen=True, eq=False)
class GridMultPlan:
    """A whole mult task described by its grid geometry alone.

    A mult task's payload table always has block structure — the A tiles
    for ``(i, k)`` in row-major order, then the B tiles for ``(k, j)`` —
    so when tile shapes are uniform per operand nothing about the task
    needs per-term encoding: output ``(i, j)`` is ``sum_k A[i,k] @ B[k,j]``
    by construction.  The evaluator exploits that layout with broadcasted
    batched matmuls over *views* of the two blocks: no gather, no index
    vectors, and the per-``k`` working set stays cache-resident instead of
    materializing every duplicated operand tile the way a gather must.
    """

    ni: int
    nj: int
    nk: int
    a_shape: tuple[int, int]
    b_shape: tuple[int, int]
    left_transposed: bool
    right_transposed: bool
    out_shape: tuple[int, int]

    @property
    def a_count(self) -> int:
        return self.ni * self.nk

    @property
    def b_count(self) -> int:
        return self.nk * self.nj

    @property
    def n_outputs(self) -> int:
        return self.ni * self.nj

    @property
    def num_tiles(self) -> int:
        """Tile-level kernel invocations this plan batches (for metrics)."""
        return self.ni * self.nj * self.nk + self.ni * self.nj


def expand_grid(plan: GridMultPlan) -> BlockPlan:
    """The equivalent :class:`BlockPlan` (payloads: A block, then B block).

    This is the reference semantics of a grid plan; dispatchers without a
    structured fast path evaluate grid tasks through it.
    """
    a_count = plan.a_count
    outputs = tuple(
        tuple((i * plan.nk + k, a_count + k * plan.nj + j)
              for k in range(plan.nk))
        for i in range(plan.ni) for j in range(plan.nj))
    transposed = (plan.left_transposed,) * a_count \
        + (plan.right_transposed,) * plan.b_count
    return BlockPlan(transposed, outputs,
                     (plan.out_shape,) * plan.n_outputs)


def execute_grid_mult(plan: GridMultPlan, a_block: np.ndarray,
                      b_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a grid mult over its two payload blocks.

    ``a_block`` is ``(ni * nk, *a_shape)``, ``b_block`` ``(nk * nj,
    *b_shape)``.  Returns ``(outputs, counts)`` with ``outputs`` of shape
    ``(ni * nj, *out_shape)`` in row-major ``(i, j)`` order.

    Bit-identity with the inline runner: each broadcast slice is the same
    2-D matmul kernel on the same operand views, and the ``k`` loop
    accumulates ascending with elementwise ``+`` — per output element
    exactly the inline ``((p0 + p1) + p2) ...`` sequence.
    """
    if a_block.shape != (plan.a_count, *plan.a_shape):
        raise ValidationError(
            f"grid plan expects A block {plan.a_count} x {plan.a_shape}, "
            f"got {a_block.shape}")
    if b_block.shape != (plan.b_count, *plan.b_shape):
        raise ValidationError(
            f"grid plan expects B block {plan.b_count} x {plan.b_shape}, "
            f"got {b_block.shape}")
    lefts = a_block.reshape(plan.ni, plan.nk, *plan.a_shape)
    rights = b_block.reshape(plan.nk, plan.nj, *plan.b_shape)
    if plan.left_transposed:
        lefts = lefts.transpose(0, 1, 3, 2)
    if plan.right_transposed:
        rights = rights.transpose(0, 1, 3, 2)
    rights = rights.transpose(1, 0, 2, 3)  # index as [j, k]
    accumulator = None
    for k in range(plan.nk):
        # (ni, 1, r, s) @ (1, nj, s, c) -> (ni, nj, r, c): one gufunc call
        # over views, nothing materialized but the products themselves.
        product = np.matmul(lefts[:, None, k], rights[None, :, k])
        accumulator = product if accumulator is None \
            else accumulator + product
    outputs = accumulator.reshape(plan.n_outputs, *accumulator.shape[2:])
    if outputs.shape[1:] != plan.out_shape:
        raise ValidationError(
            f"grid plan produced {outputs.shape[1:]}, "
            f"expected {plan.out_shape}")
    counts = np.count_nonzero(outputs.reshape(plan.n_outputs, -1), axis=1)
    return outputs, counts


def execute_plan(plan: BlockPlan,
                 payloads: list[np.ndarray]) -> list[tuple[np.ndarray, int]]:
    """Evaluate every output of ``plan``; returns ``(array, nnz)`` pairs.

    The operation sequence — transpose views, ``@``, left-to-right ``+`` —
    mirrors the inline runners exactly, so results are bit-identical to the
    thread backend's on the same inputs.
    """
    if len(payloads) != len(plan.transposed):
        raise ValidationError(
            f"plan expects {len(plan.transposed)} payloads, "
            f"got {len(payloads)}")
    views = [payload.T if flag else payload
             for payload, flag in zip(payloads, plan.transposed)]
    results: list[tuple[np.ndarray, int]] = []
    for terms in plan.outputs:
        accumulator = None
        for left, right in terms:
            value = views[left] if right is None else views[left] @ views[right]
            accumulator = value if accumulator is None \
                else accumulator + value
        if accumulator.base is not None or any(
                accumulator is view for view in views):
            # A single pass-through term would alias an input; own the data.
            accumulator = accumulator.copy()
        results.append((accumulator, int(np.count_nonzero(accumulator))))
    return results


#: Plan kinds, as recorded in per-plan metrics and worker kernel spans.
PLAN_BLOCK = "block"
PLAN_GRID = "grid"


def plan_kind(plan) -> str:
    """The short kind name of a kernel plan (``block``/``grid``).

    This is the label worker-side kernel spans and the ``procpool.*``
    per-plan metrics are keyed by, so profiles aggregate consistently
    across the dispatcher and the workers.
    """
    return PLAN_GRID if isinstance(plan, GridMultPlan) else PLAN_BLOCK


@dataclass(frozen=True, eq=False)
class KernelCall:
    """One task's kernel, read and ready to evaluate.

    ``payloads`` is the dense table ``plan`` indexes (for a
    :class:`GridMultPlan`: the A block, then the B block).
    ``store(results)`` takes the evaluator's ``(array, nnz)`` pairs, one
    per plan output in order, and writes the task's output tiles with
    those nonzero counts.
    """

    plan: "BlockPlan | GridMultPlan"
    payloads: list[np.ndarray]
    store: Callable[[list[tuple[np.ndarray, int]]], None]


class KernelDispatcher:
    """Where a backend sends batched kernel plans for evaluation."""

    #: Short name recorded in per-backend metrics.
    name = "abstract"

    def run_plan(self, payloads: list[np.ndarray],
                 plan: BlockPlan) -> list[tuple[np.ndarray, int]]:
        """Evaluate ``plan`` over dense float64 payloads.

        Returns one ``(dense result, nonzero count)`` pair per plan output,
        in order.  Implementations must preserve :func:`execute_plan`'s
        operation sequence bit for bit.
        """
        raise NotImplementedError

    def run_grid_mult(self, a_payloads: list[np.ndarray],
                      b_payloads: list[np.ndarray], plan: GridMultPlan
                      ) -> list[tuple[np.ndarray, int]]:
        """Evaluate a structured mult task (see :class:`GridMultPlan`).

        The default expands to the equivalent :class:`BlockPlan` and goes
        through :meth:`run_plan`; backends with a structured fast path
        override this.
        """
        return self.run_plan(list(a_payloads) + list(b_payloads),
                             expand_grid(plan))


class InlineDispatcher(KernelDispatcher):
    """Evaluates plans in the calling thread — the degenerate backend used
    by unit tests to lock plan semantics without any processes."""

    name = "inline"

    def run_plan(self, payloads, plan):
        return execute_plan(plan, payloads)
