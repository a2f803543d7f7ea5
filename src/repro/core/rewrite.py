"""Logical plan rewrites: matrix-chain reordering and simplification.

Choosing the association order of a multiply chain is a *logical* plan
choice with enormous cost consequences — ``(A @ B) @ v`` versus
``A @ (B @ v)`` differ by a factor of the matrix width when ``v`` is a
vector.  Cumulon's optimizer covers logical alternatives like this ahead of
the physical/provisioning search; here the classic O(n^3) dynamic program
minimizes estimated dense flops over each maximal multiply chain, treating
every non-multiply subexpression as an opaque chain element (recursively
rewritten first).

The rewrite is semantics-preserving (matrix multiplication is associative)
and enabled by default; ``CompilerParams.reorder_chains=False`` disables it
for the E15 ablation.
"""

from __future__ import annotations

from repro.core.expr import (
    Binary,
    Constant,
    ElementFunc,
    Expr,
    MatMul,
    ScalarOp,
    Transpose,
    Var,
)
from repro.errors import CompilationError


def reorder_matmul_chains(expr: Expr) -> Expr:
    """Rewrite every maximal multiply chain into its flop-optimal order."""
    if isinstance(expr, (Var, Constant)):
        return expr
    if isinstance(expr, MatMul):
        factors = _collect_chain(expr)
        factors = [reorder_matmul_chains(factor) for factor in factors]
        if len(factors) == 2:
            return MatMul(factors[0], factors[1])
        return _optimal_order(factors)
    if isinstance(expr, Transpose):
        return Transpose(reorder_matmul_chains(expr.child))
    if isinstance(expr, Binary):
        return Binary(expr.op, reorder_matmul_chains(expr.left),
                      reorder_matmul_chains(expr.right))
    if isinstance(expr, ScalarOp):
        return ScalarOp(reorder_matmul_chains(expr.child), expr.op,
                        expr.scalar)
    if isinstance(expr, ElementFunc):
        return ElementFunc(reorder_matmul_chains(expr.child), expr.func_name)
    raise CompilationError(f"unknown node {type(expr).__name__}")


def _collect_chain(expr: MatMul) -> list[Expr]:
    """Flatten a left/right-nested multiply tree into its factor list."""
    factors: list[Expr] = []

    def visit(node: Expr) -> None:
        if isinstance(node, MatMul):
            visit(node.left)
            visit(node.right)
        else:
            factors.append(node)

    visit(expr)
    return factors


def _optimal_order(factors: list[Expr]) -> Expr:
    """Classic matrix-chain-order DP over the factors' dense dimensions."""
    n = len(factors)
    dims = [factors[0].shape[0]] + [factor.shape[1] for factor in factors]
    INF = float("inf")
    cost = [[0.0] * n for __ in range(n)]
    split = [[0] * n for __ in range(n)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            cost[i][j] = INF
            for k in range(i, j):
                candidate = (cost[i][k] + cost[k + 1][j]
                             + 2.0 * dims[i] * dims[k + 1] * dims[j + 1])
                if candidate < cost[i][j]:
                    cost[i][j] = candidate
                    split[i][j] = k

    def build(i: int, j: int) -> Expr:
        if i == j:
            return factors[i]
        k = split[i][j]
        return MatMul(build(i, k), build(k + 1, j))

    return build(0, n - 1)


# ---------------------------------------------------------------------------
# Algebraic simplification.
# ---------------------------------------------------------------------------

def simplify(expr: Expr) -> Expr:
    """Conservative algebraic cleanup (semantics-preserving):

    * identity scalars vanish: ``X * 1 -> X``, ``X + 0 -> X``;
    * scalar chains fold: ``(X * a) * b -> X * (a*b)``,
      ``(X + a) + b -> X + (a+b)``;
    * double negation folds through the multiplicative chain.

    Machine-generated programs (loop unrolling, desugared updates) produce
    these patterns constantly; every one eliminated is a fused operator —
    or a whole job, when it was the statement root — that never runs.
    """
    if isinstance(expr, (Var, Constant)):
        return expr
    if isinstance(expr, Transpose):
        return Transpose(simplify(expr.child))
    if isinstance(expr, MatMul):
        return MatMul(simplify(expr.left), simplify(expr.right))
    if isinstance(expr, Binary):
        return Binary(expr.op, simplify(expr.left), simplify(expr.right))
    if isinstance(expr, ElementFunc):
        return ElementFunc(simplify(expr.child), expr.func_name)
    if isinstance(expr, ScalarOp):
        child = simplify(expr.child)
        # Identity element: nothing to compute.
        if expr.op == "mul" and expr.scalar == 1.0:
            return child
        if expr.op == "add" and expr.scalar == 0.0:
            return child
        # Fold chains of the same scalar operation.
        if isinstance(child, ScalarOp) and child.op == expr.op:
            if expr.op == "mul":
                return simplify(ScalarOp(child.child, "mul",
                                         child.scalar * expr.scalar))
            return simplify(ScalarOp(child.child, "add",
                                     child.scalar + expr.scalar))
        return ScalarOp(child, expr.op, expr.scalar)
    raise CompilationError(f"unknown node {type(expr).__name__}")
