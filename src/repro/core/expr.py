"""Cumulon's logical plan language: matrix expressions.

Programs are written against :class:`Expr` nodes with natural operators::

    w = (x.T @ x).inverse_free_solve(...)      # no — see workloads for solvers
    h_new = h * (w.T @ v) / (w.T @ (w @ h))    # GNMF update, as in the paper

Supported logical operators: matrix multiply (``@``), element-wise ``+ - * /``,
transpose (``.T``), scalar combinations, and element functions
(``exp``/``log``/``sqrt``/``abs``/``pow``).  Shapes are inferred and checked
at construction; an estimated nonzero density is propagated for the cost
model's sparse-input experiments.

The logical layer is deliberately small: everything the paper's workloads
(matrix-multiply chains, GNMF, RSVD, regression, power iteration) need, and
nothing more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError, ValidationError

def _sigmoid(array):
    return 1.0 / (1.0 + np.exp(-array))


#: Element functions usable with :meth:`Expr.apply`.
ELEMENT_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "square": np.square,
    "sigmoid": _sigmoid,
}

#: Binary element-wise operators and their numpy implementations.
BINARY_OPERATORS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "min": np.minimum,
    "max": np.maximum,
}


class Expr:
    """Base class of all logical-plan nodes."""

    #: (rows, cols) — set by every subclass constructor.
    shape: tuple[int, int]
    #: Estimated fraction of nonzero elements in [0, 1].
    density: float

    # -- operator sugar -----------------------------------------------------

    def __matmul__(self, other: "Expr") -> "MatMul":
        return MatMul(self, _as_expr(other))

    def __add__(self, other) -> "Expr":
        if _is_scalar(other):
            return ScalarOp(self, "add", float(other))
        return Binary("add", self, _as_expr(other))

    def __radd__(self, other) -> "Expr":
        return self.__add__(other)

    def __sub__(self, other) -> "Expr":
        if _is_scalar(other):
            return ScalarOp(self, "add", -float(other))
        return Binary("sub", self, _as_expr(other))

    def __mul__(self, other) -> "Expr":
        if _is_scalar(other):
            return ScalarOp(self, "mul", float(other))
        return Binary("mul", self, _as_expr(other))

    def __rmul__(self, other) -> "Expr":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Expr":
        if _is_scalar(other):
            if other == 0:
                raise ValidationError("division by scalar zero")
            return ScalarOp(self, "mul", 1.0 / float(other))
        return Binary("div", self, _as_expr(other))

    def __neg__(self) -> "Expr":
        return ScalarOp(self, "mul", -1.0)

    @property
    def T(self) -> "Expr":  # noqa: N802 - matches numpy convention
        return Transpose(self)

    def apply(self, func_name: str) -> "ElementFunc":
        return ElementFunc(self, func_name)

    def minimum(self, other: "Expr") -> "Binary":
        """Element-wise minimum (broadcasting like the other operators)."""
        return Binary("min", self, _as_expr(other))

    def maximum(self, other: "Expr") -> "Binary":
        """Element-wise maximum; ``X.maximum(zeros)`` is ReLU-style clipping."""
        return Binary("max", self, _as_expr(other))

    # -- aggregations (desugared to multiplies with constant matrices) -------

    def row_sums(self) -> "MatMul":
        """Column vector of per-row sums: ``X @ ones(cols, 1)``."""
        return MatMul(self, Constant(1.0, (self.shape[1], 1)))

    def col_sums(self) -> "MatMul":
        """Row vector of per-column sums: ``ones(1, rows) @ X``."""
        return MatMul(Constant(1.0, (1, self.shape[0])), self)

    # -- traversal ----------------------------------------------------------

    def children(self) -> tuple["Expr", ...]:
        return ()

    def free_variables(self) -> set[str]:
        """Names of :class:`Var` leaves under this expression."""
        names: set[str] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                names.add(node.name)
            stack.extend(node.children())
        return names

    def describe(self) -> str:
        """Compact single-line rendering for logs and error messages."""
        raise NotImplementedError


def _is_scalar(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_expr(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    raise ValidationError(
        f"expected a matrix expression, got {type(value).__name__}; "
        "wrap scalars via scalar operators (A * 2.0)"
    )


@dataclass(frozen=True)
class Constant(Expr):
    """A matrix filled with one value, materialized lazily by the compiler.

    Constants make aggregations expressible as multiplies — ``row_sums(X)``
    is ``X @ ones(cols, 1)`` — which is how Cumulon-style engines reuse the
    multiply template for reductions.
    """

    value: float
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"constant has invalid shape {self.shape}")
        if not math.isfinite(self.value):
            raise ValidationError(f"constant value must be finite: {self.value}")

    @property
    def density(self) -> float:  # type: ignore[override]
        return 1.0 if self.value != 0 else 0.0

    def describe(self) -> str:
        rows, cols = self.shape
        return f"const({self.value:g}, {rows}x{cols})"


def ones(rows: int, cols: int) -> Constant:
    """An all-ones matrix (the reduction workhorse)."""
    return Constant(1.0, (rows, cols))


@dataclass(frozen=True)
class Var(Expr):
    """Reference to a named matrix bound in the program environment."""

    name: str
    shape: tuple[int, int]
    density: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("variable name must be non-empty")
        rows, cols = self.shape
        if rows <= 0 or cols <= 0:
            raise ShapeError(f"variable {self.name!r} has invalid shape {self.shape}")
        if not 0.0 <= self.density <= 1.0:
            raise ValidationError(
                f"density must be in [0, 1], got {self.density}"
            )

    def describe(self) -> str:
        return self.name


class Transpose(Expr):
    """Logical transpose; physical layer folds it into tile reads."""

    def __init__(self, child: Expr):
        self.child = child
        self.shape = (child.shape[1], child.shape[0])
        self.density = child.density

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"({self.child.describe()})'"


class MatMul(Expr):
    """Matrix product."""

    def __init__(self, left: Expr, right: Expr):
        if left.shape[1] != right.shape[0]:
            raise ShapeError(
                f"cannot multiply {left.describe()} {left.shape} by "
                f"{right.describe()} {right.shape}"
            )
        self.left = left
        self.right = right
        self.shape = (left.shape[0], right.shape[1])
        self.density = estimate_matmul_density(
            left.density, right.density, left.shape[1]
        )

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"({self.left.describe()} @ {self.right.describe()})"


def broadcast_shapes(left: tuple[int, int],
                     right: tuple[int, int]) -> tuple[int, int]:
    """Numpy-style broadcast of two 2-D shapes (dims must match or be 1)."""
    result = []
    for left_dim, right_dim in zip(left, right):
        if left_dim == right_dim or right_dim == 1:
            result.append(left_dim)
        elif left_dim == 1:
            result.append(right_dim)
        else:
            raise ShapeError(
                f"shapes {left} and {right} are not broadcastable"
            )
    return (result[0], result[1])


class Binary(Expr):
    """Element-wise binary operation, with numpy-style broadcasting.

    Row vectors (1 x c), column vectors (r x 1), and scalars-as-matrices
    (1 x 1) broadcast against (r x c) operands — how centering and
    normalization are written (``X - mu`` with a row-vector mu).
    """

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BINARY_OPERATORS:
            raise ValidationError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self.shape = broadcast_shapes(left.shape, right.shape)
        self.density = estimate_binary_density(op, left.density, right.density)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        symbol = {"add": "+", "sub": "-", "mul": ".*", "div": "./",
                  "min": "min", "max": "max"}[self.op]
        if symbol in ("min", "max"):
            return (f"{symbol}({self.left.describe()}, "
                    f"{self.right.describe()})")
        return f"({self.left.describe()} {symbol} {self.right.describe()})"


class ScalarOp(Expr):
    """Element-wise combination with a scalar: ``A + c`` or ``A * c``."""

    def __init__(self, child: Expr, op: str, scalar: float):
        if op not in ("add", "mul"):
            raise ValidationError(f"scalar op must be add or mul, got {op!r}")
        if not math.isfinite(scalar):
            raise ValidationError(f"scalar must be finite, got {scalar}")
        self.child = child
        self.op = op
        self.scalar = scalar
        self.shape = child.shape
        if op == "mul":
            self.density = child.density if scalar != 0 else 0.0
        else:
            self.density = 1.0 if scalar != 0 else child.density

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def describe(self) -> str:
        symbol = "+" if self.op == "add" else "*"
        return f"({self.child.describe()} {symbol} {self.scalar:g})"


class ElementFunc(Expr):
    """Element function applied to every entry (exp, log, sqrt, ...)."""

    def __init__(self, child: Expr, func_name: str):
        if func_name not in ELEMENT_FUNCTIONS:
            known = ", ".join(sorted(ELEMENT_FUNCTIONS))
            raise ValidationError(
                f"unknown element function {func_name!r}; known: {known}"
            )
        self.child = child
        self.func_name = func_name
        self.shape = child.shape
        # exp(0) = 1 and sigmoid(0) = 0.5 densify; the others preserve the
        # zero pattern.
        densifying = ("exp", "sigmoid")
        self.density = 1.0 if func_name in densifying else child.density

    def children(self) -> tuple[Expr, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"{self.func_name}({self.child.describe()})"


# ---------------------------------------------------------------------------
# Density estimation (standard independence assumptions).
# ---------------------------------------------------------------------------

def estimate_matmul_density(left: float, right: float, inner_dim: int) -> float:
    """P(C[i,j] != 0) assuming independent nonzero positions."""
    hit = left * right
    if hit <= 0.0:
        return 0.0
    return min(1.0, 1.0 - (1.0 - hit) ** max(1, inner_dim))


def estimate_binary_density(op: str, left: float, right: float) -> float:
    if op in ("add", "sub", "min", "max"):
        # Union of the two patterns (min/max of a nonzero and a zero can go
        # either way; union is the safe upper bound).
        return min(1.0, left + right - left * right)
    if op == "mul":
        # Intersection.
        return left * right
    # Division: conservatively treat as dense (0/0 and x/0 handled at exec).
    return 1.0


def evaluate_with_numpy(expr: Expr, env: dict[str, np.ndarray]) -> np.ndarray:
    """Reference interpreter: evaluate an expression on plain numpy arrays.

    Used by tests to cross-check the compiled tile-level execution.
    """
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise ValidationError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, Constant):
        return np.full(expr.shape, expr.value)
    if isinstance(expr, Transpose):
        return evaluate_with_numpy(expr.child, env).T
    if isinstance(expr, MatMul):
        return (evaluate_with_numpy(expr.left, env)
                @ evaluate_with_numpy(expr.right, env))
    if isinstance(expr, Binary):
        func = BINARY_OPERATORS[expr.op]
        return func(evaluate_with_numpy(expr.left, env),
                    evaluate_with_numpy(expr.right, env))
    if isinstance(expr, ScalarOp):
        child = evaluate_with_numpy(expr.child, env)
        return child + expr.scalar if expr.op == "add" else child * expr.scalar
    if isinstance(expr, ElementFunc):
        func = ELEMENT_FUNCTIONS[expr.func_name]
        return func(evaluate_with_numpy(expr.child, env))
    raise ValidationError(f"unknown expression node {type(expr).__name__}")
