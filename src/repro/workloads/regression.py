"""Ordinary least squares via the normal equations.

The data-parallel parts of linear regression are the Gram computations
``X'X`` and ``X'y``; solving the tiny ``k x k`` system happens locally.
"""

from __future__ import annotations

import numpy as np

from repro.core.program import Program
from repro.errors import ValidationError


def build_normal_equations_program(rows: int, features: int) -> Program:
    """Compute ``XtX = X'X`` and ``Xty = X'y`` (the heavy, cloud-side part)."""
    if rows <= 0 or features <= 0:
        raise ValidationError("rows and features must be positive")
    program = Program(f"ols-normal-{rows}x{features}")
    x = program.declare_input("X", rows, features)
    y = program.declare_input("y", rows, 1)
    program.assign("XtX", x.T @ x)
    program.assign("Xty", x.T @ y)
    program.mark_output("XtX", "Xty")
    return program


def solve_normal_equations(xtx: np.ndarray, xty: np.ndarray,
                           ridge: float = 0.0) -> np.ndarray:
    """Local solve of the (small) normal equations, optional ridge term."""
    if ridge < 0:
        raise ValidationError("ridge must be >= 0")
    k = xtx.shape[0]
    return np.linalg.solve(xtx + ridge * np.eye(k), xty)
