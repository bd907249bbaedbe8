"""Shared helpers for defining kernels: constraints, wrappers, dimensions.

The kernel definitions in :mod:`repro.kernels.blas` and
:mod:`repro.kernels.lapack` are generated programmatically (one kernel per
transposition/side/structure variant, like the real BLAS/LAPACK interfaces).
This module provides the small vocabulary those definitions are written in:

* substitution-level constraints (``lower("X")``, ``spd("X")``,
  ``column_vector("Y")``, ...);
* helpers to wrap a pattern wildcard in a unary operator chosen by a flag
  (``wrap(X, "T")`` gives ``X^T``);
* dimension extraction for binary product patterns, taking the wrappers into
  account, so that cost formulas can be written over ``(m, k, n)``.
"""

from __future__ import annotations

from typing import Callable, Tuple

from ..algebra.expression import Expression, Matrix
from ..algebra.inference import has_property
from ..algebra.operators import Inverse, InverseTranspose, Times, Transpose
from ..algebra.properties import Property
from ..matching.patterns import (
    Constraint,
    Substitution,
    Wildcard,
    structural_predicate,
)


@structural_predicate
def _is_operand(expr: Expression) -> bool:
    """Kernel operands must be actual leaves (matrices, vectors, temporaries),
    never compound sub-expressions: a GEMM pattern ``X * Y`` must not bind
    ``X`` to ``A^-1`` -- the inverse is not available as an explicit operand."""
    return isinstance(expr, Matrix)


def operand_wildcard(name: str) -> Wildcard:
    """A wildcard that only matches operand leaves."""
    return Wildcard(name, predicate=_is_operand)

# ---------------------------------------------------------------------------
# Wrapping pattern operands in unary operators
# ---------------------------------------------------------------------------

#: Operand wrapper codes: "N" (as is), "T" (transposed), "I" (inverted),
#: "IT" (inverse-transposed).  These name the sixteen binary-product variants
#: a kernel catalog has to cover for chains with transposed/inverted operands.
WRAPPERS = ("N", "T", "I", "IT")


def wrap(operand: Expression, code: str) -> Expression:
    """Wrap *operand* according to a wrapper code."""
    if code == "N":
        return operand
    if code == "T":
        return Transpose(operand)
    if code == "I":
        return Inverse(operand)
    if code == "IT":
        return InverseTranspose(operand)
    raise ValueError(f"unknown wrapper code {code!r}")


def is_transposed_code(code: str) -> bool:
    return code in ("T", "IT")


def is_inverted_code(code: str) -> bool:
    return code in ("I", "IT")


def binary_pattern(left_code: str, right_code: str) -> Tuple[Expression, Wildcard, Wildcard]:
    """Build the pattern ``f_left(X) * f_right(Y)`` and return it with its
    two wildcards (restricted to operand leaves)."""
    x = operand_wildcard("X")
    y = operand_wildcard("Y")
    return Times(wrap(x, left_code), wrap(y, right_code)), x, y


def unary_pattern(code: str) -> Tuple[Expression, Wildcard]:
    """Build the unary pattern ``f(X)`` for explicit inversion/transposition."""
    x = operand_wildcard("X")
    return wrap(x, code), x


# ---------------------------------------------------------------------------
# Dimension extraction
# ---------------------------------------------------------------------------

def operand_dims(expr: Expression, code: str) -> Tuple[int, int]:
    """Rows and columns of a bound operand *after* applying its wrapper."""
    rows = expr.rows or 1
    columns = expr.columns or 1
    if is_transposed_code(code):
        return columns, rows
    return rows, columns


def product_dims(
    substitution: Substitution, left_code: str, right_code: str
) -> Tuple[int, int, int]:
    """Return ``(m, k, n)`` for the product ``f_left(X)[m x k] * f_right(Y)[k x n]``."""
    m, k = operand_dims(substitution["X"], left_code)
    _, n = operand_dims(substitution["Y"], right_code)
    return m, k, n


# ---------------------------------------------------------------------------
# Constraints over substitutions
# ---------------------------------------------------------------------------

def _shape_constraint(name: str, predicate: Callable[[Expression], bool], text: str) -> Constraint:
    def check(substitution: Substitution) -> bool:
        expr = substitution.get(name)
        return expr is not None and predicate(expr)

    # Shape checks read only dimensions, which the signature captures.
    return Constraint(structural_predicate(check), f"{text}({name})")


def has(name: str, prop: Property) -> Constraint:
    """Constraint: the operand bound to *name* has property *prop*."""

    def check(substitution: Substitution) -> bool:
        expr = substitution.get(name)
        return expr is not None and has_property(expr, prop)

    # Property checks go through symbolic inference, whose fixed rules are
    # a function of structure + declared leaf properties.
    return Constraint(structural_predicate(check), f"is_{prop.value}({name})")


def lower(name: str) -> Constraint:
    return has(name, Property.LOWER_TRIANGULAR)


def upper(name: str) -> Constraint:
    return has(name, Property.UPPER_TRIANGULAR)


def triangular(name: str, uplo: str) -> Constraint:
    return lower(name) if uplo == "lower" else upper(name)


def symmetric(name: str) -> Constraint:
    return has(name, Property.SYMMETRIC)


def spd(name: str) -> Constraint:
    return has(name, Property.SPD)


def diagonal(name: str) -> Constraint:
    return has(name, Property.DIAGONAL)


def square(name: str) -> Constraint:
    return _shape_constraint(name, lambda e: e.is_square, "is_square")


def not_vector(name: str) -> Constraint:
    return _shape_constraint(
        name, lambda e: not e.is_vector and not e.is_scalar_shaped, "is_matrix"
    )


def column_vector(name: str) -> Constraint:
    return _shape_constraint(name, lambda e: e.is_column_vector, "is_column_vector")


def row_vector(name: str) -> Constraint:
    return _shape_constraint(name, lambda e: e.is_row_vector, "is_row_vector")


def vector(name: str) -> Constraint:
    return _shape_constraint(name, lambda e: e.is_vector, "is_vector")


def scalar(name: str) -> Constraint:
    return _shape_constraint(name, lambda e: e.is_scalar_shaped, "is_scalar")


def not_scalar(name: str) -> Constraint:
    return _shape_constraint(name, lambda e: not e.is_scalar_shaped, "is_not_scalar")


def not_diagonal(name: str) -> Constraint:
    def check(substitution: Substitution) -> bool:
        expr = substitution.get(name)
        return expr is not None and not has_property(expr, Property.DIAGONAL)

    return Constraint(structural_predicate(check), f"is_not_diagonal({name})")
