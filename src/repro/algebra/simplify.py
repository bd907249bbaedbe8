"""Normalization of linear-algebra expressions to canonical chain form.

The GMC algorithm expects its input to be a *matrix chain*: a flat product
``f0 * f1 * ... * f(n-1)`` in which every factor is a leaf operand optionally
wrapped in a single unary operator (transpose, inverse, or inverse-transpose)
-- see Section 1.1 of the paper.  User-written expressions are not always in
this form: they may contain transposed or inverted sub-products such as
``(A B)^T`` or ``(A B C)^-1``, or stacked unary operators such as
``(A^T)^T``.

This module rewrites such expressions into canonical chain form using the
standard identities::

    (A B)^T   = B^T A^T
    (A B)^-1  = B^-1 A^-1          (both factors must be square)
    (A^T)^T   = A
    (A^-1)^-1 = A
    (A^T)^-1  = (A^-1)^T = A^-T
    (A^-T)^T  = A^-1
    I * A = A,   A * I = A

Not every expression normalizes to a chain: sums have no chain form, and
``(A B)^-1`` with non-square ``A``, ``B`` cannot distribute the inverse
(the identity requires square factors).  Such subtrees are the province of
the segment-decomposition layer (:mod:`repro.core.segments`), which turns
the inner product into its own chain segment and wraps the unary around
the segment's square result operand; :func:`as_chain` remains the strict
single-chain entry the solvers use.
"""

from __future__ import annotations

from typing import List, Tuple

from .expression import Expression, Matrix, signature_digest
from .inference import _strip_unary
from .operators import Inverse, InverseTranspose, Plus, Times, Transpose
from .properties import Property


class NormalizationError(ValueError):
    """Raised when an expression cannot be brought into chain form."""


def transpose(expr: Expression) -> Expression:
    """Return the normalized transpose of a (normalized) expression."""
    if isinstance(expr, Transpose):
        return expr.operand
    if isinstance(expr, Inverse):
        return InverseTranspose(expr.operand)
    if isinstance(expr, InverseTranspose):
        return Inverse(expr.operand)
    if isinstance(expr, Times):
        reversed_children = [transpose(child) for child in reversed(expr.children)]
        return Times(*reversed_children)
    if isinstance(expr, Plus):
        return Plus(*[transpose(child) for child in expr.children])
    # Only a leaf reaches this point.
    if isinstance(expr, Matrix) and Property.SYMMETRIC in expr.properties:
        # The transpose of a symmetric operand is the operand itself; dropping
        # the operator keeps chain factors in their simplest form and lets the
        # symmetric kernels (SYMM, POSV, ...) match directly.
        return expr
    return Transpose(expr)


def invert(expr: Expression) -> Expression:
    """Return the normalized inverse of a (normalized) expression."""
    if isinstance(expr, Inverse):
        return expr.operand
    if isinstance(expr, Transpose):
        return InverseTranspose(expr.operand)
    if isinstance(expr, InverseTranspose):
        return Transpose(expr.operand)
    if isinstance(expr, Times):
        reversed_children = [invert(child) for child in reversed(expr.children)]
        return Times(*reversed_children)
    return Inverse(expr)


def invert_transpose(expr: Expression) -> Expression:
    """Return the normalized inverse-transpose of a (normalized) expression."""
    return invert(transpose(expr))


def normalize(expr: Expression) -> Expression:
    """Rewrite *expr* into canonical form.

    * unary operators are pushed down to the leaves;
    * nested products are flattened (``Times`` does this on construction);
    * double transposes/inverses are cancelled;
    * identity factors inside a product are dropped (when at least two
      factors remain).

    The result is structurally equal for mathematically identical inputs
    written with different operator nestings, which makes it the right form
    to feed into the chain algorithms.
    """
    if isinstance(expr, Matrix):
        return expr
    if isinstance(expr, Transpose):
        return transpose(normalize(expr.operand))
    if isinstance(expr, Inverse):
        return invert(normalize(expr.operand))
    if isinstance(expr, InverseTranspose):
        return invert_transpose(normalize(expr.operand))
    if isinstance(expr, Times):
        children = [normalize(child) for child in expr.children]
        flattened: List[Expression] = []
        for child in children:
            if isinstance(child, Times):
                flattened.extend(child.children)
            else:
                flattened.append(child)
        pruned = [child for child in flattened if not _droppable_identity(child)]
        if len(pruned) >= 2:
            flattened = pruned
        elif len(pruned) == 1:
            return pruned[0]
        if len(flattened) == 1:
            return flattened[0]
        return Times(*flattened)
    if isinstance(expr, Plus):
        return Plus(*[normalize(child) for child in expr.children])
    return expr


def _droppable_identity(expr: Expression) -> bool:
    """An identity factor can be dropped from a product when it is square
    (it always is) -- dropping it never changes the product's value.

    Normalized product factors are leaves, possibly under unary operators,
    and a transposed or inverted identity is the identity.
    """
    core = _strip_unary(expr)
    return isinstance(core, Matrix) and Property.IDENTITY in core.properties


def as_chain(expr: Expression) -> Tuple[Expression, ...]:
    """Return the factors of *expr* as a canonical matrix chain.

    The expression is normalized first; the result is a tuple of factors,
    each of which is a leaf optionally wrapped in exactly one unary operator.
    Raises :class:`NormalizationError` when the expression is not a product
    (for example when it contains a sum) or when a factor cannot be reduced
    to wrapped-leaf form.
    """
    normalized = normalize(expr)
    if isinstance(normalized, Times):
        factors = normalized.children
    else:
        factors = (normalized,)
    for factor in factors:
        if not is_chain_factor(factor):
            raise NormalizationError(
                f"factor {factor} (signature {signature_digest(factor)}) is "
                f"not a leaf wrapped in at most one unary operator; general "
                f"expression DAGs compile through repro.frontend.Compiler, "
                f"which decomposes them into chain segments"
            )
    return tuple(factors)


def is_chain_factor(expr: Expression) -> bool:
    """True when *expr* is a valid factor of a canonical matrix chain."""
    if isinstance(expr, Matrix):
        return True
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return isinstance(expr.operand, Matrix)
    return False


def unary_decomposition(factor: Expression) -> Tuple[Matrix, bool, bool]:
    """Split a chain factor into ``(leaf, transposed, inverted)``.

    >>> from repro.algebra import Matrix
    >>> A = Matrix("A", 4, 4)
    >>> unary_decomposition(A.invT)
    (A, True, True)
    """
    transposed = False
    inverted = False
    expr = factor
    if isinstance(expr, InverseTranspose):
        transposed, inverted = True, True
        expr = expr.operand
    elif isinstance(expr, Transpose):
        transposed = True
        expr = expr.operand
    elif isinstance(expr, Inverse):
        inverted = True
        expr = expr.operand
    if not isinstance(expr, Matrix):
        raise NormalizationError(f"{factor} is not a canonical chain factor")
    return expr, transposed, inverted


def wrap_leaf(leaf: Expression, transposed: bool, inverted: bool) -> Expression:
    """Inverse of :func:`unary_decomposition`."""
    if transposed and inverted:
        return InverseTranspose(leaf)
    if transposed:
        return Transpose(leaf)
    if inverted:
        return Inverse(leaf)
    return leaf
