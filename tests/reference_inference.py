"""The Fig. 6 per-property predicates: the oracle for property inference.

The paper sketches ``infer_properties`` (Fig. 4, line 10) as one recursive
predicate per property (Fig. 6 shows ``is_lower_triangular``).  This module
keeps those predicates literally, one walk per property, as the reference
the single-pass engine :class:`repro.algebra.inference.PropertyInference`
is differentially tested against.  :func:`fig6_inference` substitutes them
for the engine inside a test; :func:`identity_interning` does the same for
hash-consing.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, FrozenSet, Iterator

import pytest

from repro.algebra import Expression, Matrix, Property, default_interner, inference_engine
from repro.algebra.inference import _strip_unary, _transpose_of, is_square
from repro.algebra.operators import Inverse, InverseTranspose, Plus, Times, Transpose
from repro.algebra.properties import check_consistency


# --------------------------------------------------------------------------
# Per-property predicates.  Each follows the recursive structure of Fig. 6.
# --------------------------------------------------------------------------

def is_zero(expr: Expression) -> bool:
    """True when the expression is symbolically known to be the zero matrix."""
    if isinstance(expr, Matrix):
        return Property.ZERO in expr.properties
    if isinstance(expr, Times):
        return any(is_zero(child) for child in expr.children)
    if isinstance(expr, Transpose):
        return is_zero(expr.operand)
    if isinstance(expr, Plus):
        return all(is_zero(child) for child in expr.children)
    return False


def is_identity(expr: Expression) -> bool:
    """True when the expression is symbolically known to be the identity."""
    if isinstance(expr, Matrix):
        return Property.IDENTITY in expr.properties
    if isinstance(expr, Times):
        return all(is_identity(child) for child in expr.children)
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_identity(expr.operand)
    return False


def is_diagonal(expr: Expression) -> bool:
    """True when the expression is known to be diagonal."""
    if isinstance(expr, Matrix):
        return Property.DIAGONAL in expr.properties
    if isinstance(expr, Times):
        return all(is_diagonal(child) for child in expr.children)
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_diagonal(expr.operand)
    if isinstance(expr, Plus):
        return all(is_diagonal(child) for child in expr.children)
    return False


def is_lower_triangular(expr: Expression) -> bool:
    """Recursive predicate from Fig. 6 of the paper."""
    if isinstance(expr, Matrix):
        return Property.LOWER_TRIANGULAR in expr.properties
    if isinstance(expr, Times):
        return all(is_lower_triangular(child) for child in expr.children)
    if isinstance(expr, Transpose):
        return is_upper_triangular(expr.operand)
    if isinstance(expr, Inverse):
        return is_lower_triangular(expr.operand)
    if isinstance(expr, InverseTranspose):
        return is_upper_triangular(expr.operand)
    if isinstance(expr, Plus):
        return all(is_lower_triangular(child) for child in expr.children)
    return False


def is_upper_triangular(expr: Expression) -> bool:
    """Symmetric counterpart of :func:`is_lower_triangular`."""
    if isinstance(expr, Matrix):
        return Property.UPPER_TRIANGULAR in expr.properties
    if isinstance(expr, Times):
        return all(is_upper_triangular(child) for child in expr.children)
    if isinstance(expr, Transpose):
        return is_lower_triangular(expr.operand)
    if isinstance(expr, Inverse):
        return is_upper_triangular(expr.operand)
    if isinstance(expr, InverseTranspose):
        return is_lower_triangular(expr.operand)
    if isinstance(expr, Plus):
        return all(is_upper_triangular(child) for child in expr.children)
    return False


def is_unit_diagonal(expr: Expression) -> bool:
    if isinstance(expr, Matrix):
        return Property.UNIT_DIAGONAL in expr.properties
    if isinstance(expr, Times):
        # The product of unit-triangular matrices of matching orientation is
        # unit triangular; for safety require all children unit diagonal and
        # all triangular with the same orientation.
        same_lower = all(is_lower_triangular(child) for child in expr.children)
        same_upper = all(is_upper_triangular(child) for child in expr.children)
        return (same_lower or same_upper) and all(
            is_unit_diagonal(child) for child in expr.children
        )
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_unit_diagonal(expr.operand)
    return False


def is_symmetric(expr: Expression) -> bool:
    """True when the expression equals its own transpose, symbolically."""
    if isinstance(expr, Matrix):
        return Property.SYMMETRIC in expr.properties
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_symmetric(expr.operand)
    if isinstance(expr, Plus):
        return all(is_symmetric(child) for child in expr.children)
    if isinstance(expr, Times):
        if all(is_diagonal(child) for child in expr.children):
            return True
        return _is_congruence_form(expr) or _is_gram_form(expr)
    return False


def is_spd(expr: Expression) -> bool:
    """True when the expression is known to be symmetric positive definite."""
    if isinstance(expr, Matrix):
        return Property.SPD in expr.properties
    if isinstance(expr, (Inverse, InverseTranspose)):
        return is_spd(expr.operand)
    if isinstance(expr, Transpose):
        return is_spd(expr.operand)
    if isinstance(expr, Plus):
        # The sum of SPD matrices is SPD.
        return all(is_spd(child) for child in expr.children)
    if isinstance(expr, Times):
        if all(is_diagonal(child) and is_spd(child) for child in expr.children):
            return True
        # Congruence B M B^T with M SPD and B square non-singular is SPD.
        if _is_congruence_form(expr, require_spd_core=True):
            return True
        # Gram form A^T A (or A A^T) with A of full rank is SPD.
        if _is_gram_form(expr, require_full_rank=True):
            return True
    return False


def is_spsd(expr: Expression) -> bool:
    if isinstance(expr, Matrix):
        return Property.SPSD in expr.properties or Property.SPD in expr.properties
    if is_spd(expr):
        return True
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_spsd(expr.operand)
    if isinstance(expr, Plus):
        return all(is_spsd(child) for child in expr.children)
    if isinstance(expr, Times):
        return _is_gram_form(expr) or _is_congruence_form(expr, require_spsd_core=True)
    return False


def is_orthogonal(expr: Expression) -> bool:
    if isinstance(expr, Matrix):
        return Property.ORTHOGONAL in expr.properties
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_orthogonal(expr.operand)
    if isinstance(expr, Times):
        return all(is_orthogonal(child) for child in expr.children)
    return False


def is_permutation(expr: Expression) -> bool:
    if isinstance(expr, Matrix):
        return Property.PERMUTATION in expr.properties
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_permutation(expr.operand)
    if isinstance(expr, Times):
        return all(is_permutation(child) for child in expr.children)
    return False


def is_non_singular(expr: Expression) -> bool:
    if isinstance(expr, Matrix):
        return Property.NON_SINGULAR in expr.properties
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_non_singular(expr.operand)
    if isinstance(expr, Times):
        return all(is_square(child) and is_non_singular(child) for child in expr.children)
    return False


def is_full_rank(expr: Expression) -> bool:
    if isinstance(expr, Matrix):
        return Property.FULL_RANK in expr.properties
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return is_full_rank(expr.operand)
    if is_non_singular(expr):
        return True
    return False


def is_banded(expr: Expression) -> bool:
    if isinstance(expr, Matrix):
        return Property.BANDED in expr.properties
    if isinstance(expr, Transpose):
        return is_banded(expr.operand)
    if is_diagonal(expr):
        return True
    return False


def is_tridiagonal(expr: Expression) -> bool:
    if isinstance(expr, Matrix):
        return Property.TRIDIAGONAL in expr.properties
    if isinstance(expr, Transpose):
        return is_tridiagonal(expr.operand)
    if is_diagonal(expr):
        return True
    return False


# --------------------------------------------------------------------------
# Structure helpers for symmetric / SPD product forms.
# --------------------------------------------------------------------------

def _factors_are_mutual_transposes(left: Expression, right: Expression) -> bool:
    """True when ``right`` is syntactically the transpose of ``left``.

    Symmetric leaves are their own transposes, which the comparison takes
    into account (``A`` and ``A`` with symmetric ``A`` count as a pair).
    """
    if _transpose_of(left) == right or _transpose_of(right) == left:
        return True
    if left == right and is_symmetric(left):
        return True
    core_left, core_right = _strip_unary(left), _strip_unary(right)
    if core_left == core_right and isinstance(core_left, Matrix):
        if is_symmetric(core_left):
            # e.g. A^-1 and A^-T over a symmetric A.
            left_inverted = isinstance(left, (Inverse, InverseTranspose))
            right_inverted = isinstance(right, (Inverse, InverseTranspose))
            return left_inverted == right_inverted
    return False


def _is_gram_form(expr: Times, require_full_rank: bool = False) -> bool:
    """Recognize ``A^T A`` / ``A A^T`` shaped products (possibly with a
    symmetric middle factor), which are symmetric positive semi-definite."""
    children = expr.children
    if len(children) == 2:
        left, right = children
        if _factors_are_mutual_transposes(left, right):
            if not require_full_rank:
                return True
            return is_full_rank(left) or is_full_rank(right)
        return False
    if len(children) == 3:
        left, middle, right = children
        if not _factors_are_mutual_transposes(left, right):
            return False
        core_ok = is_spd(middle) if require_full_rank else is_spsd(middle) or is_symmetric(middle)
        rank_ok = (not require_full_rank) or is_non_singular(left) or is_non_singular(right)
        return core_ok and rank_ok
    return False


def _is_congruence_form(
    expr: Times,
    require_spd_core: bool = False,
    require_spsd_core: bool = False,
) -> bool:
    """Recognize congruence transforms ``B M B^T`` (and ``B^T M B``).

    The transform preserves symmetry always, positive definiteness when ``B``
    is non-singular, and positive semi-definiteness unconditionally.
    """
    children = expr.children
    if len(children) != 3:
        return False
    left, middle, right = children
    if not _factors_are_mutual_transposes(left, right):
        return False
    if require_spd_core:
        return is_spd(middle) and (is_non_singular(left) or is_non_singular(right))
    if require_spsd_core:
        return is_spsd(middle)
    return is_symmetric(middle)


# --------------------------------------------------------------------------
# Whole-set inference through the predicates.
# --------------------------------------------------------------------------

#: Each rule-derived property and its predicate.
PREDICATES: Dict[Property, Callable[[Expression], bool]] = {
    Property.ZERO: is_zero,
    Property.IDENTITY: is_identity,
    Property.DIAGONAL: is_diagonal,
    Property.LOWER_TRIANGULAR: is_lower_triangular,
    Property.UPPER_TRIANGULAR: is_upper_triangular,
    Property.UNIT_DIAGONAL: is_unit_diagonal,
    Property.SYMMETRIC: is_symmetric,
    Property.SPD: is_spd,
    Property.SPSD: is_spsd,
    Property.ORTHOGONAL: is_orthogonal,
    Property.PERMUTATION: is_permutation,
    Property.NON_SINGULAR: is_non_singular,
    Property.FULL_RANK: is_full_rank,
    Property.BANDED: is_banded,
    Property.TRIDIAGONAL: is_tridiagonal,
}


def has_property_legacy(expr: Expression, prop: Property) -> bool:
    """Test a single property with its predicate (one recursive walk)."""
    if prop is Property.SQUARE:
        return is_square(expr)
    if prop is Property.VECTOR:
        return expr.is_vector
    if prop is Property.SCALAR:
        return expr.is_scalar_shaped
    predicate = PREDICATES.get(prop)
    return predicate is not None and predicate(expr)


def infer_properties_legacy(expr: Expression) -> FrozenSet[Property]:
    """The full (closed) property set: one predicate walk per property."""
    inferred = {prop for prop, predicate in PREDICATES.items() if predicate(expr)}
    if is_square(expr):
        inferred.add(Property.SQUARE)
    if expr.is_vector:
        inferred.add(Property.VECTOR)
    if expr.is_scalar_shaped:
        inferred.add(Property.SCALAR)
    return check_consistency(inferred)


# --------------------------------------------------------------------------
# Reference arms: substitute the oracle on the process-wide instances.
# --------------------------------------------------------------------------

@contextmanager
def fig6_inference() -> Iterator[None]:
    """Answer every ``infer_properties`` / ``has_property`` call with the
    predicates instead of the memoized engine while the context is active."""
    with pytest.MonkeyPatch.context() as patch:
        # Instance-dict entries shadow the methods and leave nothing behind.
        engine = vars(inference_engine())
        patch.setitem(engine, "infer", infer_properties_legacy)
        patch.setitem(engine, "has_property", has_property_legacy)
        yield


@contextmanager
def identity_interning() -> Iterator[None]:
    """Make ``repro.algebra.intern`` the identity while the context is active."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(vars(default_interner()), "intern", lambda expr: expr)
        yield
