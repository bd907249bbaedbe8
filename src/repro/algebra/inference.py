"""Symbolic inference of matrix properties over expression trees.

This module implements the ``infer_properties`` function of the GMC
algorithm (paper Fig. 4, line 10) and the per-property predicates sketched in
Fig. 6 (``is_lower_triangular`` and friends).  Properties are propagated from
the bottom of the expression tree to the top using inference rules such as::

    LoTri(A) and LoTri(B)  ->  LoTri(A B)
    LoTri(A)               ->  UppTri(A^T)
    SPD(A)                 ->  SPD(A^-1)
    A^T A                  ->  SPSD (SPD when A has full column rank)

The inference is purely symbolic: its cost does not depend on matrix sizes
and it is immune to the numerical-noise problem described in Section 3.2 of
the paper (for example the symmetry of ``L^-1 A L^-T`` being destroyed by
floating-point round-off).

Two implementations coexist:

* the *legacy* per-property recursive predicates (``is_lower_triangular`` and
  friends, plus :func:`infer_properties_legacy`), which follow Fig. 6
  literally and serve as the reference oracle;
* the *single-pass memoized engine* (:class:`PropertyInference`), which
  computes the full property set of every tree node in one bottom-up
  traversal and memoizes results per (hash-consed) node, so that the GMC
  dynamic program pays O(1) amortized inference per shared subtree instead
  of one recursive walk per property predicate.  The equivalence of the two
  paths is asserted property-based in ``tests/test_inference_equivalence.py``.

:func:`infer_properties` and :func:`has_property` route through the engine
by default; the :func:`legacy_inference` context manager switches them back
to the reference predicates (used by the differential tests).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence

from .expression import Expression, Matrix
from .operators import Inverse, InverseTranspose, Plus, Times, Transpose
from .properties import Property, check_consistency


def _leaf_has(expr: Expression, prop: Property) -> bool:
    return isinstance(expr, Matrix) and prop in expr.properties


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


def is_square(expr: Expression) -> bool:
    if expr.rows is not None and expr.columns is not None:
        return expr.rows == expr.columns
    if isinstance(expr, Matrix):
        return Property.SQUARE in expr.properties
    return False


def is_vector(expr: Expression) -> bool:
    return expr.is_vector


def is_scalar(expr: Expression) -> bool:
    return expr.is_scalar_shaped


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

def _strip_unary(expr: Expression) -> Expression:
    while isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        expr = expr.operand
    return expr


def _transpose_of(expr: Expression) -> Expression:
    """Return the syntactic transpose of a factor, normalized for comparison."""
    if isinstance(expr, Transpose):
        return expr.operand
    if isinstance(expr, Inverse):
        return InverseTranspose(expr.operand)
    if isinstance(expr, InverseTranspose):
        return Inverse(expr.operand)
    return Transpose(expr)


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
# The top-level inference entry point.
# --------------------------------------------------------------------------

class _PredicateRegistry(Dict[Property, Callable[[Expression], bool]]):
    """Predicate registry that records mutations.

    Every write bumps ``version``, which the memoized inference engine
    watches: on any change it drops its caches and, while the registry
    differs from the built-in set (a predicate was added, removed or
    replaced), routes all queries through the reference predicates so that
    user customizations are honoured exactly.
    """

    version: int = 0

    def _bump(self) -> None:
        self.version += 1

    def __setitem__(self, key, value) -> None:
        unchanged = self.get(key) is value
        super().__setitem__(key, value)
        if not unchanged:
            self._bump()

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self._bump()

    def pop(self, *args):
        result = super().pop(*args)
        self._bump()
        return result

    def popitem(self):
        result = super().popitem()
        self._bump()
        return result

    def clear(self) -> None:
        super().clear()
        self._bump()

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        self._bump()

    def __ior__(self, other):
        # ``PREDICATES |= {...}`` goes through dict.__ior__ at the C level,
        # bypassing the overridden ``update``; intercept it explicitly.
        result = super().__ior__(other)
        self._bump()
        return result

    def setdefault(self, key, default=None):
        inserted = key not in self
        result = super().setdefault(key, default)
        if inserted:
            self._bump()
        return result


#: Registry mapping each inferable property to its predicate.  Exposed so
#: that users can register predicates for additional properties (or replace
#: the built-in ones); the memoized engine detects any mutation and defers
#: to the registry until it matches the built-in set again.
PREDICATES: Dict[Property, Callable[[Expression], bool]] = _PredicateRegistry({
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
})

#: Snapshot of the built-in registry contents, used to decide whether the
#: registry has been customized (and the fused rules must step aside).
_BUILTIN_PREDICATE_FUNCS: Dict[Property, Callable[[Expression], bool]] = dict(PREDICATES)


def registry_version() -> int:
    """Mutation counter of :data:`PREDICATES`.

    Caches whose entries embed predicate semantics (the memoized inference
    engine, the kernel-match cache) record this value and invalidate
    themselves whenever it changes.
    """
    return PREDICATES.version  # type: ignore[attr-defined]


def registry_is_customized() -> bool:
    """True while :data:`PREDICATES` differs from the built-in predicate set.

    While customized, structure-keyed caches must step aside: a user
    predicate may inspect anything about an expression (even operand names),
    so results are no longer a function of shape/property structure alone.
    """
    return len(PREDICATES) != len(_BUILTIN_PREDICATE_FUNCS) or any(
        PREDICATES.get(prop) is not func
        for prop, func in _BUILTIN_PREDICATE_FUNCS.items()
    )


def has_property_legacy(expr: Expression, prop: Property) -> bool:
    """Test a single property using the reference (per-predicate) path."""
    if prop is Property.SQUARE:
        return is_square(expr)
    if prop is Property.VECTOR:
        return is_vector(expr)
    if prop is Property.SCALAR:
        return is_scalar(expr)
    predicate = PREDICATES.get(prop)
    if predicate is None:
        return False
    return predicate(expr)


def infer_properties_legacy(expr: Expression) -> FrozenSet[Property]:
    """Infer the full (closed) property set via the reference predicates.

    This is the literal ``infer_properties`` routine of Fig. 4, line 10: one
    recursive predicate walk per property.  It is kept as the oracle that the
    memoized single-pass engine is differentially tested against, and as the
    fallback activated by :func:`legacy_inference`.
    """
    inferred = {prop for prop, predicate in PREDICATES.items() if predicate(expr)}
    if is_square(expr):
        inferred.add(Property.SQUARE)
    if expr.is_vector:
        inferred.add(Property.VECTOR)
    if expr.is_scalar_shaped:
        inferred.add(Property.SCALAR)
    return check_consistency(inferred)


# --------------------------------------------------------------------------
# Single-pass memoized inference engine.
# --------------------------------------------------------------------------

#: The built-in predicate keys (derived from the snapshot so the two can
#: never drift apart); the fused bottom-up rules of the engine cover exactly
#: this set, and any registry customization routes around them.
_BUILTIN_PROPS: FrozenSet[Property] = frozenset(_BUILTIN_PREDICATE_FUNCS)

_RawMemo = Dict[Expression, FrozenSet[Property]]


def _mutual_transposes_memo(left: Expression, right: Expression, memo: _RawMemo) -> bool:
    """Memoized equivalent of :func:`_factors_are_mutual_transposes`."""
    if _transpose_of(left) == right or _transpose_of(right) == left:
        return True
    if left == right and Property.SYMMETRIC in memo[left]:
        return True
    core_left, core_right = _strip_unary(left), _strip_unary(right)
    if core_left == core_right and isinstance(core_left, Matrix):
        if Property.SYMMETRIC in core_left.properties:
            left_inverted = isinstance(left, (Inverse, InverseTranspose))
            right_inverted = isinstance(right, (Inverse, InverseTranspose))
            return left_inverted == right_inverted
    return False


def _gram_form_memo(
    children: Sequence[Expression], memo: _RawMemo, require_full_rank: bool
) -> bool:
    """Memoized equivalent of :func:`_is_gram_form`."""
    if len(children) == 2:
        left, right = children
        if _mutual_transposes_memo(left, right, memo):
            if not require_full_rank:
                return True
            return Property.FULL_RANK in memo[left] or Property.FULL_RANK in memo[right]
        return False
    if len(children) == 3:
        left, middle, right = children
        if not _mutual_transposes_memo(left, right, memo):
            return False
        mid = memo[middle]
        if require_full_rank:
            core_ok = Property.SPD in mid
        else:
            core_ok = Property.SPSD in mid or Property.SYMMETRIC in mid
        rank_ok = (
            not require_full_rank
            or Property.NON_SINGULAR in memo[left]
            or Property.NON_SINGULAR in memo[right]
        )
        return core_ok and rank_ok
    return False


def _congruence_form_memo(
    children: Sequence[Expression], memo: _RawMemo, mode: str
) -> bool:
    """Memoized equivalent of :func:`_is_congruence_form` (*mode* selects the
    core requirement: ``"symmetric"``, ``"spd"`` or ``"spsd"``)."""
    if len(children) != 3:
        return False
    left, middle, right = children
    if not _mutual_transposes_memo(left, right, memo):
        return False
    mid = memo[middle]
    if mode == "spd":
        return Property.SPD in mid and (
            Property.NON_SINGULAR in memo[left] or Property.NON_SINGULAR in memo[right]
        )
    if mode == "spsd":
        return Property.SPSD in mid
    return Property.SYMMETRIC in mid


def _times_raw(node: Times, memo: _RawMemo) -> FrozenSet[Property]:
    """Fused bottom-up rules for a product node (mirrors the Fig. 6
    predicates case by case; any divergence is a bug caught by the
    differential tests)."""
    children = node.children
    sets = [memo[child] for child in children]
    raw = set()
    if any(Property.ZERO in o for o in sets):
        raw.add(Property.ZERO)
    if all(Property.IDENTITY in o for o in sets):
        raw.add(Property.IDENTITY)
    diagonal = all(Property.DIAGONAL in o for o in sets)
    if diagonal:
        # ``is_banded`` / ``is_tridiagonal`` accept any diagonal product.
        raw.update((Property.DIAGONAL, Property.BANDED, Property.TRIDIAGONAL))
    lower = all(Property.LOWER_TRIANGULAR in o for o in sets)
    upper = all(Property.UPPER_TRIANGULAR in o for o in sets)
    if lower:
        raw.add(Property.LOWER_TRIANGULAR)
    if upper:
        raw.add(Property.UPPER_TRIANGULAR)
    if (lower or upper) and all(Property.UNIT_DIAGONAL in o for o in sets):
        raw.add(Property.UNIT_DIAGONAL)
    gram = _gram_form_memo(children, memo, require_full_rank=False)
    symmetric = diagonal or gram or _congruence_form_memo(children, memo, "symmetric")
    if symmetric:
        raw.add(Property.SYMMETRIC)
    spd = (
        all(Property.DIAGONAL in o and Property.SPD in o for o in sets)
        or _congruence_form_memo(children, memo, "spd")
        or _gram_form_memo(children, memo, require_full_rank=True)
    )
    if spd:
        raw.add(Property.SPD)
    if spd or gram or _congruence_form_memo(children, memo, "spsd"):
        raw.add(Property.SPSD)
    if all(Property.ORTHOGONAL in o for o in sets):
        raw.add(Property.ORTHOGONAL)
    if all(Property.PERMUTATION in o for o in sets):
        raw.add(Property.PERMUTATION)
    if all(
        is_square(child) and Property.NON_SINGULAR in o
        for child, o in zip(children, sets)
    ):
        # ``is_full_rank`` on a product reduces to ``is_non_singular``.
        raw.update((Property.NON_SINGULAR, Property.FULL_RANK))
    return frozenset(raw)


def _plus_raw(sets: List[FrozenSet[Property]]) -> FrozenSet[Property]:
    """Fused bottom-up rules for a sum node."""
    raw = set()
    if all(Property.ZERO in o for o in sets):
        raw.add(Property.ZERO)
    diagonal = all(Property.DIAGONAL in o for o in sets)
    if diagonal:
        raw.update((Property.DIAGONAL, Property.BANDED, Property.TRIDIAGONAL))
    if all(Property.LOWER_TRIANGULAR in o for o in sets):
        raw.add(Property.LOWER_TRIANGULAR)
    if all(Property.UPPER_TRIANGULAR in o for o in sets):
        raw.add(Property.UPPER_TRIANGULAR)
    if all(Property.SYMMETRIC in o for o in sets):
        raw.add(Property.SYMMETRIC)
    spd = all(Property.SPD in o for o in sets)
    if spd:
        raw.add(Property.SPD)
    if spd or all(Property.SPSD in o for o in sets):
        raw.add(Property.SPSD)
    return frozenset(raw)


def _transpose_raw(o: FrozenSet[Property]) -> FrozenSet[Property]:
    """Property map through transposition (triangularity swaps)."""
    raw = set()
    for passthrough in (
        Property.ZERO,
        Property.IDENTITY,
        Property.DIAGONAL,
        Property.UNIT_DIAGONAL,
        Property.SYMMETRIC,
        Property.SPD,
        Property.ORTHOGONAL,
        Property.PERMUTATION,
        Property.NON_SINGULAR,
        Property.FULL_RANK,
        Property.BANDED,
        Property.TRIDIAGONAL,
    ):
        if passthrough in o:
            raw.add(passthrough)
    if Property.UPPER_TRIANGULAR in o:
        raw.add(Property.LOWER_TRIANGULAR)
    if Property.LOWER_TRIANGULAR in o:
        raw.add(Property.UPPER_TRIANGULAR)
    if Property.SPD in o or Property.SPSD in o:
        raw.add(Property.SPSD)
    return frozenset(raw)


def _inverse_raw(o: FrozenSet[Property], swap_triangular: bool) -> FrozenSet[Property]:
    """Property map through (transposed) inversion.

    ``is_zero`` has no inverse rule (an invertible operand cannot be zero)
    and bandedness is only preserved for diagonal operands.
    """
    raw = set()
    for passthrough in (
        Property.IDENTITY,
        Property.DIAGONAL,
        Property.UNIT_DIAGONAL,
        Property.SYMMETRIC,
        Property.SPD,
        Property.ORTHOGONAL,
        Property.PERMUTATION,
        Property.NON_SINGULAR,
        Property.FULL_RANK,
    ):
        if passthrough in o:
            raw.add(passthrough)
    lower = Property.LOWER_TRIANGULAR in o
    upper = Property.UPPER_TRIANGULAR in o
    if swap_triangular:
        lower, upper = upper, lower
    if lower:
        raw.add(Property.LOWER_TRIANGULAR)
    if upper:
        raw.add(Property.UPPER_TRIANGULAR)
    if Property.SPD in o or Property.SPSD in o:
        raw.add(Property.SPSD)
    if Property.DIAGONAL in o:
        raw.update((Property.BANDED, Property.TRIDIAGONAL))
    return frozenset(raw)


class PropertyInference:
    """Single-pass, memoized symbolic property inference.

    ``raw_properties`` computes, for every node of an expression tree, the
    exact set of :data:`PREDICATES` keys whose legacy predicate would return
    ``True`` on that node -- in *one* bottom-up traversal with O(1) amortized
    work per node, instead of one recursive walk per predicate.  Results are
    memoized across calls keyed by structural identity, which collapses to
    pointer identity for hash-consed nodes (see
    :mod:`repro.algebra.interning`).

    The memo is bounded and *version aware*: a registry mutation (which
    changes predicate semantics) still drops everything, but plain capacity
    pressure evicts only the oldest chunk of entries -- dict insertion order
    is bottom-up discovery order, so the longest-unrefreshed subtrees go
    first and a long-running service keeps its recent working set warm
    instead of re-deriving every property from scratch after a reset.
    """

    #: Fraction of the memo dropped per capacity eviction (1/8 keeps the
    #: amortized bookkeeping cost per insertion O(1) while retaining most of
    #: the working set).
    _EVICT_FRACTION = 8

    def __init__(self, max_entries: int = 500_000) -> None:
        self._raw: _RawMemo = {}
        self._inferred: Dict[Expression, FrozenSet[Property]] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._registry_version = PREDICATES.version  # type: ignore[attr-defined]
        self._registry_custom = False

    def clear(self) -> None:
        self._raw.clear()
        self._inferred.clear()

    def _evict(self, memo: Dict) -> None:
        """Drop the oldest ``1/_EVICT_FRACTION`` of *memo* (at least one).

        Only called between top-level queries, never during the post-order
        walk of :meth:`raw_properties` (which relies on children staying
        memoized until their parent is resolved).
        """
        drop = max(1, len(memo) // self._EVICT_FRACTION)
        for key in list(itertools.islice(iter(memo), drop)):
            del memo[key]
        self.evictions += drop

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Plain-dict counters (uniform cache-stats protocol).

        ``size`` counts the raw (pre-closure) memo, the layer every query
        funnels through; the closed-set memo is reported separately.
        """
        return {
            "layer": "inference",
            "size": len(self._raw),
            "inferred_size": len(self._inferred),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "registry_version": self._registry_version,
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _refresh_registry(self) -> None:
        """React to a mutation of :data:`PREDICATES`.

        Memoized results may embed the old predicate semantics, so the
        caches are dropped; while the registry differs from the built-in
        set, every query is answered by the reference predicates so that
        added/replaced/removed predicates are honoured exactly.
        """
        self._registry_version = PREDICATES.version  # type: ignore[attr-defined]
        self.clear()
        self._registry_custom = registry_is_customized()

    # ------------------------------------------------------------------- raw
    def raw_properties(self, expr: Expression) -> FrozenSet[Property]:
        """The set of predicate properties holding on *expr* (pre-closure)."""
        if self._registry_version != PREDICATES.version:  # type: ignore[attr-defined]
            self._refresh_registry()
        if self._registry_custom:
            return frozenset(
                prop for prop, predicate in PREDICATES.items() if predicate(expr)
            )
        memo = self._raw
        cached = memo.get(expr)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if len(memo) >= self.max_entries:
            self._evict(memo)
        # Iterative post-order walk: children are resolved before parents, so
        # ``_node_raw`` only ever performs O(1) memo lookups.
        stack = [expr]
        while stack:
            node = stack[-1]
            if node in memo:
                stack.pop()
                continue
            pending = [child for child in node.children if child not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            memo[node] = self._node_raw(node, memo)
        return memo[expr]

    def _node_raw(self, node: Expression, memo: _RawMemo) -> FrozenSet[Property]:
        if not node.children:
            if isinstance(node, Matrix):
                raw = node.properties & _BUILTIN_PROPS
            else:
                # Non-matrix leaves (e.g. pattern wildcards) satisfy no
                # predicate, matching the legacy fall-through behaviour.
                raw = frozenset()
        elif isinstance(node, Times):
            raw = _times_raw(node, memo)
        elif isinstance(node, Plus):
            raw = _plus_raw([memo[child] for child in node.children])
        elif isinstance(node, Transpose):
            raw = _transpose_raw(memo[node.children[0]])
        elif isinstance(node, Inverse):
            raw = _inverse_raw(memo[node.children[0]], swap_triangular=False)
        elif isinstance(node, InverseTranspose):
            raw = _inverse_raw(memo[node.children[0]], swap_triangular=True)
        else:
            # Unknown node type: defer entirely to the registered predicates.
            return frozenset(
                prop for prop, predicate in PREDICATES.items() if predicate(node)
            )
        return raw

    # ------------------------------------------------------------ public API
    def infer(self, expr: Expression) -> FrozenSet[Property]:
        """Full closed property set of *expr* (memoized); equals
        :func:`infer_properties_legacy` on every input."""
        if self._registry_version != PREDICATES.version:  # type: ignore[attr-defined]
            self._refresh_registry()
        if self._registry_custom:
            return infer_properties_legacy(expr)
        cached = self._inferred.get(expr)
        if cached is not None:
            return cached
        inferred = set(self.raw_properties(expr))
        if is_square(expr):
            inferred.add(Property.SQUARE)
        if expr.is_vector:
            inferred.add(Property.VECTOR)
        if expr.is_scalar_shaped:
            inferred.add(Property.SCALAR)
        result = check_consistency(inferred)
        if len(self._inferred) >= self.max_entries:
            self._evict(self._inferred)
        self._inferred[expr] = result
        return result

    def has_property(self, expr: Expression, prop: Property) -> bool:
        """Memoized single-property test; equals :func:`has_property_legacy`."""
        if self._registry_version != PREDICATES.version:  # type: ignore[attr-defined]
            self._refresh_registry()
        if self._registry_custom:
            return has_property_legacy(expr, prop)
        if prop in _BUILTIN_PROPS:
            # Leaf fast path: a matrix's raw predicate set is exactly its
            # (closed) declared property set restricted to the predicates.
            # This is the hottest query shape -- kernel constraints test
            # bound operands, which are always leaves in the GMC loop.
            if isinstance(expr, Matrix):
                return prop in expr.properties
            return prop in self.raw_properties(expr)
        if prop is Property.SQUARE:
            return is_square(expr)
        if prop is Property.VECTOR:
            return is_vector(expr)
        if prop is Property.SCALAR:
            return is_scalar(expr)
        # A non-customized registry holds exactly the built-in keys (handled
        # above), and user-registered properties were delegated to the
        # legacy path already -- nothing else is inferable.
        return False


#: The process-wide engine used by :func:`infer_properties`.
_ENGINE = PropertyInference()
_ACTIVE_ENGINE: Optional[PropertyInference] = _ENGINE


def inference_engine() -> PropertyInference:
    """The process-wide memoized inference engine."""
    return _ENGINE


def clear_inference_cache() -> None:
    """Drop all memoized inference results (tests / predicate registration)."""
    _ENGINE.clear()


@contextmanager
def legacy_inference() -> Iterator[None]:
    """Route :func:`infer_properties` / :func:`has_property` through the
    reference per-predicate path while the context is active."""
    global _ACTIVE_ENGINE
    previous = _ACTIVE_ENGINE
    _ACTIVE_ENGINE = None
    try:
        yield
    finally:
        _ACTIVE_ENGINE = previous


def has_property(expr: Expression, prop: Property) -> bool:
    """Test a single property on an expression, using symbolic inference."""
    engine = _ACTIVE_ENGINE
    if engine is None:
        return has_property_legacy(expr, prop)
    return engine.has_property(expr, prop)


def infer_properties(expr: Expression) -> FrozenSet[Property]:
    """Infer the full (closed) set of properties of a symbolic expression.

    This is the ``infer_properties`` routine used by the GMC algorithm to
    annotate temporaries (Fig. 4, line 10).  By default it runs on the
    single-pass memoized engine, so repeated inference over shared subtrees
    (every DP cell of the GMC algorithm) costs O(1) amortized per node; the
    result is bit-identical to :func:`infer_properties_legacy`.
    """
    engine = _ACTIVE_ENGINE
    if engine is None:
        return infer_properties_legacy(expr)
    return engine.infer(expr)


def properties_after_transpose(properties: FrozenSet[Property]) -> FrozenSet[Property]:
    """Map a property set through transposition without an expression tree.

    Used by code that manipulates bare property sets (e.g. kernel output
    rules): lower and upper triangular swap; everything else is preserved.
    """
    swapped = set(properties)
    lower = Property.LOWER_TRIANGULAR in properties
    upper = Property.UPPER_TRIANGULAR in properties
    swapped.discard(Property.LOWER_TRIANGULAR)
    swapped.discard(Property.UPPER_TRIANGULAR)
    if lower:
        swapped.add(Property.UPPER_TRIANGULAR)
    if upper:
        swapped.add(Property.LOWER_TRIANGULAR)
    return check_consistency(swapped)


def properties_after_inverse(properties: FrozenSet[Property]) -> FrozenSet[Property]:
    """Map a property set through inversion (triangularity, SPD, diagonality
    and orthogonality are preserved; zero is impossible)."""
    preserved = {
        Property.LOWER_TRIANGULAR,
        Property.UPPER_TRIANGULAR,
        Property.DIAGONAL,
        Property.SYMMETRIC,
        Property.SPD,
        Property.ORTHOGONAL,
        Property.PERMUTATION,
        Property.UNIT_DIAGONAL,
        Property.IDENTITY,
        Property.SQUARE,
        Property.NON_SINGULAR,
        Property.FULL_RANK,
    }
    return check_consistency(set(properties) & preserved | {Property.NON_SINGULAR})
