"""Symbolic inference of matrix properties over expression trees.

This module implements the ``infer_properties`` function of the GMC
algorithm (paper Fig. 4, line 10).  Properties are propagated from the
bottom of the expression tree to the top using inference rules such as::

    LoTri(A) and LoTri(B)  ->  LoTri(A B)
    LoTri(A)               ->  UppTri(A^T)
    SPD(A)                 ->  SPD(A^-1)
    A^T A                  ->  SPSD (SPD when A has full column rank)

The inference is purely symbolic: its cost does not depend on matrix sizes
and it is immune to the numerical-noise problem described in Section 3.2 of
the paper (for example the symmetry of ``L^-1 A L^-T`` being destroyed by
floating-point round-off).

The rule set is fixed.  :class:`PropertyInference` computes the full
property set of every tree node in one bottom-up traversal and memoizes
results per (hash-consed) node, so that the GMC dynamic program pays O(1)
amortized inference per shared subtree instead of one recursive walk per
property.  The paper's Fig. 6 sketches the rules as per-property recursive
predicates (``is_lower_triangular`` and friends); those live in
``tests/reference_inference.py`` as the oracle the engine is differentially
tested against on every node (``tests/test_inference_equivalence.py``).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Sequence

from .expression import Expression, Matrix
from .operators import Inverse, InverseTranspose, Plus, Times, Transpose
from .properties import Property, check_consistency


def is_square(expr: Expression) -> bool:
    if expr.rows is not None and expr.columns is not None:
        return expr.rows == expr.columns
    if isinstance(expr, Matrix):
        return Property.SQUARE in expr.properties
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


# --------------------------------------------------------------------------
# Single-pass memoized inference engine.
# --------------------------------------------------------------------------

#: The properties the bottom-up rules derive; ``SQUARE``, ``VECTOR`` and
#: ``SCALAR`` follow from the shape instead.
_BUILTIN_PROPS: FrozenSet[Property] = frozenset({
    Property.ZERO,
    Property.IDENTITY,
    Property.DIAGONAL,
    Property.LOWER_TRIANGULAR,
    Property.UPPER_TRIANGULAR,
    Property.UNIT_DIAGONAL,
    Property.SYMMETRIC,
    Property.SPD,
    Property.SPSD,
    Property.ORTHOGONAL,
    Property.PERMUTATION,
    Property.NON_SINGULAR,
    Property.FULL_RANK,
    Property.BANDED,
    Property.TRIDIAGONAL,
})

_RawMemo = Dict[Expression, FrozenSet[Property]]


def _mutual_transposes_memo(left: Expression, right: Expression, memo: _RawMemo) -> bool:
    """True when ``right`` is syntactically the transpose of ``left``.

    Symmetric leaves are their own transposes, which the comparison takes
    into account (``A`` and ``A`` with symmetric ``A`` count as a pair, as
    do ``A^-1`` and ``A^-T``).
    """
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
    """Recognize ``A^T A`` / ``A A^T`` shaped products (possibly with a
    symmetric middle factor), which are symmetric positive semi-definite."""
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
    """Recognize congruence transforms ``B M B^T`` (and ``B^T M B``).

    The transform preserves symmetry always, positive definiteness when ``B``
    is non-singular, and positive semi-definiteness unconditionally; *mode*
    selects the core requirement: ``"symmetric"``, ``"spd"`` or ``"spsd"``.
    """
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
    set of rule-derived properties (:data:`_BUILTIN_PROPS`) holding on that
    node -- in *one* bottom-up traversal with O(1) amortized work per node,
    instead of one recursive walk per property.  Results are memoized
    across calls keyed by structural identity, which collapses to pointer
    identity for hash-consed nodes (see :mod:`repro.algebra.interning`).

    The memo is bounded: capacity pressure evicts only the oldest chunk of
    entries -- dict insertion order is bottom-up discovery order, so the
    longest-unrefreshed subtrees go first and a long-running service keeps
    its recent working set warm instead of re-deriving every property from
    scratch after a reset.
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
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------- raw
    def raw_properties(self, expr: Expression) -> FrozenSet[Property]:
        """The rule-derived properties holding on *expr* (pre-closure)."""
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

    @staticmethod
    def _node_raw(node: Expression, memo: _RawMemo) -> FrozenSet[Property]:
        if isinstance(node, Matrix):
            return node.properties & _BUILTIN_PROPS
        if isinstance(node, Times):
            return _times_raw(node, memo)
        if isinstance(node, Plus):
            return _plus_raw([memo[child] for child in node.children])
        if isinstance(node, Transpose):
            return _transpose_raw(memo[node.children[0]])
        if isinstance(node, Inverse):
            return _inverse_raw(memo[node.children[0]], swap_triangular=False)
        if isinstance(node, InverseTranspose):
            return _inverse_raw(memo[node.children[0]], swap_triangular=True)
        # The five operators above are the only nodes with children, so this
        # is a non-matrix leaf (a pattern wildcard): it satisfies no rule.
        return frozenset()

    # ------------------------------------------------------------ public API
    def infer(self, expr: Expression) -> FrozenSet[Property]:
        """Full closed property set of *expr* (memoized)."""
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
        """Memoized single-property test."""
        if prop in _BUILTIN_PROPS:
            # Leaf fast path: a matrix's raw property set is exactly its
            # (closed) declared property set restricted to the rules.
            # This is the hottest query shape -- kernel constraints test
            # bound operands, which are always leaves in the GMC loop.
            if isinstance(expr, Matrix):
                return prop in expr.properties
            return prop in self.raw_properties(expr)
        if prop is Property.SQUARE:
            return is_square(expr)
        if prop is Property.VECTOR:
            return expr.is_vector
        if prop is Property.SCALAR:
            return expr.is_scalar_shaped
        return False


#: The process-wide engine used by :func:`infer_properties`.
_ENGINE = PropertyInference()


def inference_engine() -> PropertyInference:
    """The process-wide memoized inference engine."""
    return _ENGINE


def clear_inference_cache() -> None:
    """Drop all memoized inference results (tests / long-running processes)."""
    _ENGINE.clear()


def has_property(expr: Expression, prop: Property) -> bool:
    """Test a single property on an expression, using symbolic inference."""
    return _ENGINE.has_property(expr, prop)


def infer_properties(expr: Expression) -> FrozenSet[Property]:
    """Infer the full (closed) set of properties of a symbolic expression.

    This is the ``infer_properties`` routine used by the GMC algorithm to
    annotate temporaries (Fig. 4, line 10).  It runs on the single-pass
    memoized engine, so repeated inference over shared subtrees (every DP
    cell of the GMC algorithm) costs O(1) amortized per node.
    """
    return _ENGINE.infer(expr)


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
