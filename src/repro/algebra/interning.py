"""Hash-consing of symbolic expressions.

Expressions are immutable and compared structurally, which means the GMC
dynamic program, the baseline simulators and the pattern matcher repeatedly
build *structurally equal but distinct* objects -- the same sub-chain
``Times(A, B, C)`` is reconstructed for every DP cell that contains it, and
masked operand copies recur across baseline builds.  Hash consing (the
standard interning technique of symbolic and compiler systems) maps every
expression to one canonical representative, so that

* structurally equal subtrees become the *same* object, turning deep
  structural equality checks into pointer comparisons (``Expression.__eq__``
  short-circuits on identity), and
* caches keyed by expressions -- most importantly the memoized property
  inference of :mod:`repro.algebra.inference` -- hit by identity instead of
  re-walking trees.

The canonical table is keyed by structural equality, which is cheap here
because every node caches its hash and identity key at construction time
(:meth:`Expression._prime_identity_cache`).

Nothing in the algebra layer *requires* canonical nodes: interning changes
which object represents a structure, never a result.  The differential tests
check that by solving with :func:`intern` replaced by the identity.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from .expression import Expression
from .operators import Inverse, InverseTranspose, Plus, Times, Transpose

__all__ = [
    "ExpressionInterner",
    "default_interner",
    "intern",
    "clear_intern_table",
]


class ExpressionInterner:
    """A canonical table mapping expressions to unique representatives.

    ``intern`` returns the canonical object for an expression, registering it
    (with canonicalized children) on first sight.  The table is an LRU: a
    lookup refreshes the entry, and when the table is full the least recently
    used representative is evicted.  Evicting a canonical node is always
    safe -- a later structurally equal expression simply becomes the new
    representative of its class, and stale references held by parents still
    compare equal structurally -- so a long-running service keeps its hot
    working set shared instead of periodically losing *all* sharing to the
    wholesale reset this table used to perform.
    """

    def __init__(self, max_entries: int = 1_000_000) -> None:
        self._table: "OrderedDict[Expression, Expression]" = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._table)

    def clear(self) -> None:
        self._table.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """Plain-dict counters (uniform cache-stats protocol)."""
        return {
            "layer": "interner",
            "size": len(self._table),
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

    def intern(self, expr: Expression) -> Expression:
        """Return the canonical representative of *expr*.

        Structurally equal inputs yield the identical object.  The canonical
        node always holds canonical children, so identity-based sharing is
        hereditary.
        """
        table = self._table
        found = table.get(expr)
        if found is not None:
            self.hits += 1
            table.move_to_end(found)
            return found
        self.misses += 1
        if expr.children:
            canonical_children = tuple(self.intern(child) for child in expr.children)
            if any(new is not old for new, old in zip(canonical_children, expr.children)):
                expr = _rebuild(expr, canonical_children)
        while len(table) >= self.max_entries:
            table.popitem(last=False)
            self.evictions += 1
        table[expr] = expr
        return expr


def _rebuild(expr: Expression, children) -> Expression:
    """Reconstruct a compound node over canonicalized children."""
    if isinstance(expr, (Transpose, Inverse, InverseTranspose)):
        return type(expr)(children[0])
    if isinstance(expr, (Times, Plus)):
        return type(expr)(*children)
    # Unknown compound type (e.g. a user extension): keep the original node;
    # it is still a valid canonical representative of its equivalence class.
    return expr


# ---------------------------------------------------------------------------
# Module-level default interner (shared by the GMC hot path).
# ---------------------------------------------------------------------------

_DEFAULT = ExpressionInterner()


def default_interner() -> ExpressionInterner:
    """The process-wide interner used by :func:`intern`."""
    return _DEFAULT


def intern(expr: Expression) -> Expression:
    """Intern through the process-wide default interner."""
    return _DEFAULT.intern(expr)


def clear_intern_table() -> None:
    """Drop all canonical representatives (tests / long-running processes)."""
    _DEFAULT.clear()
