"""Signature-keyed caching of kernel-match results.

Profiling shows that the per-split matching step of the GMC dynamic program
-- the discrimination-net walk plus constraint checks -- dominates generation
time even after expression hash-consing, and that structurally identical
cells re-pay it on every solve: a DP cell's subject is ``Times(left, right)``
over two operands, and the *outcome* of matching depends only on the
operands' shapes, declared properties and equality structure, never on their
names.  Repeated solves of the same (or a similar) chain create fresh
temporaries each time, so identity- or equality-keyed caches miss; a cache
keyed by the name-abstracted :meth:`~repro.algebra.expression.Expression.signature`
hits.

:class:`MatchCache` sits in front of :meth:`KernelCatalog.match
<repro.kernels.catalog.KernelCatalog.match>`:

* on a **miss** it walks the discrimination net once, returns the matches,
  and records -- per matched kernel -- the *preorder position* of every
  wildcard binding inside the subject;
* on a **hit** it skips the net walk and constraint checks entirely and
  re-binds each recorded substitution against the new subject: the operand
  at the same preorder position of a signature-equal subject is the
  corresponding one, and it satisfies the same constraints by construction
  (signatures capture exactly what constraints can observe).

Invalidation
------------
Cached kernel lists embed the catalog's patterns, which can change by
**catalog extension**: adding a pattern to the net would make every cached
list stale, so the cache records the net's ``version`` and flushes when it
moves (catalogs built via ``KernelCatalog.extended`` get a fresh net *and* a
fresh cache, so they are safe either way).  The inference rules that
constraints evaluate are fixed (:mod:`repro.algebra.inference`), so nothing
else can go stale.

The cache bypasses nets containing concrete-leaf patterns (which match on
operand names), nets containing wildcard predicates or constraints not
marked :func:`~repro.matching.patterns.structural_predicate` (user-supplied
callables may observe what the signature abstracts away), and subjects
containing wildcards.  Entries are evicted LRU-style under a configurable
bound, so long-running (batch / server) processes hold their working set
instead of resetting wholesale.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from ..algebra.expression import Expression
from .discrimination_net import DiscriminationNet, _flatten_subject
from .patterns import Substitution, Wildcard

__all__ = ["MatchCache"]


#: Per-kernel re-binding recipe: the matched payload (kernel) plus, for every
#: wildcard of its pattern, the name and the preorder position of the subject
#: node it bound to.
_CachedMatch = Tuple[object, Tuple[Tuple[str, int], ...]]


class MatchCache:
    """An LRU-bounded cache of net-match results keyed by subject signature.

    One instance serves one :class:`DiscriminationNet`; the kernel catalog
    owns the pairing.  ``match`` is a drop-in replacement for collecting the
    net's ``(payload, substitution)`` pairs.
    """

    def __init__(self, net: DiscriminationNet, max_entries: int = 100_000) -> None:
        self._net = net
        self._entries: "OrderedDict[Tuple, List[_CachedMatch]]" = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self._net_version = net.version

    # -------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of cacheable lookups answered without a net walk."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Plain-dict counters (uniform cache-stats protocol).

        ``bypasses`` counts lookups routed around the cache by the
        invalidation rules (concrete-leaf or opaque-predicate patterns); they are excluded from the hit rate
        because no cache decision was made.
        """
        return {
            "layer": "match_cache",
            "size": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0

    def clear(self) -> None:
        """Drop all entries (and re-sync the watched net version)."""
        self._entries.clear()
        self._net_version = self._net.version

    # --------------------------------------------------------------- snapshot
    def export_entries(self) -> List[Tuple[Tuple, List[_CachedMatch]]]:
        """All cached entries as ``(signature, matches)`` pairs (LRU order).

        Used by :mod:`repro.persist.snapshot` to persist the cache; payloads
        are the live kernel objects (the snapshot layer maps them to ids).
        """
        return [(signature, list(entries)) for signature, entries in self._entries.items()]

    def import_entries(self, items) -> int:
        """Insert snapshot entries for keys not already cached.

        The caller (:mod:`repro.persist.snapshot`) validates that the
        snapshot's net version matches this process before calling;
        warm in-memory entries are never overwritten.  Exports are
        LRU-ordered oldest-first; when capacity runs short the *newest*
        (most recently used) entries win, whatever the cache already
        holds.  Returns the number of entries inserted.
        """
        if self._net_version != self._net.version:
            self.clear()
        capacity = self.max_entries - len(self._entries)
        selected = []
        for signature, entries in reversed(list(items)):
            if len(selected) >= capacity:
                break
            if signature not in self._entries:
                selected.append((signature, entries))
        # Insert oldest-first so the imported slice keeps its LRU order.
        for signature, entries in reversed(selected):
            self._entries.setdefault(signature, list(entries))
        return len(selected)

    # ------------------------------------------------------------------ lookup
    def match(self, subject: Expression) -> List[Tuple[object, Substitution]]:
        """All ``(payload, substitution)`` pairs matching *subject*.

        Equivalent to walking the net directly; the walk is skipped when a
        signature-equal subject was matched before.
        """
        net = self._net
        if net.has_concrete_leaf_patterns or net.has_opaque_predicates:
            self.bypasses += 1
            return [
                (payload, substitution)
                for _, substitution, payload in self._net.match(subject)
            ]
        if self._net_version != self._net.version:
            self.clear()

        signature = subject.signature()
        cached = self._entries.get(signature)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(signature)
            nodes, _ = _flatten_subject(subject)
            results: List[Tuple[object, Substitution]] = []
            for payload, slots in cached:
                results.append(
                    (
                        payload,
                        Substitution._from_owned_dict(
                            {name: nodes[position] for name, position in slots}
                        ),
                    )
                )
            return results

        self.misses += 1
        nodes, _ = _flatten_subject(subject)
        results = []
        entry: Optional[List[_CachedMatch]] = []
        for _, substitution, payload in self._net.match(subject):
            results.append((payload, substitution))
            if entry is not None:
                slots = _binding_slots(nodes, substitution)
                entry = None if slots is None else entry + [(payload, slots)]
        if entry is not None and not any(
            isinstance(node, Wildcard) for node in nodes
        ):
            if len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[signature] = entry
        return results


def _binding_slots(
    nodes: List[Expression], substitution: Substitution
) -> Optional[Tuple[Tuple[str, int], ...]]:
    """Locate every bound operand inside the subject's preorder node list.

    Any structurally equal occurrence is a valid anchor: signature-equal
    subjects have identical equality patterns, so the node at the same
    position of a future subject is structurally interchangeable with the
    "true" binding position.  Returns ``None`` when a binding cannot be
    anchored (never the case for net-produced substitutions; kept defensive).
    """
    slots: List[Tuple[str, int]] = []
    for name, value in substitution.items():
        for position, node in enumerate(nodes):
            if node is value or node == value:
                slots.append((name, position))
                break
        else:
            return None
    return tuple(slots)
