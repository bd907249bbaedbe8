"""Signature-keyed memoization of whole per-split kernel decisions.

The GMC loop (:mod:`repro.core.gmc`) asks, for every live split of every DP
cell, "which kernel computes ``Times(left, right)``, and at what cost?".
:class:`KernelDecisionMemo` answers repeats of that question from a
per-solve memo keyed by the operands' shape/property signatures, so a
structurally repeated split skips the match walk, every per-kernel cost
evaluation and the argmin, and merely re-binds the winning substitution.
Like the match cache it watches only the catalog net's version: the
inference rules that kernel constraints evaluate are fixed.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..algebra.expression import Matrix
from ..algebra.operators import Times
from ..matching.discrimination_net import _flatten_subject
from ..matching.match_cache import _binding_slots
from ..matching.patterns import Substitution, Wildcard

__all__ = ["KernelDecisionMemo", "make_decision_memo"]


# ---------------------------------------------------------------------------
# Signature-keyed memoization of whole kernel decisions.
# ---------------------------------------------------------------------------

#: Memo value for "no kernel matches this signature".
_NO_KERNEL = object()

#: Preallocated cross-equality tokens for the ubiquitous one-leaf case.
_CROSS_EQ = (0,)
_CROSS_NE = (-1,)


class KernelDecisionMemo:
    """A per-solve memo of finished best-kernel decisions for DP splits.

    The GMC loop answers "which kernel computes ``Times(left, right)``, and
    at what cost?" by collecting every matching kernel, pricing each with
    the metric, and reducing to the minimal ``(cost, specialization, id)``
    key.  The *outcome* of that whole decision depends only on the
    subject's shape/property
    :meth:`~repro.algebra.expression.Expression.signature`:
    signature-equal subjects match exactly the same kernels (the match
    cache's soundness argument), and a :attr:`CostMetric.signature_pure
    <repro.cost.metrics.CostMetric.signature_pure>` metric prices a kernel
    from operand dimensions and properties alone -- both captured by the
    signature.  The deterministic tie-break (constraint count, kernel id)
    is subject-independent, so the winning kernel and its cost are a pure
    function of the signature.

    The memo is keyed *without building the subject*: the signature of
    ``Times(left, right)`` is determined by the operands' own (per-node
    cached) signatures plus the cross-operand leaf-equality pattern, so
    :meth:`decide_pair` keys on ``(left.signature(), right.signature(),
    cross)``.  A hit skips the ``Times`` construction, the subject
    signature walk, the match, every per-kernel substitution re-binding
    and cost evaluation, and the argmin; only the *winner's* substitution
    is re-bound, against a node list synthesized from the operands' cached
    flattenings (``_flatten_subject`` of a product is its root followed by
    the children's flattenings, and no pattern binds the root).  Without
    it the loop would re-price structurally repeated splits -- ubiquitous
    in chains whose operands share dimensions -- on every cell.

    One memo serves one solve.  Construction is gated by
    :func:`make_decision_memo` on the same conditions under which the
    match cache trusts signatures; the watched net version is re-checked on
    every lookup, mirroring the match cache's invalidation.
    """

    __slots__ = (
        "_fallback",
        "_net",
        "_entries",
        "_leaves",
        "_net_version",
        "hits",
        "misses",
    )

    def __init__(self, net, fallback) -> None:
        self._fallback = fallback
        self._net = net
        self._entries: Dict[tuple, object] = {}
        # id(operand) -> (operand, leaf structural keys, has_wildcard).
        # Holding the operand keeps its id stable for the memo's lifetime.
        self._leaves: Dict[int, tuple] = {}
        self._net_version = net.version
        self.hits = 0
        self.misses = 0

    def _leaf_info(self, operand) -> Tuple[tuple, bool]:
        """The operand's leaf structural keys and whether it holds wildcards."""
        cached = self._leaves.get(id(operand))
        if cached is not None:
            return cached[1], cached[2]
        keys = []
        wild = False
        for node in _flatten_subject(operand)[0]:
            if isinstance(node, Matrix):
                keys.append(node.structural_key())
            elif isinstance(node, Wildcard):
                wild = True
        info = (tuple(keys), wild)
        self._leaves[id(operand)] = (operand, info[0], wild)
        return info

    def decide_pair(
        self, left, right
    ) -> Optional[Tuple[object, Substitution, object, Optional[object]]]:
        """The decision for ``Times(left, right)``, memoized by pair key.

        Returns ``None`` when no kernel matches, else ``(kernel,
        substitution, kernel_cost, expr)`` where *expr* is the built
        subject on a miss and ``None`` on a hit (callers construct it
        lazily, only for candidates that survive the cost merge).
        """
        if self._net_version != self._net.version:
            self._entries.clear()
            self._net_version = self._net.version
        left_keys, left_wild = self._leaf_info(left)
        right_keys, right_wild = self._leaf_info(right)
        if left_wild or right_wild:
            expr = Times(left, right)
            matched = self._fallback(expr)
            return None if matched is None else matched + (expr,)
        # The subject signature is (left sig, right sig, cross-operand
        # leaf-equality pattern): intra-operand equality patterns live in
        # the operand signatures, and each right leaf's combined
        # first-occurrence index is fixed by the first equal left leaf.
        if len(left_keys) == 1 and len(right_keys) == 1:
            cross = _CROSS_EQ if left_keys[0] == right_keys[0] else _CROSS_NE
        else:
            cross = tuple(
                next((p for p, lk in enumerate(left_keys) if lk == rk), -1)
                for rk in right_keys
            )
        key = (left.signature(), right.signature(), cross)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            if entry is _NO_KERNEL:
                return None
            kernel, slots, kernel_cost = entry
            # _flatten_subject(Times(left, right)) is [root] + flat(left)
            # + flat(right), and no pattern binds the root (the pattern's
            # own Times operator consumes it), so the recorded slots
            # resolve against a synthesized list -- no subject needed.
            nodes = [None]
            nodes += _flatten_subject(left)[0]
            nodes += _flatten_subject(right)[0]
            return (
                kernel,
                Substitution._from_owned_dict(
                    {name: nodes[position] for name, position in slots}
                ),
                kernel_cost,
                None,
            )
        self.misses += 1
        expr = Times(left, right)
        matched = self._fallback(expr)
        if matched is None:
            self._entries[key] = _NO_KERNEL
            return None
        kernel, substitution, kernel_cost = matched
        slots = _binding_slots(_flatten_subject(expr)[0], substitution)
        if slots is not None and all(position > 0 for _, position in slots):
            self._entries[key] = (kernel, slots, kernel_cost)
        return (kernel, substitution, kernel_cost, expr)


def make_decision_memo(catalog, metric, fallback) -> Optional[KernelDecisionMemo]:
    """Build a :class:`KernelDecisionMemo` over a solver's kernel picker.

    Returns ``None`` whenever signatures cannot be trusted to determine
    the decision -- the gate mirrors the match cache's bypass rules, plus
    the metric-side purity flag:

    * the metric must be :attr:`~repro.cost.metrics.CostMetric.cacheable`
      and :attr:`~repro.cost.metrics.CostMetric.signature_pure`;
    * the catalog's net must expose the structural-safety flags and have
      neither concrete-leaf patterns nor opaque predicates.
    """
    if not (getattr(metric, "cacheable", False) and getattr(metric, "signature_pure", False)):
        return None
    net = getattr(catalog, "net", None)
    if (
        net is None
        or getattr(net, "has_concrete_leaf_patterns", True)
        or getattr(net, "has_opaque_predicates", True)
    ):
        return None
    return KernelDecisionMemo(net, fallback)
