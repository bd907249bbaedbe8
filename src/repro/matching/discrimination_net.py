"""A discrimination net for many-to-one syntactic pattern matching.

A discrimination net indexes a *set* of patterns in a trie keyed by the
preorder traversal of the pattern trees, so that matching a subject
expression against all patterns requires a single walk over the subject
instead of one walk per pattern.  This is the data structure the paper's
reference implementation obtains from MatchPy (Section 3.1, citing
Christian 1993 and Graef 1991) and is what makes the per-split matching cost
of the GMC algorithm independent of the number of kernels (Section 3.4).

Implementation notes
--------------------
* Every expression node is flattened to a token: operator nodes become
  ``(class name, arity)``; concrete leaves become ``("leaf", key)``; pattern
  wildcards become the special token ``"*"`` which, during matching, consumes
  an entire subject subtree.
* Because several patterns can share prefixes, and because at any point both
  a wildcard edge and an exact edge may be applicable, matching performs a
  depth-first search over net states.  The net's depth is bounded by the
  pattern size, which for GMC kernels is a small constant, so each match is
  O(1) with respect to both the number of patterns and the chain length.
* Non-linear patterns (repeated wildcard names, e.g. SYRK's ``X^T X``) and
  per-pattern constraints are checked at acceptance time on the collected
  bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..algebra.expression import Expression
from ..algebra.operators import Inverse, InverseTranspose, Plus, Times, Transpose
from .patterns import Pattern, Substitution, Wildcard, is_structural_predicate

_WILDCARD_TOKEN = "*"

_OPERATOR_TYPES = (Times, Plus, Transpose, Inverse, InverseTranspose)

def _node_token(node: Expression) -> Tuple:
    """Flatten one expression node to a hashable trie token.

    Tokens are cached on the node (expressions are immutable): leaf tokens
    embed the cached structural key, and a shared operand -- e.g. a DP
    temporary appearing in many candidate splits -- is tokenized exactly
    once instead of once per match.
    """
    try:
        return node._token_cache
    except AttributeError:
        pass
    if isinstance(node, _OPERATOR_TYPES):
        token: Tuple = (type(node).__name__, len(node.children))
    else:
        token = ("leaf", type(node).__name__, node.structural_key())
    object.__setattr__(node, "_token_cache", token)
    return token


def _flatten_pattern(expression: Expression) -> Tuple[List, List[Optional[str]]]:
    """Return the token sequence of a pattern and the wildcard name per slot.

    The wildcard-name list is parallel to the token list; non-wildcard
    positions hold ``None``.
    """
    tokens: List = []
    names: List[Optional[str]] = []

    def visit(node: Expression) -> None:
        if isinstance(node, Wildcard):
            tokens.append(_WILDCARD_TOKEN)
            names.append(node.name)
            return
        tokens.append(_node_token(node))
        names.append(None)
        for child in node.children:
            visit(child)

    visit(expression)
    return tokens, names


def _flatten_subject(expression: Expression) -> Tuple[List[Expression], List[int]]:
    """Preorder node list of the subject plus the subtree size of each node.

    The subtree sizes let a wildcard edge skip a whole subtree in O(1).
    The result is cached per (immutable) node, so an operand shared by many
    candidate splits -- every DP temporary -- is flattened once, and a fresh
    product subject only concatenates its children's cached flattenings.
    """
    try:
        return expression._flat_cache
    except AttributeError:
        pass
    nodes: List[Expression] = [expression]
    sizes: List[int] = [0]
    for child in expression.children:
        child_nodes, child_sizes = _flatten_subject(child)
        nodes.extend(child_nodes)
        sizes.extend(child_sizes)
    sizes[0] = len(nodes)
    result = (nodes, sizes)
    object.__setattr__(expression, "_flat_cache", result)
    return result


@dataclass
class _AcceptEntry:
    """A pattern accepted at a trie node, with precomputed binding metadata.

    ``slot_names`` lists the wildcard name of every wildcard slot in pattern
    preorder; ``slot_predicates`` holds the per-slot wildcard predicate (or
    ``None``) and ``constraint_predicates`` the raw constraint callables.
    All of it is computed once at insertion time so that acceptance -- which
    runs for every candidate match in the GMC inner loop -- never re-walks
    the pattern tree and pays no dispatch overhead per check.
    """

    pattern: Pattern
    slot_names: Tuple[str, ...]
    slot_predicates: Tuple[Optional[Callable[[Expression], bool]], ...]
    constraint_predicates: Tuple[Callable[[Substitution], bool], ...]
    payload: object


@dataclass
class _AcceptGroup:
    """Accepted patterns sharing one wildcard slot layout.

    Kernel catalogs contain many patterns that differ only in their
    constraints (GEMM / SYMM / TRMM / ... are all ``X * Y``); grouping them
    by ``(slot_names, slot_predicates)`` lets the matcher validate the
    bindings and build the substitution *once per group* instead of once per
    pattern -- the per-pattern work shrinks to the constraint checks.
    """

    slot_names: Tuple[str, ...]
    slot_predicates: Tuple[Optional[Callable[[Expression], bool]], ...]
    entries: List[_AcceptEntry] = field(default_factory=list)


@dataclass
class _Node:
    """One trie node of the discrimination net."""

    edges: Dict[object, "_Node"] = field(default_factory=dict)
    wildcard_edge: Optional["_Node"] = None
    #: The wildcard predicate shared by *every* pattern slot routed through
    #: ``wildcard_edge``, or ``None`` when the slots disagree (or none of
    #: them carries a predicate).  When set, the matcher evaluates it once
    #: while traversing the edge and prunes the whole pattern family on
    #: failure, instead of rejecting each accepted pattern at bind time.
    wildcard_predicate: Optional[Callable[[Expression], bool]] = None
    #: False once two patterns routed different predicates through the edge.
    wildcard_predicate_shared: bool = True
    #: Patterns accepted at this node, grouped by wildcard slot layout.
    accepts: List[_AcceptGroup] = field(default_factory=list)


class DiscriminationNet:
    """Many-to-one matcher over a fixed set of patterns.

    Each pattern may carry an arbitrary *payload* (for the GMC algorithm the
    payload is the kernel the pattern belongs to); :meth:`match` yields
    ``(pattern, substitution, payload)`` triples.
    """

    def __init__(self, patterns: Sequence[Tuple[Pattern, object]] = ()) -> None:
        self._root = _Node()
        self._size = 0
        #: Bumped on every :meth:`add`; signature-keyed match caches record
        #: the value they were filled against and flush when it moves, so an
        #: extended net never serves a stale (pre-extension) kernel list.
        self.version = 0
        #: True once any pattern contains a concrete (non-wildcard) leaf.
        #: Concrete leaves match by full structural key -- including the
        #: operand *name* -- which the name-abstracting signature cannot
        #: distinguish, so caches must bypass such nets.  No stock kernel
        #: pattern has concrete leaves.
        self.has_concrete_leaf_patterns = False
        #: True once any pattern carries a wildcard predicate or constraint
        #: not marked by :func:`~repro.matching.patterns.structural_predicate`.
        #: An unmarked callable may observe details the signature abstracts
        #: away (operand names, external state), so caches must bypass such
        #: nets too.  All stock kernel constraints are marked.
        self.has_opaque_predicates = False
        for pattern, payload in patterns:
            self.add(pattern, payload)

    def __len__(self) -> int:
        return self._size

    def add(self, pattern: Pattern, payload: object = None) -> None:
        """Insert a pattern (with an optional payload) into the net."""
        tokens, names = _flatten_pattern(pattern.expression)
        self.version += 1
        if any(token != _WILDCARD_TOKEN and token[0] == "leaf" for token in tokens):
            self.has_concrete_leaf_patterns = True
        wildcards_by_name = {
            wildcard.name: wildcard
            for wildcard in pattern.expression.preorder()
            if isinstance(wildcard, Wildcard)
        }
        slot_names = tuple(name for name in names if name is not None)
        slot_predicates = tuple(
            wildcards_by_name[name].predicate for name in slot_names
        )
        if not all(
            is_structural_predicate(predicate) for predicate in slot_predicates
        ) or not all(
            is_structural_predicate(constraint.predicate)
            for constraint in pattern.constraints
        ):
            self.has_opaque_predicates = True
        node = self._root
        slot = 0
        for token in tokens:
            if token == _WILDCARD_TOKEN:
                predicate = slot_predicates[slot]
                slot += 1
                edge = node.wildcard_edge
                if edge is None:
                    edge = node.wildcard_edge = _Node()
                    edge.wildcard_predicate = predicate
                elif edge.wildcard_predicate_shared and (
                    edge.wildcard_predicate is not predicate
                ):
                    edge.wildcard_predicate = None
                    edge.wildcard_predicate_shared = False
                node = edge
            else:
                node = node.edges.setdefault(token, _Node())
        entry = _AcceptEntry(
            pattern=pattern,
            slot_names=slot_names,
            slot_predicates=slot_predicates,
            constraint_predicates=tuple(
                constraint.predicate for constraint in pattern.constraints
            ),
            payload=payload,
        )
        for group in node.accepts:
            # Tuples of callables compare by identity, which is exactly the
            # sharing criterion: same names, same predicate functions.
            if group.slot_names == slot_names and group.slot_predicates == slot_predicates:
                group.entries.append(entry)
                break
        else:
            node.accepts.append(
                _AcceptGroup(
                    slot_names=slot_names,
                    slot_predicates=slot_predicates,
                    entries=[entry],
                )
            )
        self._size += 1

    # ------------------------------------------------------------------ match
    def match(self, subject: Expression) -> Iterator[Tuple[Pattern, Substitution, object]]:
        """Yield every pattern of the net that matches *subject*."""
        nodes, sizes = _flatten_subject(subject)
        total = len(nodes)

        # Depth-first search over (net node, subject position, bindings).
        # ``bindings`` is the list of subject sub-expressions consumed by
        # wildcard edges, in pattern preorder order.
        stack: List[Tuple[_Node, int, Tuple[Expression, ...]]] = [(self._root, 0, ())]
        while stack:
            net_node, position, bindings = stack.pop()
            if position == total:
                for group in net_node.accepts:
                    slot_names = group.slot_names
                    if len(slot_names) != len(bindings):
                        continue
                    # Validate the shared slot layout and build the (single,
                    # immutable) substitution once for the whole group.
                    mapping: Dict[str, Expression] = {}
                    ok = True
                    for name, predicate, expr in zip(
                        slot_names, group.slot_predicates, bindings
                    ):
                        if predicate is not None and not predicate(expr):
                            ok = False
                            break
                        existing = mapping.get(name)
                        if existing is None:
                            mapping[name] = expr
                        elif existing != expr:
                            ok = False
                            break
                    if not ok:
                        continue
                    substitution = Substitution._from_owned_dict(mapping)
                    for entry in group.entries:
                        for constraint in entry.constraint_predicates:
                            if not constraint(substitution):
                                break
                        else:
                            yield entry.pattern, substitution, entry.payload
                continue
            subject_node = nodes[position]
            token = _node_token(subject_node)
            exact_next = net_node.edges.get(token)
            if exact_next is not None:
                stack.append((exact_next, position + 1, bindings))
            wildcard_edge = net_node.wildcard_edge
            if wildcard_edge is not None:
                # When every pattern slot routed through this edge carries
                # the same predicate, evaluate it here once and prune the
                # whole branch on failure (bind would reject each pattern
                # individually otherwise).
                predicate = wildcard_edge.wildcard_predicate
                if predicate is not None and not predicate(subject_node):
                    continue
                skip = sizes[position]
                stack.append(
                    (wildcard_edge, position + skip, bindings + (subject_node,))
                )

    def match_first(self, subject: Expression) -> Optional[Tuple[Pattern, Substitution, object]]:
        """Return an arbitrary successful match, or ``None``."""
        for result in self.match(subject):
            return result
        return None
