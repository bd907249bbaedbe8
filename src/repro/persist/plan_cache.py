"""Signature-keyed caching of whole solved plans.

The signature-keyed match cache (:mod:`repro.matching.match_cache`) removes
the per-split discrimination-net walk from repeated solves, but a repeated
solve still pays the full ``O(n^3)`` dynamic program: every cell, every
split, every cost combination.  For the service's dominant traffic --
structurally identical requests under fresh operand names -- even that is
redundant: the *entire* optimal plan (the split tree, the kernel chosen per
cell, the wildcard bindings of every kernel call) is a function of the
chain's name-abstracted :meth:`~repro.algebra.expression.Expression.signature`
and the pipeline options, never of the operand names.

:class:`PlanCache` therefore sits *above* the solver: a
:class:`~repro.frontend.compiler.Compiler` session consults it before
dispatching to :mod:`repro.core.gmc`, and on a hit the whole DP is
skipped.  The cached :class:`PlanRecipe` stores, per
kernel call of the optimal solution, the DP cell ``(i, j)``, the split
``k``, the kernel id and -- exactly as the match cache does -- the *preorder
position* of every wildcard binding inside the call's subject, so the plan
re-binds positionally against the new request's operands: the node at the
same preorder position of a signature-equal subject is the corresponding
operand, and it satisfies the same kernel constraints by construction.

Keys pair the normalized chain's signature with an **options fingerprint**
(metric name, pruning, match-cache policy): two requests only share
a plan when the whole pipeline configuration matches.  Recipes are plain
data (ints, strings), which is what makes the cache snapshottable to disk
(:mod:`repro.persist.snapshot`).

Since the DAG pipeline (:mod:`repro.core.segments`) landed, keys are
naturally **segment-level**: the compiler consults the cache once per chain
segment of a decomposed program, and a segment's leaves may be the named
:class:`~repro.algebra.expression.Temporary` results of earlier segments --
the signature abstracts their names but keeps their inferred properties, so
structurally-sibling DAG programs (Jacobian blocks of one model) hit on
every segment they share a shape with.  Unresolved
:class:`~repro.algebra.expression.Reference` leaves bypass the cache: a
reference's signature does not capture its defining expression.

Invalidation mirrors the match cache, because a plan embeds strictly more
catalog semantics than a match result (the inference rules are fixed, so
the catalog is the only moving part):

* **catalog extension** -- the cache records the discrimination net's
  ``version`` and flushes when it moves;
* nets containing **concrete-leaf patterns** or **opaque predicates** (both
  may observe what the signature abstracts away) bypass the cache, as do
  chains with non-:class:`~repro.algebra.expression.Matrix` leaves, live
  (caller-owned) metric instances and per-call catalogs differing from the
  cache's own.

Solutions produced under an expired :attr:`CompileOptions.deadline_s`
(``complete=False``) are never stored -- a truncated best-so-far plan must
not masquerade as the optimum for every future signature-equal request.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..algebra.expression import Expression, Matrix, Reference, Temporary
from ..algebra.inference import infer_properties
from ..algebra.interning import intern
from ..algebra.operators import Times
from ..core.gmc import _coerce_chain
from ..kernels.catalog import KernelCatalog
from ..kernels.kernel import KernelCall, Program
from ..matching.discrimination_net import _flatten_subject
from ..matching.match_cache import _binding_slots
from ..matching.patterns import Substitution
from ..options import CompileOptions

__all__ = ["PlanRecipe", "CachedPlanSolution", "PlanCache", "plan_fingerprint"]


#: One kernel call of a cached plan: the DP cell ``(i, j)`` it computes, the
#: split ``k``, the kernel's catalog id, and the ``(wildcard name, preorder
#: position)`` re-binding slots of its subject expression.
PlanStep = Tuple[int, int, int, str, Tuple[Tuple[str, int], ...]]


def plan_fingerprint(options: CompileOptions) -> Tuple[str, bool, bool]:
    """The options fingerprint a plan is keyed under.

    Everything that changes which plan is optimal -- or how it is found --
    participates: the metric *name*, pruning and the match-cache policy.
    ``deadline_s`` is deliberately absent: a *complete* solution is the
    optimum regardless of the budget it was found under, and incomplete
    solutions are never stored.
    """
    return (
        options.metric_name,
        bool(options.prune),
        bool(options.match_cache),
    )


@dataclass(frozen=True)
class PlanRecipe:
    """A solved plan reduced to re-bindable plain data (see module docs)."""

    #: Number of chain factors.
    length: int
    #: Kernel calls in dependency (emission) order.
    steps: Tuple[PlanStep, ...]

    def to_wire(self) -> dict:
        """JSON-compatible form (used by :mod:`repro.persist.snapshot`)."""
        return {
            "length": self.length,
            "steps": [
                [i, j, k, kernel_id, [[name, pos] for name, pos in slots]]
                for i, j, k, kernel_id, slots in self.steps
            ],
        }

    @classmethod
    def from_wire(cls, payload: dict) -> "PlanRecipe":
        return cls(
            length=int(payload["length"]),
            steps=tuple(
                (
                    int(i),
                    int(j),
                    int(k),
                    str(kernel_id),
                    tuple((str(name), int(pos)) for name, pos in slots),
                )
                for i, j, k, kernel_id, slots in payload["steps"]
            ),
        )


class CachedPlanSolution:
    """A plan-cache hit, re-bound to a new chain's operands.

    Duck-types the solution interface the compiler front-end consumes
    (:meth:`program`, :meth:`kernel_calls`, :meth:`parenthesization`,
    :attr:`optimal_cost`, :attr:`computable`, ...), so a cached plan is a
    drop-in replacement for a :class:`~repro.core.gmc.GMCSolution`
    everywhere downstream of the solver: code emission, the service
    response path and telemetry.

    The re-binding replays the recipe against the new factors: temporaries
    are re-materialized per cell (their properties re-inferred from the new
    sub-chain, which memoizes by canonical node), substitutions are re-bound
    by preorder position, and kernel costs are re-evaluated through the
    metric's memo -- all linear in the plan, never ``O(n^3)``.
    """

    #: Cached plans are only stored for computable, complete solutions.
    computable = True
    complete = True
    from_plan_cache = True

    def __init__(
        self,
        recipe: PlanRecipe,
        factors: Tuple[Expression, ...],
        expression: Expression,
        metric,
        catalog: KernelCatalog,
    ) -> None:
        self.recipe = recipe
        self.factors = factors
        self.expression = expression
        self.metric = metric
        self.catalog = catalog
        self.generation_time = 0.0
        self._calls: Optional[List[KernelCall]] = None
        self._operands: Dict[Tuple[int, int], Matrix] = {}
        self._cost: object = metric.zero

    @property
    def length(self) -> int:
        return len(self.factors)

    # ------------------------------------------------------------- rebinding
    def _operand(self, i: int, j: int) -> Matrix:
        """The symbolic operand for ``M[i..j]`` (factor or fresh temporary)."""
        if i == j:
            return self.factors[i]  # type: ignore[return-value]
        key = (i, j)
        operand = self._operands.get(key)
        if operand is None:
            sub_chain = intern(Times(*self.factors[i : j + 1]))
            operand = Temporary(
                rows=sub_chain.rows,
                columns=sub_chain.columns,
                properties=infer_properties(sub_chain),
                origin=sub_chain,
            )
            self._operands[key] = operand
        return operand

    def kernel_calls(self) -> List[KernelCall]:
        """The re-bound kernel calls, materialized once (dependency order)."""
        if self._calls is not None:
            return self._calls
        metric = self.metric
        cell_costs: Dict[Tuple[int, int], object] = {}

        def cost_of(i: int, j: int) -> object:
            return metric.zero if i == j else cell_costs[(i, j)]

        calls: List[KernelCall] = []
        for i, j, k, kernel_id, slots in self.recipe.steps:
            kernel = self.catalog.by_id(kernel_id)
            expr = Times(self._operand(i, k), self._operand(k + 1, j))
            nodes, _ = _flatten_subject(expr)
            substitution = Substitution._from_owned_dict(
                {name: nodes[position] for name, position in slots}
            )
            kernel_cost = metric.kernel_cost(kernel, substitution)
            # Replicate the DP's accumulation tree exactly, so the reported
            # optimum is bit-identical to a cold solve for every metric.
            cell_costs[(i, j)] = metric.combine(
                metric.combine(cost_of(i, k), cost_of(k + 1, j)), kernel_cost
            )
            calls.append(
                KernelCall(
                    kernel=kernel,
                    substitution=substitution,
                    output=self._operand(i, j),
                    expression=expr,
                    flops=kernel.flops(substitution),
                    cost=kernel_cost,
                )
            )
        self._cost = cost_of(0, self.length - 1)
        self._calls = calls
        return calls

    # ------------------------------------------------------ solution surface
    @property
    def optimal_cost(self) -> object:
        self.kernel_calls()
        return self._cost

    @property
    def output(self) -> Optional[Matrix]:
        self.kernel_calls()
        return self._operand(0, self.length - 1)

    def program(self, strategy_name: str = "GMC (cached plan)") -> Program:
        return Program(
            calls=list(self.kernel_calls()),
            output=self.output,
            expression=self.expression,
            strategy=strategy_name,
        )

    @property
    def total_flops(self) -> float:
        return sum(call.flops for call in self.kernel_calls())

    def kernel_sequence(self) -> List[str]:
        return [call.kernel.display_name for call in self.kernel_calls()]

    def parenthesization(self) -> str:
        splits = {(i, j): k for i, j, k, _, _ in self.recipe.steps}

        def render(i: int, j: int) -> str:
            if i == j:
                return str(self.factors[i])
            k = splits[(i, j)]
            return f"({render(i, k)} * {render(k + 1, j)})"

        if self.length == 1:
            return str(self.factors[0])
        return render(0, self.length - 1)

    def __str__(self) -> str:
        return (
            f"cached plan for {self.expression}\n"
            f"  kernels: {' -> '.join(self.kernel_sequence())}"
        )


#: Internal cache key: (chain signature, options fingerprint).
_PlanKey = Tuple[Tuple, Tuple[str, bool, bool]]


class PlanCache:
    """An LRU-bounded cache of solved plans keyed by chain signature.

    One instance serves one :class:`~repro.kernels.catalog.KernelCatalog`;
    the :class:`~repro.frontend.compiler.Compiler` session owns the pairing
    (exactly as the catalog owns its match cache).  Joins the telemetry
    protocol as the fifth cache layer (:mod:`repro.telemetry`).
    """

    def __init__(self, catalog: KernelCatalog, max_entries: int = 4096) -> None:
        self._catalog = catalog
        self._net = catalog.net
        self._entries: "OrderedDict[_PlanKey, PlanRecipe]" = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.stores = 0
        #: Entries imported from an on-disk snapshot (warm boot).
        self.restored = 0
        self._net_version = self._net.version

    # ------------------------------------------------------------ inspection
    @property
    def catalog(self) -> KernelCatalog:
        return self._catalog

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Plain-dict counters (uniform cache-stats protocol)."""
        return {
            "layer": "plan_cache",
            "size": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "bypasses": self.bypasses,
            "stores": self.stores,
            "restored": self.restored,
        }

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypasses = 0
        self.stores = 0
        self.restored = 0

    def clear(self) -> None:
        """Drop all entries (and re-sync the watched net version)."""
        self._entries.clear()
        self._net_version = self._net.version

    # ---------------------------------------------------------- eligibility
    def _usable(self, options: CompileOptions) -> bool:
        """Whether this request may touch the cache at all.

        Version drift *flushes* (handled by the caller via :meth:`_sync`);
        the conditions here *bypass*: they describe requests or catalogs the
        signature cannot fully characterize.
        """
        if not isinstance(options.metric, str):
            return False  # live metric instances may be arbitrarily custom
        if options.catalog is not None and options.catalog is not self._catalog:
            return False
        if self._net.has_concrete_leaf_patterns or self._net.has_opaque_predicates:
            return False
        return True

    def _sync(self) -> None:
        if self._net_version != self._net.version:
            self.clear()

    @staticmethod
    def _chain(expression: Expression):
        """Normalize to interned chain factors; ``None`` when not a chain."""
        try:
            factors, _ = _coerce_chain(expression)
        except Exception:  # noqa: BLE001 -- let the solver raise its own error
            return None
        factors = tuple(intern(factor) for factor in factors)
        for factor in factors:
            for node in factor.preorder():
                if isinstance(node, Reference):
                    # An unresolved reference leaf stands for the result of
                    # another assignment; its signature does not capture the
                    # defining expression's structure or inferred properties,
                    # so caching on it would alias distinct programs.  The
                    # segment layer resolves references into result operands
                    # (named temporaries with inferred properties) *before*
                    # the cache is consulted.
                    return None
                if not node.children and not isinstance(node, Matrix):
                    return None  # wildcard/opaque leaf: signature incomplete
        return factors

    @staticmethod
    def _chain_expression(factors: Tuple[Expression, ...]) -> Expression:
        return intern(Times(*factors)) if len(factors) > 1 else factors[0]

    # ---------------------------------------------------------------- lookup
    def lookup(
        self,
        expression: Expression,
        options: CompileOptions,
        metric,
    ) -> Optional[CachedPlanSolution]:
        """A re-bound solution for *expression*, or ``None`` on miss/bypass.

        *metric* is the metric instance the session would hand the
        solver -- the cached plan prices its kernel calls with it, exactly
        as a solve does.
        """
        self._sync()
        if not self._usable(options):
            self.bypasses += 1
            return None
        factors = self._chain(expression)
        if factors is None or len(factors) < 2:
            self.bypasses += 1
            return None
        chain_expression = self._chain_expression(factors)
        key = (chain_expression.signature(), plan_fingerprint(options))
        recipe = self._entries.get(key)
        if recipe is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return CachedPlanSolution(
            recipe=recipe,
            factors=factors,
            expression=chain_expression,
            metric=metric,
            catalog=self._catalog,
        )

    # ----------------------------------------------------------------- store
    def store(self, expression: Expression, options: CompileOptions, solution) -> bool:
        """Record a freshly solved plan; returns ``True`` when cached.

        Only complete, computable multi-factor solutions are stored; a
        solution truncated by a deadline or an uncomputable chain never
        enters the cache.
        """
        self._sync()
        if not self._usable(options):
            return False
        if not getattr(solution, "computable", False):
            return False
        if not getattr(solution, "complete", True):
            return False
        factors = self._chain(expression)
        if factors is None or len(factors) < 2:
            return False
        recipe = self._recipe_from(solution)
        if recipe is None:
            return False
        chain_expression = self._chain_expression(factors)
        key = (chain_expression.signature(), plan_fingerprint(options))
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = recipe
        self._entries.move_to_end(key)
        self.stores += 1
        return True

    def _recipe_from(self, solution) -> Optional[PlanRecipe]:
        """Extract the re-bindable recipe from a solver solution."""
        length = solution.length
        steps: List[PlanStep] = []

        def visit(i: int, j: int) -> bool:
            if i == j:
                return True
            choice = solution.choices[i][j]
            if choice is None:
                return False
            if choice.kernel.id not in self._catalog:
                return False
            if not visit(i, choice.split) or not visit(choice.split + 1, j):
                return False
            nodes, _ = _flatten_subject(choice.expression)
            slots = _binding_slots(nodes, choice.substitution)
            if slots is None:
                return False
            steps.append((i, j, choice.split, choice.kernel.id, slots))
            return True

        if not visit(0, length - 1) or not steps:
            return None
        return PlanRecipe(length=length, steps=tuple(steps))

    # ------------------------------------------------------------- snapshots
    def export_entries(self) -> List[Tuple[Tuple, Tuple, PlanRecipe]]:
        """All entries as ``(signature, fingerprint, recipe)``, LRU order."""
        return [
            (signature, fingerprint, recipe)
            for (signature, fingerprint), recipe in self._entries.items()
        ]

    def import_entries(self, entries) -> int:
        """Insert snapshot entries (cold keys only); returns the count.

        The caller (:mod:`repro.persist.snapshot`) has already validated
        that the snapshot's catalog digest and net version match this
        process; entries never overwrite warmer in-memory state.  Exports
        are LRU-ordered oldest-first; when capacity runs short the *newest*
        (most recently used) entries win, whatever the cache already holds.
        """
        self._sync()
        capacity = self.max_entries - len(self._entries)
        selected: List[Tuple[_PlanKey, PlanRecipe]] = []
        for signature, fingerprint, recipe in reversed(list(entries)):
            if len(selected) >= capacity:
                break
            key = (signature, fingerprint)
            if key not in self._entries:
                selected.append((key, recipe))
        # Insert oldest-first so the imported slice keeps its LRU order.
        for key, recipe in reversed(selected):
            self._entries.setdefault(key, recipe)
        self.restored += len(selected)
        return len(selected)
