"""The Generalized Matrix Chain (GMC) algorithm -- the paper's contribution.

The GMC algorithm (paper Section 3, Fig. 4) extends the classic matrix chain
dynamic program to chains whose factors may be transposed and/or inverted and
whose operands carry structural properties.  Instead of a single scalar cost
per product, every candidate split is mapped -- by syntactic pattern matching
against the kernel catalog -- to the set of kernels that can compute it, and
the metric-minimal kernel is chosen.  Properties are inferred symbolically
for every intermediate result so that specialized kernels remain applicable
deeper in the chain.

The implementation follows the pseudocode of Fig. 4 closely.  The DP tables
are:

``tmps[i][j]``
    The symbolic operand representing the sub-chain ``M[i..j]``: the wrapped
    input factor when ``i == j``, otherwise a
    :class:`~repro.algebra.expression.Temporary` annotated with the inferred
    properties of the sub-chain (``None`` for uncomputable cells, which
    never materialize a temporary).
``costs[i][j]``
    The minimal accumulated metric value for computing ``M[i..j]``.
``choices[i][j]``
    The kernel (and its substitution) chosen for the top-level operation of
    the optimal computation of ``M[i..j]``.
``splits[i][j]``
    The optimal split point ``k`` (the role of the ``s`` table in CLRS).

Deviations from the pseudocode (the first three are discussed in the paper):

* property inference runs once per ``(i, j)`` cell (on the sub-chain
  expression) instead of once per split, realizing the ``O(n^3 + n^2 p)``
  refinement of Section 3.4; cells with no computable split skip it
  entirely (no temporary is materialized for a provably dead cell);
* the metric is arbitrary (Section 3.3), not hard-wired to FLOPs;
* when no kernel matches a split the split simply gets infinite cost; the
  chain as a whole is still solved when another parenthesization is
  computable (completeness discussion of Section 3.4);
* a cell's splits are evaluated cheapest-lower-bound first
  (:meth:`CostMetric.lower_bound` over the already-known sub-chain costs),
  and once the best cost beats the next bound every remaining split is
  dropped in one cut, before kernel matching -- a Hu/Shing-flavoured
  dominance reduction generalized to property-dependent kernel costs
  (``CompileOptions(prune=False)`` visits every split in ascending ``k``:
  the exhaustive reference);
* the recorded choice is the lexicographic ``(cost, k)`` argmin, so the
  evaluation order never changes the plan;
* whole per-split kernel decisions are memoized per solve by signature
  (:class:`~repro.core.decision_memo.KernelDecisionMemo`) whenever the
  match cache is on and signatures are trusted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..algebra.expression import Expression, Matrix, Temporary, signature_digest
from ..algebra.inference import infer_properties
from ..algebra.interning import intern
from ..algebra.operators import Times
from ..algebra.simplify import as_chain, unary_decomposition
from ..cost.metrics import CostMetric
from ..kernels.catalog import KernelCatalog
from ..kernels.kernel import Kernel, KernelCall, Program
from ..matching.patterns import Substitution
from ..options import CompileOptions
from .decision_memo import make_decision_memo

class UncomputableChainError(RuntimeError):
    """Raised when no parenthesization of the chain maps onto the catalog.

    Carries structured context alongside the message: ``segment`` names the
    chain segment of the enclosing program that failed (``None`` outside the
    DAG pipeline) and ``signature`` is the name-abstracted signature of the
    sub-expression that could not be computed, so callers can report *what*
    failed rather than a bare ``(i, j)`` cell index.
    """

    def __init__(
        self,
        message: str,
        *,
        segment: Optional[str] = None,
        signature: object = None,
    ) -> None:
        super().__init__(message)
        self.segment = segment
        self.signature = signature


def _uncomputable_message(solution) -> str:
    """Why a solution has no kernel sequence (catalog gap vs deadline).

    A deadline-truncated solve may be uncomputable merely because the
    budget expired before the top cell was reached (the bottom-up DP fills
    it last); blaming the catalog would mislead the caller into dropping a
    perfectly computable chain.
    """
    if not getattr(solution, "complete", True):
        return (
            f"deadline expired before a complete kernel sequence for "
            f"{solution.expression} was found (best-so-far tables returned, "
            f"complete=False); retry with a larger deadline_s"
        )
    return (
        f"no kernel sequence computes {solution.expression} (signature "
        f"{signature_digest(solution.expression)}) with catalog "
        f"{solution.catalog.name}"
    )


class DeadlineChecker:
    """A strided ``time.monotonic`` gate for ``deadline_s``.

    One checker is created per solve and polled at every DP cell boundary.
    To keep the poll cheap, the clock is only read every
    *stride* calls; the stride adapts to the observed time between clock
    reads so cheap cells amortize the syscall while expensive cells keep
    the truncation point tight (target: one clock read every
    ~``_TARGET_S`` seconds, stride clamped to [1, ``_MAX_STRIDE``]).  The
    very first call always reads the clock, so an already-expired budget
    truncates before any work happens (the truncation-point tests rely on
    this).  Expiry is sticky.
    """

    __slots__ = ("deadline", "_stride", "_budget", "_expired", "_last_check")

    _MAX_STRIDE = 64
    _TARGET_S = 0.002

    def __init__(self, deadline_s: Optional[float]) -> None:
        self.deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self._stride = 1
        self._budget = 0  # calls left before the next real clock read
        self._expired = False
        self._last_check: Optional[float] = None

    def expired(self) -> bool:
        """Whether the budget has run out (strided clock reads)."""
        if self.deadline is None:
            return False
        if self._expired:
            return True
        if self._budget > 0:
            self._budget -= 1
            return False
        now = time.monotonic()
        if now > self.deadline:
            self._expired = True
            return True
        last = self._last_check
        self._last_check = now
        if last is not None:
            elapsed = now - last
            if elapsed < self._TARGET_S / 4 and self._stride < self._MAX_STRIDE:
                self._stride *= 2
            elif elapsed > self._TARGET_S and self._stride > 1:
                self._stride //= 2
        self._budget = self._stride - 1
        return False


class WorkCounters:
    """Per-solve work counters surfaced on the solution objects.

    ``cells_evaluated`` counts DP cells whose split loop ran to completion;
    ``cells_pruned`` counts split *candidates* skipped by the lower-bound
    prune inside those cells; ``diagonals`` counts anti-diagonals entered;
    ``memo_hits`` / ``memo_misses`` count
    :class:`~repro.core.decision_memo.KernelDecisionMemo` lookups (zero when
    the solve runs without a memo).
    """

    __slots__ = ("cells_evaluated", "cells_pruned", "diagonals", "memo_hits", "memo_misses")

    def __init__(self) -> None:
        self.cells_evaluated = 0
        self.cells_pruned = 0
        self.diagonals = 0
        self.memo_hits = 0
        self.memo_misses = 0


@dataclass
class _CellChoice:
    """The kernel decision recorded for one DP cell."""

    kernel: Kernel
    substitution: Substitution
    expression: Expression
    split: int
    kernel_cost: object


@dataclass
class GMCSolution:
    """The result of running the GMC algorithm on a chain.

    The solution gives access to the optimal cost, the chosen
    parenthesization, the kernel sequence (as a :class:`Program`) and the raw
    DP tables for inspection.
    """

    factors: Tuple[Expression, ...]
    expression: Expression
    metric: CostMetric
    catalog: KernelCatalog
    costs: List[List[object]] = field(repr=False)
    splits: List[List[int]] = field(repr=False)
    choices: List[List[Optional[_CellChoice]]] = field(repr=False)
    tmps: List[List[Optional[Matrix]]] = field(repr=False)
    generation_time: float = 0.0
    #: ``False`` when the per-request deadline (``options.deadline_s``)
    #: expired mid-solve: the tables hold the best-so-far state and cells
    #: past the cutoff were never evaluated.
    complete: bool = True
    #: Solver work counters (see :class:`WorkCounters`): DP cells whose
    #: split loop ran to completion, split candidates skipped by the
    #: lower-bound prune, anti-diagonals entered and decision-memo
    #: hits/misses.  A :class:`~repro.frontend.compiler.Compiler` session
    #: sums them into its ``solver`` telemetry layer.
    cells_evaluated: int = 0
    cells_pruned: int = 0
    diagonals: int = 0
    memo_hits: int = 0
    memo_misses: int = 0

    # ------------------------------------------------------------------ info
    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def optimal_cost(self) -> object:
        """The metric value of the optimal solution (``inf`` if uncomputable)."""
        if self.length == 1:
            return self.metric.zero
        return self.costs[0][self.length - 1]

    @property
    def computable(self) -> bool:
        """Whether at least one parenthesization mapped onto the catalog."""
        return not self.metric.is_infinite(self.optimal_cost)

    @property
    def output(self) -> Optional[Matrix]:
        return self.tmps[0][self.length - 1]

    # ------------------------------------------------------- solution access
    def kernel_calls(self) -> List[KernelCall]:
        """The kernel calls of the optimal solution, in dependency order.

        The list is materialized from :meth:`construct_solution` once and
        reused by every consumer (:meth:`program`, :attr:`total_flops`,
        :meth:`kernel_sequence`), which previously each re-ran the recursion.
        """
        calls = getattr(self, "_calls_cache", None)
        if calls is None:
            calls = list(self.construct_solution())
            self._calls_cache = calls
        return calls

    def construct_solution(self, i: int = 0, j: Optional[int] = None) -> Iterator[KernelCall]:
        """Yield the kernel calls of the optimal solution in dependency order.

        This is the recursive generator of Fig. 7 of the paper; kernels for
        sub-chains are emitted before the kernel that consumes them.  Callers
        that only need the full list should prefer :meth:`kernel_calls`.
        """
        if j is None:
            j = self.length - 1
        if i == j:
            return
        if not self.computable:
            raise UncomputableChainError(
                _uncomputable_message(self),
                signature=self.expression.signature(),
            )
        choice = self.choices[i][j]
        if choice is None:  # pragma: no cover - guarded by ``computable``
            sub = Times(*self.factors[i : j + 1])
            raise UncomputableChainError(
                f"sub-chain M[{i}..{j}] = {sub} (signature "
                f"{signature_digest(sub)}) is not computable",
                signature=sub.signature(),
            )
        k = choice.split
        yield from self.construct_solution(i, k)
        yield from self.construct_solution(k + 1, j)
        yield KernelCall(
            kernel=choice.kernel,
            substitution=choice.substitution,
            output=self.tmps[i][j],
            expression=choice.expression,
            flops=choice.kernel.flops(choice.substitution),
            cost=choice.kernel_cost,
        )

    def program(self, strategy_name: str = "GMC") -> Program:
        """Materialize the optimal kernel sequence as a :class:`Program`."""
        return Program(
            calls=list(self.kernel_calls()),
            output=self.output,
            expression=self.expression,
            strategy=strategy_name,
        )

    @property
    def total_flops(self) -> float:
        """FLOP count of the chosen solution (regardless of the metric)."""
        return sum(call.flops for call in self.kernel_calls())

    def kernel_sequence(self) -> List[str]:
        """The kernel family names of the solution, in execution order."""
        return [call.kernel.display_name for call in self.kernel_calls()]

    def parenthesization(self) -> str:
        """Render the chosen parenthesization, e.g. ``(A^-1 * (B * C^T))``."""

        def render(i: int, j: int) -> str:
            if i == j:
                return str(self.factors[i])
            choice = self.choices[i][j]
            if choice is None:
                return "<uncomputable>"
            k = choice.split
            return f"({render(i, k)} * {render(k + 1, j)})"

        if self.length == 1:
            return str(self.factors[0])
        return render(0, self.length - 1)

    def __str__(self) -> str:
        lines = [
            f"GMC solution for {self.expression}",
            f"  metric:           {self.metric.name}",
            f"  computable:       {self.computable}",
            f"  optimal cost:     {self.optimal_cost}",
            f"  parenthesization: {self.parenthesization()}",
        ]
        if self.computable:
            lines.append(f"  kernels:          {' -> '.join(self.kernel_sequence())}")
        return "\n".join(lines)


ChainLike = Union[Expression, Sequence[Expression]]


class GMCAlgorithm:
    """The Generalized Matrix Chain algorithm (paper Fig. 4).

    The constructor takes one :class:`~repro.options.CompileOptions` value
    naming the catalog, metric, pruning and match-cache policy (and the
    deadline-budget placeholder); ``GMCAlgorithm()`` uses the defaults.

    ``options.prune`` visits a cell's splits cheapest-lower-bound first
    (:meth:`CostMetric.lower_bound`) and drops every split that provably
    cannot beat the best-so-far, avoiding their kernel matching entirely.
    The plan is unaffected (the bound is sound for every metric that
    reports one); disable it to time or differentially test the exhaustive
    ascending-``k`` loop.  ``options.match_cache`` controls whether
    ``catalog.match`` is served through the signature-keyed match cache
    and whether per-split kernel decisions are memoized.

    Example
    -------
    >>> from repro.algebra import Matrix, Property
    >>> A = Matrix("A", 10, 10, {Property.SPD})
    >>> B = Matrix("B", 10, 4)
    >>> gmc = GMCAlgorithm()
    >>> solution = gmc.solve(A.I * B)
    >>> solution.kernel_sequence()
    ['POSV']
    """

    def __init__(self, options: Optional[CompileOptions] = None) -> None:
        if options is None:
            options = CompileOptions()
        elif not isinstance(options, CompileOptions):
            raise TypeError(f"expected CompileOptions, got {options!r}")
        self.options = options
        self.catalog: KernelCatalog = self.options.resolve_catalog()
        self.metric: CostMetric = self.options.resolve_metric()
        self.prune: bool = self.options.prune
        self.use_match_cache: bool = self.options.match_cache
        self.deadline_s = self.options.deadline_s
        #: Optional :class:`repro.obs.trace.Tracer` recording per-phase spans
        #: of every solve.  ``None`` (the default) leaves the loop's decision
        #: and commit steps unwrapped -- the traced-off overhead is one
        #: ``is None`` test per diagonal, never per cell.
        self.tracer = None

    # ------------------------------------------------------------------ API
    def solve(self, chain: ChainLike) -> GMCSolution:
        """Run the dynamic program on a chain and return its solution.

        The input may be an expression (it is normalized into chain form
        first) or an already-normalized sequence of chain factors.
        """
        factors, expression = _coerce_chain(chain)
        start = time.perf_counter()
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("solve", n=len(factors), metric=self.metric.name)
        solution = self._solve_factors(factors, expression)
        solution.generation_time = time.perf_counter() - start
        if tracer is not None:
            tracer.end(
                complete=solution.complete,
                computable=solution.computable,
                cells_evaluated=solution.cells_evaluated,
                cells_pruned=solution.cells_pruned,
                diagonals=solution.diagonals,
            )
        return solution

    def generate(self, chain: ChainLike, strategy_name: str = "GMC") -> Program:
        """Solve the chain and return the optimal kernel program.

        Raises :class:`UncomputableChainError` when the chain cannot be
        mapped onto the catalog.
        """
        solution = self.solve(chain)
        if not solution.computable:
            raise UncomputableChainError(
                _uncomputable_message(solution),
                signature=solution.expression.signature(),
            )
        return solution.program(strategy_name)

    # ------------------------------------------------------------ internals
    def _solve_factors(
        self, factors: Tuple[Expression, ...], expression: Expression
    ) -> GMCSolution:
        # Hash-cons the chain factors so that every sub-chain built below
        # shares canonical nodes; the memoized property inference (and every
        # other expression-keyed cache) then hits by object identity.
        factors = tuple(intern(factor) for factor in factors)
        n = len(factors)
        metric = self.metric
        costs: List[List[object]] = [
            [metric.zero if i == j else metric.infinity for j in range(n)] for i in range(n)
        ]
        splits = [[-1 for _ in range(n)] for _ in range(n)]
        choices: List[List[Optional[_CellChoice]]] = [[None for _ in range(n)] for _ in range(n)]
        tmps: List[List[Optional[Matrix]]] = [[None for _ in range(n)] for _ in range(n)]

        for i, factor in enumerate(factors):
            tmps[i][i] = factor  # type: ignore[assignment]

        checker = DeadlineChecker(self.deadline_s)
        work = WorkCounters()
        complete = self._fill(factors, costs, splits, choices, tmps, checker, work)

        return GMCSolution(
            factors=factors,
            expression=expression,
            metric=metric,
            catalog=self.catalog,
            costs=costs,
            splits=splits,
            choices=choices,
            tmps=tmps,
            complete=complete,
            cells_evaluated=work.cells_evaluated,
            cells_pruned=work.cells_pruned,
            diagonals=work.diagonals,
            memo_hits=work.memo_hits,
            memo_misses=work.memo_misses,
        )

    def _fill(self, factors, costs, splits, choices, tmps, checker, work) -> bool:
        """Fill the DP tables anti-diagonal by anti-diagonal (paper Fig. 4).

        Every cell of diagonal ``length`` reads only cells of shorter
        sub-chains, committed by earlier diagonals.  Returns the
        ``complete`` flag: the deadline (``options.deadline_s``) is polled
        at every cell boundary (strided clock reads, see
        :class:`DeadlineChecker`), and once it expires the remaining cells
        are abandoned and the best-so-far tables are returned.

        A traced solve runs this same loop with the decision and commit
        steps wrapped in timers: each anti-diagonal gets a ``diagonal`` span
        with the work-counter deltas and aggregate ``kernel_matching`` /
        ``inference`` child phases.
        """
        n = len(factors)
        metric = self.metric
        prune = self.prune
        # Memoize whole kernel decisions by split signature (sound under
        # the same conditions as the match cache; the factory returns None
        # otherwise, routing every split through the raw picker).
        memo = (
            make_decision_memo(self.catalog, metric, self._best_kernel)
            if self.use_match_cache
            else None
        )
        decide = memo.decide_pair if memo is not None else self._decide_pair
        commit = self._commit_cell
        tracer = self.tracer
        if tracer is not None:
            phase = {"match": 0.0, "infer": 0.0}
            decide = _timed(decide, phase, "match")
            commit = _timed(commit, phase, "infer")
            tracer.begin("dp_fill", n=n)
        complete = True
        for length in range(1, n):
            work.diagonals += 1
            if tracer is not None:
                cells0 = work.cells_evaluated
                pruned0 = work.cells_pruned
                phase["match"] = phase["infer"] = 0.0
                span = tracer.begin("diagonal", length=length, cells=n - length)
            for i in range(n - length):
                if checker.expired():
                    complete = False
                    break
                j = i + length
                best, pruned = _evaluate_splits(
                    costs, tmps, i, j, metric, prune, decide
                )
                work.cells_evaluated += 1
                work.cells_pruned += pruned
                if best is not None:
                    commit(factors, costs, splits, choices, tmps, i, j, *best)
            if tracer is not None:
                tracer.end(
                    cells_evaluated=work.cells_evaluated - cells0,
                    cells_pruned=work.cells_pruned - pruned0,
                )
                tracer.add_phase(span, "kernel_matching", span.start, phase["match"])
                tracer.add_phase(
                    span, "inference", span.start + phase["match"], phase["infer"]
                )
            if not complete:
                break
        if tracer is not None:
            tracer.end(complete=complete)
        if memo is not None:
            work.memo_hits += memo.hits
            work.memo_misses += memo.misses
        return complete

    def _commit_cell(
        self, factors, costs, splits, choices, tmps, i, j, best_cost, best_choice
    ) -> None:
        # Properties of M[i..j] do not depend on the split, so the
        # temporary (and its property inference) is created once per
        # *computable* cell -- the O(n^2 p) refinement of Section 3.4;
        # dead cells never pay inference.  The sub-chain is interned so
        # inference memoizes per canonical node across cells (and
        # repeated solves).
        sub_chain = intern(Times(*factors[i : j + 1]))
        costs[i][j] = best_cost
        splits[i][j] = best_choice.split
        choices[i][j] = best_choice
        tmps[i][j] = Temporary(
            rows=sub_chain.rows,
            columns=sub_chain.columns,
            properties=infer_properties(sub_chain),
            origin=sub_chain,
        )

    def _best_kernel(
        self, expr: Expression
    ) -> Optional[Tuple[Kernel, Substitution, object]]:
        """All kernels matching *expr*, reduced to the metric-minimal one.

        Ties are broken in favour of the kernel with more constraints (the
        more specialized routine) and then by identifier for determinism.
        """
        best: Optional[Tuple[Kernel, Substitution, object]] = None
        best_key: Optional[Tuple] = None
        for kernel, substitution in self.catalog.match(
            expr, use_cache=self.use_match_cache
        ):
            kernel_cost = self.metric.kernel_cost(kernel, substitution)
            key = (kernel_cost, -len(kernel.pattern.constraints), kernel.id)
            if best_key is None or key < best_key:
                best_key = key
                best = (kernel, substitution, kernel_cost)
        return best

    def _decide_pair(
        self, left: Expression, right: Expression
    ) -> Optional[Tuple[Kernel, Substitution, object, Expression]]:
        """The unmemoized decision for ``Times(left, right)`` (the shape of
        :meth:`KernelDecisionMemo.decide_pair
        <repro.core.decision_memo.KernelDecisionMemo.decide_pair>`)."""
        expr = Times(left, right)
        matched = self._best_kernel(expr)
        return None if matched is None else matched + (expr,)


def _evaluate_splits(costs, tmps, i, j, metric, prune, decide):
    """The best split of cell ``(i, j)``: ``((cost, choice), pruned)``.

    *best* is ``None`` when no split of the cell is computable; *pruned*
    counts the split candidates skipped by the lower bound.  A split over
    an uncomputable (infinite-cost) sub-chain is dead and never reaches
    kernel matching.

    The recorded choice is the lexicographic ``(cost, k)`` argmin -- the
    smallest ``k`` attaining the minimal cost -- whatever order the splits
    are visited in.  With *prune* on (and a metric that reports lower
    bounds) the splits are visited cheapest-lower-bound first; once the
    best cost is below the next bound, every remaining split provably costs
    more and all of them are dropped in one cut, and a split whose bound
    only ties the best cost at a larger ``k`` is skipped as well.  With
    *prune* off every split is decided, in ascending ``k``.  Costs are
    accumulated as ``combine(combine(left, right), kernel)`` in either
    order, so the two modes return bit-identical plans.
    """
    is_infinite = metric.is_infinite
    row = costs[i]
    live = []
    for k in range(i, j):
        left_cost = row[k]
        right_cost = costs[k + 1][j]
        if is_infinite(left_cost) or is_infinite(right_cost):
            continue
        live.append((k, left_cost, right_cost))
    if not live:
        return None, 0

    use_bounds = False
    if prune:
        lower_bound = metric.lower_bound
        bounded = [(lower_bound(lc, rc), k, lc, rc) for (k, lc, rc) in live]
        if all(entry[0] is not None for entry in bounded):
            use_bounds = True
            # Distinct k values break every (bound, k) tie, so plain tuple
            # order sorts by (bound, k) without a key function.
            live = sorted(bounded)

    combine = metric.combine
    left_row = tmps[i]
    best = None  # (kernel, substitution, expr, kernel_cost, left, right)
    best_cost = best_k = None
    pruned = 0
    for position, item in enumerate(live):
        if use_bounds:
            bound, k, left_cost, right_cost = item
            if best is not None:
                if best_cost < bound:
                    pruned += len(live) - position
                    break
                if not bound < best_cost and k > best_k:
                    pruned += 1
                    continue
        else:
            k, left_cost, right_cost = item
        left = left_row[k]
        right = tmps[k + 1][j]
        decision = decide(left, right)
        if decision is None:
            continue
        kernel, substitution, kernel_cost, expr = decision
        cost = combine(combine(left_cost, right_cost), kernel_cost)
        if is_infinite(cost):
            continue
        if best is not None and not (
            cost < best_cost or (not best_cost < cost and k < best_k)
        ):
            continue
        best = (kernel, substitution, expr, kernel_cost, left, right)
        best_cost, best_k = cost, k
    if best is None:
        return None, pruned
    kernel, substitution, expr, kernel_cost, left, right = best
    choice = _CellChoice(
        kernel=kernel,
        substitution=substitution,
        # Memo hits skip building the subject; only the winner needs it.
        expression=Times(left, right) if expr is None else expr,
        split=best_k,
        kernel_cost=kernel_cost,
    )
    return (best_cost, choice), pruned


def _timed(function, totals: Dict[str, float], key: str):
    """*function*, accumulating its wall time into ``totals[key]``."""
    clock = time.perf_counter

    def timed(*args):
        started = clock()
        try:
            return function(*args)
        finally:
            totals[key] += clock() - started

    return timed


def _coerce_chain(chain: ChainLike) -> Tuple[Tuple[Expression, ...], Expression]:
    """Normalize the user input into ``(factors, expression)``."""
    if isinstance(chain, Expression):
        factors = as_chain(chain)
    else:
        factors = tuple(chain)
        for factor in factors:
            if not isinstance(factor, Expression):
                raise TypeError(f"chain factor {factor!r} is not an Expression")
        factors = as_chain(Times(*factors)) if len(factors) > 1 else as_chain(factors[0])
    if not factors:
        raise ValueError("empty chain")
    for factor in factors:
        # ``as_chain`` has already validated the shape of every factor, but a
        # defensive decomposition surfaces unexpected nodes early.
        unary_decomposition(factor)
    expression = Times(*factors) if len(factors) > 1 else factors[0]
    return factors, expression
