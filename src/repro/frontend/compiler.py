"""A Linnea-style compiler front-end: textual problem in, kernel code out.

The paper positions the GMC algorithm as the chain-solving core of the
Linnea compiler: the user supplies operand definitions and assignments
(Figs. 1 and 2) and receives a sequence of kernel calls.  This module wires
the pieces of this repository into that end-to-end pipeline:

    source text --(repro.algebra.dsl)--> expressions
                --(repro.core)---------> kernel programs
                --(repro.codegen)------> registered emitters (Julia, NumPy)

The front door is a :class:`Compiler` **session**: it is configured by one
frozen :class:`~repro.options.CompileOptions` value and owns the catalog,
the plan cache and the cache telemetry, so repeated compilations share
every warm cache.  The same session class backs the command line
(``python -m repro.frontend``), the HTTP service (:mod:`repro.service`)
and the benchmark scripts, which is what guarantees identical kernel
sequences across all entry points.

:func:`compile_source` / :func:`compile_program` remain as conveniences
that run one compilation on a throwaway session configured by ``options=``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..algebra.dsl import Program as ParsedProgram
from ..algebra.dsl import parse_program
from ..algebra.expression import Expression, Matrix
from ..algebra.inference import inference_engine
from ..algebra.interning import default_interner
from ..codegen import available_emitters, get_emitter
from ..core.gmc import GMCAlgorithm, GMCSolution, UncomputableChainError
from ..core.segments import UncomputableSegmentError, decompose_program
from ..cost.metrics import CostMetric, resolve_metric
from ..exec.loader import ModuleLoader
from ..kernels.catalog import KernelCatalog
from ..kernels.kernel import KernelCall, Program
from ..obs.analytics import WorkloadAnalytics
from ..obs.trace import Tracer
from ..options import CompileOptions
from ..persist.plan_cache import PlanCache
from ..telemetry import Counters, combine


@dataclass
class CompiledAssignment:
    """The compilation result for one chain segment of the input program.

    User assignments map to segments one-to-one; the decomposition layer
    (:mod:`repro.core.segments`) may additionally create *synthetic*
    segments (``synthetic=True``, ``_sN`` targets) for non-chain subtrees
    and shared subexpressions.  ``expression`` is the canonical chain that
    was solved (references resolved to earlier segments' result operands);
    ``result_operand`` is the operand later segments -- and the stitched
    program -- use for this segment's value.
    """

    target: str
    expression: Expression
    solution: object  # GMCSolution or CachedPlanSolution
    program: Program
    synthetic: bool = False
    result_operand: Optional[Expression] = None

    @property
    def kernel_sequence(self) -> List[str]:
        return list(self.program.kernel_names)

    @property
    def flops(self) -> float:
        return self.program.total_flops

    def emit(self, target_language: str) -> str:
        """Source for this assignment in any registered emitter's language."""
        emitter = get_emitter(target_language)
        return emitter.emit(self.program, self.target)

    def julia(self) -> str:
        """Julia-flavoured source for this assignment (``emit("julia")``)."""
        return self.emit("julia")

    def numpy(self) -> str:
        """NumPy source for this assignment (``emit("numpy")``)."""
        return self.emit("numpy")

    def summary(self) -> str:
        marker = "  (synthetic segment)" if self.synthetic else ""
        return (
            f"{self.target} := {self.expression}{marker}\n"
            f"  parenthesization: {self.solution.parenthesization()}\n"
            f"  kernels:          {' -> '.join(self.kernel_sequence)}\n"
            f"  FLOPs:            {self.flops:.4g}\n"
            f"  generation time:  {getattr(self.solution, 'generation_time', 0.0) * 1e3:.2f} ms"
        )


@dataclass
class CompilationResult:
    """The compilation result for a whole program (several assignments).

    Assignments are kept both in submission order (iteration) and in an
    insertion-ordered target index (:meth:`assignment` is O(1)).  Mutate
    through :meth:`add`; appending to ``assignments`` directly (the legacy
    construction pattern) is also supported.  Other list mutations
    (replacing or removing entries in place) are not -- the index may keep
    serving the object it was built from.
    """

    operands: Dict[str, Matrix]
    assignments: List[CompiledAssignment] = field(default_factory=list)
    options: Optional[CompileOptions] = None
    #: The compilation's span tree (:class:`repro.obs.trace.Tracer`) when
    #: compiled with ``CompileOptions(trace=True)``; ``None`` otherwise.
    trace: Optional[Tracer] = None

    def __post_init__(self) -> None:
        self._index: Dict[str, CompiledAssignment] = {}
        self._indexed_count = 0
        self._reindex()

    def _reindex(self) -> None:
        """Fold not-yet-indexed assignments into the target index.

        ``setdefault`` keeps the pre-index semantics of the linear scan:
        for duplicate targets the *first* assignment wins.  The cursor makes
        indexing incremental, so external appends to ``assignments`` (the
        legacy construction pattern) cost O(new entries), not a rebuild.
        """
        if self._indexed_count > len(self.assignments):  # list was mutated
            self._index = {}
            self._indexed_count = 0
        for compiled in self.assignments[self._indexed_count:]:
            self._index.setdefault(compiled.target, compiled)
        self._indexed_count = len(self.assignments)

    def __iter__(self):
        return iter(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    def add(self, compiled: CompiledAssignment) -> None:
        """Record one compiled assignment (keeps the target index in sync)."""
        self.assignments.append(compiled)
        self._reindex()

    def assignment(self, target: str) -> CompiledAssignment:
        """The compiled assignment for *target* (O(1) dict lookup).

        Appending to ``assignments`` is the supported external mutation; a
        lookup miss additionally forces one full re-index, so a target that
        is present in the list is always found (even after pop-then-append
        mutations).  In-place *replacement* under an already-indexed target
        is unsupported (see the class docstring).
        """
        if self._indexed_count != len(self.assignments):
            self._reindex()
        if target not in self._index:
            self._index = {}
            self._indexed_count = 0
            self._reindex()
        try:
            return self._index[target]
        except KeyError:
            available = ", ".join(repr(name) for name in self._index) or "<none>"
            raise KeyError(
                f"no assignment {target!r}; available targets: {available}"
            ) from None

    @property
    def total_flops(self) -> float:
        return sum(compiled.flops for compiled in self.assignments)

    @property
    def targets(self) -> List[str]:
        """User assignment targets, in program order (synthetic excluded)."""
        return [c.target for c in self.assignments if not c.synthetic]

    def stitched_program(self) -> Program:
        """One topologically-ordered kernel program for the whole DAG.

        Per-segment kernel calls are concatenated in segment order (segments
        come out of the decomposition dependency-ordered, so every call's
        inputs are operands or outputs of earlier calls) and each
        multi-kernel segment's final call is renamed to write the segment's
        result operand -- the named temporary later segments reference.  The
        program's output is the last user assignment's result.
        """
        calls: List[KernelCall] = []
        output: Optional[Expression] = None
        expression: Optional[Expression] = None
        for compiled in self.assignments:
            seg_calls = list(compiled.program.calls)
            if seg_calls and isinstance(compiled.result_operand, Matrix):
                seg_calls[-1] = dataclasses.replace(
                    seg_calls[-1], output=compiled.result_operand
                )
            calls.extend(seg_calls)
            if not compiled.synthetic:
                expression = compiled.expression
                if seg_calls:
                    output = seg_calls[-1].output
                else:
                    # Trivial (alias) segment: its value is an existing
                    # operand or an earlier segment's result.
                    output = (
                        compiled.result_operand
                        if compiled.result_operand is not None
                        else compiled.program.output
                    )
        return Program(
            calls=calls,
            output=output,
            expression=expression,
            strategy="GMC[stitched]",
        )

    def emit(self, target_language: str) -> str:
        """Source for the whole program via any registered emitter.

        Each segment (user assignments and synthetic CSE/extraction
        segments alike) becomes its own function; synthetic results appear
        as input parameters of the functions that consume them.  Use
        :meth:`emit_stitched` for one self-contained function computing the
        whole DAG.  Emitters registered with ``stitched=True`` (the
        ``module`` emitter of :mod:`repro.exec`) always render the stitched
        whole-DAG program -- one importable artifact, not one per segment.
        """
        if get_emitter(target_language).stitched:
            return self.emit_stitched(target_language)
        return "\n\n".join(
            compiled.emit(target_language) for compiled in self.assignments
        )

    def emit_stitched(
        self, target_language: str, function_name: Optional[str] = None
    ) -> str:
        """Source for the whole DAG as ONE function (the stitched program).

        The function takes the declared operands that actually appear in
        kernel calls and computes every segment in dependency order; it is
        named after the last user assignment target unless *function_name*
        overrides it.
        """
        emitter = get_emitter(target_language)
        if function_name is None:
            targets = self.targets
            function_name = targets[-1] if targets else "program"
        return emitter.emit(self.stitched_program(), function_name)

    def julia(self) -> str:
        """Julia-flavoured source for the whole program (``emit("julia")``)."""
        return self.emit("julia")

    def numpy(self) -> str:
        """NumPy source for the whole program (``emit("numpy")``)."""
        return self.emit("numpy")

    def explain(self) -> str:
        """A plan-provenance report: per segment, where the plan came from
        (plan-cache hit / trivial alias / cold DP), its kernels and its DP
        work -- with traced phase timings folded in when available."""
        from ..obs.explain import explain_result

        return explain_result(self)

    def report(self) -> str:
        lines = ["compiled program:"]
        for name, operand in self.operands.items():
            properties = ", ".join(sorted(p.name for p in operand.properties)) or "-"
            lines.append(f"  operand {name}: {operand.rows} x {operand.columns}  <{properties}>")
        lines.append("")
        for compiled in self.assignments:
            lines.append(compiled.summary())
            lines.append("")
        lines.append(f"total cost: {self.total_flops:.4g} FLOPs")
        return "\n".join(lines)


#: Inputs :meth:`Compiler.compile` accepts.
CompileInput = Union[str, ParsedProgram, Expression]


class Compiler:
    """A compilation session: one options value, warm caches, telemetry.

    The session owns the kernel catalog, the whole-plan cache, the
    execution tier's module loader, the solver/segment/execution counters
    and the workload analytics -- exactly the state a warm service worker
    keeps between requests.  Every compilation through it also shares the
    process-wide value caches: the interner, the inference memo and the
    catalog's match cache.  :meth:`cache_stats` reports all of them as the
    registry of telemetry layers :mod:`repro.telemetry` describes.  The
    session resolves each metric name to one
    :class:`~repro.cost.metrics.CostMetric` instance (:meth:`metric_for`);
    a metric is a stateless pricing function, so it holds no cache.

    Per-call options may override the session options (same catalog, fresh
    pipeline flags), which is how the service serves requests with differing
    metric/prune settings from one warm session.

    Example
    -------
    >>> compiler = Compiler(CompileOptions(metric="time"))
    >>> result = compiler.compile('''
    ... Matrix A (100, 100) <SPD>
    ... Matrix B (100, 40) <>
    ... X := A^-1 * B
    ... ''')
    >>> result.assignment("X").kernel_sequence
    ['POSV']
    """

    def __init__(self, options: Optional[CompileOptions] = None, **overrides) -> None:
        base = options if options is not None else CompileOptions()
        if overrides:
            base = base.replace(**overrides)
        self.options: CompileOptions = base
        self.catalog: KernelCatalog = base.resolve_catalog()
        #: Metric instances keyed by metric name (:meth:`metric_for`).
        self._metrics: Dict[str, CostMetric] = {}
        #: Whole-plan cache consulted before dispatching to a solver
        #: (:mod:`repro.persist`); bound to the session's catalog.
        self.plan_cache: PlanCache = PlanCache(self.catalog)
        #: Emitted-module cache of the execution tier (:mod:`repro.exec`).
        self.loader = ModuleLoader()
        #: Served-request counters and compile-phase latency sketches,
        #: recorded by :func:`repro.service.api.execute_request`.
        self.analytics = WorkloadAnalytics()
        self.solver_work = Counters(
            "solver",
            ("solves", "cells_evaluated", "cells_pruned", "diagonals", "hits", "misses"),
        )
        self.segment_work = Counters(
            "segments",
            ("programs", "segments", "synthetic", "cse_reuses", "hits", "misses"),
        )
        #: Runs recorded by :func:`repro.exec.api.run_execute_request`,
        #: reported together with the loader's module-cache counters.
        self.execution = Counters(
            "execution", ("runs", "run_errors", "validation_failures")
        )
        #: The telemetry layers, in ``/stats`` order: ``(stats, reset)``.
        self._layers = {
            "plan_cache": (self.plan_cache.stats, self.plan_cache.reset_stats),
            "match_cache": (
                self.catalog.match_cache.stats,
                self.catalog.match_cache.reset_stats,
            ),
            "interner": (default_interner().stats, default_interner().reset_stats),
            "inference": (inference_engine().stats, inference_engine().reset_stats),
            "kernel_cost": (_retired_kernel_cost_stats, lambda: None),
            "solver": (self.solver_work.stats, self.solver_work.reset_stats),
            "segments": (self.segment_work.stats, self.segment_work.reset_stats),
            "execution": (self._execution_stats, self._reset_execution),
            "analytics": (self.analytics.state, self.analytics.reset),
        }

    # ----------------------------------------------------------- resolution
    def _effective_options(
        self, options: Optional[CompileOptions], overrides: dict
    ) -> CompileOptions:
        """Merge per-call options into the session configuration.

        A session is a warm-cache scope bound to one catalog, so a per-call
        request for a *different* catalog is an error (silently swapping
        catalogs would cross cache domains and give wrong-catalog answers);
        build a new :class:`Compiler` for a different catalog.  A metric
        name is swapped for the session's instance (:meth:`metric_for`).
        """
        effective = options if options is not None else self.options
        if overrides:
            effective = effective.replace(**overrides)
        if effective.catalog is not None and effective.catalog is not self.catalog:
            raise ValueError(
                "this Compiler session is bound to catalog "
                f"{self.catalog!r}; build a new Compiler(CompileOptions("
                "catalog=...)) to compile against a different catalog"
            )
        return effective.replace(
            catalog=self.catalog, metric=self.metric_for(effective)
        )

    def metric_for(self, options: Optional[CompileOptions] = None) -> CostMetric:
        """The session's metric instance for *options* (default: its own).

        A metric name resolves once per session to one instance, which
        every later call with that name shares; a live metric instance in
        *options* is caller-owned and returned as it is.
        """
        options = options if options is not None else self.options
        if isinstance(options.metric, CostMetric):
            return options.metric
        metric = self._metrics.get(options.metric)
        if metric is None:
            metric = self._metrics[options.metric] = resolve_metric(options.metric)
        return metric

    def solver(
        self, options: Optional[CompileOptions] = None, **overrides
    ) -> GMCAlgorithm:
        """A GMC solver bound to the session's catalog and live metric
        instance; the session's ``solver`` layer counts each of its solves."""
        return _SessionSolver(self._effective_options(options, overrides), self)

    # ------------------------------------------------------------------ API
    def compile(
        self,
        problem: CompileInput,
        options: Optional[CompileOptions] = None,
        **overrides,
    ) -> CompilationResult:
        """Compile DSL text, a parsed program or a bare expression.

        Strings are parsed with the Fig. 1/2 grammar; expressions become a
        single anonymous assignment (target ``X``).  Returns a
        :class:`CompilationResult` carrying the effective options.

        The program is first normalized into ordered chain segments
        (:func:`repro.core.segments.decompose_program`): later assignments
        may reference earlier targets, non-chain subtrees (inverses or
        transposes around products that cannot be pushed to the leaves)
        become synthetic segments, and shared subexpressions are solved
        once.  Each segment is solved independently.

        When ``options.plan_cache`` is on (the default), each segment first
        consults the session's :class:`~repro.persist.PlanCache`: a
        signature-equal chain solved before under the same options
        fingerprint skips the dynamic program entirely and re-binds the
        cached plan to this request's operands.  Fresh solves (complete,
        computable ones) are stored back.  Because caching is per segment,
        structurally-sibling DAGs (e.g. Jacobian blocks of one model)
        amortize: every segment they share a signature with is a hit.
        """
        requested = options if options is not None else self.options
        if overrides:
            requested = requested.replace(**overrides)
        effective = self._effective_options(requested, {})
        # Tracing is opt-in per compilation; the untraced path only ever
        # tests ``tracer is not None`` at phase boundaries.
        tracer = Tracer() if effective.trace else None
        if tracer is not None:
            tracer.begin("compile", metric=effective.metric_name)
            tracer.begin("parse")
        program = self._coerce_program(problem)
        if tracer is not None:
            tracer.end(
                operands=len(program.operands),
                assignments=len(program.assignments),
            )
            tracer.begin("decompose")
        plan = decompose_program(program)
        self.segment_work.add(
            programs=1,
            segments=len(plan.segments),
            synthetic=plan.synthetic_count,
            cse_reuses=plan.cse_reuses,
        )
        if tracer is not None:
            tracer.end(
                segments=len(plan.segments),
                synthetic=plan.synthetic_count,
                cse_reuses=plan.cse_reuses,
            )
        result = CompilationResult(
            operands=dict(program.operands), options=effective
        )
        use_plan_cache = requested.plan_cache
        match_cache = self.catalog.match_cache
        solver = None  # built on the first plan-cache miss
        for seg in plan:
            expression = seg.expression
            solution = None
            if tracer is not None:
                tracer.begin(
                    "segment",
                    target=seg.target,
                    source=str(seg.source),
                    synthetic=seg.synthetic,
                    trivial=seg.trivial,
                )
                match_hits0 = match_cache.hits
                match_misses0 = match_cache.misses
            if use_plan_cache:
                started = time.perf_counter()
                if tracer is not None:
                    tracer.begin("plan_cache_lookup")
                solution = self.plan_cache.lookup(
                    expression, requested, metric=effective.metric
                )
                if solution is not None:
                    # Materialize the rebinding (temporaries, inference,
                    # kernel costs) inside the timing window, so the
                    # reported generation time is the cached solve's real
                    # cost, not just the dict lookup.
                    solution.kernel_calls()
                    solution.generation_time = time.perf_counter() - started
                if tracer is not None:
                    tracer.end(hit=solution is not None)
                if not seg.trivial:
                    # Trivial (single-factor) segments register a cache
                    # bypass above but are not segment traffic: nothing is
                    # solved, so they would dilute the segment hit rate.
                    if solution is None:
                        self.segment_work.add(misses=1)
                    else:
                        self.segment_work.add(hits=1)
            if solution is None:
                if solver is None:
                    solver = _SessionSolver(effective, self)
                    if tracer is not None:
                        # The solver's ``tracer`` handle defaults to None;
                        # sharing this tracer nests its per-solve spans
                        # under the current segment span.
                        solver.tracer = tracer
                solution = solver.solve(expression)
                if use_plan_cache:
                    self.plan_cache.store(expression, requested, solution)
            try:
                kernel_program = solution.program(
                    strategy_name=f"GMC[{seg.target}]"
                )
            except UncomputableSegmentError:
                raise
            except UncomputableChainError as exc:
                raise UncomputableSegmentError(
                    f"segment {seg.target!r} ({seg.source}): {exc}",
                    segment=seg.target,
                    signature=getattr(exc, "signature", None)
                    or expression.signature(),
                ) from exc
            result.add(
                CompiledAssignment(
                    target=seg.target,
                    expression=expression,
                    solution=solution,
                    program=kernel_program,
                    synthetic=seg.synthetic,
                    result_operand=seg.result,
                )
            )
            if tracer is not None:
                # Cache-hit provenance for this segment: whole-plan hit vs
                # trivial alias vs cold DP, with the match-cache and
                # decision-memo hit deltas the solve generated.
                if getattr(solution, "from_plan_cache", False):
                    provenance = "plan_cache"
                elif seg.trivial:
                    provenance = "trivial"
                else:
                    provenance = "cold_dp"
                tracer.end(
                    provenance=provenance,
                    match_cache_hits=match_cache.hits - match_hits0,
                    match_cache_misses=match_cache.misses - match_misses0,
                    decision_memo_hits=getattr(solution, "memo_hits", 0),
                    flops=kernel_program.total_flops,
                )
        if tracer is not None:
            tracer.end(
                segments=len(result.assignments), total_flops=result.total_flops
            )
            tracer.finish()
            result.trace = tracer
        return result

    def solve(
        self,
        chain,
        options: Optional[CompileOptions] = None,
        **overrides,
    ):
        """Solve one chain through the session (returns the solution object)."""
        return self.solver(options, **overrides).solve(chain)

    @staticmethod
    def _coerce_program(problem: CompileInput) -> ParsedProgram:
        if isinstance(problem, ParsedProgram):
            return problem
        if isinstance(problem, str):
            return parse_program(problem)
        if isinstance(problem, Expression):
            operands = {}
            for leaf in problem.leaves():
                if isinstance(leaf, Matrix):
                    operands.setdefault(leaf.name, leaf)
            return ParsedProgram(operands=operands, assignments=[("X", problem)])
        raise TypeError(
            f"cannot compile {problem!r}; expected DSL text, a parsed Program "
            f"or an Expression"
        )

    # ------------------------------------------------------------ telemetry
    def cache_stats(self) -> Dict[str, dict]:
        """The counters of every telemetry layer the session registers,
        keyed by layer name (the ``caches`` object of ``GET /stats``)."""
        return {layer: stats() for layer, (stats, _) in self._layers.items()}

    def reset_cache_stats(self) -> None:
        """Zero every layer's counters (cache entries stay warm)."""
        for _, reset in self._layers.values():
            reset()

    def _execution_stats(self) -> dict:
        """The module loader's cache counters with the session's runs."""
        return combine([self.loader.stats(), self.execution.stats()], "execution")

    def _reset_execution(self) -> None:
        self.loader.reset_stats()
        self.execution.reset_stats()


def _retired_kernel_cost_stats() -> dict:
    """Zero counters under the ``kernel_cost`` layer name.

    A metric memoizes no kernel cost, so nothing feeds this layer.  The
    entry stays in ``/stats`` only because perfbench's per-layer metrics
    (``perfbench/run.py:http_layers``) index ``caches["kernel_cost"]``;
    drop it together with that read.
    """
    return {
        "layer": "kernel_cost",
        "size": 0,
        "hits": 0,
        "misses": 0,
        "hit_rate": 0.0,
        "evictions": 0,
    }


class _SessionSolver(GMCAlgorithm):
    """A GMC solver that adds the work counters of each solution it returns
    to its session's ``solver`` layer."""

    def __init__(self, options: CompileOptions, session: Compiler) -> None:
        super().__init__(options)
        self._session_work = session.solver_work

    def solve(self, chain) -> GMCSolution:
        solution = super().solve(chain)
        self._session_work.add(
            solves=1,
            cells_evaluated=solution.cells_evaluated,
            cells_pruned=solution.cells_pruned,
            diagonals=solution.diagonals,
            hits=solution.memo_hits,
            misses=solution.memo_misses,
        )
        return solution


# ---------------------------------------------------------------------------
# Convenience functions (one-shot sessions).
# ---------------------------------------------------------------------------

def compile_program(
    program: ParsedProgram, *, options: Optional[CompileOptions] = None
) -> CompilationResult:
    """Compile an already-parsed DSL program on a one-shot session."""
    return Compiler(options).compile(program)


def compile_source(
    source: str, *, options: Optional[CompileOptions] = None
) -> CompilationResult:
    """Compile a textual problem description (Figs. 1/2 grammar) end to end.

    >>> result = compile_source('''
    ... Matrix A (100, 100) <SPD>
    ... Matrix B (100, 40) <>
    ... X := A^-1 * B
    ... ''')
    >>> result.assignment("X").kernel_sequence
    ['POSV']
    """
    return Compiler(options).compile(source)


# ---------------------------------------------------------------------------
# Command line.
# ---------------------------------------------------------------------------

def build_options(args: argparse.Namespace) -> CompileOptions:
    """The one place CLI flags become a :class:`CompileOptions` value."""
    return CompileOptions(
        metric=args.metric,
        prune=not args.no_prune,
        match_cache=not args.no_match_cache,
        trace=getattr(args, "trace", None) is not None,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point: ``python -m repro.frontend problem.chain``."""
    parser = argparse.ArgumentParser(
        prog="repro.frontend",
        description="Compile generalized matrix chain problems to kernel code",
    )
    parser.add_argument(
        "source",
        nargs="?",
        help="path to the problem description (reads stdin when omitted)",
    )
    parser.add_argument(
        "--metric",
        default="flops",
        choices=["flops", "time", "memory", "accuracy", "kernels"],
        help="cost metric to minimize (default: flops)",
    )
    parser.add_argument(
        "--no-prune",
        action="store_true",
        help="disable DP split pruning (exhaustive ascending-k reference loop)",
    )
    parser.add_argument(
        "--no-match-cache",
        action="store_true",
        help="bypass the signature-keyed kernel-match cache",
    )
    parser.add_argument(
        "--emit",
        default="report",
        choices=["report", *available_emitters()],
        help="what to print: a human-readable report or generated code",
    )
    parser.add_argument(
        "--execute",
        action="store_true",
        help=(
            "after compiling, run the program through the execution tier: "
            "emit the plan as a standalone module, import it, execute it "
            "on seeded property-respecting random operands and validate "
            "the result against the reference evaluation"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random-operand seed for --execute (default: 0)",
    )
    parser.add_argument(
        "--rtol",
        type=float,
        default=1e-6,
        help="relative validation tolerance for --execute (default: 1e-6)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help=(
            "record a span tree for the compilation and write it to PATH "
            "(see --trace-format); also appends the provenance report "
            "(explain) to the printed output"
        ),
    )
    parser.add_argument(
        "--trace-format",
        default="json",
        choices=["json", "chrome"],
        help=(
            "trace export format: 'json' (raw span tree) or 'chrome' "
            "(Chrome trace-event JSON, loadable in Perfetto / "
            "chrome://tracing); default: json"
        ),
    )
    serve_group = parser.add_argument_group(
        "service mode", "run as a long-lived HTTP compilation service"
    )
    serve_group.add_argument(
        "--serve",
        action="store_true",
        help="start the HTTP compilation service instead of compiling once",
    )
    serve_group.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_group.add_argument(
        "--port",
        type=int,
        default=8077,
        help="bind port; 0 picks an ephemeral port (default: 8077)",
    )
    serve_group.add_argument(
        "--workers",
        type=int,
        default=None,
        help="warm-cache worker processes (default: min(4, cpu count))",
    )
    serve_group.add_argument(
        "--in-process",
        action="store_true",
        help="serve synchronously in this process (no worker processes)",
    )
    serve_group.add_argument(
        "--snapshot-dir",
        default=None,
        help=(
            "directory for plan-/match-cache snapshots: workers load it at "
            "boot (warm start) and persist on shutdown or POST /snapshot"
        ),
    )
    serve_group.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help=(
            "service log verbosity: one structured JSON line per event on "
            "stderr (access log, worker restarts, saturation rejections, "
            "snapshot loads/saves); default: info"
        ),
    )
    args = parser.parse_args(argv)
    if args.snapshot_dir and not args.serve:
        parser.error("--snapshot-dir requires --serve")
    if args.serve:
        # Pipeline flags configure ONE compilation; service requests each
        # carry their own complete CompileOptions on the wire, so server-wide
        # pipeline flags would be silently overridden by every request.
        # Reject them loudly rather than pretend they apply.
        ignored = []
        if args.metric != "flops":
            ignored.append("--metric")
        if args.no_prune:
            ignored.append("--no-prune")
        if args.no_match_cache:
            ignored.append("--no-match-cache")
        if args.emit != "report":
            ignored.append("--emit")
        if args.trace is not None:
            ignored.append("--trace")
        if args.execute:
            ignored.append("--execute")
        if ignored:
            parser.error(
                f"{', '.join(ignored)} cannot be combined with --serve: "
                f"service requests carry their own options "
                f"(the 'options' object of POST /compile)"
            )
        from ..obs.logging import configure_logging
        from ..runtime.blas_threads import limit_blas_threads
        from ..service.http import run_server
        from ..service.pool import create_executor

        configure_logging(args.log_level)
        # An in-process server runs the generated code in this process.  A
        # pool's dispatcher runs no BLAS, but limiting it before the fork
        # lets the workers inherit one thread per library instead of
        # rebuilding OpenBLAS's thread pools at boot.
        limit_blas_threads()
        executor = create_executor(
            workers=args.workers,
            in_process=args.in_process,
            snapshot_dir=args.snapshot_dir,
        )
        return run_server(executor, host=args.host, port=args.port)
    if args.source:
        with open(args.source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    compiler = Compiler(build_options(args))
    result = compiler.compile(text)
    if args.emit == "report":
        print(result.report())
    else:
        print(result.emit(args.emit))
    if args.trace is not None:
        result.trace.write(args.trace, fmt=args.trace_format)
        print(result.explain())
        print(f"trace written to {args.trace} ({args.trace_format})")
    if args.execute:
        # Same warm session: the plan cache answers the recompile inside
        # the execution path, so --execute costs one run, not two solves.
        # The run is timed at one BLAS thread per library, as a service
        # worker runs it.
        from ..exec.api import ExecuteRequest, run_execute_request
        from ..runtime.blas_threads import single_blas_thread
        from ..service.api import CompileRequest

        with single_blas_thread():
            response = run_execute_request(
                ExecuteRequest(
                    compile=CompileRequest(source=text, options=build_options(args)),
                    seed=args.seed,
                    rtol=args.rtol,
                ),
                compiler=compiler,
            )
        print(_execution_report(response))
        if not response.ok:
            return 1
    return 0


def _execution_report(response) -> str:
    """The human-readable ``--execute`` section appended to CLI output."""
    lines = ["", "execution:"]
    if not response.ok:
        lines.append(f"  FAILED in phase {response.phase!r}: {response.error}")
        return "\n".join(lines)
    cache = "  [module cache hit]" if response.module_cache_hit else ""
    lines.append(f"  engine: {response.engine}{cache}")
    for summary in response.results:
        lines.append(
            f"  result {summary['target']}: "
            f"{summary['rows']} x {summary['columns']}"
            f"  |fro| = {summary['fro_norm']:.6g}"
        )
    if response.validated is not None:
        lines.append(
            f"  validated against reference: max relative error "
            f"{response.max_rel_error:.3g}"
        )
    timing = response.timing or {}
    phases = ", ".join(
        f"{key[:-2]} {timing[key] * 1e3:.2f} ms"
        for key in ("compile_s", "emit_s", "import_s", "run_s", "validate_s")
        if key in timing
    )
    if phases:
        lines.append(f"  timing: {phases}")
    return "\n".join(lines)
