"""Plan provenance: why each segment's kernel sequence was chosen.

:func:`explain_result` renders a human-readable provenance report for a
:class:`~repro.frontend.compiler.CompilationResult` -- per segment: where
the plan came from (plan-cache hit, trivial alias, or a cold dynamic
program), what it cost, which kernels it picked and how much DP work the
solve did.  When the compilation was traced (``CompileOptions(trace=True)``)
the per-phase timings from the span tree are folded in.

The provenance classification reads the same markers the pipeline already
carries: :class:`~repro.persist.plan_cache.CachedPlanSolution` instances
advertise ``from_plan_cache = True``, trivial alias segments have no kernel
calls, and everything else was a cold solve.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = ["explain_execution", "explain_result", "provenance_of"]


def provenance_of(compiled) -> str:
    """One-word provenance for a compiled assignment.

    ``"plan_cache"`` -- the whole plan was a cache hit (the DP never ran);
    ``"trivial"`` -- an alias segment (no kernels to choose);
    ``"cold_dp"`` -- a fresh dynamic-program solve.
    """
    if getattr(compiled.solution, "from_plan_cache", False):
        return "plan_cache"
    if not compiled.program.calls:
        return "trivial"
    return "cold_dp"


def _segment_span(trace, target: str):
    """The traced segment span for *target*, if the result carries a trace."""
    if trace is None:
        return None
    for span in trace.find("segment"):
        if span.attrs.get("target") == target:
            return span
    return None


def explain_result(result) -> str:
    """The provenance report for one compilation (see module docstring)."""
    lines: List[str] = ["plan provenance:"]
    for compiled in result.assignments:
        provenance = provenance_of(compiled)
        solution = compiled.solution
        marker = "  (synthetic)" if compiled.synthetic else ""
        lines.append(f"  {compiled.target} := {compiled.expression}{marker}")
        lines.append(f"    provenance:      {_DESCRIPTIONS[provenance]}")
        lines.append(f"    plan cache:      {_PLAN_CACHE_LINES[provenance]}")
        kernels = " -> ".join(compiled.kernel_sequence) or "<none: alias segment>"
        lines.append(f"    kernels:         {kernels}")
        lines.append(f"    FLOPs:           {compiled.flops:.4g}")
        generation = getattr(solution, "generation_time", 0.0)
        lines.append(f"    generation time: {generation * 1e3:.3f} ms")
        if provenance == "cold_dp":
            cells = getattr(solution, "cells_evaluated", None)
            if cells is not None:
                lines.append(
                    f"    DP work:         {cells} cells evaluated, "
                    f"{getattr(solution, 'cells_pruned', 0)} splits pruned, "
                    f"{getattr(solution, 'diagonals', 0)} diagonals"
                )
            if not getattr(solution, "complete", True):
                lines.append("    NOTE:            deadline expired (best-so-far plan)")
        span = _segment_span(getattr(result, "trace", None), compiled.target)
        if span is not None:
            detail = _span_detail(span)
            if detail:
                lines.append(f"    traced phases:   {detail}")
    trace = getattr(result, "trace", None)
    if trace is not None:
        roots = trace.roots
        if roots:
            total = roots[0].duration
            lines.append(f"  total traced time: {total * 1e3:.3f} ms")
    return "\n".join(lines)


def _span_detail(span) -> Optional[str]:
    parts: List[str] = []
    for child in span.children:
        parts.append(f"{child.name} {child.duration * 1e3:.3f} ms")
    hits = {
        key: span.attrs[key]
        for key in ("match_cache_hits", "decision_memo_hits")
        if span.attrs.get(key)
    }
    for key, value in hits.items():
        parts.append(f"{key}={value}")
    return ", ".join(parts) if parts else None


_DESCRIPTIONS = {
    "plan_cache": "plan-cache hit (DP skipped, plan re-bound)",
    "trivial": "trivial alias segment (nothing to solve)",
    "cold_dp": "cold dynamic-program solve",
}

#: Explicit per-segment plan-cache outcome: hit/miss provenance at a
#: glance, before the detail lines.
_PLAN_CACHE_LINES = {
    "plan_cache": "hit",
    "trivial": "bypassed (alias segment, nothing to cache)",
    "cold_dp": "miss (cold solve; plan stored for the next request)",
}

#: Display order and labels of the execution-tier phases.
_EXECUTION_PHASES = (
    ("compile_s", "compile"),
    ("emit_s", "emit"),
    ("import_s", "import"),
    ("run_s", "run"),
    ("validate_s", "validate"),
    ("total_s", "total"),
)


def explain_execution(response) -> str:
    """Per-phase provenance for one execution-tier response.

    The ``/execute`` counterpart of :func:`explain_result`: renders the
    compile/emit/import/run/validate timings an
    :class:`~repro.exec.api.ExecuteResponse` carries, plus the module-cache
    outcome and the validation verdict (also via
    :meth:`ExecuteResponse.explain`).
    """
    lines: List[str] = ["execution phases:"]
    timing = getattr(response, "timing", None) or {}
    for key, label in _EXECUTION_PHASES:
        if key in timing:
            lines.append(f"  {label + ':':<10} {timing[key] * 1e3:.3f} ms")
    cache = "hit (emit + import skipped)" if response.module_cache_hit else "miss"
    lines.append(f"  module cache:    {cache}")
    lines.append(f"  engine:          {response.engine}")
    if response.validated is not None:
        verdict = "agrees with reference" if response.validated else "DIVERGED"
        error = response.max_rel_error
        detail = f" (max relative error {error:.3g})" if error is not None else ""
        lines.append(f"  validation:      {verdict}{detail}")
    if not response.ok:
        lines.append(f"  FAILED in phase {response.phase!r}: {response.error}")
    return "\n".join(lines)
