"""Traced in-process replay of a workload's exact request stream.

The replay calls each layer's public function in the order
``execute_request`` / ``Compiler.compile`` (``/compile``) and
``run_execute_request`` (``/execute``) call them, with one span per call
(name, start, end, parent, request id).  Spans stay in memory and are
written when the replay ends.  The same replay with spans off gives the
tracing overhead, and both replays must produce the kernel sequences the
HTTP run served.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench.golden import plan_entry
from perfbench.measure import Span, self_time_by_name, unaccounted
from perfbench.workloads import Request

#: Span names, i.e. the layers the replay reports (``<name>_ms`` each).
LAYER_SPANS = (
    "api.decode",
    "pool.affinity_key",
    "dsl.parse",
    "segments.decompose",
    "plan_cache.hit",
    "plan_cache.miss",
    "gmc.solve",
    "plan_cache.store",
    "gmc.program",
    "codegen.emit",
    "obs.record",
    "exec.operands",
    "exec.lookup",
    "exec.emit",
    "exec.import",
    "exec.run",
    "exec.validate",
    "api.encode",
)


class Tracer:
    """Span recorder; with ``enabled=False`` each call goes straight
    through, which is the untraced baseline."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.request_id: Optional[int] = None
        self._stack: List[int] = []
        self._closed: Optional[Span] = None

    def call(self, name: str, function: Callable, *args, **kwargs):
        if not self.enabled:
            return function(*args, **kwargs)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self._closed = span

    def rename_closed(self, name: str) -> None:
        """Rename the span that just ended (for outcomes known only after
        the call, such as a cache hit)."""
        if self.enabled:
            self._closed.name = name

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.__dict__ for span in self.spans], handle)


def _decode_compile(body: bytes):
    from repro.service.api import CompileRequest

    return CompileRequest.from_dict(json.loads(body))


def _decode_execute(body: bytes):
    from repro.exec.api import ExecuteRequest

    return ExecuteRequest.from_dict(json.loads(body))


def _encode(response) -> bytes:
    return json.dumps(response.to_dict()).encode("utf-8")


def _plan_lookup(plan_cache, expression, options, metric):
    solution = plan_cache.lookup(expression, options, metric=metric)
    if solution is not None:
        solution.kernel_calls()  # the rebinding a hit pays
    return solution


def _compile_segments(program, options, session, tracer: Tracer) -> list:
    """``Compiler.compile`` after the parse, one span per layer call."""
    from repro.core.segments import decompose_program
    from repro.frontend.compiler import CompiledAssignment

    plan = tracer.call("segments.decompose", decompose_program, program)
    metric = session.metric_for(options)
    solver = None
    compiled = []
    for segment in plan:
        solution = tracer.call(
            "plan_cache.lookup", _plan_lookup, session.plan_cache, segment.expression, options, metric
        )
        tracer.rename_closed("plan_cache.miss" if solution is None else "plan_cache.hit")
        if solution is None:
            if solver is None:
                solver = session.solver(options)
            solution = tracer.call("gmc.solve", solver.solve, segment.expression)
            tracer.call("plan_cache.store", session.plan_cache.store, segment.expression, options, solution)
        program_ = tracer.call("gmc.program", solution.program, f"GMC[{segment.target}]")
        compiled.append(
            CompiledAssignment(
                target=segment.target,
                expression=segment.expression,
                solution=solution,
                program=program_,
                synthetic=segment.synthetic,
                result_operand=segment.result,
            )
        )
    return compiled


def _record(program, compiled, parse_s: float, solve_s: float, total_s: float) -> None:
    """What ``execute_request`` records per request when analytics is on."""
    from repro.algebra.expression import signature_repr
    from repro.obs.analytics import analytics_enabled, workload_analytics

    if not analytics_enabled():
        return
    signature = signature_repr(tuple(expr.signature() for _, expr in program.assignments))
    plan_hit = bool(compiled) and all(
        getattr(entry.solution, "from_plan_cache", False) or not entry.program.calls
        for entry in compiled
    )
    analytics = workload_analytics()
    analytics.record_request(signature, plan_hit=plan_hit, latency_s=total_s)
    analytics.observe_latencies(
        "compile_phase_latency_seconds", "phase", (("parse", parse_s), ("solve", solve_s))
    )


def replay_compile(request: Request, session, tracer: Tracer) -> list:
    from repro.algebra.dsl import parse_program
    from repro.codegen import get_emitter
    from repro.service.api import AssignmentResult, CompileResponse, affinity_key

    compile_request = tracer.call("api.decode", _decode_compile, request.body)
    tracer.call("pool.affinity_key", affinity_key, compile_request)
    started = time.perf_counter()
    options = compile_request.options
    program = tracer.call("dsl.parse", parse_program, compile_request.to_source())
    parsed = time.perf_counter()
    compiled = _compile_segments(program, options, session, tracer)
    results = []
    for entry in compiled:
        code = {
            language: tracer.call("codegen.emit", get_emitter(language).emit, entry.program, entry.target)
            for language in options.emit
        }
        results.append(
            AssignmentResult(
                target=entry.target,
                expression=str(entry.expression),
                kernels=list(entry.program.kernel_names),
                parenthesization=entry.solution.parenthesization(),
                cost=float(entry.solution.optimal_cost),
                flops=entry.program.total_flops,
                generation_time_s=getattr(entry.solution, "generation_time", 0.0),
                code=code,
                synthetic=entry.synthetic,
            )
        )
    finished = time.perf_counter()
    total_s = finished - started
    tracer.call("obs.record", _record, program, compiled, parsed - started, finished - parsed, total_s)
    response = CompileResponse(
        request_id=compile_request.request_id,
        ok=True,
        assignments=results,
        total_flops=sum(result.flops for result in results),
        timing={"total_s": total_s},
    )
    tracer.call("api.encode", _encode, response)
    return plan_entry(compiled)


def _module_lookup(loader, result) -> Tuple[str, object]:
    from repro.exec.emitter import plan_signature

    key = plan_signature(result)
    return key, loader.lookup(key)


def _validate(result, environment, value, rtol: float, atol: float) -> bool:
    """Reference evaluation of the final user target, segment by segment
    (later segments read earlier results), compared scale-aware."""
    from repro.algebra.expression import Matrix
    from repro.runtime.reference import evaluate

    env = dict(environment)
    reference = None
    for compiled in result.assignments:
        reference_value = evaluate(compiled.expression, env)
        if isinstance(compiled.result_operand, Matrix):
            env[compiled.result_operand.name] = reference_value
        env[compiled.target] = reference_value
        if not compiled.synthetic:
            reference = reference_value
    candidate = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float).reshape(candidate.shape)
    scale = max(1.0, float(np.max(np.abs(reference))))
    return bool(np.allclose(reference, candidate, rtol=rtol, atol=atol * scale))


def replay_execute(request: Request, session, loader, tracer: Tracer) -> Tuple[list, float, bool]:
    from repro.algebra.dsl import parse_program
    from repro.exec.api import ExecuteResponse
    from repro.frontend.compiler import CompilationResult
    from repro.runtime.operands import random_environment
    from repro.service.api import affinity_key

    execute = tracer.call("api.decode", _decode_execute, request.body)
    tracer.call("pool.affinity_key", affinity_key, execute.compile)
    options = execute.compile.options
    program = tracer.call("dsl.parse", parse_program, execute.compile.to_source())
    result = CompilationResult(operands=dict(program.operands), options=options)
    for entry in _compile_segments(program, options, session, tracer):
        result.add(entry)
    environment = tracer.call(
        "exec.operands", random_environment, result, seed=execute.seed, overrides=execute.payloads
    )
    key, loaded = tracer.call("exec.lookup", _module_lookup, loader, result)
    if loaded is None:
        source = tracer.call("exec.emit", result.emit_stitched, "module")
        loaded = tracer.call("exec.import", loader.load, source, key)
    value = tracer.call("exec.run", loaded.run, environment)
    validated = tracer.call("exec.validate", _validate, result, environment, value, execute.rtol, execute.atol)
    response = ExecuteResponse(
        request_id=execute.request_id,
        ok=validated,
        validated=validated,
        total_flops=result.total_flops,
    )
    tracer.call("api.encode", _encode, response)
    return plan_entry(result.assignments), result.total_flops, validated


def _clear_process_caches() -> None:
    from repro.algebra import clear_inference_cache, clear_intern_table
    from repro.kernels.catalog import default_catalog

    clear_inference_cache()
    clear_intern_table()
    default_catalog().match_cache.clear()


def replay_pass(
    warmup: List[Request], requests: List[Request], traced: bool, module_dir: Path
) -> Tuple[float, Tracer, List[tuple]]:
    """One replay from cold process caches: untimed warm-up, then the
    timed stream.  Returns ``(wall seconds, tracer, per-request output)``."""
    from repro.exec.loader import ModuleLoader
    from repro.frontend.compiler import Compiler

    _clear_process_caches()
    session = Compiler()
    module_dir.mkdir(parents=True, exist_ok=True)
    loader = ModuleLoader(directory=str(module_dir))
    untraced = Tracer(enabled=False)
    tracer = Tracer(enabled=traced)

    def one(request: Request, recorder: Tracer) -> tuple:
        if request.path == "/execute":
            return replay_execute(request, session, loader, recorder)
        return (replay_compile(request, session, recorder),)

    try:
        for request in warmup:
            one(request, untraced)
        outputs = []
        started = time.perf_counter()
        for request in requests:
            tracer.request_id = request.index
            outputs.append(one(request, tracer))
        wall = time.perf_counter() - started
    finally:
        loader.clear()
    return wall, tracer, outputs


def layer_report(wall_on: float, wall_off: float, tracer: Tracer, count: int) -> Dict[str, float]:
    """Per-request self time of every layer span, plus the unaccounted
    remainder and the tracing overhead."""
    seconds = self_time_by_name(tracer.spans)
    report = {f"{name}_ms": seconds.get(name, 0.0) * 1e3 / count for name in LAYER_SPANS}
    report["trace.request_ms"] = wall_on * 1e3 / count
    report["trace.unaccounted_ms"] = unaccounted(wall_on, seconds) * 1e3 / count
    report["trace.overhead"] = wall_on / wall_off
    return report
