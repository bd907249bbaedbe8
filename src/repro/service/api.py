"""Typed request/response model of the compilation service.

The service front-ends (:mod:`repro.service.http`, the worker pool of
:mod:`repro.service.pool`, and the in-process executor used by tests) all
speak the same two dataclasses:

* :class:`CompileRequest` -- one compilation problem, given either as DSL
  source text (the Fig. 1/2 grammar of :mod:`repro.algebra.dsl`) or as a
  structured operand/assignment spec, plus one
  :class:`~repro.options.CompileOptions` value naming the pipeline options
  (metric, emit targets, pruning, match-cache policy, deadline
  budget, cache sizing);
* :class:`CompileResponse` -- the per-assignment kernel sequences,
  parenthesizations, costs, optional generated code, and timing.

Both serialize to plain JSON-compatible dicts (``to_dict``/``from_dict``),
which is also the wire format between the pool parent and its worker
processes -- workers never unpickle custom classes, so the pool works under
every multiprocessing start method.  On the wire the options travel as a
nested ``"options"`` object (:meth:`CompileOptions.to_wire`); any other
top-level field is rejected as malformed.

:func:`execute_request` is the single execution path shared by every
executor: it runs the request through a
:class:`~repro.frontend.compiler.Compiler` session -- the same class behind
:func:`repro.frontend.compile_source` and the CLI -- so service responses
are bit-identical to direct library calls (asserted in
``tests/test_service.py`` and by ``scripts/ci_service_check.py``).
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..algebra.dsl import parse_program
from ..algebra.expression import signature_repr
from ..frontend.compiler import Compiler
from ..options import CompileOptions

__all__ = [
    "RequestError",
    "CompileRequest",
    "AssignmentResult",
    "CompileResponse",
    "execute_request",
    "affinity_key",
]

#: Top-level keys of the current wire format.
_WIRE_KEYS = {"source", "operands", "assignments", "options", "request_id"}


class RequestError(ValueError):
    """Raised when a request is malformed (maps to HTTP 400)."""


@dataclass
class CompileRequest:
    """One compilation problem plus its pipeline options.

    Exactly one of ``source`` (DSL text) or ``operands``+``assignments``
    (structured spec) must be provided.  The structured spec is rendered to
    DSL text and parsed by the same parser, so both forms are equivalent:

    ``operands``
        maps operand name to ``{"rows": int, "columns": int,
        "properties": [str, ...]}`` (``columns`` defaults to ``rows``);
    ``assignments``
        a list of ``{"target": str, "expression": str}`` where the
        expression uses the Fig. 1 grammar (``A^-1 * B * C^T``).

    Multi-assignment DAG programs travel unchanged in either form: a later
    expression may reference an earlier target, and the response then
    carries one :class:`AssignmentResult` per chain *segment* -- user
    targets plus any ``synthetic`` segments the decomposition created.

    Pipeline options live in ``options`` (a
    :class:`~repro.options.CompileOptions`).
    """

    source: Optional[str] = None
    operands: Optional[Dict[str, dict]] = None
    assignments: Optional[List[dict]] = None
    options: CompileOptions = field(default_factory=CompileOptions)
    request_id: str = field(default_factory=lambda: uuid.uuid4().hex)

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise :class:`RequestError` on any malformed field."""
        if self.source is None and not (self.operands and self.assignments):
            raise RequestError(
                "request needs either 'source' or 'operands' + 'assignments'"
            )
        if self.source is not None and (self.operands or self.assignments):
            raise RequestError("'source' excludes 'operands'/'assignments'")
        if self.source is not None and not isinstance(self.source, str):
            raise RequestError("'source' must be a string of DSL text")
        if not isinstance(self.options, CompileOptions):
            raise RequestError("'options' must be a CompileOptions value")
        try:
            self.options.validate()
        except (TypeError, ValueError) as exc:
            raise RequestError(str(exc)) from exc

    # ------------------------------------------------------------- rendering
    def to_source(self) -> str:
        """The DSL text of this request (renders the structured spec)."""
        if self.source is not None:
            return self.source
        lines: List[str] = []
        for name, spec in (self.operands or {}).items():
            try:
                rows = int(spec["rows"])
                columns = int(spec.get("columns", rows))
            except (KeyError, TypeError, ValueError) as exc:
                raise RequestError(f"operand {name!r}: bad dimensions") from exc
            properties = ", ".join(spec.get("properties", ()))
            lines.append(f"Matrix {name} ({rows}, {columns}) <{properties}>")
        for assignment in self.assignments or ():
            try:
                lines.append(f"{assignment['target']} := {assignment['expression']}")
            except (KeyError, TypeError) as exc:
                raise RequestError(
                    "assignments need 'target' and 'expression' keys"
                ) from exc
        return "\n".join(lines) + "\n"

    # ----------------------------------------------------------------- wire
    def to_dict(self) -> dict:
        payload: dict = {
            "request_id": self.request_id,
            "options": self.options.to_wire(),
        }
        if self.source is not None:
            payload["source"] = self.source
        if self.operands is not None:
            payload["operands"] = self.operands
        if self.assignments is not None:
            payload["assignments"] = self.assignments
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CompileRequest":
        if not isinstance(payload, Mapping):
            raise RequestError("request body must be a JSON object")
        unknown = set(payload) - _WIRE_KEYS
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        try:
            options = CompileOptions.from_wire(payload.get("options", {}))
        except (TypeError, ValueError) as exc:
            raise RequestError(str(exc)) from exc
        request = cls(
            source=payload.get("source"),
            operands=payload.get("operands"),
            assignments=payload.get("assignments"),
            options=options,
            request_id=str(payload.get("request_id") or uuid.uuid4().hex),
        )
        request.validate()
        return request


@dataclass
class AssignmentResult:
    """The compilation result for one assignment of a request."""

    target: str
    expression: str
    kernels: List[str]
    parenthesization: str
    cost: float
    flops: float
    generation_time_s: float
    code: Dict[str, str] = field(default_factory=dict)
    #: ``False`` when the solver's per-request deadline expired and the
    #: plan is the best-so-far rather than the proven optimum.
    complete: bool = True
    #: ``True`` for segments the DAG decomposition created (extracted
    #: non-chain subtrees, shared subexpressions) rather than user
    #: assignments; their ``_sN`` targets are referenced by later entries.
    synthetic: bool = False

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "expression": self.expression,
            "kernels": list(self.kernels),
            "parenthesization": self.parenthesization,
            "cost": self.cost,
            "flops": self.flops,
            "generation_time_s": self.generation_time_s,
            "code": dict(self.code),
            "complete": self.complete,
            "synthetic": self.synthetic,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "AssignmentResult":
        return cls(
            target=payload["target"],
            expression=payload["expression"],
            kernels=list(payload["kernels"]),
            parenthesization=payload["parenthesization"],
            cost=payload["cost"],
            flops=payload["flops"],
            generation_time_s=payload["generation_time_s"],
            code=dict(payload.get("code", {})),
            complete=bool(payload.get("complete", True)),
            synthetic=bool(payload.get("synthetic", False)),
        )


@dataclass
class CompileResponse:
    """The result of one :class:`CompileRequest`."""

    request_id: str
    ok: bool
    assignments: List[AssignmentResult] = field(default_factory=list)
    total_flops: float = 0.0
    error: Optional[str] = None
    worker: Optional[int] = None
    timing: Dict[str, float] = field(default_factory=dict)

    def assignment(self, target: str) -> AssignmentResult:
        for result in self.assignments:
            if result.target == target:
                return result
        available = ", ".join(repr(r.target) for r in self.assignments) or "<none>"
        raise KeyError(f"no assignment {target!r}; available targets: {available}")

    @property
    def kernel_sequences(self) -> Dict[str, List[str]]:
        return {result.target: list(result.kernels) for result in self.assignments}

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "ok": self.ok,
            "assignments": [result.to_dict() for result in self.assignments],
            "total_flops": self.total_flops,
            "error": self.error,
            "worker": self.worker,
            "timing": dict(self.timing),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "CompileResponse":
        return cls(
            request_id=payload["request_id"],
            ok=payload["ok"],
            assignments=[
                AssignmentResult.from_dict(entry)
                for entry in payload.get("assignments", ())
            ],
            total_flops=payload.get("total_flops", 0.0),
            error=payload.get("error"),
            worker=payload.get("worker"),
            timing=dict(payload.get("timing", {})),
        )


# ---------------------------------------------------------------------------
# Execution (shared by the in-process executor and the pool workers).
# ---------------------------------------------------------------------------

def execute_request(
    request: CompileRequest,
    worker: Optional[int] = None,
    *,
    compiler: Optional[Compiler] = None,
) -> CompileResponse:
    """Run *request* through a :class:`Compiler` session and respond.

    *compiler* (keyword-only) is the executor's warm session -- each pool
    worker holds one; omitting it runs on a throwaway session against the
    default catalog.  Errors never propagate -- they are folded into an
    ``ok=False`` response so a malformed request cannot take down a worker.
    """
    started = time.perf_counter()
    try:
        if compiler is None:
            compiler = Compiler()
        request.validate()
        source = request.to_source()
        parse_started = time.perf_counter()
        program = parse_program(source)
        parse_s = time.perf_counter() - parse_started

        solve_started = time.perf_counter()
        compiled = compiler.compile(program, options=request.options)
        if getattr(compiled, "trace", None) is not None:
            # Tag the span tree with the service request id so exported
            # traces join with the structured log lines for this request.
            compiled.trace.request_id = request.request_id
        results: List[AssignmentResult] = []
        for entry in compiled:
            code = {name: entry.emit(name) for name in request.options.emit}
            try:
                cost = float(entry.solution.optimal_cost)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                cost = float("nan")
            results.append(
                AssignmentResult(
                    target=entry.target,
                    expression=str(entry.expression),
                    kernels=list(entry.program.kernel_names),
                    parenthesization=entry.solution.parenthesization(),
                    cost=cost,
                    flops=entry.program.total_flops,
                    generation_time_s=getattr(entry.solution, "generation_time", 0.0),
                    code=code,
                    complete=bool(getattr(entry.solution, "complete", True)),
                    synthetic=bool(getattr(entry, "synthetic", False)),
                )
            )
        solve_s = time.perf_counter() - solve_started
        total_s = time.perf_counter() - started
        # A request counts as a plan hit when no segment needed a cold DP
        # solve.
        plan_hit = bool(compiled.assignments) and all(
            getattr(entry.solution, "from_plan_cache", False)
            or not entry.program.calls
            for entry in compiled
        )
        analytics = compiler.analytics
        analytics.record_request(plan_hit=plan_hit)
        analytics.observe_latencies(
            "compile_phase_latency_seconds",
            "phase",
            (("parse", parse_s), ("solve", solve_s)),
        )
        return CompileResponse(
            request_id=request.request_id,
            ok=True,
            assignments=results,
            total_flops=sum(result.flops for result in results),
            worker=worker,
            timing={
                "parse_s": parse_s,
                "solve_s": solve_s,
                "total_s": total_s,
            },
        )
    except Exception as exc:  # noqa: BLE001 -- fold into the response
        return CompileResponse(
            request_id=request.request_id,
            ok=False,
            error=f"{type(exc).__name__}: {exc}",
            worker=worker,
            timing={"total_s": time.perf_counter() - started},
        )


def affinity_key(request: CompileRequest) -> str:
    """A stable key equal for structurally similar requests.

    Structurally similar chains (same shapes, properties and equality
    structure, arbitrary operand names) share their name-abstracted
    expression signatures, so routing by this key lands them on the worker
    whose signature-keyed match cache is already warm for them.  Requests
    that fail to parse fall back to their raw text (they will fail
    identically on any worker).

    This parses the request in the dispatching process (the worker parses
    again); that is deliberate -- parsing is orders of magnitude cheaper
    than solving, and no text-level normalization reproduces the
    name-abstracted signature the match cache is keyed by.  It runs on the
    HTTP server's threads, concurrently with itself, so it must stay off
    the shared caches: the parse builds fresh expression nodes and reads
    their signatures, and touches neither the interner, the inference
    memo nor the match cache (those are only reached by solves, which run
    under ``InProcessExecutor``'s lock or in a single-threaded pool
    worker).
    """
    try:
        program = parse_program(request.to_source())
        return signature_repr(
            tuple(expr.signature() for _, expr in program.assignments)
        )
    except Exception:  # noqa: BLE001 -- unparseable: any worker will do
        return request.source or repr(
            (request.operands, request.assignments)
        )
