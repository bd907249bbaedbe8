"""Typed request/response model and shared path of the execution tier.

:class:`ExecuteRequest` wraps a :class:`~repro.service.api.CompileRequest`
(the problem and its pipeline options) with execution parameters: explicit
JSON operand payloads and/or a seed for property-respecting random
operands and the numerical tolerance.

:func:`run_execute_request` is the single execution path shared by the
in-process executor, the pool workers behind ``POST /execute`` and the
CLI's ``--execute``: compile through a warm
:class:`~repro.frontend.compiler.Compiler` session, emit the stitched plan
as a standalone module (skipped on a module-cache hit), import it, run it
against the operand environment, and validate the numerics against the
direct reference evaluation (:mod:`repro.runtime.reference`) within
relative tolerance.  Every phase is timed separately
(``compile`` / ``emit`` / ``import`` / ``run`` / ``validate``); errors
never propagate -- they fold into an ``ok=False`` response naming the
failing ``phase``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..algebra.expression import Matrix
from ..frontend.compiler import CompilationResult, Compiler
from ..obs.logging import get_logger, log_rate_limited
from ..runtime.operands import random_environment
from ..runtime.reference import evaluate as reference_evaluate
from ..service.api import CompileRequest, RequestError
from .emitter import plan_signature
from .loader import ModuleLoader

__all__ = [
    "ENGINES",
    "ExecuteRequest",
    "ExecuteResponse",
    "run_execute_request",
]

#: Supported execution engines: only the emitted standalone module.  The
#: ``engine`` key stays accepted (and must name it) for existing clients.
ENGINES = ("module",)

#: Keys of the nested ``execute`` wire object.
_EXECUTE_KEYS = {"payloads", "seed", "rtol", "atol", "validate", "engine"}

_LOG = get_logger("exec.api")


@dataclass
class ExecuteRequest:
    """One compile-and-run problem.

    On the wire this is a :class:`~repro.service.api.CompileRequest` dict
    plus a nested ``"execute"`` object::

        {"source": "...", "options": {...},
         "execute": {"seed": 7, "rtol": 1e-6,
                     "payloads": {"A": [[...], ...]}}}

    ``payloads`` overrides the seeded random operands for the named
    subset (shape-checked against the declaration); ``engine``, when
    given, must be ``module`` (see :data:`ENGINES`); ``validate`` (default
    true) compares the result against the direct reference evaluation
    within ``rtol``/``atol``.
    """

    compile: CompileRequest = field(default_factory=CompileRequest)
    payloads: Optional[Dict[str, object]] = None
    seed: int = 0
    rtol: float = 1e-6
    atol: float = 1e-9
    validate_numerics: bool = True
    engine: str = "module"

    @property
    def request_id(self) -> str:
        return self.compile.request_id

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise :class:`~repro.service.api.RequestError` when malformed."""
        if not isinstance(self.compile, CompileRequest):
            raise RequestError("'compile' must be a CompileRequest")
        self.compile.validate()
        if self.engine not in ENGINES:
            raise RequestError(
                f"unknown engine {self.engine!r}; supported engines: {ENGINES}"
            )
        if self.payloads is not None and not isinstance(self.payloads, Mapping):
            raise RequestError("'payloads' must map operand names to arrays")
        if not isinstance(self.validate_numerics, bool):
            raise RequestError(
                f"'validate' must be a boolean, got {self.validate_numerics!r}"
            )
        try:
            self.seed = int(self.seed)
            self.rtol = float(self.rtol)
            self.atol = float(self.atol)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad execute parameter: {exc}") from exc
        if not (math.isfinite(self.rtol) and math.isfinite(self.atol)):
            raise RequestError("'rtol' and 'atol' must be finite")
        if self.rtol < 0 or self.atol < 0:
            raise RequestError("'rtol' and 'atol' must be non-negative")

    # ----------------------------------------------------------------- wire
    def to_dict(self) -> dict:
        payload = self.compile.to_dict()
        execute: dict = {
            "seed": self.seed,
            "rtol": self.rtol,
            "atol": self.atol,
            "validate": self.validate_numerics,
            "engine": self.engine,
        }
        if self.payloads is not None:
            execute["payloads"] = {
                name: np.asarray(value, dtype=float).tolist()
                for name, value in self.payloads.items()
            }
        payload["execute"] = execute
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExecuteRequest":
        if not isinstance(payload, Mapping):
            raise RequestError("request body must be a JSON object")
        data = dict(payload)
        execute = data.pop("execute", None) or {}
        if not isinstance(execute, Mapping):
            raise RequestError("'execute' must be a JSON object")
        unknown = set(execute) - _EXECUTE_KEYS
        if unknown:
            raise RequestError(f"unknown execute fields: {sorted(unknown)}")
        compile_request = CompileRequest.from_dict(data)
        payloads = execute.get("payloads")
        request = cls(
            compile=compile_request,
            # A non-object reaches validate() unchanged and is rejected there.
            payloads=(
                (dict(payloads) or None) if isinstance(payloads, Mapping) else payloads
            ),
            seed=execute.get("seed", 0),
            rtol=execute.get("rtol", 1e-6),
            atol=execute.get("atol", 1e-9),
            validate_numerics=execute.get("validate", True),
            engine=str(execute.get("engine", "module")),
        )
        request.validate()
        return request


@dataclass
class ExecuteResponse:
    """The result of one :class:`ExecuteRequest`.

    ``results`` summarizes the program's final user target (shape, norms);
    ``validated`` / ``max_rel_error`` report the reference comparison;
    ``timing`` carries the per-phase seconds.  On
    failure ``phase`` names where it happened (``compile`` / ``operands``
    / ``emit`` / ``import`` / ``run`` / ``validate``).
    """

    request_id: str
    ok: bool
    engine: str = "module"
    module_cache_hit: bool = False
    validated: Optional[bool] = None
    max_rel_error: Optional[float] = None
    results: List[dict] = field(default_factory=list)
    total_flops: float = 0.0
    error: Optional[str] = None
    phase: Optional[str] = None
    worker: Optional[int] = None
    timing: Dict[str, float] = field(default_factory=dict)

    def explain(self) -> str:
        """Per-phase provenance report (compile/emit/import/run/validate
        timings, module-cache outcome, validation verdict); the execution
        counterpart of :meth:`CompilationResult.explain`."""
        from ..obs.explain import explain_execution

        return explain_execution(self)

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "ok": self.ok,
            "engine": self.engine,
            "module_cache_hit": self.module_cache_hit,
            "validated": self.validated,
            "max_rel_error": self.max_rel_error,
            "results": [dict(entry) for entry in self.results],
            "total_flops": self.total_flops,
            "error": self.error,
            "phase": self.phase,
            "worker": self.worker,
            "timing": dict(self.timing),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExecuteResponse":
        return cls(
            request_id=payload["request_id"],
            ok=payload["ok"],
            engine=payload.get("engine", "module"),
            module_cache_hit=bool(payload.get("module_cache_hit", False)),
            validated=payload.get("validated"),
            max_rel_error=payload.get("max_rel_error"),
            results=[dict(entry) for entry in payload.get("results", ())],
            total_flops=payload.get("total_flops", 0.0),
            error=payload.get("error"),
            phase=payload.get("phase"),
            worker=payload.get("worker"),
            timing=dict(payload.get("timing", {})),
        )


# ---------------------------------------------------------------------------
# Execution path (shared by the service executors and the CLI).
# ---------------------------------------------------------------------------

def _summarize(target: str, value: np.ndarray) -> dict:
    array = np.asarray(value, dtype=float)
    rows = int(array.shape[0]) if array.ndim >= 1 else 1
    columns = int(array.shape[1]) if array.ndim >= 2 else 1
    return {
        "target": target,
        "rows": rows,
        "columns": columns,
        "fro_norm": float(np.linalg.norm(array)),
        "min": float(array.min()) if array.size else 0.0,
        "max": float(array.max()) if array.size else 0.0,
    }


def _reference_values(
    result: CompilationResult, environment: Mapping[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Per-user-target reference values, evaluated segment by segment.

    Segments are dependency-ordered and later expressions reference
    earlier segments' result operands, so each segment's value is bound
    into the growing environment under both its result-operand name and
    its target before the next is evaluated.
    """
    env = dict(environment)
    values: Dict[str, np.ndarray] = {}
    for compiled in result.assignments:
        value = reference_evaluate(compiled.expression, env)
        if isinstance(compiled.result_operand, Matrix):
            env[compiled.result_operand.name] = value
        env[compiled.target] = value
        if not compiled.synthetic:
            values[compiled.target] = value
    return values


def _compare(
    candidate: np.ndarray, reference: np.ndarray, rtol: float, atol: float
) -> Tuple[bool, float]:
    """``(agrees, max_rel_error)`` in the scale-aware style of
    :func:`repro.runtime.reference.allclose`."""
    candidate = np.asarray(candidate, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if reference.shape != candidate.shape:
        if reference.size == candidate.size:
            reference = reference.reshape(candidate.shape)
        else:
            return False, float("inf")
    scale = max(1.0, float(np.max(np.abs(reference)))) if reference.size else 1.0
    error = (
        float(np.max(np.abs(candidate - reference))) / scale
        if reference.size
        else 0.0
    )
    agrees = bool(np.allclose(reference, candidate, rtol=rtol, atol=atol * scale))
    return agrees, error


def run_execute_request(
    request: ExecuteRequest,
    compiler: Optional[Compiler] = None,
    worker: Optional[int] = None,
    loader: Optional[ModuleLoader] = None,
) -> ExecuteResponse:
    """Compile, emit, import, run and validate one execute request.

    *compiler* is the executor's warm session (a throwaway one, closed on
    return, otherwise); *loader* the module cache (the session's
    ``loader`` otherwise).  The session's ``execution`` telemetry layer
    counts the run.  Never raises: failures fold into ``ok=False``
    responses whose ``phase`` names the failing stage.
    """
    started = time.perf_counter()
    timing: Dict[str, float] = {}
    session = compiler if compiler is not None else Compiler()
    if loader is None:
        loader = session.loader
    counters = session.execution
    phase = "request"
    try:
        request.validate()

        phase = "compile"
        t0 = time.perf_counter()
        result = session.compile(
            request.compile.to_source(), options=request.compile.options
        )
        if result.trace is not None:
            result.trace.request_id = request.request_id
        timing["compile_s"] = time.perf_counter() - t0
        targets = result.targets
        final_target = targets[-1] if targets else "program"

        phase = "operands"
        environment = random_environment(
            result, seed=request.seed, overrides=request.payloads
        )

        phase = "emit"
        key = plan_signature(result)
        loaded = loader.lookup(key)
        cache_hit = loaded is not None
        timing["emit_s"] = 0.0
        timing["import_s"] = 0.0
        if loaded is None:
            t0 = time.perf_counter()
            source = result.emit_stitched("module")
            timing["emit_s"] = time.perf_counter() - t0
            phase = "import"
            t0 = time.perf_counter()
            loaded = loader.load(source, key)
            timing["import_s"] = time.perf_counter() - t0
        phase = "run"
        t0 = time.perf_counter()
        try:
            value = loaded.run(environment)
        except Exception:
            counters.add(runs=1, run_errors=1)
            raise
        timing["run_s"] = time.perf_counter() - t0
        counters.add(runs=1)

        validated: Optional[bool] = None
        max_rel_error: Optional[float] = None
        if request.validate_numerics:
            phase = "validate"
            t0 = time.perf_counter()
            references = _reference_values(result, environment)
            validated, max_rel_error = _compare(
                value, references[final_target], request.rtol, request.atol
            )
            timing["validate_s"] = time.perf_counter() - t0
            if not validated:
                counters.add(validation_failures=1)
                # Rate-limited: a client replaying a divergent request in
                # a loop must not storm the log (the swallowed count rides
                # on the next emitted line as suppressed_count).
                log_rate_limited(
                    _LOG,
                    "warning",
                    "execute validation failed",
                    request_id=request.request_id,
                    target=final_target,
                    engine=request.engine,
                    max_rel_error=max_rel_error,
                    rtol=request.rtol,
                    seed=request.seed,
                )
                return ExecuteResponse(
                    request_id=request.request_id,
                    ok=False,
                    engine=request.engine,
                    module_cache_hit=cache_hit,
                    validated=False,
                    max_rel_error=max_rel_error,
                    results=[_summarize(final_target, value)],
                    total_flops=result.total_flops,
                    error=(
                        f"result for {final_target!r} diverges from the "
                        f"reference evaluation (max relative error "
                        f"{max_rel_error:.3g} > rtol {request.rtol:.3g})"
                    ),
                    phase="validate",
                    worker=worker,
                    timing=dict(timing, total_s=time.perf_counter() - started),
                )

        return ExecuteResponse(
            request_id=request.request_id,
            ok=True,
            engine=request.engine,
            module_cache_hit=cache_hit,
            validated=validated,
            max_rel_error=max_rel_error,
            results=[_summarize(final_target, value)],
            total_flops=result.total_flops,
            worker=worker,
            timing=dict(timing, total_s=time.perf_counter() - started),
        )
    except Exception as exc:  # noqa: BLE001 -- fold into the response
        return ExecuteResponse(
            request_id=request.request_id,
            ok=False,
            engine=request.engine,
            error=f"{type(exc).__name__}: {exc}",
            phase=phase,
            worker=worker,
            timing=dict(timing, total_s=time.perf_counter() - started),
        )
    finally:
        if compiler is None:
            # A throwaway session's modules would otherwise stay in
            # sys.modules after the session is gone.
            session.loader.close()
