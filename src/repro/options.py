"""Unified compilation options: the single configuration surface.

Every front door of the compiler -- the Python API
(:class:`repro.frontend.Compiler`), the command line
(``python -m repro.frontend``), the HTTP service (:mod:`repro.service`) and
the benchmark/experiment scripts -- configures the pipeline through one
frozen :class:`CompileOptions` value instead of loose keyword arguments and
process-global toggles.  The options object names:

* the **cost metric** (a name understood by
  :func:`repro.cost.metrics.resolve_metric`, or a live
  :class:`~repro.cost.metrics.CostMetric` instance),
* the **kernel catalog** (``None`` selects the shared default catalog),
* the DP **split pruning** and the signature-keyed **match cache** toggles,
* the signature-keyed whole-**plan cache** toggle (``plan_cache``; see
  :mod:`repro.persist.plan_cache`),
* the **emit** targets (names registered with
  :func:`repro.codegen.register_emitter`),
* a per-request **deadline budget** (``deadline_s``; enforced at DP cell
  boundaries -- expiring returns the best-so-far solution marked
  ``complete=False``), and
* span-tree **tracing** (``trace``).

Options are validated eagerly at construction, are immutable (derive
variants with :meth:`CompileOptions.replace`) and serialize losslessly to
the JSON wire format of the compilation service
(:meth:`CompileOptions.to_wire` / :meth:`CompileOptions.from_wire`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dataclass_replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from .cost.metrics import CostMetric, resolve_metric

__all__ = ["CompileOptions"]

#: Keys of the JSON wire form of :class:`CompileOptions`.
_WIRE_KEYS = (
    "metric",
    "emit",
    "prune",
    "match_cache",
    "plan_cache",
    "deadline_s",
    "trace",
)


@dataclass(frozen=True)
class CompileOptions:
    """Immutable configuration of one compilation pipeline.

    Example
    -------
    >>> options = CompileOptions(metric="time", prune=False)
    >>> options.replace(prune=True).prune
    True
    """

    #: Cost metric: a resolvable name or a live :class:`CostMetric`.
    metric: Union[str, CostMetric] = "flops"
    #: Kernel catalog; ``None`` selects the shared default catalog.
    catalog: Optional[Any] = None
    #: Visit splits cheapest-lower-bound first and skip those that cannot
    #: beat the best-so-far; ``False`` is the exhaustive ascending-``k``
    #: reference loop (same plans).
    prune: bool = True
    #: Serve ``catalog.match`` through the signature-keyed match cache.
    match_cache: bool = True
    #: Consult the session's whole-plan cache (:mod:`repro.persist`) before
    #: dispatching to a solver; a hit skips the entire dynamic program.
    plan_cache: bool = True
    #: Code emitters to run, by registered name (``"julia"``, ``"numpy"``,
    #: or ``"module"`` -- the standalone importable module of the execution
    #: tier, :mod:`repro.exec`).
    emit: Tuple[str, ...] = ()
    #: Per-request time budget in seconds: the DP loops check it at cell
    #: boundaries and return the best-so-far solution with
    #: ``complete=False`` once it expires.
    deadline_s: Optional[float] = None
    #: Record a span tree for the compilation (:mod:`repro.obs.trace`):
    #: per-segment phases with cache-hit provenance and per-anti-diagonal DP
    #: spans, exposed as ``CompilationResult.trace``.  Diagnostic only -- it
    #: never changes the solution, so it is excluded from the plan-cache
    #: fingerprint.  Off by default; the disabled hot path pays no per-cell
    #: cost.
    trace: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "emit", tuple(self.emit))
        self.validate()

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise :class:`ValueError`/:class:`TypeError` on any bad field."""
        if not isinstance(self.metric, CostMetric):
            resolve_metric(self.metric)  # raises on unknown names/types
        from .codegen import available_emitters  # deferred: avoids import cycle

        known = available_emitters()
        for target in self.emit:
            if target not in known:
                raise ValueError(
                    f"unknown emit target {target!r}; registered emitters: {known}"
                )
        if self.deadline_s is not None:
            deadline = float(self.deadline_s)
            if not deadline > 0:
                raise ValueError(f"deadline_s must be positive, got {deadline!r}")
        if self.catalog is not None and not hasattr(self.catalog, "match"):
            raise TypeError(f"catalog {self.catalog!r} has no match() method")

    # -------------------------------------------------------------- deriving
    def replace(self, **changes) -> "CompileOptions":
        """A copy with *changes* applied (and re-validated)."""
        return _dataclass_replace(self, **changes)

    # ------------------------------------------------------------ resolution
    @property
    def metric_name(self) -> str:
        """The metric's wire name (``.name`` for live instances)."""
        return self.metric if isinstance(self.metric, str) else self.metric.name

    def resolve_metric(self) -> CostMetric:
        """A :class:`CostMetric` instance for :attr:`metric` (live
        instances are returned as they are)."""
        if isinstance(self.metric, CostMetric):
            return self.metric
        return resolve_metric(self.metric)

    def resolve_catalog(self):
        """The catalog to compile against (default catalog when unset)."""
        if self.catalog is not None:
            return self.catalog
        from .kernels.catalog import default_catalog  # deferred: import cycle

        return default_catalog()

    # ----------------------------------------------------------------- wire
    def to_wire(self) -> Dict[str, object]:
        """The JSON-compatible dict form used by the compilation service.

        The catalog is process-local state and never travels on the wire; a
        live metric instance is reduced to its :attr:`metric_name`.
        """
        payload: Dict[str, object] = {
            "metric": self.metric_name,
            "emit": list(self.emit),
            "prune": self.prune,
            "match_cache": self.match_cache,
            "plan_cache": self.plan_cache,
        }
        if self.deadline_s is not None:
            payload["deadline_s"] = self.deadline_s
        if self.trace:
            payload["trace"] = True
        return payload

    @classmethod
    def from_wire(cls, payload: Mapping) -> "CompileOptions":
        """Rebuild options from :meth:`to_wire` output (strict on keys and
        on boolean types: ``"false"`` is a client bug, not ``True``)."""
        if not isinstance(payload, Mapping):
            raise ValueError("options must be a JSON object")
        unknown = set(payload) - set(_WIRE_KEYS)
        if unknown:
            raise ValueError(f"unknown option fields: {sorted(unknown)}")

        def wire_bool(key: str, default: bool = True) -> bool:
            value = payload.get(key, default)
            if not isinstance(value, bool):
                raise ValueError(f"option {key!r} must be a boolean, got {value!r}")
            return value

        deadline = payload.get("deadline_s")
        return cls(
            metric=payload.get("metric", "flops"),
            emit=tuple(payload.get("emit", ())),
            prune=wire_bool("prune"),
            match_cache=wire_bool("match_cache"),
            plan_cache=wire_bool("plan_cache"),
            deadline_s=None if deadline is None else float(deadline),
            trace=wire_bool("trace", default=False),
        )
