"""Workload analytics: request counters and mergeable latency sketches.

:class:`QuantileSketch` is a fixed-relative-accuracy log-bucket quantile
sketch in the DDSketch family: bucket ``i`` covers
``(gamma^(i-1), gamma^i]`` with ``gamma = (1+alpha)/(1-alpha)``, so any
reported quantile is within relative error *alpha* of the true value and
two sketches merge by bucket-wise addition.  It is also the one latency
store of the HTTP tier (:class:`repro.obs.metrics.MetricsRegistry`), whose
``/metrics`` histograms are rendered from it.

:class:`WorkloadAnalytics` bundles the request/plan-hit counters and
per-label quantile sketches behind a lock; each
:class:`~repro.frontend.compiler.Compiler` session owns one
(``compiler.analytics``), recorded at ``execute_request`` time and
reported as the session's ``analytics`` telemetry layer.  Pool workers'
states merge sketch-wise through :func:`merge_analytics_states` (the
:func:`repro.telemetry.aggregate` hook), exactly like
:mod:`repro.persist.snapshot` merges cache state.

The layer is always on and cheap (two counters and a ``log`` per phase
sample); its cost sits inside the end-to-end bounds of the ``perfbench/``
benchmark, whose ``obs.record_ms`` layer metric times the recording.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "QuantileSketch",
    "WorkloadAnalytics",
    "merge_analytics_states",
]

#: Default relative accuracy of the quantile sketches (1%).
DEFAULT_ALPHA = 0.01

#: Values at or below this collapse into the quantile sketch's zero bucket
#: (sub-nanosecond latencies carry no information at alpha ~ 1%).
_ZERO_THRESHOLD = 1e-9


# ---------------------------------------------------------------------------
# Log-bucket quantile sketch (DDSketch-style, fixed gamma).
# ---------------------------------------------------------------------------

class QuantileSketch:
    """Mergeable streaming quantiles with fixed relative accuracy *alpha*.

    Bucket ``i`` covers ``(gamma^(i-1), gamma^i]`` with
    ``gamma = (1+alpha)/(1-alpha)``; a value maps to
    ``ceil(log(v)/log(gamma))`` and is reported as the bucket midpoint
    ``2*gamma^i/(gamma+1)``, which is within relative error *alpha* of any
    value in the bucket.  Non-positive/tiny values land in a zero bucket.
    Merging adds bucket counts, so worker-local sketches pool exactly.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self._buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= _ZERO_THRESHOLD:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> Optional[float]:
        """The *q*-quantile estimate (``None`` on an empty sketch)."""
        if self.count == 0:
            return None
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        rank = q * (self.count - 1)
        cumulative = self.zero_count
        estimate = 0.0
        if rank >= cumulative:
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if rank < cumulative:
                    estimate = 2.0 * self.gamma**index / (self.gamma + 1.0)
                    break
            else:
                estimate = self.max if self.max is not None else 0.0
        # Clamp into the observed range: the bucket midpoint of a
        # single-sample sketch must never report outside [min, max].
        if self.min is not None:
            estimate = min(max(estimate, self.min), self.max)
        return estimate

    def cumulative_counts(self, bounds: Sequence[float]) -> List[int]:
        """Samples at or below each of the ascending *bounds*: the
        cumulative ``le`` buckets of a Prometheus histogram.

        Counted per log bucket, so every sample ``<= bound`` is included
        and so may be samples up to a factor ``gamma`` above it -- the
        sketch's relative accuracy.  Counts never decrease along *bounds*
        and reach :attr:`count` once a bound covers :attr:`max`.
        """
        indexed = sorted(self._buckets.items())
        position = 0
        running = self.zero_count
        counts: List[int] = []
        for bound in bounds:
            if bound > _ZERO_THRESHOLD:
                limit = math.ceil(math.log(bound) / self._log_gamma)
                while position < len(indexed) and indexed[position][0] <= limit:
                    running += indexed[position][1]
                    position += 1
            counts.append(running)
        return counts

    # ----------------------------------------------------------------- state
    def to_state(self) -> Dict[str, Any]:
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self.sum,
            "zero": self.zero_count,
            "min": self.min,
            "max": self.max,
            "buckets": dict(self._buckets),
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "QuantileSketch":
        sketch = cls(alpha=float(state.get("alpha", DEFAULT_ALPHA)))
        sketch.merge(state)
        return sketch

    def merge(self, state: Mapping) -> None:
        """Bucket-wise addition of another sketch's state.

        Bucket keys may arrive as strings (the state travels through JSON
        on ``GET /stats``, which stringifies integer dict keys).
        """
        alpha = float(state.get("alpha", self.alpha))
        if not math.isclose(alpha, self.alpha, rel_tol=1e-9):
            raise ValueError(
                f"cannot merge quantile sketches with different accuracy "
                f"({alpha} vs {self.alpha})"
            )
        self.count += int(state.get("count", 0))
        self.sum += float(state.get("sum", 0.0))
        self.zero_count += int(state.get("zero", 0))
        for bound, mine in (("min", min), ("max", max)):
            theirs = state.get(bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(
                    self,
                    bound,
                    float(theirs) if ours is None else mine(ours, float(theirs)),
                )
        for index, count in (state.get("buckets") or {}).items():
            index = int(index)
            self._buckets[index] = self._buckets.get(index, 0) + int(count)


# ---------------------------------------------------------------------------
# The per-process bundle.
# ---------------------------------------------------------------------------

class WorkloadAnalytics:
    """One session's workload-analytics state: request and plan-hit
    counters plus latency quantile sketches keyed by ``(metric name, label
    key, label value)``.  Thread-safe; serializes to one plain ``state()``
    dict whose numeric top-level keys double as ``/metrics`` gauges for the
    ``analytics`` telemetry layer."""

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        self.alpha = alpha
        self._lock = threading.Lock()
        self._latency: Dict[Tuple[str, str, str], QuantileSketch] = {}
        self.requests = 0
        self.plan_hits = 0

    # -------------------------------------------------------------- recording
    def record_request(
        self, signature: object = None, *, plan_hit: bool, latency_s: float = 0.0
    ) -> None:
        """Count one served compile request (and whether the plan cache
        answered every segment).

        *signature* and *latency_s* are ignored: ``perfbench/replay.py``
        still passes them, and goes away with ROADMAP item 8.
        """
        with self._lock:
            self.requests += 1
            if plan_hit:
                self.plan_hits += 1

    def observe_latency(
        self, name: str, label_key: str, label_value: str, seconds: float
    ) -> None:
        """One latency sample for ``repro_<name>{<label_key>=<label_value>}``."""
        key = (name, label_key, str(label_value))
        with self._lock:
            sketch = self._latency.get(key)
            if sketch is None:
                sketch = self._latency[key] = QuantileSketch(self.alpha)
            sketch.observe(seconds)

    def observe_latencies(
        self,
        name: str,
        label_key: str,
        samples: Sequence[Tuple[str, float]],
    ) -> None:
        """Several ``(label_value, seconds)`` samples under one lock
        acquisition (the per-request hot path records every compile phase
        at once)."""
        with self._lock:
            for label_value, seconds in samples:
                key = (name, label_key, str(label_value))
                sketch = self._latency.get(key)
                if sketch is None:
                    sketch = self._latency[key] = QuantileSketch(self.alpha)
                sketch.observe(seconds)

    # ----------------------------------------------------------------- state
    def state(self) -> Dict[str, Any]:
        """The mergeable snapshot shipped as the ``analytics`` telemetry
        layer (numeric top-level keys render as layer gauges)."""
        with self._lock:
            return {
                "layer": "analytics",
                "requests": self.requests,
                "plan_hits": self.plan_hits,
                "latency": [
                    {
                        "name": name,
                        "label": label_key,
                        "value": label_value,
                        "sketch": sketch.to_state(),
                    }
                    for (name, label_key, label_value), sketch in sorted(
                        self._latency.items()
                    )
                ],
            }

    def merge_state(self, state: Mapping) -> None:
        """Fold another process's ``state()`` into this instance."""
        with self._lock:
            self.requests += int(state.get("requests", 0))
            self.plan_hits += int(state.get("plan_hits", 0))
            for entry in state.get("latency") or ():
                key = (entry["name"], entry["label"], str(entry["value"]))
                sketch = self._latency.get(key)
                if sketch is None:
                    sketch = self._latency[key] = QuantileSketch(
                        alpha=float(entry["sketch"].get("alpha", self.alpha))
                    )
                sketch.merge(entry["sketch"])

    def reset(self) -> None:
        """Drop every counter and sketch."""
        with self._lock:
            self._latency = {}
            self.requests = 0
            self.plan_hits = 0


# ``perfbench/replay.py`` times the recording against these two; no
# session reads them.  Both go away with ROADMAP item 8.
_WORKLOAD = WorkloadAnalytics()


def workload_analytics() -> WorkloadAnalytics:
    """A detached analytics instance that no session reports."""
    return _WORKLOAD


def analytics_enabled() -> bool:
    """Always ``True``: recording has no off switch."""
    return True


def merge_analytics_states(states: Iterable[Mapping]) -> Dict[str, Any]:
    """Pool several ``WorkloadAnalytics.state()`` dicts into one.

    The ``telemetry.aggregate`` hook for the ``analytics`` layer: sketches
    merge sketch-wise (never summed like plain counters).  An empty input
    yields an empty state, so a pool with no usable workers still reports
    the layer.
    """
    merged = WorkloadAnalytics()
    for state in states:
        if isinstance(state, Mapping):
            merged.merge_state(state)
    return merged.state()
