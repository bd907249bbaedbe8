"""Workload analytics: mergeable streaming sketches over service traffic.

Two stdlib-only sketch structures, both **mergeable** so the worker pool
can aggregate worker-local state through the existing
:func:`repro.telemetry.aggregate` path (the ``"analytics"`` telemetry
layer) exactly like :mod:`repro.persist.snapshot` merges cache state:

* :class:`SpaceSavingSketch` -- the Space-Saving heavy-hitter algorithm
  (Metwally, Agrawal, El Abbadi 2005) over name-abstracted request
  signatures: a bounded set of ``(count, error)`` counters whose top-k is
  provably a superset of every key with frequency above ``N/capacity``.
  Entries carry auxiliary aggregates (plan-cache hits, summed latency) so
  ``GET /analytics`` can report per-signature plan-hit rates and mean
  latency -- the direct input for the ROADMAP's hot-signature promotion.
* :class:`QuantileSketch` -- a fixed-relative-accuracy log-bucket quantile
  sketch in the DDSketch family: bucket ``i`` covers
  ``(gamma^(i-1), gamma^i]`` with ``gamma = (1+alpha)/(1-alpha)``, so any
  reported quantile is within relative error *alpha* of the true value and
  two sketches merge by bucket-wise addition.  It is also the one latency
  store of the HTTP tier (:class:`repro.obs.metrics.MetricsRegistry`),
  whose ``/metrics`` histograms are rendered from it.

:class:`WorkloadAnalytics` bundles heavy hitters and per-label quantile
sketches behind a lock; the process-global :func:`workload_analytics`
instance is the worker-side view, recorded at ``execute_request`` time and
shipped inside the telemetry snapshot.

The layer is always-on but cheap (a dict update and a ``log`` per
request); its cost sits inside the end-to-end bounds of the ``perfbench/``
benchmark, whose ``obs.record_ms`` layer metric times the recording.
"""

from __future__ import annotations

import hashlib
import math
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SpaceSavingSketch",
    "QuantileSketch",
    "WorkloadAnalytics",
    "workload_analytics",
    "analytics_enabled",
    "set_analytics_enabled",
    "analytics_disabled",
    "merge_analytics_states",
    "analytics_report",
]

#: Default bound on tracked heavy-hitter entries (error <= N/capacity).
DEFAULT_TOP_CAPACITY = 64

#: Default relative accuracy of the quantile sketches (1%).
DEFAULT_ALPHA = 0.01

#: Values at or below this collapse into the quantile sketch's zero bucket
#: (sub-nanosecond latencies carry no information at alpha ~ 1%).
_ZERO_THRESHOLD = 1e-9


def signature_digest(signature: str) -> str:
    """A short process-stable digest naming one signature string."""
    return hashlib.sha1(signature.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Space-Saving heavy hitters.
# ---------------------------------------------------------------------------

class SpaceSavingSketch:
    """Bounded heavy-hitter counters with per-entry auxiliary aggregates.

    ``observe`` either increments a tracked entry, claims a free slot, or
    -- at capacity -- evicts the minimum-count entry and inherits its count
    as the new entry's ``error`` bound (the classic Space-Saving update:
    every tracked count overestimates the true frequency by at most its
    ``error``, and every key with true frequency above ``total/capacity``
    is guaranteed to be tracked).

    Auxiliary aggregates (``plan_hits``, ``latency_sum``) are exact for the
    tracked span of an entry's life; an entry that took over an evicted
    slot starts its aggregates fresh, so rates/means are reported over the
    tracked observations only.
    """

    def __init__(self, capacity: int = DEFAULT_TOP_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.total = 0
        self._entries: Dict[str, Dict[str, float]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def observe(
        self, key: str, *, plan_hit: bool = False, latency_s: float = 0.0
    ) -> None:
        self.total += 1
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) < self.capacity:
                entry = {"count": 0, "error": 0, "plan_hits": 0, "latency_sum": 0.0}
            else:
                victim = min(self._entries, key=lambda k: self._entries[k]["count"])
                floor = self._entries.pop(victim)["count"]
                entry = {
                    "count": floor,
                    "error": floor,
                    "plan_hits": 0,
                    "latency_sum": 0.0,
                }
            self._entries[key] = entry
        entry["count"] += 1
        if plan_hit:
            entry["plan_hits"] += 1
        entry["latency_sum"] += float(latency_s)

    def top(self, k: int = 10) -> List[Dict[str, Any]]:
        """The *k* largest tracked entries, largest count first."""
        ranked = sorted(
            self._entries.items(), key=lambda item: (-item[1]["count"], item[0])
        )
        out: List[Dict[str, Any]] = []
        for key, entry in ranked[: max(0, k)]:
            tracked = entry["count"] - entry["error"]
            out.append(
                {
                    "signature": key,
                    "digest": signature_digest(key),
                    "count": int(entry["count"]),
                    "error": int(entry["error"]),
                    "plan_hits": int(entry["plan_hits"]),
                    "plan_hit_rate": (
                        entry["plan_hits"] / tracked if tracked > 0 else 0.0
                    ),
                    "mean_latency_s": (
                        entry["latency_sum"] / tracked if tracked > 0 else 0.0
                    ),
                }
            )
        return out

    # ----------------------------------------------------------------- state
    def to_state(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "entries": {key: dict(entry) for key, entry in self._entries.items()},
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "SpaceSavingSketch":
        sketch = cls(capacity=int(state.get("capacity", DEFAULT_TOP_CAPACITY)))
        sketch.total = int(state.get("total", 0))
        for key, entry in (state.get("entries") or {}).items():
            sketch._entries[str(key)] = {
                "count": int(entry.get("count", 0)),
                "error": int(entry.get("error", 0)),
                "plan_hits": int(entry.get("plan_hits", 0)),
                "latency_sum": float(entry.get("latency_sum", 0.0)),
            }
        return sketch

    def merge(self, state: Mapping) -> None:
        """Fold another sketch's state into this one.

        Counts, error bounds and auxiliary aggregates add per key; when the
        union exceeds capacity the smallest-count entries are dropped
        (their mass stays in ``total``).  For disjoint key sets that fit in
        capacity -- the cross-worker case the pool produces, since affinity
        routing sends each signature to one worker -- the merge is exact.
        """
        self.total += int(state.get("total", 0))
        for key, entry in (state.get("entries") or {}).items():
            key = str(key)
            mine = self._entries.get(key)
            if mine is None:
                self._entries[key] = {
                    "count": int(entry.get("count", 0)),
                    "error": int(entry.get("error", 0)),
                    "plan_hits": int(entry.get("plan_hits", 0)),
                    "latency_sum": float(entry.get("latency_sum", 0.0)),
                }
            else:
                mine["count"] += int(entry.get("count", 0))
                mine["error"] += int(entry.get("error", 0))
                mine["plan_hits"] += int(entry.get("plan_hits", 0))
                mine["latency_sum"] += float(entry.get("latency_sum", 0.0))
        if len(self._entries) > self.capacity:
            ranked = sorted(
                self._entries.items(), key=lambda item: (-item[1]["count"], item[0])
            )
            self._entries = dict(ranked[: self.capacity])


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

    def summary(self) -> Dict[str, float]:
        """Count plus the dashboard quantiles, for ``GET /analytics``."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_s": self.sum / self.count,
            "p50_s": self.quantile(0.5),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "max_s": self.max,
        }

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
    """One process's workload-analytics state: heavy hitters and latency
    quantile sketches keyed by ``(metric name, label key, label value)``.
    Thread-safe; serializes to one plain ``state()`` dict whose numeric
    top-level keys double as ``/metrics`` gauges for the ``analytics``
    telemetry layer."""

    def __init__(
        self, top_capacity: int = DEFAULT_TOP_CAPACITY, alpha: float = DEFAULT_ALPHA
    ) -> None:
        self.alpha = alpha
        self._lock = threading.Lock()
        self.signatures = SpaceSavingSketch(top_capacity)
        self._latency: Dict[Tuple[str, str, str], QuantileSketch] = {}
        self.requests = 0
        self.plan_hits = 0

    # -------------------------------------------------------------- recording
    def record_request(
        self, signature: str, *, plan_hit: bool, latency_s: float
    ) -> None:
        """One served compile request: heavy-hitter entry plus counters."""
        with self._lock:
            self.requests += 1
            self.signatures.observe(signature, plan_hit=plan_hit, latency_s=latency_s)
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
                "tracked_signatures": len(self.signatures),
                "signatures": self.signatures.to_state(),
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
            if state.get("signatures"):
                self.signatures.merge(state["signatures"])
            for entry in state.get("latency") or ():
                key = (entry["name"], entry["label"], str(entry["value"]))
                sketch = self._latency.get(key)
                if sketch is None:
                    sketch = self._latency[key] = QuantileSketch(
                        alpha=float(entry["sketch"].get("alpha", self.alpha))
                    )
                sketch.merge(entry["sketch"])

    def reset(self) -> None:
        """Drop every sketch (the analytics half of ``telemetry.reset``)."""
        with self._lock:
            self.signatures = SpaceSavingSketch(self.signatures.capacity)
            self._latency = {}
            self.requests = 0
            self.plan_hits = 0


# ---------------------------------------------------------------------------
# Process globals and the enable gate.
# ---------------------------------------------------------------------------

#: Worker-side analytics: signatures + compile-phase latencies, recorded by
#: ``execute_request`` and shipped inside ``telemetry.snapshot()``.
_WORKLOAD = WorkloadAnalytics()

_ENABLED = True


def workload_analytics() -> WorkloadAnalytics:
    """The process-global worker-side analytics instance."""
    return _WORKLOAD


def analytics_enabled() -> bool:
    """Whether recording is on (it is by default)."""
    return _ENABLED


def set_analytics_enabled(enabled: bool) -> bool:
    """Toggle recording process-wide; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def analytics_disabled():
    """``with analytics_disabled():`` -- recording off for the block."""
    previous = set_analytics_enabled(False)
    try:
        yield
    finally:
        set_analytics_enabled(previous)


# ---------------------------------------------------------------------------
# Merging and reporting.
# ---------------------------------------------------------------------------

def merge_analytics_states(states: Iterable[Mapping]) -> Dict[str, Any]:
    """Pool several ``WorkloadAnalytics.state()`` dicts into one.

    The ``telemetry.aggregate`` hook for the ``analytics`` layer: sketches
    merge sketch-wise (never summed like plain counters).  An empty input
    yields an empty state, so a pool with no usable workers still reports
    the layer.
    """
    merged = WorkloadAnalytics()
    seeded = False
    for state in states:
        if not isinstance(state, Mapping):
            continue
        if not seeded and state.get("signatures"):
            # Adopt the first real state's capacity so it survives the
            # round trip.
            merged.signatures = SpaceSavingSketch(
                int(state["signatures"].get("capacity", DEFAULT_TOP_CAPACITY))
            )
            seeded = True
        merged.merge_state(state)
    return merged.state()


def analytics_report(
    state: Optional[Mapping],
    service_state: Optional[Mapping] = None,
    top: int = 10,
) -> Dict[str, Any]:
    """The ``GET /analytics`` body: top-k signatures + latency summaries.

    *state* is the pooled worker-side layer (from ``executor.stats()``),
    *service_state* the HTTP tier's latency sketches in the same shape
    (:meth:`repro.obs.metrics.MetricsRegistry.latency_entries`); the two hold
    disjoint metric names, so merging them is lossless.
    """
    merged = merge_analytics_states(
        [s for s in (state, service_state) if isinstance(s, Mapping)]
    )
    sketch = SpaceSavingSketch.from_state(merged.get("signatures") or {})
    requests = int(merged.get("requests", 0))
    plan_hits = int(merged.get("plan_hits", 0))
    latency: Dict[str, Dict[str, Dict[str, float]]] = {}
    for entry in merged.get("latency") or ():
        summary = QuantileSketch.from_state(entry["sketch"]).summary()
        latency.setdefault(entry["name"], {})[str(entry["value"])] = summary
    return {
        "requests": requests,
        "plan_hits": plan_hits,
        "plan_hit_rate": plan_hits / requests if requests else 0.0,
        "signatures": {
            "capacity": sketch.capacity,
            "tracked": len(sketch),
            "total": sketch.total,
            "top": sketch.top(top),
        },
        "latency": latency,
    }
