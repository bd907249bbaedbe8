"""Telemetry layers: the uniform stats protocol, one counter type, pooling.

A :class:`~repro.frontend.compiler.Compiler` session keeps a registry of
nine telemetry layers and reports them in this order as the ``caches``
object of ``GET /stats`` (:meth:`Compiler.cache_stats`):

* ``plan_cache`` -- the session's whole-plan cache
  (:class:`repro.persist.plan_cache.PlanCache`);
* ``match_cache`` -- the kernel catalog's signature-keyed match cache
  (:class:`repro.matching.match_cache.MatchCache`);
* ``interner`` -- the expression hash-consing table
  (:class:`repro.algebra.interning.ExpressionInterner`);
* ``inference`` -- the property-inference memo
  (:class:`repro.algebra.inference.PropertyInference`);
* ``kernel_cost`` -- retired: metrics hold no kernel-cost memo, so the
  entry reports zero counters;
* ``solver`` -- DP cells evaluated, split candidates pruned,
  anti-diagonals entered and decision-memo hits/misses of every solve
  the session ran;
* ``segments`` -- programs decomposed, chain segments, synthetic
  segments, CSE reuses and per-segment plan-cache hits/misses;
* ``execution`` -- the session's module-loader cache plus the runs, run
  errors and numerical-validation failures of ``POST /execute``;
* ``analytics`` -- served-request and plan-hit counters plus mergeable
  compile-phase latency sketches
  (:class:`repro.obs.analytics.WorkloadAnalytics`).

The interner, the inference memo and the default catalog's match cache
are value caches shared by the process (their answers do not depend on
the session); the session registers them by reference.  Every other layer
is owned by the session, so two sessions never share a counter.

Each layer answers ``stats()`` (a plain dict: ``layer``, its counters and
``hit_rate``) and ``reset_stats()``.  :class:`Counters` is the one counter
type of the ``solver``, ``segments`` and ``execution`` layers.
:func:`aggregate` pools the snapshots of many pool workers into fleet-wide
counters: numeric keys sum and ``hit_rate`` is recomputed from the pooled
hits/misses (never averaged, so a busy worker weighs by its traffic); the
``analytics`` layer merges sketch-wise instead.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Sequence

from .obs.analytics import merge_analytics_states

__all__ = ["Counters", "aggregate"]


def _with_hit_rate(stats: Dict[str, object]) -> Dict[str, object]:
    hits = stats.get("hits", 0)
    total = hits + stats.get("misses", 0)  # type: ignore[operator]
    stats["hit_rate"] = hits / total if total else 0.0  # type: ignore[operator]
    return stats


class Counters:
    """Named integer counters of one telemetry layer (thread-safe)."""

    def __init__(self, layer: str, names: Sequence[str]) -> None:
        self.layer = layer
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def add(self, **amounts: int) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self._values[name] += amount

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {"layer": self.layer}
        with self._lock:
            stats.update(self._values)
        return _with_hit_rate(stats)

    def reset_stats(self) -> None:
        with self._lock:
            self._values = dict.fromkeys(self._values, 0)


def combine(entries: Iterable[Mapping], layer: str) -> Dict[str, object]:
    """Pool same-layer stats dicts: every numeric key sums, ``hit_rate`` is
    recomputed from the pooled hits and misses."""
    combined: Dict[str, object] = {"layer": layer}
    for entry in entries:
        for key, value in entry.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                combined[key] = combined.get(key, 0) + value  # type: ignore[operator]
    return _with_hit_rate(combined)


def aggregate(
    snapshots: Iterable[Mapping[str, Mapping]], layers: Iterable[str] = ()
) -> Dict[str, dict]:
    """Pool per-worker snapshots into fleet-wide counters per layer.

    *layers* names the layers to report first and even when no snapshot
    carries them, so a pool whose workers all fail to answer keeps the
    ``caches`` layout; layers only the snapshots name follow.
    """
    snapshots = list(snapshots)
    names = dict.fromkeys(layers)
    for snap in snapshots:
        names.update(dict.fromkeys(snap))
    pooled: Dict[str, dict] = {}
    for layer in names:
        entries = [snap[layer] for snap in snapshots if layer in snap]
        pooled[layer] = (
            merge_analytics_states(entries)
            if layer == "analytics"
            else combine(entries, layer)
        )
    pooled["workers"] = len(snapshots)
    return pooled
