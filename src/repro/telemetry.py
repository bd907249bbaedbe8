"""Unified cache telemetry: snapshot, reset and aggregate every cache layer.

The compilation pipeline owns five caches plus the solver work counters,
each of which exposes the uniform ``stats()`` / ``reset_stats()`` protocol
(plain dicts with ``size``, ``max_entries``, ``hits``, ``misses``,
``hit_rate`` and ``evictions`` for the caches):

* the **plan cache** of a compiler session
  (:class:`repro.persist.plan_cache.PlanCache`) -- signature-keyed whole
  solved plans, consulted before the dynamic program runs;
* the **match cache** of a kernel catalog
  (:class:`repro.matching.match_cache.MatchCache`) -- signature-keyed
  kernel-match results;
* the **expression interner**
  (:class:`repro.algebra.interning.ExpressionInterner`) -- hash-consing
  table occupancy;
* the **inference memo**
  (:class:`repro.algebra.inference.PropertyInference`) -- memoized property
  sets;
* the **kernel-cost LRU** (:meth:`repro.cost.metrics.CostMetric.stats`) --
  memoized per-kernel cost evaluations, one memo per live metric instance;
* the **solver work counters**
  (:class:`repro.core.gmc.SolverWorkTelemetry`) -- DP cells
  evaluated, split candidates pruned, anti-diagonals entered and
  decision-memo hits/misses, summed over every solve the process ran;
* the **segment counters**
  (:class:`repro.core.segments.SegmentTelemetry`) -- DAG programs
  decomposed, chain segments produced, synthetic segments, CSE reuses and
  the per-segment plan-cache hits/misses recorded by the compiler loop;
* the **execution counters**
  (:class:`repro.exec.loader.ExecutionTelemetry`) -- emitted-module cache
  occupancy/hits of the execution tier plus the runs, run errors and
  numerical-validation failures recorded by ``POST /execute``;
* the **workload analytics** layer
  (:class:`repro.obs.analytics.WorkloadAnalytics`) -- served-request and
  plan-hit counters plus mergeable compile-phase latency quantile
  sketches.  Unlike the counter layers this one aggregates by *sketch
  merging* (:func:`repro.obs.analytics.merge_analytics_states`), not by
  summing, so pool workers ship their sketch state through the same
  ``stats`` message and ``/metrics`` renders fleet-wide quantiles.

This module never mutates pipeline state beyond ``reset_stats``; it only
*reads* the counters the layers maintain themselves, so the service layer
stays import-light and the cache layers stay service-agnostic.

:func:`snapshot` collects one process's view; :func:`aggregate` pools the
snapshots of many workers into fleet-wide counters with recomputed hit
rates (rates are recomputed from pooled hits/misses, never averaged, so a
busy worker weighs proportionally to its traffic).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .algebra.inference import inference_engine
from .algebra.interning import default_interner
from .core.gmc import solver_work_telemetry
from .core.segments import segment_telemetry
from .cost.metrics import CostMetric
from .kernels.catalog import KernelCatalog, default_catalog

__all__ = ["CACHE_LAYERS", "snapshot", "reset", "aggregate"]

#: The telemetry layers every snapshot reports, in display order.
CACHE_LAYERS = (
    "plan_cache",
    "match_cache",
    "interner",
    "inference",
    "kernel_cost",
    "solver",
    "segments",
    "execution",
    "analytics",
)

#: Counter keys that add up across workers / metric instances.
_SUMMED_KEYS = (
    "size",
    "max_entries",
    "hits",
    "misses",
    "evictions",
    "bypasses",
    "stores",
    "restored",
    "solves",
    "cells_evaluated",
    "cells_pruned",
    "diagonals",
    "programs",
    "segments",
    "synthetic",
    "cse_reuses",
    "runs",
    "run_errors",
    "validation_failures",
)


def _combine(stats: Sequence[Mapping], layer: str) -> Dict[str, object]:
    """Pool several same-layer counter dicts into one (summing counters)."""
    combined: Dict[str, object] = {"layer": layer}
    for key in _SUMMED_KEYS:
        values = [entry[key] for entry in stats if key in entry]
        if values:
            combined[key] = sum(values)
    hits = combined.get("hits", 0)
    misses = combined.get("misses", 0)
    total = hits + misses  # type: ignore[operator]
    combined["hit_rate"] = hits / total if total else 0.0  # type: ignore[operator]
    return combined


def snapshot(
    catalog: Optional[KernelCatalog] = None,
    metrics: Optional[Mapping[str, CostMetric]] = None,
    plan_cache=None,
) -> Dict[str, dict]:
    """One process's cache counters, keyed by layer name.

    *catalog* defaults to :func:`default_catalog`; *metrics* is the
    executor's cache of live metric instances (their kernel-cost memos are
    combined into one ``kernel_cost`` entry, with a per-metric breakdown
    under ``per_metric``); *plan_cache* is the session's whole-plan cache
    (the layer reports zeros when the caller has none -- the plan cache is
    per-session state, unlike the process-global interner/inference memos).
    """
    # Imported lazily: repro.exec pulls in the codegen registry, and the
    # registry's own bootstrap imports repro.exec -- deferring here keeps
    # telemetry importable from any point of that cycle.
    from .exec.loader import execution_telemetry
    from .obs.analytics import workload_analytics

    catalog = catalog if catalog is not None else default_catalog()
    plan_stats = (
        plan_cache.stats()
        if plan_cache is not None
        else {
            "layer": "plan_cache",
            "size": 0,
            "max_entries": 0,
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "evictions": 0,
            "bypasses": 0,
        }
    )
    metric_items = list((metrics or {}).items())
    metric_stats: List[dict] = [metric.stats() for _, metric in metric_items]
    kernel_cost = _combine(metric_stats, "kernel_cost")
    # Keyed by the executor's cache key (stringified), not by the metric's
    # display name: two live instances of one metric (e.g. the same name
    # under different cost_cache_size settings) must not overwrite each
    # other in the breakdown.
    kernel_cost["per_metric"] = {
        str(cache_key): {
            key: value for key, value in entry.items() if key != "metric"
        }
        for (cache_key, _), entry in zip(metric_items, metric_stats)
    }
    return {
        "plan_cache": plan_stats,
        "match_cache": catalog.match_cache.stats(),
        "interner": default_interner().stats(),
        "inference": inference_engine().stats(),
        "kernel_cost": kernel_cost,
        "solver": solver_work_telemetry().stats(),
        "segments": segment_telemetry().stats(),
        "execution": execution_telemetry().stats(),
        "analytics": workload_analytics().state(),
    }


def reset(
    catalog: Optional[KernelCatalog] = None,
    metrics: Optional[Mapping[str, CostMetric]] = None,
    plan_cache=None,
) -> None:
    """Zero the stats counters of every layer (entries stay warm)."""
    from .exec.loader import execution_telemetry
    from .obs.analytics import workload_analytics

    catalog = catalog if catalog is not None else default_catalog()
    if plan_cache is not None:
        plan_cache.reset_stats()
    catalog.match_cache.reset_stats()
    default_interner().reset_stats()
    inference_engine().reset_stats()
    solver_work_telemetry().reset_stats()
    segment_telemetry().reset_stats()
    execution_telemetry().reset_stats()
    workload_analytics().reset()
    for metric in (metrics or {}).values():
        metric.reset_stats()


def aggregate(snapshots: Iterable[Mapping[str, Mapping]]) -> Dict[str, dict]:
    """Pool per-worker snapshots into fleet-wide counters per layer.

    Counter layers sum; the ``analytics`` layer merges sketch-wise
    (quantile buckets add) -- summing a sketch state key-by-key would be
    meaningless.
    """
    from .obs.analytics import merge_analytics_states

    snapshots = list(snapshots)
    pooled: Dict[str, dict] = {}
    for layer in CACHE_LAYERS:
        entries = [snap[layer] for snap in snapshots if layer in snap]
        if layer == "analytics":
            pooled[layer] = merge_analytics_states(entries)
        else:
            pooled[layer] = _combine(entries, layer)
    pooled["workers"] = len(snapshots)
    return pooled
