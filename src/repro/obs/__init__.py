"""Observability: tracing, metrics, logging, analytics, profiling.

Six stdlib-only modules, threaded through every layer of the pipeline:

* :mod:`repro.obs.trace` -- opt-in span trees for one compilation
  (``CompileOptions(trace=True)``), exportable as raw JSON or Chrome
  trace-event JSON (Perfetto-loadable), tagged with the service request id;
* :mod:`repro.obs.metrics` -- counters, sketch-backed latency histograms
  and the Prometheus text exposition behind ``GET /metrics``;
* :mod:`repro.obs.analytics` -- mergeable streaming sketches over service
  traffic: Space-Saving heavy hitters over request signatures
  (``GET /analytics``) and DDSketch-style latency quantiles
  (``repro_*_latency{quantile=...}`` on ``/metrics``);
* :mod:`repro.obs.profile` -- opt-in per-request ``cProfile`` deep
  profiles (``CompileOptions(profile=True)`` / ``POST /profile``), with
  ``flamegraph.pl``-compatible collapsed-stack output;
* :mod:`repro.obs.logging` -- JSON-lines logging setup for the service
  (worker restarts, saturation rejections, snapshot loads/saves), with a
  token-bucket suppressor for per-request-triggerable warnings;
* :mod:`repro.obs.explain` -- plan and execution provenance reports
  (:meth:`CompilationResult.explain`, :meth:`ExecuteResponse.explain`).

Tracing and profiling are zero-overhead when disabled (the hot DP loops
never see a tracer or profiler object), and the always-on analytics layer
is sketch-cheap.  ``tests/test_obs.py`` checks that a dropped tracer
leaves later solves unwrapped; the wall-clock cost of both layers sits
inside the end-to-end bounds of the ``perfbench/`` benchmark.
"""

from .analytics import (
    QuantileSketch,
    SpaceSavingSketch,
    WorkloadAnalytics,
    analytics_disabled,
    analytics_enabled,
    analytics_report,
    merge_analytics_states,
    set_analytics_enabled,
    workload_analytics,
)
from .explain import explain_execution, explain_result, provenance_of
from .logging import (
    JsonFormatter,
    TokenBucketSuppressor,
    configure_logging,
    get_logger,
    log_rate_limited,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    MetricsRegistry,
    render_prometheus,
    render_quantile_lines,
    reset_service_metrics,
    service_metrics,
)
from .profile import collapsed_stacks, profile_call, profile_payload, top_functions
from .trace import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "JsonFormatter",
    "MetricsRegistry",
    "QuantileSketch",
    "Span",
    "SpaceSavingSketch",
    "TokenBucketSuppressor",
    "Tracer",
    "WorkloadAnalytics",
    "analytics_disabled",
    "analytics_enabled",
    "analytics_report",
    "collapsed_stacks",
    "configure_logging",
    "explain_execution",
    "explain_result",
    "get_logger",
    "log_rate_limited",
    "merge_analytics_states",
    "profile_call",
    "profile_payload",
    "provenance_of",
    "render_prometheus",
    "render_quantile_lines",
    "reset_service_metrics",
    "service_metrics",
    "set_analytics_enabled",
    "top_functions",
    "workload_analytics",
]
