"""Observability: tracing, metrics, logging, analytics, explanations.

Five stdlib-only modules, threaded through every layer of the pipeline:

* :mod:`repro.obs.trace` -- opt-in span trees for one compilation
  (``CompileOptions(trace=True)``), exportable as raw JSON or Chrome
  trace-event JSON (Perfetto-loadable), tagged with the service request id;
* :mod:`repro.obs.metrics` -- sketch-backed latency histograms
  and the Prometheus text exposition behind ``GET /metrics``;
* :mod:`repro.obs.analytics` -- request/plan-hit counters and mergeable
  DDSketch-style latency quantile sketches over service traffic
  (``repro_*_latency{quantile=...}`` on ``/metrics``);
* :mod:`repro.obs.logging` -- JSON-lines logging setup for the service
  (worker restarts, saturation rejections, snapshot loads/saves), with a
  token-bucket suppressor for per-request-triggerable warnings;
* :mod:`repro.obs.explain` -- plan and execution provenance reports
  (:meth:`CompilationResult.explain`, :meth:`ExecuteResponse.explain`).

Tracing is zero-overhead when disabled (the hot DP loops never see a
tracer object), and the always-on analytics layer is sketch-cheap.
``tests/test_obs.py`` checks that a dropped tracer leaves later solves
unwrapped; the wall-clock cost of both layers sits inside the end-to-end
bounds of the ``perfbench/`` benchmark.
"""

from .analytics import (
    QuantileSketch,
    WorkloadAnalytics,
    merge_analytics_states,
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
    MetricsRegistry,
    render_prometheus,
    render_quantile_lines,
)
from .trace import Span, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "JsonFormatter",
    "MetricsRegistry",
    "QuantileSketch",
    "Span",
    "TokenBucketSuppressor",
    "Tracer",
    "WorkloadAnalytics",
    "configure_logging",
    "explain_execution",
    "explain_result",
    "get_logger",
    "log_rate_limited",
    "merge_analytics_states",
    "provenance_of",
    "render_prometheus",
    "render_quantile_lines",
]
