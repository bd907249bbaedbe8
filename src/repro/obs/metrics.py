"""Stdlib-only service metrics: latency sketches and Prometheus text.

The service's ``GET /metrics`` endpoint renders these sources in the
Prometheus text exposition format (version 0.0.4):

* the uniform cache-telemetry layers (:mod:`repro.telemetry`) pooled
  across workers -- every numeric counter becomes a
  ``repro_<key>{layer="<layer>"}`` gauge sample;
* the HTTP tier's latencies, each recorded once into a mergeable
  :class:`~repro.obs.analytics.QuantileSketch` and rendered as a histogram
  (the standard ``_bucket``/``_sum``/``_count`` triple with cumulative
  ``le`` buckets at :data:`DEFAULT_LATENCY_BUCKETS` ending in ``+Inf``);
* quantile gauges (:func:`render_quantile_lines`) over the same sketches
  and over the workers' analytics sketches.

Everything here is plain stdlib (a few dicts and a lock); no client
library is required to scrape it -- ``curl host:port/metrics`` works.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .analytics import QuantileSketch, merge_analytics_states

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "render_prometheus",
    "render_quantile_lines",
]

#: Default latency bucket upper bounds, in seconds.  Chain solves span
#: microseconds (plan-cache hits) to seconds (long cold chains), so the
#: buckets cover five decades.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def sanitize_metric_name(name: str) -> str:
    """A Prometheus-legal metric name for *name* (telemetry keys are already
    ``snake_case``; this guards against future keys with odd characters)."""
    if _NAME_OK.match(name):
        return name
    cleaned = _NAME_BAD_CHARS.sub("_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition-format rules."""
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in str(value))


def format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(key)}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float != as_float:  # NaN
        return "NaN"
    if as_float in (float("inf"), float("-inf")):
        return "+Inf" if as_float > 0 else "-Inf"
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


_LabelKey = Tuple[Tuple[str, str], ...]


class MetricsRegistry:
    """Registry of labelled latency sketches.

    Each :class:`~repro.service.http.ServiceHTTPServer` owns one
    (``server.metrics``).  The HTTP tier records each request once, through :meth:`observe`, into
    ``repro_request_latency_seconds{endpoint=...,method=...}``; the
    ``/metrics`` renderer reads the sketches back as histograms
    (:meth:`render`) and as quantile series (:meth:`latency_entries`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sketches: Dict[Tuple[str, _LabelKey], QuantileSketch] = {}
        self._help: Dict[str, str] = {}

    def observe(
        self, name: str, seconds: float, help_text: str = "", **labels: str
    ) -> None:
        """Record one latency sample for ``name{labels}``."""
        key = (
            sanitize_metric_name(name),
            tuple(sorted((k, str(v)) for k, v in labels.items())),
        )
        with self._lock:
            sketch = self._sketches.get(key)
            if sketch is None:
                sketch = self._sketches[key] = QuantileSketch()
                if help_text:
                    self._help.setdefault(key[0], help_text)
            sketch.observe(seconds)

    def _snapshot(self) -> List[Tuple[str, _LabelKey, QuantileSketch]]:
        with self._lock:
            return [
                (name, label_key, QuantileSketch.from_state(sketch.to_state()))
                for (name, label_key), sketch in sorted(self._sketches.items())
            ]

    def latency_entries(self, name: str, label: str, as_name: str) -> List[dict]:
        """The *name* sketches merged down to their *label* label, as
        ``latency`` entries of the
        :meth:`~repro.obs.analytics.WorkloadAnalytics.state` shape under the
        metric name *as_name* -- what :func:`render_quantile_lines`
        consumes."""
        merged: Dict[str, QuantileSketch] = {}
        for metric, label_key, sketch in self._snapshot():
            if metric != name:
                continue
            value = dict(label_key).get(label, "")
            if value in merged:
                merged[value].merge(sketch.to_state())
            else:
                merged[value] = sketch
        return [
            {
                "name": as_name,
                "label": label,
                "value": value,
                "sketch": sketch.to_state(),
            }
            for value, sketch in sorted(merged.items())
        ]

    def render(self) -> List[str]:
        """Exposition lines: every latency sketch as a histogram with
        cumulative counts at :data:`DEFAULT_LATENCY_BUCKETS` (grouped per
        metric)."""
        with self._lock:
            help_texts = dict(self._help)
        lines: List[str] = []
        by_name: Dict[str, List[Tuple[_LabelKey, QuantileSketch]]] = {}
        for name, label_key, sketch in self._snapshot():
            by_name.setdefault(name, []).append((label_key, sketch))
        for name, entries in sorted(by_name.items()):
            lines.append(f"# HELP {name} {help_texts.get(name, '')}".rstrip())
            lines.append(f"# TYPE {name} histogram")
            for label_key, sketch in entries:
                labels = dict(label_key)
                counts = sketch.cumulative_counts(DEFAULT_LATENCY_BUCKETS)
                for bound, cumulative in zip(DEFAULT_LATENCY_BUCKETS, counts):
                    bucket_labels = dict(labels, le=format_value(bound))
                    lines.append(
                        f"{name}_bucket{format_labels(bucket_labels)} {cumulative}"
                    )
                inf_labels = dict(labels, le="+Inf")
                lines.append(
                    f"{name}_bucket{format_labels(inf_labels)} {sketch.count}"
                )
                lines.append(
                    f"{name}_sum{format_labels(labels)} {format_value(sketch.sum)}"
                )
                lines.append(f"{name}_count{format_labels(labels)} {sketch.count}")
        return lines


def _telemetry_lines(
    layers: Mapping[str, Mapping[str, object]], prefix: str
) -> List[str]:
    """Gauge samples for the pooled cache-telemetry layers.

    Samples of one metric name must be contiguous in the exposition, so
    the per-layer dicts are first pivoted into per-key sample lists.
    """
    by_metric: Dict[str, List[Tuple[str, float]]] = {}
    for layer, stats in sorted(layers.items()):
        if not isinstance(stats, Mapping):
            continue
        for key, value in sorted(stats.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metric = f"{prefix}_{sanitize_metric_name(str(key))}"
            by_metric.setdefault(metric, []).append((str(layer), value))
    lines: List[str] = []
    for metric, samples in sorted(by_metric.items()):
        lines.append(f"# HELP {metric} repro cache-telemetry counter (pooled)")
        lines.append(f"# TYPE {metric} gauge")
        for layer, value in samples:
            lines.append(
                f'{metric}{{layer="{escape_label_value(layer)}"}} {format_value(value)}'
            )
    return lines


def render_prometheus(
    cache_layers: Optional[Mapping[str, Mapping[str, object]]] = None,
    registry: Optional[MetricsRegistry] = None,
    extra_gauges: Optional[Mapping[str, float]] = None,
    prefix: str = "repro",
) -> str:
    """The full ``/metrics`` body: telemetry layers + registry + gauges.

    *cache_layers* is the pooled per-layer dict of ``executor.stats()``
    (the ``"caches"`` entry; the synthetic ``"workers"`` count renders as a
    standalone gauge).  Returns text ending in a newline, as the
    exposition format requires.
    """
    lines: List[str] = []
    if extra_gauges:
        for name, value in sorted(extra_gauges.items()):
            metric = f"{prefix}_{sanitize_metric_name(name)}"
            lines.append(f"# HELP {metric} repro service gauge")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {format_value(value)}")
    if cache_layers:
        layers = {
            name: stats
            for name, stats in cache_layers.items()
            if isinstance(stats, Mapping)
        }
        scalars = {
            name: value
            for name, value in cache_layers.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        for name, value in sorted(scalars.items()):
            metric = f"{prefix}_{sanitize_metric_name(name)}"
            lines.append(f"# HELP {metric} repro service gauge")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {format_value(value)}")
        lines.extend(_telemetry_lines(layers, prefix))
    if registry is not None:
        lines.extend(registry.render())
    return "\n".join(lines) + "\n"


def render_quantile_lines(
    states: Sequence[Optional[Mapping]],
    prefix: str = "repro",
    quantiles: Sequence[float] = (0.5, 0.95, 0.99),
) -> str:
    """Prometheus summary-style quantile gauges for ``GET /metrics``.

    Merges the latency sketches of the given analytics states and renders
    one contiguous sample block per metric name::

        repro_endpoint_latency_seconds{endpoint="/compile",quantile="0.5"} 0.0021

    Returns ``""`` when no sketch has samples (so the caller can append
    the result to an exposition body unconditionally).
    """
    merged = merge_analytics_states([s for s in states if isinstance(s, Mapping)])
    by_name: Dict[str, List[Tuple[str, str, QuantileSketch]]] = {}
    for entry in merged.get("latency") or ():
        sketch = QuantileSketch.from_state(entry["sketch"])
        if sketch.count == 0:
            continue
        by_name.setdefault(entry["name"], []).append(
            (entry["label"], str(entry["value"]), sketch)
        )
    lines: List[str] = []
    for name in sorted(by_name):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# HELP {metric} mergeable streaming quantiles (DDSketch-style)")
        lines.append(f"# TYPE {metric} gauge")
        for label_key, label_value, sketch in sorted(
            by_name[name], key=lambda item: item[1]
        ):
            label = f'{sanitize_metric_name(label_key)}="{escape_label_value(label_value)}"'
            for q in quantiles:
                value = sketch.quantile(q)
                lines.append(
                    f'{metric}{{{label},quantile="{q:g}"}} {format_value(value)}'
                )
            lines.append(
                f'{metric}_count{{{label}}} {format_value(float(sketch.count))}'
            )
    return "\n".join(lines) + "\n" if lines else ""
