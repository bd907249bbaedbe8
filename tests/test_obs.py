"""Tests for the observability layer (repro.obs): tracing, metrics, logs.

Covers the PR 8 acceptance criteria:

* ``GET /metrics`` returns well-formed Prometheus text exposition carrying
  every cache-telemetry layer of the session and the per-endpoint latency histograms
  rendered from the latency sketches (monotone cumulative buckets ending
  in ``le="+Inf"``, one sample per request whether or not analytics is on);
* request ids propagate: header -> request wire -> pool worker -> response
  body -> echoed ``X-Request-Id`` header;
* a traced multi-segment DAG compile yields a span tree with per-segment
  provenance, per-diagonal DP phases and a Chrome trace-event export.
"""

from __future__ import annotations

import http.client
import io
import json
import logging
import random
import re
import urllib.request

import pytest

from repro.frontend import Compiler, compile_source
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    JsonFormatter,
    MetricsRegistry,
    QuantileSketch,
    Tracer,
    explain_result,
    get_logger,
    provenance_of,
    render_prometheus,
)
from repro.obs.metrics import format_value, sanitize_metric_name
from repro.options import CompileOptions
from repro.service import CompileRequest, InProcessExecutor, WorkerPool
from repro.service.http import start_server

#: A multi-assignment program that decomposes into several chain segments
#: (a shared chain, a dependent chain referencing an earlier target, and a
#: non-chain synthetic subtree), exercising per-segment spans.
DAG_SOURCE = """
Matrix A (120, 120) <spd>
Matrix B (120, 80) <>
Matrix C (80, 80) <lower_triangular, non_singular>
Matrix D (80, 40) <>
Y := A^-1 * B * C^T
Z := Y * D
"""

#: Prometheus text-exposition line shapes (version 0.0.4): comments,
#: ``name value`` and ``name{labels} value``.
_EXPO_LINE = re.compile(
    r"^(#( (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*)?"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9eE\.\+\-]+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+|-)?(Inf|NaN))$"
)


def assert_well_formed_exposition(text: str) -> None:
    assert text.endswith("\n"), "exposition must end with a newline"
    for line in text.rstrip("\n").splitlines():
        assert _EXPO_LINE.match(line), f"malformed exposition line: {line!r}"


# ---------------------------------------------------------------------------
# Tracer / span tree
# ---------------------------------------------------------------------------

class TestTracer:
    def test_spans_nest_via_begin_end(self):
        tracer = Tracer()
        tracer.begin("outer", kind="test")
        tracer.begin("inner")
        tracer.end(cells=3)
        tracer.end()
        (outer,) = tracer.finish()
        assert outer.name == "outer" and outer.attrs["kind"] == "test"
        (inner,) = outer.children
        assert inner.name == "inner" and inner.attrs["cells"] == 3
        assert 0.0 <= inner.start <= inner.end <= outer.end

    def test_span_context_manager_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("phase"):
                tracer.begin("leftover")
                raise RuntimeError("boom")
        assert tracer.current() is None
        (root,) = tracer.roots
        assert root.end is not None and root.children[0].end is not None

    def test_add_phase_marks_aggregates(self):
        tracer = Tracer()
        with tracer.span("diagonal") as parent:
            tracer.add_phase(parent, "kernel_matching", parent.start, 0.001)
        (phase,) = tracer.find("kernel_matching")
        assert phase.attrs["aggregated"] is True
        assert phase.duration == pytest.approx(0.001)

    def test_json_and_chrome_exports(self, tmp_path):
        tracer = Tracer()
        with tracer.span("compile", solver="gmc"):
            with tracer.span("segment", target="X"):
                pass
        payload = tracer.to_json()
        assert payload["format"] == "repro-trace" and payload["unit"] == "seconds"
        # Round-trips through json.dumps (everything is JSON-safe).
        json.dumps(payload)
        events = tracer.to_chrome_trace()
        assert [event["name"] for event in events] == ["compile", "segment"]
        for event in events:
            assert event["ph"] == "X" and event["pid"] == 1 and event["tid"] == 1
            assert event["dur"] >= 0.0 and event["ts"] >= 0.0
        raw = tmp_path / "trace.json"
        chrome = tmp_path / "trace.chrome.json"
        tracer.write(str(raw), fmt="json")
        tracer.write(str(chrome), fmt="chrome")
        assert json.loads(raw.read_text())["spans"]
        assert json.loads(chrome.read_text())["traceEvents"]
        with pytest.raises(ValueError):
            tracer.write(str(raw), fmt="bogus")


# ---------------------------------------------------------------------------
# Metrics primitives
# ---------------------------------------------------------------------------

class TestSketchHistogram:
    def test_cumulative_buckets_are_monotone(self):
        sketch = QuantileSketch()
        for value in (0.00005, 0.0003, 0.0003, 0.07, 3.0, 100.0):
            sketch.observe(value)
        counts = sketch.cumulative_counts(DEFAULT_LATENCY_BUCKETS)
        assert counts == sorted(counts), "cumulative counts must be monotone"
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        # The 100.0 observation lands only in the +Inf overflow bucket.
        assert sketch.count == 6 and counts[-1] == 5
        assert sketch.sum == pytest.approx(103.07065)

    def test_bucket_counts_within_sketch_accuracy(self):
        rng = random.Random(7)
        values = [10 ** rng.uniform(-5, 1.5) for _ in range(2000)]
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        counts = sketch.cumulative_counts(DEFAULT_LATENCY_BUCKETS)
        for bound, count in zip(DEFAULT_LATENCY_BUCKETS, counts):
            at_most = sum(1 for v in values if v <= bound)
            within_gamma = sum(1 for v in values if v <= bound * sketch.gamma)
            assert at_most <= count <= within_gamma, bound

    def test_default_buckets_cover_latency_decades(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 1e-4
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 10.0


class TestRegistryAndExposition:
    def test_registry_renders_histogram_triple(self):
        registry = MetricsRegistry()
        registry.observe(
            "repro_request_latency_seconds",
            0.02,
            help_text="latency",
            endpoint="/compile",
            method="POST",
        )
        text = "\n".join(registry.render()) + "\n"
        assert_well_formed_exposition(text)
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert re.search(
            r'repro_request_latency_seconds_count\{endpoint="/compile",method="POST"\} 1',
            text,
        )

    def test_render_prometheus_layers_and_gauges(self):
        layers = {
            "plan_cache": {"hits": 3, "misses": 1, "hit_rate": 0.75},
            "workers": 2,  # scalar entries render as standalone gauges
        }
        text = render_prometheus(
            cache_layers=layers, extra_gauges={"pool_requests": 7}
        )
        assert_well_formed_exposition(text)
        assert 'repro_hits{layer="plan_cache"} 3' in text
        assert "repro_workers 2" in text
        assert "repro_pool_requests 7" in text

    def test_name_and_value_formatting(self):
        assert sanitize_metric_name("hit rate%") == "hit_rate_"
        assert format_value(3.0) == "3"
        assert format_value(0.75) == "0.75"
        assert format_value(float("inf")) == "+Inf"


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------

class TestLogging:
    def test_json_formatter_emits_parseable_lines_with_extras(self):
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger = logging.getLogger("repro.test.obs")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        try:
            logger.info(
                "worker crashed, restarted transparently",
                extra={"worker": 1, "exitcode": -9, "request_id": "abc123"},
            )
        finally:
            logger.removeHandler(handler)
        record = json.loads(stream.getvalue())
        assert record["event"] == "worker crashed, restarted transparently"
        assert record["level"] == "info"
        assert record["worker"] == 1 and record["request_id"] == "abc123"
        assert isinstance(record["ts"], float)

    def test_get_logger_lives_under_repro_namespace(self):
        assert get_logger("service.pool").name == "repro.service.pool"


# ---------------------------------------------------------------------------
# Traced compilation (tentpole end-to-end)
# ---------------------------------------------------------------------------

def trace_has_phases(trace):
    """Every diagonal span carries the kernel-matching and inference phases."""
    for span in trace.find("diagonal"):
        names = {child.name for child in span.children}
        if not {"kernel_matching", "inference"} <= names:
            return False
    return True


class TestTracedCompile:
    def test_multi_segment_trace_has_phases_and_provenance(self):
        result = compile_source(DAG_SOURCE, options=CompileOptions(trace=True))
        trace = result.trace
        assert trace is not None
        (root,) = trace.roots
        assert root.name == "compile" and root.end is not None
        # Pipeline phases under the compile root.
        assert trace.find("parse") and trace.find("decompose")
        segments = trace.find("segment")
        assert len(segments) == len(result.assignments) >= 2
        targets = {span.attrs["target"] for span in segments}
        assert {"Y", "Z"} <= targets
        for span in segments:
            assert span.attrs["provenance"] in {"cold_dp", "plan_cache", "trivial"}
            assert span.end is not None
        # Cold solves carry solve -> dp_fill -> diagonal spans with DP-work
        # deltas and the aggregate kernel-matching/inference phases.
        solves = trace.find("solve")
        assert solves, "cold segments must record solver spans"
        diagonals = trace.find("diagonal")
        assert diagonals, "traced fill must record per-diagonal spans"
        assert any(span.attrs.get("cells_evaluated", 0) > 0 for span in diagonals)
        assert trace_has_phases(trace)
        # Chrome export covers every span in the tree.
        events = trace.to_chrome_trace()
        assert {event["name"] for event in events} >= {
            "compile",
            "segment",
            "solve",
            "dp_fill",
            "diagonal",
        }

    def test_untraced_compile_carries_no_tracer(self):
        result = compile_source(DAG_SOURCE)
        assert result.trace is None

    def test_second_compile_reports_plan_cache_provenance(self):
        from repro.frontend.compiler import Compiler

        compiler = Compiler(CompileOptions(trace=True))
        first = compiler.compile(DAG_SOURCE)
        assert {provenance_of(c) for c in first.assignments} == {"cold_dp"}
        second = compiler.compile(DAG_SOURCE)
        assert {provenance_of(c) for c in second.assignments} == {"plan_cache"}
        lookups = second.trace.find("plan_cache_lookup")
        assert lookups and all(span.attrs["hit"] for span in lookups)
        for span in second.trace.find("segment"):
            assert span.attrs["provenance"] == "plan_cache"

    def test_explain_renders_provenance_report(self):
        from repro.frontend.compiler import Compiler

        compiler = Compiler(CompileOptions(trace=True))
        compiler.compile(DAG_SOURCE)
        report = compiler.compile(DAG_SOURCE).explain()
        assert "plan provenance:" in report
        assert "plan-cache hit" in report
        assert "Y :=" in report and "Z :=" in report
        assert explain_result is not None  # the public alias backs .explain()

    def test_exhaustive_trace_records_diagonals(self):
        result = compile_source(
            DAG_SOURCE, options=CompileOptions(trace=True, prune=False)
        )
        diagonals = result.trace.find("diagonal")
        assert diagonals and all(span.end is not None for span in diagonals)
        assert all(span.attrs["cells_pruned"] == 0 for span in diagonals)
        assert trace_has_phases(result.trace)

    def test_dropped_tracer_leaves_later_solves_untraced(self, monkeypatch):
        """Once a solver's tracer is set back to None, its next solve records
        nothing in the old tracer and runs no timing wrapper: tracing costs
        nothing unless it is on."""
        from repro.algebra import Matrix, Property, Times
        from repro.core import GMCAlgorithm, gmc

        wrapped_calls = []
        real_timed = gmc._timed

        def counting_timed(function, totals, key):
            timed = real_timed(function, totals, key)

            def counted(*args):
                wrapped_calls.append(key)
                return timed(*args)

            return counted

        monkeypatch.setattr(gmc, "_timed", counting_timed)
        chain = Times(
            Matrix("A", 120, 120, {Property.SPD}).I,
            Matrix("B", 120, 80),
            Matrix("C", 80, 80, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR}).T,
            Matrix("D", 80, 40),
            Matrix("E", 40, 90),
        )
        algorithm = GMCAlgorithm()
        tracer = Tracer()
        algorithm.tracer = tracer
        traced = algorithm.solve(chain)
        recorded = json.dumps(tracer.to_json(), sort_keys=True)
        assert tracer.find("diagonal") and wrapped_calls

        algorithm.tracer = None
        wrapped_calls.clear()
        untraced = algorithm.solve(chain)
        assert wrapped_calls == []
        assert json.dumps(tracer.to_json(), sort_keys=True) == recorded
        assert untraced.kernel_sequence() == traced.kernel_sequence()
        assert untraced.parenthesization() == traced.parenthesization()
        assert untraced.optimal_cost == traced.optimal_cost

    def test_trace_flag_stays_out_of_plan_fingerprint(self):
        from repro.persist.plan_cache import plan_fingerprint

        base = CompileOptions()
        traced = CompileOptions(trace=True)
        assert plan_fingerprint(base) == plan_fingerprint(traced)
        assert CompileOptions.from_wire(traced.to_wire()).trace is True
        assert CompileOptions.from_wire(base.to_wire()).trace is False


# ---------------------------------------------------------------------------
# Service observability: /metrics + request ids over HTTP and the pool
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def obs_service():
    executor = InProcessExecutor()
    server, thread = start_server(executor, port=0)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base
    server.shutdown()
    thread.join(timeout=5.0)
    executor.close()


def _request(url, payload=None, headers=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data, headers=dict(headers or {}))
    if payload is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=60) as response:
        body = response.read().decode("utf-8")
        return response.status, dict(response.headers), body


class TestServiceObservability:
    def test_metrics_exposition_is_well_formed_with_all_layers(self, obs_service):
        # Generate some traffic first so histograms and telemetry are live.
        _request(
            f"{obs_service}/compile",
            {"source": "Matrix A (10, 10) <>\nMatrix B (10, 5) <>\nX := A * B\n"},
        )
        _request(f"{obs_service}/healthz")
        status, headers, text = _request(f"{obs_service}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert_well_formed_exposition(text)
        for layer in Compiler().cache_stats():
            assert f'layer="{layer}"' in text, f"missing telemetry layer {layer}"
        assert "repro_service_workers" in text
        assert "repro_pool_requests" in text
        # Histogram triple with cumulative buckets per endpoint.
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'endpoint="/compile"' in text and 'le="+Inf"' in text
        buckets = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_request_latency_seconds_bucket")
            and 'endpoint="/compile"' in line
        ]
        assert buckets and buckets == sorted(buckets)

    def test_every_request_lands_once_in_latency_histogram(self, obs_service):
        """The latency sketch records every request exactly once; the
        histogram rendered from it stays consistent.  One keep-alive
        connection serializes the handler threads, so each request's
        latency is recorded before the next request is read."""
        requests = 5
        source = "Matrix A (6, 6) <>\nMatrix B (6, 3) <>\nX := A * B\n"
        connection = http.client.HTTPConnection(
            obs_service.split("//", 1)[1], timeout=60
        )

        def call(method, path, body=None):
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            text = response.read().decode("utf-8")
            assert response.status == 200, text
            return text

        def samples(text, suffix):
            return [
                int(float(line.rsplit(" ", 1)[1]))
                for line in text.splitlines()
                if line.startswith(f"repro_request_latency_seconds{suffix}{{")
                and 'endpoint="/compile"' in line
                and 'method="POST"' in line
            ]

        try:
            before = samples(call("GET", "/metrics"), "_count")
            for _ in range(requests):
                call("POST", "/compile", {"source": source})
            text = call("GET", "/metrics")
        finally:
            connection.close()
        buckets = samples(text, "_bucket")
        (count,) = samples(text, "_count")
        assert buckets == sorted(buckets)
        assert buckets[-1] == count  # the le="+Inf" bucket
        assert count - sum(before) == requests

    def test_request_id_header_is_echoed_and_propagates(self, obs_service):
        marker = "obs-test-req-12345"
        status, headers, body = _request(
            f"{obs_service}/compile",
            {"source": "Matrix A (8, 8) <>\nX := A * A\n"},
            headers={"X-Request-Id": marker},
        )
        assert status == 200
        assert headers["X-Request-Id"] == marker
        assert json.loads(body)["request_id"] == marker

    def test_body_request_id_wins_over_header(self, obs_service):
        status, headers, body = _request(
            f"{obs_service}/compile",
            {
                "source": "Matrix A (8, 8) <>\nX := A * A\n",
                "request_id": "body-id-789",
            },
            headers={"X-Request-Id": "header-id-123"},
        )
        assert status == 200
        assert json.loads(body)["request_id"] == "body-id-789"
        assert headers["X-Request-Id"] == "body-id-789"

    def test_fresh_request_id_generated_when_absent(self, obs_service):
        status, headers, body = _request(f"{obs_service}/healthz")
        assert status == 200
        assert re.fullmatch(r"[0-9a-f]{32}", headers["X-Request-Id"])


class TestRequestIdThroughPool:
    def test_request_id_survives_worker_round_trip(self):
        pool = WorkerPool(workers=1, request_timeout=120.0)
        try:
            request = CompileRequest(
                source="Matrix A (12, 12) <>\nMatrix B (12, 6) <>\nX := A * B\n",
                request_id="pool-req-42",
            )
            response = pool.submit(request)
            assert response.ok, response.error
            assert response.request_id == "pool-req-42"
        finally:
            pool.close()
