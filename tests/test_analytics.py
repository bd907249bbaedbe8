"""Tests for the workload-analytics layer (repro.obs.analytics).

Covers the PR 10 acceptance criteria:

* the two sketch structures (Space-Saving heavy hitters, DDSketch-style
  log-bucket quantiles) are correct and **mergeable**: N workers seeing
  disjoint traffic pool to the same top-k and quantiles a single stream
  would produce;
* ``execute_request`` records name-abstracted request signatures with
  plan-hit provenance, and the state travels across the worker-pool
  process boundary through the existing telemetry ``stats`` path;
* the HTTP front-end serves ``GET /analytics``, quantile gauge series on
  ``GET /metrics`` and collapsed flamegraph stacks on ``POST /profile``;
* profiling hooks (``options.profile`` / ``repro.obs.profile``) return
  top-function tables and ``flamegraph.pl``-compatible collapsed stacks;
* repeated structured warnings are rate-limited by the token-bucket
  suppressor without losing the suppressed count.
"""

from __future__ import annotations

import io
import json
import logging
import random
import re
import urllib.request

import pytest

from repro.obs import reset_service_metrics
from repro.obs.analytics import (
    QuantileSketch,
    SpaceSavingSketch,
    WorkloadAnalytics,
    analytics_disabled,
    analytics_enabled,
    analytics_report,
    merge_analytics_states,
    workload_analytics,
)
from repro.obs.logging import (
    JsonFormatter,
    TokenBucketSuppressor,
    get_logger,
    log_rate_limited,
)
from repro.obs.metrics import render_quantile_lines
from repro.obs.profile import (
    collapsed_stacks,
    profile_call,
    profile_payload,
    top_functions,
)
from repro.obs.trace import Tracer
from repro.service import CompileRequest, InProcessExecutor, WorkerPool
from repro.service.api import affinity_key, execute_request
from repro.service.http import start_server


def source_for(tag: str, size: int = 60) -> str:
    """A compile problem whose structure (and thus signature) varies with
    *size* but not with *tag* (operand names are signature-abstracted)."""
    return (
        f"Matrix {tag}A ({size}, {size}) <spd>\n"
        f"Matrix {tag}B ({size}, {size - 10}) <>\n"
        f"X := {tag}A^-1 * {tag}B\n"
    )


# ---------------------------------------------------------------------------
# Space-Saving heavy hitters
# ---------------------------------------------------------------------------

class TestSpaceSavingSketch:
    def test_exact_under_capacity(self):
        sketch = SpaceSavingSketch(capacity=8)
        for key, repeats in [("a", 5), ("b", 3), ("c", 1)]:
            for _ in range(repeats):
                sketch.observe(key, plan_hit=(key == "a"), latency_s=0.01)
        top = sketch.top(3)
        assert [(e["signature"], e["count"]) for e in top] == [
            ("a", 5), ("b", 3), ("c", 1)
        ]
        assert all(e["error"] == 0 for e in top)
        assert top[0]["plan_hit_rate"] == pytest.approx(1.0)
        assert top[0]["mean_latency_s"] == pytest.approx(0.01)
        assert top[1]["plan_hit_rate"] == 0.0

    def test_eviction_inherits_min_count_as_error(self):
        sketch = SpaceSavingSketch(capacity=2)
        for _ in range(10):
            sketch.observe("hot")
        sketch.observe("warm")
        sketch.observe("new")  # evicts "warm" (count 1)
        entries = {e["signature"]: e for e in sketch.top(2)}
        assert "warm" not in entries
        assert entries["new"]["count"] == 2  # floor 1 + its own observation
        assert entries["new"]["error"] == 1
        assert sketch.total == 12  # evicted mass stays in the stream total

    def test_heavy_hitter_guarantee_under_eviction_pressure(self):
        # Any key with true frequency > total/capacity must stay tracked.
        rng = random.Random(7)
        sketch = SpaceSavingSketch(capacity=10)
        stream = ["hh"] * 400 + [f"noise{i}" for i in range(300)]
        rng.shuffle(stream)
        for key in stream:
            sketch.observe(key)
        top = sketch.top(1)
        assert top[0]["signature"] == "hh"
        # count overestimates by at most error, never underestimates.
        assert top[0]["count"] >= 400
        assert top[0]["count"] - top[0]["error"] <= 400

    def test_disjoint_merge_matches_single_stream(self):
        reference = SpaceSavingSketch(capacity=16)
        shards = [SpaceSavingSketch(capacity=16) for _ in range(3)]
        for shard_index, shard in enumerate(shards):
            for i in range(4):
                key = f"k{shard_index}.{i}"
                for _ in range(shard_index + i + 1):
                    shard.observe(key, plan_hit=True, latency_s=0.002)
                    reference.observe(key, plan_hit=True, latency_s=0.002)
        merged = SpaceSavingSketch(capacity=16)
        for shard in shards:
            merged.merge(shard.to_state())
        assert merged.total == reference.total
        assert merged.top(16) == reference.top(16)

    def test_state_roundtrip_and_empty_merge(self):
        sketch = SpaceSavingSketch(capacity=4)
        sketch.observe("x", latency_s=0.5)
        clone = SpaceSavingSketch.from_state(sketch.to_state())
        assert clone.top(4) == sketch.top(4)
        clone.merge(SpaceSavingSketch(capacity=4).to_state())
        assert clone.top(4) == sketch.top(4)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(capacity=0)


# ---------------------------------------------------------------------------
# Quantile sketch
# ---------------------------------------------------------------------------

class TestQuantileSketch:
    def test_relative_accuracy_bound(self):
        sketch = QuantileSketch(alpha=0.01)
        values = [0.0001 * i for i in range(1, 2001)]
        for value in values:
            sketch.observe(value)
        for q in (0.5, 0.95, 0.99):
            true = values[int(q * (len(values) - 1))]
            assert sketch.quantile(q) == pytest.approx(true, rel=0.025)

    def test_empty_and_single_sample(self):
        empty = QuantileSketch()
        assert empty.quantile(0.5) is None
        assert empty.summary() == {"count": 0}
        single = QuantileSketch()
        single.observe(0.125)
        # A single sample is clamped into [min, max]: exact.
        for q in (0.0, 0.5, 0.99, 1.0):
            assert single.quantile(q) == pytest.approx(0.125)

    def test_zero_bucket_collects_tiny_values(self):
        sketch = QuantileSketch()
        for _ in range(10):
            sketch.observe(0.0)
        sketch.observe(1.0)
        assert sketch.quantile(0.5) == pytest.approx(0.0)
        assert sketch.quantile(1.0) == pytest.approx(1.0, rel=0.02)

    def test_disjoint_halves_merge_equals_full_stream(self):
        full = QuantileSketch()
        low, high = QuantileSketch(), QuantileSketch()
        for i in range(1, 1001):
            value = 0.001 * i
            full.observe(value)
            (low if i <= 500 else high).observe(value)
        low.merge(high.to_state())
        for q in (0.1, 0.5, 0.9, 0.99):
            assert low.quantile(q) == pytest.approx(full.quantile(q))
        assert low.count == full.count and low.sum == pytest.approx(full.sum)

    def test_merge_accepts_json_stringified_bucket_keys(self):
        sketch = QuantileSketch()
        sketch.observe(0.25)
        state = json.loads(json.dumps(sketch.to_state()))  # int keys -> str
        clone = QuantileSketch.from_state(state)
        assert clone.quantile(0.5) == pytest.approx(sketch.quantile(0.5))

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.05).to_state())


# ---------------------------------------------------------------------------
# WorkloadAnalytics bundle + state merging
# ---------------------------------------------------------------------------

class TestWorkloadAnalytics:
    def test_record_and_state(self):
        analytics = WorkloadAnalytics()
        analytics.record_request("sig-a", plan_hit=False, latency_s=0.02)
        analytics.record_request("sig-a", plan_hit=True, latency_s=0.01)
        analytics.observe_latency("compile_phase_latency_seconds", "phase", "solve", 0.015)
        state = analytics.state()
        assert state["layer"] == "analytics"
        assert state["requests"] == 2 and state["plan_hits"] == 1
        assert state["tracked_signatures"] == 1
        assert state["latency"][0]["value"] == "solve"

    def test_merge_disjoint_states_matches_single_stream(self):
        reference = WorkloadAnalytics()
        shards = [WorkloadAnalytics() for _ in range(2)]
        for index, shard in enumerate(shards):
            for i in range(5):
                signature = f"sig-{index}-{i % 2}"
                for target in (shard, reference):
                    target.record_request(
                        signature, plan_hit=(i > 0), latency_s=0.001 * (i + 1)
                    )
                    target.observe_latency(
                        "compile_phase_latency_seconds",
                        "phase",
                        "solve",
                        0.001 * (i + 1) * (index + 1),
                    )
        merged = merge_analytics_states([shard.state() for shard in shards])
        expected = reference.state()
        assert merged["requests"] == expected["requests"] == 10
        assert merged["plan_hits"] == expected["plan_hits"]
        merged_report = analytics_report(merged)
        expected_report = analytics_report(expected)
        assert merged_report["signatures"]["top"] == expected_report["signatures"]["top"]
        merged_solve = merged_report["latency"]["compile_phase_latency_seconds"]["solve"]
        expected_solve = expected_report["latency"]["compile_phase_latency_seconds"]["solve"]
        # Summation order differs between the merged and single-stream
        # paths, so compare the summaries to float tolerance.
        assert merged_solve == pytest.approx(expected_solve)

    def test_merge_empty_list_and_single_state(self):
        assert merge_analytics_states([])["requests"] == 0
        analytics = WorkloadAnalytics()
        analytics.record_request("s", plan_hit=False, latency_s=0.1)
        merged = merge_analytics_states([analytics.state(), {}])
        assert merged["requests"] == 1

    def test_enable_gate_context_manager(self):
        assert analytics_enabled()
        with analytics_disabled():
            assert not analytics_enabled()
        assert analytics_enabled()


# ---------------------------------------------------------------------------
# Pipeline integration: execute_request records signatures
# ---------------------------------------------------------------------------

class TestExecuteRequestRecording:
    def test_repeat_requests_count_one_signature_with_plan_hits(self):
        executor = InProcessExecutor()
        try:
            workload_analytics().reset()
            for _ in range(3):
                response = executor.submit(CompileRequest(source=source_for("t")))
                assert response.ok
            state = workload_analytics().state()
            assert state["requests"] == 3
            assert state["plan_hits"] >= 2  # first solve is cold
            report = analytics_report(state)
            assert report["signatures"]["top"][0]["count"] == 3
        finally:
            executor.close()

    def test_signature_matches_affinity_key_and_abstracts_names(self):
        executor = InProcessExecutor()
        try:
            workload_analytics().reset()
            executor.submit(CompileRequest(source=source_for("one")))
            executor.submit(CompileRequest(source=source_for("two")))
            top = analytics_report(workload_analytics().state())["signatures"]["top"]
            assert len(top) == 1 and top[0]["count"] == 2
            assert top[0]["signature"] == affinity_key(
                CompileRequest(source=source_for("three"))
            )
        finally:
            executor.close()

    def test_phase_latency_sketches_populated(self):
        workload_analytics().reset()
        execute_request(CompileRequest(source=source_for("p")))
        report = analytics_report(workload_analytics().state())
        phases = report["latency"]["compile_phase_latency_seconds"]
        assert phases["parse"]["count"] == 1
        assert phases["solve"]["count"] == 1
        assert phases["solve"]["p99_s"] > 0

    def test_disabled_gate_skips_recording(self):
        workload_analytics().reset()
        with analytics_disabled():
            execute_request(CompileRequest(source=source_for("off")))
        assert workload_analytics().state()["requests"] == 0


# ---------------------------------------------------------------------------
# Cross-worker merging through the pool's stats path
# ---------------------------------------------------------------------------

class TestPoolMerging:
    def test_two_workers_disjoint_traffic_merges_to_reference(self):
        # Distinct structures hash to (potentially) different workers via
        # affinity routing; the pooled analytics must equal what one
        # single-stream reference process would have recorded.
        sizes = [40, 50, 60, 70]
        repeats = {40: 4, 50: 3, 60: 2, 70: 1}
        pool = WorkerPool(workers=2, request_timeout=120.0)
        try:
            for size in sizes:
                for _ in range(repeats[size]):
                    response = pool.submit(
                        CompileRequest(source=source_for("w", size))
                    )
                    assert response.ok
            pooled = pool.analytics()
            assert pooled["requests"] == sum(repeats.values())
            report = analytics_report(pooled)
            counts = [e["count"] for e in report["signatures"]["top"]]
            assert counts == sorted(repeats.values(), reverse=True)
            assert report["signatures"]["top"][0]["signature"] == affinity_key(
                CompileRequest(source=source_for("z", 40))
            )
            # Quantiles merged across workers: one pooled sketch with all
            # the samples.
            phases = report["latency"]["compile_phase_latency_seconds"]
            assert phases["solve"]["count"] == sum(repeats.values())
        finally:
            pool.close()

    def test_inprocess_executor_exposes_analytics(self):
        executor = InProcessExecutor()
        try:
            workload_analytics().reset()
            executor.submit(CompileRequest(source=source_for("ip")))
            assert executor.analytics()["requests"] >= 1
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# HTTP endpoints
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def analytics_service():
    reset_service_metrics()
    workload_analytics().reset()
    executor = InProcessExecutor()
    server, thread = start_server(executor, port=0)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base
    server.shutdown()
    thread.join(timeout=5.0)
    executor.close()
    reset_service_metrics()
    workload_analytics().reset()


def _request(url, payload=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data)
    if payload is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, dict(response.headers), response.read().decode()


class TestAnalyticsEndpoints:
    def test_analytics_endpoint_reports_top_signatures(self, analytics_service):
        for _ in range(3):
            status, _, _ = _request(
                f"{analytics_service}/compile", {"source": source_for("h")}
            )
            assert status == 200
        status, _, body = _request(f"{analytics_service}/analytics")
        assert status == 200
        report = json.loads(body)
        assert report["requests"] >= 3
        top = report["signatures"]["top"]
        assert top and top[0]["count"] >= 3
        assert "plan_hit_rate" in top[0] and "mean_latency_s" in top[0]
        # Front-end endpoint latencies ride along.
        assert "endpoint_latency_seconds" in report["latency"]

    def test_metrics_carries_quantile_gauges(self, analytics_service):
        _request(f"{analytics_service}/compile", {"source": source_for("q")})
        status, _, text = _request(f"{analytics_service}/metrics")
        assert status == 200
        for quantile in ("0.5", "0.95", "0.99"):
            assert re.search(
                r'repro_compile_phase_latency_seconds\{phase="solve",'
                rf'quantile="{quantile}"\}} [0-9eE\.\+\-]+',
                text,
            ), f"missing solve quantile {quantile}"
        assert re.search(
            r'repro_endpoint_latency_seconds\{endpoint="/compile",quantile="0.99"\}',
            text,
        )

    def test_profile_endpoint_returns_collapsed_stacks(self, analytics_service):
        status, headers, body = _request(
            f"{analytics_service}/profile", {"source": source_for("pf")}
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        lines = body.rstrip("\n").splitlines()
        assert lines, "collapsed stacks must not be empty"
        for line in lines[:50]:
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit(), f"bad collapsed line: {line!r}"
            assert " " not in stack.replace("; ", ";")


# ---------------------------------------------------------------------------
# Profiling hooks
# ---------------------------------------------------------------------------

class TestProfiling:
    def test_profile_call_and_payload(self):
        def work():
            return sum(i * i for i in range(2000))

        result, profiler = profile_call(work)
        assert result == sum(i * i for i in range(2000))
        rows = top_functions(profiler, limit=5)
        assert rows and all(
            {"function", "calls", "tottime_s", "cumtime_s"} <= set(row)
            for row in rows
        )
        payload = profile_payload(profiler)
        assert payload["top_functions"] and payload["collapsed"]

    def test_collapsed_stack_format(self):
        def inner():
            return sum(range(1000))

        def outer():
            return inner() + inner()

        _, profiler = profile_call(outer)
        text = collapsed_stacks(profiler)
        assert text.endswith("\n")
        for line in text.rstrip("\n").splitlines():
            stack, _, count = line.rpartition(" ")
            assert count.isdigit()
            assert ";" in stack or stack  # root-only frames are legal

    def test_wire_option_roundtrip_and_response_payload(self):
        from repro.options import CompileOptions

        options = CompileOptions(profile=True)
        assert options.to_wire()["profile"] is True
        assert CompileOptions.from_wire(options.to_wire()).profile is True
        response = execute_request(
            CompileRequest(source=source_for("wire"), options=options)
        )
        assert response.ok and response.profile is not None
        assert response.profile["collapsed"]
        roundtrip = type(response).from_dict(
            json.loads(json.dumps(response.to_dict()))
        )
        assert roundtrip.profile == response.profile

    def test_unprofiled_response_has_no_payload(self):
        response = execute_request(CompileRequest(source=source_for("plain")))
        assert response.profile is None
        assert "profile" not in response.to_dict()


# ---------------------------------------------------------------------------
# Rate-limited logging
# ---------------------------------------------------------------------------

class TestTokenBucketSuppressor:
    def test_burst_then_suppression_then_refill(self):
        clock = [0.0]
        suppressor = TokenBucketSuppressor(rate=1.0, burst=2, clock=lambda: clock[0])
        assert suppressor.check("k") == (True, 0)
        assert suppressor.check("k") == (True, 0)
        emit, _ = suppressor.check("k")
        assert not emit
        emit, _ = suppressor.check("k")
        assert not emit
        clock[0] = 1.0  # one token refilled
        emit, suppressed = suppressor.check("k")
        assert emit and suppressed == 2

    def test_keys_are_independent(self):
        clock = [0.0]
        suppressor = TokenBucketSuppressor(rate=1.0, burst=1, clock=lambda: clock[0])
        assert suppressor.check("a")[0]
        assert suppressor.check("b")[0]
        assert not suppressor.check("a")[0]

    def test_log_rate_limited_attaches_suppressed_count(self):
        logger = get_logger("test.suppress")
        logger.setLevel(logging.DEBUG)
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonFormatter())
        logger.addHandler(handler)
        try:
            clock = [0.0]
            suppressor = TokenBucketSuppressor(
                rate=1.0, burst=1, clock=lambda: clock[0]
            )
            assert log_rate_limited(
                logger, "warning", "boom", suppressor=suppressor, request_id="r1"
            )
            for _ in range(3):
                assert not log_rate_limited(
                    logger, "warning", "boom", suppressor=suppressor
                )
            clock[0] = 5.0
            assert log_rate_limited(logger, "warning", "boom", suppressor=suppressor)
            lines = [json.loads(l) for l in stream.getvalue().splitlines()]
            assert len(lines) == 2  # 5 calls, 3 suppressed
            assert lines[0]["suppressed_count"] == 0
            assert lines[0]["request_id"] == "r1"
            assert lines[1]["suppressed_count"] == 3
        finally:
            logger.removeHandler(handler)


# ---------------------------------------------------------------------------
# Trace request-id propagation
# ---------------------------------------------------------------------------

class TestTraceRequestId:
    def test_request_id_in_json_and_chrome_exports(self):
        tracer = Tracer()
        with tracer.span("compile"):
            pass
        tracer.request_id = "req-42"
        assert tracer.to_json()["request_id"] == "req-42"
        events = tracer.to_chrome_trace()
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["labels"] == "request req-42"

    def test_untagged_tracer_exports_without_request_id(self):
        tracer = Tracer()
        with tracer.span("compile"):
            pass
        assert "request_id" not in tracer.to_json()
        assert all(event["ph"] != "M" for event in tracer.to_chrome_trace())

    def test_service_compile_tags_trace(self):
        from repro.options import CompileOptions

        response = execute_request(
            CompileRequest(
                source=source_for("tr"),
                options=CompileOptions(trace=True),
                request_id="trace-me",
            )
        )
        assert response.ok


# ---------------------------------------------------------------------------
# Prometheus rendering of quantile series
# ---------------------------------------------------------------------------

class TestRenderQuantileLines:
    def test_renders_gauge_blocks_with_counts(self):
        analytics = WorkloadAnalytics()
        for value in (0.01, 0.02, 0.03):
            analytics.observe_latency("endpoint_latency_seconds", "endpoint", "/compile", value)
        text = render_quantile_lines([analytics.state()])
        assert text.endswith("\n")
        assert "# TYPE repro_endpoint_latency_seconds gauge" in text
        assert 'repro_endpoint_latency_seconds{endpoint="/compile",quantile="0.5"}' in text
        assert 'repro_endpoint_latency_seconds_count{endpoint="/compile"} 3' in text

    def test_empty_states_render_nothing(self):
        assert render_quantile_lines([{}, None, WorkloadAnalytics().state()]) == ""
