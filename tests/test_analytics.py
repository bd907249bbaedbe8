"""Tests for the workload-analytics layer (repro.obs.analytics).

Covers:

* the DDSketch-style log-bucket quantile sketch is correct and
  **mergeable**: N workers seeing disjoint traffic pool to the same
  counters and quantiles a single stream would produce;
* ``execute_request`` records every request with plan-hit provenance and
  its compile-phase latencies, and the state travels across the
  worker-pool process boundary through the existing telemetry ``stats``
  path;
* the HTTP front-end serves the quantile gauge series on
  ``GET /metrics``;
* repeated structured warnings are rate-limited by the token-bucket
  suppressor without losing the suppressed count.
"""

from __future__ import annotations

import io
import json
import logging
import re
import urllib.request

import pytest

from repro.exec.api import ExecuteRequest
from repro.frontend import Compiler
from repro.obs.analytics import (
    QuantileSketch,
    WorkloadAnalytics,
    merge_analytics_states,
)
from repro.obs.logging import (
    JsonFormatter,
    TokenBucketSuppressor,
    get_logger,
    log_rate_limited,
)
from repro.obs.metrics import render_quantile_lines
from repro.obs.trace import Tracer
from repro.service import CompileRequest, InProcessExecutor, WorkerPool
from repro.service.api import execute_request
from repro.service.http import start_server


def latency_sketches(state) -> dict:
    """``{metric name: {label value: QuantileSketch}}`` of an analytics
    state's latency entries."""
    out: dict = {}
    for entry in state.get("latency") or ():
        out.setdefault(entry["name"], {})[entry["value"]] = QuantileSketch.from_state(
            entry["sketch"]
        )
    return out


def source_for(tag: str, size: int = 60) -> str:
    """A compile problem whose structure (and thus signature) varies with
    *size* but not with *tag* (operand names are signature-abstracted)."""
    return (
        f"Matrix {tag}A ({size}, {size}) <spd>\n"
        f"Matrix {tag}B ({size}, {size - 10}) <>\n"
        f"X := {tag}A^-1 * {tag}B\n"
    )


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
        assert empty.count == 0
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
        merged_solve = latency_sketches(merged)["compile_phase_latency_seconds"]["solve"]
        expected_solve = latency_sketches(expected)["compile_phase_latency_seconds"]["solve"]
        assert merged_solve.count == expected_solve.count == 10
        # Summation order differs between the merged and single-stream
        # paths, so compare the sums to float tolerance.
        assert merged_solve.sum == pytest.approx(expected_solve.sum)
        for q in (0.5, 0.95, 0.99):
            assert merged_solve.quantile(q) == pytest.approx(expected_solve.quantile(q))

    def test_merge_empty_list_and_single_state(self):
        assert merge_analytics_states([])["requests"] == 0
        analytics = WorkloadAnalytics()
        analytics.record_request("s", plan_hit=False, latency_s=0.1)
        merged = merge_analytics_states([analytics.state(), {}])
        assert merged["requests"] == 1

    def test_record_request_ignores_signature(self):
        # perfbench/replay.py still passes a signature positionally; it
        # must neither split the counters nor leave per-signature state.
        analytics = WorkloadAnalytics()
        analytics.record_request("sig-a", plan_hit=False, latency_s=0.5)
        analytics.record_request("sig-b", plan_hit=True)
        analytics.record_request(plan_hit=True)
        state = analytics.state()
        assert state["requests"] == 3 and state["plan_hits"] == 2
        assert state["latency"] == []
        assert set(state) == {"layer", "requests", "plan_hits", "latency"}

    def test_analytics_enabled_is_constant_and_unexported(self):
        import repro.obs
        from repro.obs.analytics import analytics_enabled

        assert analytics_enabled() is True
        assert "analytics_enabled" not in repro.obs.__all__
        assert "workload_analytics" not in repro.obs.__all__

    def test_each_session_records_its_own_requests(self):
        busy, idle = Compiler(), Compiler()
        execute_request(CompileRequest(source=source_for("own")), compiler=busy)
        assert busy.cache_stats()["analytics"]["requests"] == 1
        assert idle.cache_stats()["analytics"] == WorkloadAnalytics().state()

    def test_observe_latencies_matches_single_samples(self):
        batched, single = WorkloadAnalytics(), WorkloadAnalytics()
        samples = [("parse", 0.001), ("solve", 0.02), ("solve", 0.03)]
        batched.observe_latencies("compile_phase_latency_seconds", "phase", samples)
        for phase, seconds in samples:
            single.observe_latency("compile_phase_latency_seconds", "phase", phase, seconds)
        assert batched.state() == single.state()
        assert latency_sketches(batched.state())["compile_phase_latency_seconds"][
            "solve"
        ].count == 2

    def test_state_roundtrips_through_json(self):
        # The state crosses the pool boundary and GET /stats as JSON, which
        # stringifies the sketches' integer bucket keys.
        analytics = WorkloadAnalytics()
        analytics.record_request(plan_hit=True)
        for value in (0.0, 0.004, 0.05):
            analytics.observe_latency("endpoint_latency_seconds", "endpoint", "/compile", value)
        state = analytics.state()
        merged = merge_analytics_states([json.loads(json.dumps(state))])
        assert merged["requests"] == 1 and merged["plan_hits"] == 1
        original = latency_sketches(state)["endpoint_latency_seconds"]["/compile"]
        clone = latency_sketches(merged)["endpoint_latency_seconds"]["/compile"]
        assert clone.to_state() == original.to_state()

    def test_reset_drops_counters_and_sketches(self):
        analytics = WorkloadAnalytics()
        analytics.record_request(plan_hit=True)
        analytics.observe_latency("compile_phase_latency_seconds", "phase", "solve", 0.01)
        analytics.reset()
        assert analytics.state() == WorkloadAnalytics().state()

# ---------------------------------------------------------------------------
# Pipeline integration: execute_request records every request
# ---------------------------------------------------------------------------

class TestExecuteRequestRecording:
    def test_repeat_requests_count_with_plan_hits(self):
        executor = InProcessExecutor()
        try:
            for _ in range(3):
                response = executor.submit(CompileRequest(source=source_for("t")))
                assert response.ok
            state = executor.compiler.analytics.state()
            assert state["requests"] == 3
            assert state["plan_hits"] == 2  # first solve is cold
        finally:
            executor.close()

    def test_phase_latency_sketches_populated(self):
        session = Compiler()
        execute_request(CompileRequest(source=source_for("p")), compiler=session)
        phases = latency_sketches(session.analytics.state())[
            "compile_phase_latency_seconds"
        ]
        assert phases["parse"].count == 1
        assert phases["solve"].count == 1
        assert phases["solve"].quantile(0.99) > 0


# ---------------------------------------------------------------------------
# Cross-worker merging through the pool's stats path
# ---------------------------------------------------------------------------

class TestPoolMerging:
    def test_two_workers_disjoint_traffic_merges_to_reference(self):
        # Distinct structures hash to (potentially) different workers via
        # affinity routing; the pooled analytics layer must count what one
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
            pooled = pool.stats()["caches"]["analytics"]
            assert pooled["requests"] == sum(repeats.values())
            # Every repeat after a structure's first request is a plan hit.
            assert pooled["plan_hits"] == sum(repeats.values()) - len(sizes)
            # Quantiles merged across workers: one pooled sketch per phase
            # with all the samples.
            phases = latency_sketches(pooled)["compile_phase_latency_seconds"]
            for phase in ("parse", "solve"):
                assert phases[phase].count == sum(repeats.values())
                assert phases[phase].quantile(0.99) > 0
        finally:
            pool.close()

    def test_new_pool_counts_only_its_own_requests(self):
        # Workers fork from this process after it served requests of its
        # own; they must not report anything they inherited.  A fresh
        # in-process session serving the same stream is the reference.
        parent = Compiler()
        execute_request(CompileRequest(source=source_for("parent")), compiler=parent)
        assert parent.cache_stats()["analytics"]["requests"] == 1
        compiles = [CompileRequest(source=source_for("own", size)) for size in (40, 50, 40)]
        run = ExecuteRequest(compile=CompileRequest(source=source_for("run", 40)), seed=1)
        with InProcessExecutor() as reference:
            for request in compiles:
                assert reference.submit(request).ok
            assert reference.execute(run).ok
            assert reference.execute(run).module_cache_hit
            expected = reference.stats()["caches"]
        with WorkerPool(workers=1, request_timeout=120.0) as pool:
            for request in compiles:
                assert pool.submit(request).ok
            assert pool.execute(run).ok
            assert pool.execute(run).module_cache_hit
            pooled = pool.stats()["caches"]
        assert pooled["analytics"]["requests"] == 3
        assert pooled["analytics"]["plan_hits"] == 1
        for layer in ("solver", "segments", "execution", "plan_cache"):
            assert pooled[layer] == expected[layer], layer
        assert pooled["execution"]["runs"] == 2
        assert pooled["plan_cache"]["hits"] == 3

    def test_inprocess_executor_exposes_analytics(self):
        executor = InProcessExecutor()
        try:
            executor.submit(CompileRequest(source=source_for("ip")))
            assert executor.stats()["caches"]["analytics"]["requests"] == 1
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# HTTP endpoints
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def analytics_service():
    executor = InProcessExecutor()
    server, thread = start_server(executor, port=0)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base
    server.shutdown()
    thread.join(timeout=5.0)
    executor.close()


def _request(url, payload=None):
    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(url, data=data)
    if payload is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, dict(response.headers), response.read().decode()


class TestAnalyticsEndpoints:
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
