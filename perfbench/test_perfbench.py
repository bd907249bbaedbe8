"""Tests of the benchmark's own helpers (no server is booted)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import measure
from perfbench.workloads import (
    WORKLOADS,
    ColdLong,
    load_golden,
    make_workload,
    rename_operands,
)

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.mark.parametrize("name", WORKLOADS)
def test_streams_are_deterministic_per_seed(golden, name):
    first = make_workload(name, 7, golden)
    second = make_workload(name, 7, golden)
    assert first.warmup() == second.warmup()
    assert first.take(40) == second.take(40)
    other = make_workload(name, 8, golden)
    other.warmup()
    assert [r.body for r in other.take(40)] != [r.body for r in make_workload(name, 7, golden).take(40)]


def test_cold_long_requests_are_distinct_and_golden_covered(golden):
    workload = ColdLong(3)
    requests = workload.take(300)
    pooled = [r.structure for r in requests]
    assert None not in pooled and len(set(pooled)) == len(pooled)
    assert len(golden["cold_long"]["plans"]) == len(workload.pool)
    warm_sources = {r.source for r in workload.warmup()}
    assert not warm_sources & {r.source for r in requests}


def test_cold_long_cycles_through_every_length():
    requests = ColdLong(1).take(9 * 4)
    for start in range(0, len(requests), 9):
        lengths = sorted(r.source.count("Matrix") for r in requests[start:start + 9])
        assert lengths == list(range(12, 21))


def test_dag_execute_mixes_replays_and_fresh_names(golden):
    requests = make_workload("dag_execute", 2, golden).take(50)
    replays = [r for r in requests if r.replay]
    assert len(replays) == 15
    fresh_sources = {r.source for r in requests if not r.replay}
    assert len(fresh_sources) == 35


def test_rename_keeps_targets_and_references():
    source = "Matrix G_1 (5, 5) <spd>\nMatrix B (5, 2) <>\nG := G_1 * G_1\nJ := G^-1 * B\n"
    renamed = rename_operands(source, "q1")
    assert renamed == (
        "Matrix G_1_q1 (5, 5) <spd>\nMatrix B_q1 (5, 2) <>\nG := G_1_q1 * G_1_q1\nJ := G^-1 * B_q1\n"
    )


def test_tail_percentile_needs_ten_samples_beyond():
    assert measure.min_samples(95) == 200
    assert measure.tail_rank(200, 95) == 190
    values = [float(v) for v in range(200)]
    assert 188.0 < measure.tail_percentile(values, 95) < 191.0
    with pytest.raises(measure.InsufficientSamples):
        measure.tail_percentile(values[:199], 95)


def test_harrell_davis_matches_the_median_of_symmetric_data():
    assert measure.harrell_davis([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert measure.harrell_davis([2.0] * 9, 0.95) == pytest.approx(2.0)


def test_self_times_and_unaccounted_time():
    spans = [
        measure.Span("outer", 0.0, 10.0, None, 1),
        measure.Span("child", 1.0, 4.0, 0, 1),
        measure.Span("grandchild", 2.0, 3.0, 1, 1),
        measure.Span("child", 5.0, 7.0, 0, 1),
        measure.Span("next", 11.0, 12.0, None, 2),
    ]
    assert measure.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    totals = measure.self_time_by_name(spans)
    assert totals == {"outer": 5.0, "child": 4.0, "grandchild": 1.0, "next": 1.0}
    assert measure.unaccounted(13.0, totals) == pytest.approx(2.0)


def test_metric_documentation_matches_benchmark_json():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    documented = json.loads((ROOT / "perfbench" / "metrics.json").read_text())
    for group in ("end_to_end", "per_layer"):
        listed = {(m["name"], m["unit"], m["better"]) for m in benchmark[group]}
        described = {(m["name"], m["unit"], m["better"]) for m in documented[group]}
        assert listed == described
        assert all(m["layer"] and m["why"] for m in documented[group])
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert set(documented["workloads"]) == set(WORKLOADS)
