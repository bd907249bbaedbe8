"""Tests for the uniform cache-stats protocol and bounded eviction policies.

Every cache layer of the pipeline -- expression interner, property-inference
memo, signature-keyed match cache and kernel-cost LRU -- exposes ``stats()``
(plain dict with ``size``/``max_entries``/``hits``/``misses``/``hit_rate``/
``evictions``) and ``reset_stats()``, which is what the service telemetry
aggregates across workers.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.algebra import Matrix, Property
from repro.algebra.inference import PropertyInference, inference_engine
from repro.algebra.interning import ExpressionInterner, default_interner
from repro.algebra.operators import Times
from repro.cost.metrics import FlopCount
from repro.core import GMCAlgorithm
from repro.kernels.catalog import KernelCatalog, build_default_kernels
from repro.options import CompileOptions

REQUIRED_KEYS = {"layer", "size", "max_entries", "hits", "misses", "hit_rate", "evictions"}


def chain(prefix: str, count: int = 4):
    mats = [Matrix(f"{prefix}{i}", 8, 8) for i in range(count)]
    return Times(*mats)


class TestUniformProtocol:
    def test_all_four_layers_speak_the_protocol(self):
        catalog = KernelCatalog(build_default_kernels(), name="stats-test")
        metric = FlopCount()
        GMCAlgorithm(CompileOptions(catalog=catalog, metric=metric)).solve(chain("U"))
        layers = [
            catalog.match_cache,
            default_interner(),
            inference_engine(),
            metric,
        ]
        for layer in layers:
            stats = layer.stats()
            assert REQUIRED_KEYS <= set(stats), stats.get("layer")
            total = stats["hits"] + stats["misses"]
            expected = stats["hits"] / total if total else 0.0
            assert stats["hit_rate"] == pytest.approx(expected)
            layer.reset_stats()
            after = layer.stats()
            assert after["hits"] == after["misses"] == after["evictions"] == 0

    def test_telemetry_snapshot_and_aggregate(self):
        catalog = KernelCatalog(build_default_kernels(), name="stats-test-2")
        metric = FlopCount()
        GMCAlgorithm(CompileOptions(catalog=catalog, metric=metric)).solve(chain("V"))
        snap = telemetry.snapshot(catalog, {"flops": metric})
        assert set(telemetry.CACHE_LAYERS) <= set(snap)
        pooled = telemetry.aggregate([snap, snap])
        assert pooled["workers"] == 2
        for layer in telemetry.CACHE_LAYERS:
            if layer == "analytics":
                # The analytics layer aggregates by sketch merging, not by
                # counter summing (see repro.obs.analytics); covered in
                # tests/test_analytics.py.
                assert pooled[layer]["requests"] == 2 * snap[layer]["requests"]
                continue
            assert pooled[layer]["hits"] == 2 * snap[layer]["hits"]
            assert pooled[layer]["misses"] == 2 * snap[layer]["misses"]
        # Pooled rate is recomputed from pooled counters, never averaged.
        match = pooled["match_cache"]
        total = match["hits"] + match["misses"]
        assert match["hit_rate"] == pytest.approx(
            match["hits"] / total if total else 0.0
        )


class TestInternerEviction:
    def test_lru_eviction_replaces_wholesale_clear(self):
        interner = ExpressionInterner(max_entries=4)
        mats = [Matrix(f"E{i}", 4, 4) for i in range(8)]
        for mat in mats:
            interner.intern(mat)
        # Bounded: never exceeds the cap, evicting one entry at a time.
        assert len(interner) == 4
        assert interner.evictions == 4
        # The most recent entries survive; the oldest were evicted.
        assert interner.intern(mats[-1]) is mats[-1]
        assert interner.stats()["evictions"] == 4

    def test_lookup_refreshes_recency(self):
        interner = ExpressionInterner(max_entries=2)
        a, b, c = (Matrix(f"R{i}", 4, 4) for i in range(3))
        interner.intern(a)
        interner.intern(b)
        interner.intern(a)  # refresh a; b is now LRU
        interner.intern(c)  # evicts b
        assert interner.intern(Matrix("R0", 4, 4)) is a
        assert interner.intern(Matrix("R1", 4, 4)) is not b

    def test_eviction_keeps_canonicalization_correct(self):
        interner = ExpressionInterner(max_entries=3)
        product = Times(Matrix("K0", 4, 4), Matrix("K1", 4, 4))
        first = interner.intern(product)
        for index in range(10):  # force eviction churn
            interner.intern(Matrix(f"K{index + 2}", 4, 4))
        second = interner.intern(Times(Matrix("K0", 4, 4), Matrix("K1", 4, 4)))
        # The old representative may have been evicted, but the new one is
        # structurally equal -- canonicalization degrades, never breaks.
        assert second == first


class TestInferenceMemoEviction:
    def test_memo_is_bounded_with_partial_eviction(self):
        engine = PropertyInference(max_entries=32)
        for index in range(200):
            engine.infer(chain(f"M{index}_", 3))
        stats = engine.stats()
        assert stats["size"] <= 32 + 16  # one walk may overshoot by its tree
        assert stats["evictions"] > 0
        assert stats["inferred_size"] <= 32 + 16

    def test_eviction_preserves_results(self):
        engine = PropertyInference(max_entries=16)
        spd = Matrix("S", 8, 8, {Property.SPD})
        reference = engine.infer(spd)
        for index in range(100):
            engine.infer(chain(f"N{index}_", 3))
        assert engine.infer(spd) == reference

class TestKernelCostStats:
    def test_cost_cache_counts_hits_and_evictions(self):
        metric = FlopCount()
        metric.cost_cache_size = 4
        algorithm = GMCAlgorithm(CompileOptions(metric=metric))
        algorithm.solve(chain("C", 5))
        stats = metric.stats()
        assert stats["misses"] > 0
        assert stats["size"] <= 4
        assert stats["evictions"] >= stats["misses"] - 4
        metric.reset_stats()
        assert metric.stats()["hits"] == 0
