"""Tests for the uniform cache-stats protocol and bounded eviction policies.

Every cache layer of the pipeline -- expression interner, property-inference
memo and signature-keyed match cache -- exposes ``stats()``
(plain dict with ``size``/``max_entries``/``hits``/``misses``/``hit_rate``/
``evictions``) and ``reset_stats()``, which is what the service telemetry
aggregates across workers.  A :class:`Compiler` session reports its
registry of layers; the layers it owns are never shared with another
session.
"""

from __future__ import annotations

import sys

import pytest

from repro import telemetry
from repro.algebra import Matrix, Property
from repro.algebra.inference import PropertyInference, inference_engine
from repro.algebra.interning import ExpressionInterner, default_interner
from repro.algebra.operators import Times
from repro.core import GMCAlgorithm
from repro.exec.api import ExecuteRequest, run_execute_request
from repro.frontend import Compiler
from repro.kernels.catalog import KernelCatalog, build_default_kernels
from repro.options import CompileOptions
from repro.service.api import CompileRequest, execute_request
from repro.service.pool import InProcessExecutor, WorkerPool

REQUIRED_KEYS = {"layer", "size", "max_entries", "hits", "misses", "hit_rate", "evictions"}

#: The ``caches`` layout of ``GET /stats`` (``perfbench/run.py`` reads it).
LAYERS = (
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

#: Layers a session owns (the rest are process-wide value caches).
SESSION_LAYERS = ("plan_cache", "solver", "segments", "execution", "analytics")

SOURCE = """Matrix A (30, 30) <spd>
Matrix B (30, 20) <>
Matrix C (20, 20) <lower_triangular, non_singular>
X := A^-1 * B * C^T
Y := X * C
"""


def chain(prefix: str, count: int = 4):
    mats = [Matrix(f"{prefix}{i}", 8, 8) for i in range(count)]
    return Times(*mats)


class TestUniformProtocol:
    def test_value_caches_speak_the_protocol(self):
        catalog = KernelCatalog(build_default_kernels(), name="stats-test")
        GMCAlgorithm(CompileOptions(catalog=catalog)).solve(chain("U"))
        layers = [catalog.match_cache, default_interner(), inference_engine()]
        for layer in layers:
            stats = layer.stats()
            assert REQUIRED_KEYS <= set(stats), stats.get("layer")
            total = stats["hits"] + stats["misses"]
            expected = stats["hits"] / total if total else 0.0
            assert stats["hit_rate"] == pytest.approx(expected)
            layer.reset_stats()
            after = layer.stats()
            assert after["hits"] == after["misses"] == after["evictions"] == 0

    def test_retired_kernel_cost_entry_stays_zero(self):
        """No metric feeds the ``kernel_cost`` layer any more: its entry
        keeps the protocol's keys with zero counters and no per-metric
        breakdown, whatever the session compiles."""
        session = Compiler()
        session.compile(SOURCE)
        session.compile(SOURCE, options=CompileOptions(metric="time"))
        entry = session.cache_stats()["kernel_cost"]
        assert set(entry) == REQUIRED_KEYS - {"max_entries"}
        assert entry["size"] == entry["hits"] == entry["misses"] == entry["evictions"] == 0
        assert entry["hit_rate"] == 0.0
        session.reset_cache_stats()
        assert session.cache_stats()["kernel_cost"] == entry

    def test_session_reports_every_layer_in_order(self):
        session = Compiler()
        assert tuple(session.cache_stats()) == LAYERS
        assert tuple(telemetry.aggregate([session.cache_stats()])) == LAYERS + ("workers",)

    def test_pool_with_no_answering_worker_keeps_the_layout(self, monkeypatch):
        with WorkerPool(workers=1, request_timeout=120.0) as pool:
            answer = pool._call

            def lose_reply(index, kind, payload, timeout):
                # The worker answers, but the reply is dropped as on a timeout.
                answer(index, kind, payload, timeout)
                return {"error": "lost"}

            monkeypatch.setattr(pool, "_call", lose_reply)
            caches = pool.stats()["caches"]
        assert tuple(caches) == LAYERS + ("workers",)
        assert caches["workers"] == 0
        assert caches["solver"] == {"layer": "solver", "hit_rate": 0.0}

    def test_telemetry_snapshot_and_aggregate(self):
        catalog = KernelCatalog(build_default_kernels(), name="stats-test-2")
        session = Compiler(CompileOptions(catalog=catalog))
        session.compile(SOURCE)
        snap = session.cache_stats()
        pooled = telemetry.aggregate([snap, snap])
        assert pooled["workers"] == 2
        for layer in LAYERS:
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

    def test_pooled_layers_keep_every_numeric_key(self):
        session = Compiler()
        execute_request(CompileRequest(source=SOURCE), compiler=session)
        run_execute_request(ExecuteRequest(compile=CompileRequest(source=SOURCE)), compiler=session)
        snap = session.cache_stats()
        pooled = telemetry.aggregate([snap, snap])
        for layer, entry in snap.items():
            numeric = {
                key
                for key, value in entry.items()
                if isinstance(value, (int, float)) and not isinstance(value, bool)
            }
            assert numeric, layer
            assert numeric <= set(pooled[layer]), (layer, numeric - set(pooled[layer]))
            for key in numeric - {"hit_rate"}:
                assert pooled[layer][key] == 2 * entry[key], (layer, key)
        assert pooled["inference"]["inferred_size"] == 2 * snap["inference"]["inferred_size"]


class TestSessionOwnedState:
    def test_two_sessions_share_no_owned_counter_or_module(self):
        first, second = Compiler(), Compiler()
        request = ExecuteRequest(compile=CompileRequest(source=SOURCE), seed=3)
        execute_request(CompileRequest(source=SOURCE), compiler=first)
        assert run_execute_request(request, compiler=first).ok
        assert run_execute_request(request, compiler=first).module_cache_hit
        busy = first.cache_stats()
        idle = second.cache_stats()
        fresh = Compiler().cache_stats()
        for layer in SESSION_LAYERS:
            assert idle[layer] == fresh[layer], layer
            assert busy[layer] != fresh[layer], layer
        assert first.loader is not second.loader
        # The second session solves, loads and runs from scratch.
        response = run_execute_request(request, compiler=second)
        assert response.ok and not response.module_cache_hit
        # Each session solved the program cold exactly once.
        assert second.cache_stats()["solver"] == busy["solver"]
        assert first.cache_stats()["execution"] == busy["execution"]

    def test_solver_handed_out_counts_into_its_session(self):
        session = Compiler()
        session.solver().solve(chain("H"))
        session.solver().generate(chain("G", 5))
        stats = session.cache_stats()["solver"]
        assert stats["solves"] == 2
        assert stats["cells_evaluated"] > 0

    def test_closed_executor_unloads_its_modules(self):
        executor = InProcessExecutor()
        request = ExecuteRequest(compile=CompileRequest(source=SOURCE), seed=3)
        assert run_execute_request(request, compiler=executor.compiler).ok
        names = [entry.module.__name__ for entry in executor.compiler.loader._entries.values()]
        assert names and all(name in sys.modules for name in names)
        executor.close()
        assert not any(name in sys.modules for name in names)

    def test_reset_of_one_session_leaves_the_other(self):
        first, second = Compiler(), Compiler()
        first.compile(SOURCE)
        second.compile(SOURCE)
        second.reset_cache_stats()
        assert first.cache_stats()["solver"]["solves"] > 0
        assert first.cache_stats()["plan_cache"]["misses"] > 0


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
