"""Tests for the persistence subsystem (:mod:`repro.persist`).

Covers: plan-cache identity (cached-hit kernel sequences must equal cold
solves across renamed signature-equal chains), the options fingerprint,
invalidation and bypass rules, snapshot robustness (truncated / corrupt /
version-mismatched / catalog-drifted snapshots must produce a clean cold
boot, never an exception), the executor warm-boot lifecycle
(``--snapshot-dir`` / ``POST /snapshot``) and ``/batch`` backpressure
(bounded in-flight requests answered with HTTP 429 + ``Retry-After``).
"""

import json
import math
import urllib.error
import urllib.request

import pytest

from repro.algebra import Matrix, Times
from repro.cost import FlopCount
from repro.experiments.workload import ChainGenerator
from repro.frontend import Compiler
from repro.kernels.catalog import KernelCatalog, build_default_kernels
from repro.options import CompileOptions
from repro.persist import (
    CachedPlanSolution,
    PlanCache,
    SnapshotError,
    capture_state,
    load_snapshot,
    merge_states,
    read_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.service.api import CompileRequest
from repro.service.http import start_server
from repro.service.pool import (
    InProcessExecutor,
    PoolSaturatedError,
    WorkerPool,
)

TEMPLATE = """
Matrix A{t} (200, 200) <spd>
Matrix B{t} (200, 100) <>
Matrix C{t} (100, 100) <lower_triangular, non_singular>
Matrix D{t} (100, 100) <upper_triangular, non_singular>
Matrix E{t} (100, 80) <>
X := A{t}^-1 * B{t} * C{t}^T * D{t}^-1 * E{t}
"""


def tagged(tag: str) -> str:
    """A renamed (signature-equal) copy of the template problem."""
    return TEMPLATE.replace("{t}", tag)


def fresh_catalog() -> KernelCatalog:
    """A private catalog so tests never leak into the process default."""
    return KernelCatalog(build_default_kernels(), name="persist-test")


def fresh_session(**options) -> Compiler:
    return Compiler(CompileOptions(catalog=fresh_catalog(), **options))


def random_problems(count, seed, length=7):
    generator = ChainGenerator(
        min_length=length,
        max_length=length,
        size_choices=(40, 80, 120, 200),
        vector_probability=0.10,
        square_probability=0.45,
        transpose_probability=0.25,
        inverse_probability=0.25,
        property_probability=0.60,
        seed=seed,
    )
    return generator.generate_many(count)


# ---------------------------------------------------------------------------
# Plan-cache identity.
# ---------------------------------------------------------------------------

class TestPlanCacheIdentity:
    @pytest.mark.parametrize("prune", [True, False])
    def test_renamed_chain_served_from_cache_identically(self, prune):
        session = fresh_session(prune=prune)
        cold = session.compile(tagged("One")).assignment("X")
        assert session.plan_cache.stores == 1
        warm = session.compile(tagged("Two")).assignment("X")
        assert session.plan_cache.hits == 1
        assert isinstance(warm.solution, CachedPlanSolution)
        assert warm.kernel_sequence == cold.kernel_sequence
        assert float(warm.solution.optimal_cost) == pytest.approx(
            float(cold.solution.optimal_cost)
        )
        assert warm.flops == pytest.approx(cold.flops)
        # Same split tree, new operand names.
        assert warm.solution.parenthesization() == cold.solution.parenthesization().replace(
            "One", "Two"
        )

    def test_cached_hits_equal_plan_cache_disabled_solves(self):
        cached = fresh_session()
        uncached = fresh_session(plan_cache=False)
        for problem in random_problems(8, seed=2026):
            first = cached.compile(problem.expression)
            second = cached.compile(problem.expression)  # signature-equal
            reference = uncached.compile(problem.expression)
            assert (
                second.assignment("X").kernel_sequence
                == first.assignment("X").kernel_sequence
                == reference.assignment("X").kernel_sequence
            )
            assert second.assignment("X").flops == pytest.approx(
                reference.assignment("X").flops
            )
        assert cached.plan_cache.hits >= 8
        assert uncached.plan_cache.hits == 0
        assert len(uncached.plan_cache) == 0

    def test_emitted_code_matches_cold_solve_modulo_names(self):
        import re

        def normalized(code: str, tag: str) -> str:
            # Temporaries are numbered from a process-global counter, so two
            # equivalent programs differ in ``T<n>``; operand tags rename.
            return re.sub(r"\bT\d+\b", "T#", code.replace(tag, ""))

        session = fresh_session()
        cold = session.compile(tagged("Aa")).assignment("X")
        warm = session.compile(tagged("Bb")).assignment("X")
        assert normalized(warm.numpy(), "Bb") == normalized(cold.numpy(), "Aa")
        assert normalized(warm.julia(), "Bb") == normalized(cold.julia(), "Aa")

    def test_fingerprint_separates_pipeline_options(self):
        session = fresh_session()
        session.compile(tagged("F"))
        assert len(session.plan_cache) == 1
        session.compile(tagged("F"), match_cache=False)
        session.compile(tagged("F"), prune=False)
        session.compile(tagged("F"), metric="kernels")
        assert len(session.plan_cache) == 4
        # The original fingerprint still hits.
        session.compile(tagged("G"))
        assert session.plan_cache.hits >= 1

    def test_plan_cache_off_bypasses_store_and_lookup(self):
        session = fresh_session()
        session.compile(tagged("Off"), plan_cache=False)
        assert len(session.plan_cache) == 0
        session.compile(tagged("Off"))
        session.compile(tagged("Off2"), plan_cache=False)
        assert session.plan_cache.hits == 0

    def test_single_factor_chains_are_not_cached(self):
        session = fresh_session()
        source = "Matrix A (10, 10) <>\nX := A\n"
        session.compile(source)
        assert len(session.plan_cache) == 0
        assert session.plan_cache.bypasses >= 1


# ---------------------------------------------------------------------------
# Invalidation / bypass rules.
# ---------------------------------------------------------------------------

class TestPlanCacheInvalidation:
    def test_net_mutation_flushes_by_version(self):
        from repro.kernels.helpers import binary_pattern
        from repro.kernels.kernel import Kernel
        from repro.matching import Pattern

        session = fresh_session()
        session.compile(tagged("Net"))
        assert len(session.plan_cache) == 1
        pattern, _, _ = binary_pattern("N", "N")
        extra = Kernel(
            id="persist_custom_mm",
            display_name="PCUSTOM",
            pattern=Pattern(pattern, name="persist-custom"),
            operands=("X", "Y"),
            cost=lambda s: 1.0,
            efficiency=0.9,
            julia_template="{out} = {X} * {Y}",
            numpy_template="{out} = {X} @ {Y}",
        )
        session.catalog.net.add(extra.pattern, extra)
        result = session.compile(tagged("Net2"))
        assert session.plan_cache.hits == 0  # flushed, not served stale
        assert result.assignment("X").kernel_sequence  # still compiles

    def test_live_metric_instances_bypass(self):
        session = fresh_session()
        metric = FlopCount()
        session.compile(tagged("Live"), metric=metric)
        assert len(session.plan_cache) == 0
        assert session.plan_cache.bypasses >= 1

    def test_incomplete_deadline_solutions_are_never_stored(self):
        session = fresh_session()
        options = session.options.replace(deadline_s=1e-9)
        solver = session.solver(options)
        problem = random_problems(1, seed=11, length=10)[0]
        solution = solver.solve(problem.expression)
        assert solution.complete is False
        assert not session.plan_cache.store(problem.expression, options, solution)
        assert len(session.plan_cache) == 0

    def test_lru_eviction_respects_bound(self):
        session = fresh_session()
        session.plan_cache.max_entries = 3
        for problem in random_problems(6, seed=5, length=5):
            session.compile(problem.expression)
        assert len(session.plan_cache) <= 3
        assert session.plan_cache.evictions >= 1


# ---------------------------------------------------------------------------
# Snapshot robustness.
# ---------------------------------------------------------------------------

class TestSnapshotRobustness:
    def _populated_state(self):
        session = fresh_session()
        reference = session.compile(tagged("Snap")).assignment("X").kernel_sequence
        return capture_state(session.plan_cache, session.catalog), reference

    def test_roundtrip_warm_boots_a_fresh_session(self, tmp_path):
        state, reference = self._populated_state()
        path = snapshot_path(tmp_path)
        meta = write_snapshot(path, state)
        assert meta["plan_entries"] >= 1
        session = fresh_session()
        result = load_snapshot(path, session.plan_cache, session.catalog)
        assert result["loaded"] is True
        assert result["plan_entries"] >= 1
        warm = session.compile(tagged("Renamed")).assignment("X")
        assert session.plan_cache.hits == 1
        assert session.plan_cache.restored >= 1
        assert warm.kernel_sequence == reference

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        state, _ = self._populated_state()
        write_snapshot(snapshot_path(tmp_path), state)
        assert [p.name for p in tmp_path.iterdir()] == [
            snapshot_path(tmp_path).name
        ]

    @pytest.mark.parametrize(
        "corruption",
        [
            "missing",
            "empty",
            "truncated",
            "not_json",
            "not_object",
            "bad_format",
            "bad_version",
            "bad_checksum",
        ],
    )
    def test_unreadable_snapshots_cold_boot_cleanly(self, tmp_path, corruption):
        state, reference = self._populated_state()
        path = snapshot_path(tmp_path)
        write_snapshot(path, state)
        text = path.read_text()
        if corruption == "missing":
            path.unlink()
        elif corruption == "empty":
            path.write_text("")
        elif corruption == "truncated":
            path.write_text(text[: len(text) // 2])
        elif corruption == "not_json":
            path.write_text("this is not json{{{")
        elif corruption == "not_object":
            path.write_text("[1, 2, 3]")
        elif corruption == "bad_format":
            body = json.loads(text)
            body["format"] = "someone-elses-file"
            path.write_text(json.dumps(body))
        elif corruption == "bad_version":
            body = json.loads(text)
            body["version"] = 999
            path.write_text(json.dumps(body))
        elif corruption == "bad_checksum":
            body = json.loads(text)
            body["plan_entries"] = []  # tampered payload, stale checksum
            path.write_text(json.dumps(body))
        session = fresh_session()
        result = load_snapshot(path, session.plan_cache, session.catalog)
        assert result["loaded"] is False
        assert result["reason"]
        assert len(session.plan_cache) == 0
        # The cold boot still compiles correctly.
        cold = session.compile(tagged("Cold")).assignment("X")
        assert cold.kernel_sequence == reference

    def test_version_1_snapshot_boots_cold_with_the_reason_logged(self, tmp_path):
        """Version-1 files key plans under ``[solver, metric, prune,
        match_cache]`` fingerprints that can never hit again; they are
        rejected as an unknown version instead of filling LRU slots."""
        import io
        import logging

        state, reference = self._populated_state()
        for entry in state["plan_entries"]:
            entry["fingerprint"] = ["gmc", *entry["fingerprint"]]
        state["version"] = 1
        write_snapshot(snapshot_path(tmp_path), state)  # valid checksum

        session = fresh_session()
        result = load_snapshot(snapshot_path(tmp_path), session.plan_cache, session.catalog)
        assert result["loaded"] is False
        assert "version 1" in result["reason"]
        assert len(session.plan_cache) == 0

        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        logger = logging.getLogger("repro.service.pool")
        logger.addHandler(handler)
        try:
            executor = InProcessExecutor(snapshot_dir=tmp_path)
        finally:
            logger.removeHandler(handler)
        try:
            assert executor.snapshot_load["loaded"] is False
            assert "booting cold" in stream.getvalue()
            assert len(executor.compiler.plan_cache) == 0
            response = executor.submit(CompileRequest(source=tagged("V1")))
            assert response.ok and response.assignments[0].kernels == reference
        finally:
            executor.close()

    def test_catalog_drift_cold_boots(self, tmp_path):
        state, _ = self._populated_state()
        path = snapshot_path(tmp_path)
        write_snapshot(path, state)
        # A catalog with a different kernel set must reject the snapshot.
        slim = KernelCatalog(
            build_default_kernels(include_combined_inverse=False), name="slim"
        )
        session = Compiler(CompileOptions(catalog=slim))
        result = load_snapshot(path, session.plan_cache, slim)
        assert result["loaded"] is False
        assert "drift" in result["reason"]
        assert len(session.plan_cache) == 0

    def test_snapshot_with_registry_version_field_boots_warm(self, tmp_path):
        # Snapshots written before the predicate registry was removed carry
        # its version in the catalog block; the field is ignored now.
        state, reference = self._populated_state()
        state = json.loads(json.dumps(state))
        assert "registry_version" not in state["catalog"]
        state["catalog"]["registry_version"] = 0
        path = snapshot_path(tmp_path)
        write_snapshot(path, state)
        session = fresh_session()
        result = load_snapshot(path, session.plan_cache, session.catalog)
        assert result["loaded"] is True, result
        warm = session.compile(tagged("Compat")).assignment("X")
        assert session.plan_cache.hits == 1
        assert warm.kernel_sequence == reference

    def test_net_version_drift_cold_boots(self, tmp_path):
        state, _ = self._populated_state()
        state = json.loads(json.dumps(state))
        state["catalog"]["net_version"] = -1
        path = snapshot_path(tmp_path)
        write_snapshot(path, state)
        session = fresh_session()
        result = load_snapshot(path, session.plan_cache, session.catalog)
        assert result["loaded"] is False
        assert "net_version" in result["reason"]

    def test_read_snapshot_raises_typed_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(tmp_path / "nope.json")

    def test_merge_unions_entries_and_rejects_catalog_mixes(self):
        state_a, _ = self._populated_state()
        session = fresh_session()
        session.compile(
            "Matrix P (64, 64) <spd>\nMatrix Q (64, 32) <>\nX := P^-1 * Q\n"
        )
        state_b = capture_state(session.plan_cache, session.catalog)
        merged = merge_states([state_a, state_b, state_a])
        keys = {
            json.dumps([e["signature"], e["fingerprint"]], sort_keys=True)
            for e in merged["plan_entries"]
        }
        assert len(keys) == len(merged["plan_entries"]) >= 2
        foreign = json.loads(json.dumps(state_a))
        foreign["catalog"]["kernels"] = "deadbeef"
        with pytest.raises(SnapshotError):
            merge_states([state_a, foreign])


# ---------------------------------------------------------------------------
# Executor warm boot (snapshot lifecycle).
# ---------------------------------------------------------------------------

class TestExecutorWarmBoot:
    def test_in_process_cycle_answers_first_request_warm(self, tmp_path):
        first = InProcessExecutor(snapshot_dir=tmp_path)
        assert first.snapshot_load["loaded"] is False  # nothing there yet
        response = first.submit(CompileRequest(source=tagged("W0")))
        assert response.ok
        reference = response.assignments[0].kernels
        first.close()  # persists the snapshot
        assert snapshot_path(tmp_path).exists()

        second = InProcessExecutor(snapshot_dir=tmp_path)
        assert second.snapshot_load["loaded"] is True
        warm = second.submit(CompileRequest(source=tagged("W1")))
        assert warm.ok and warm.assignments[0].kernels == reference
        stats = second.stats()
        assert stats["caches"]["plan_cache"]["hits"] >= 1
        assert stats["snapshot"]["loaded"] is True
        second.close()

    def test_stats_report_the_cold_boot_fallback(self, tmp_path):
        path = snapshot_path(tmp_path)
        path.write_text("garbage")
        executor = InProcessExecutor(snapshot_dir=tmp_path)
        assert executor.snapshot_load["loaded"] is False
        assert executor.stats()["snapshot"]["reason"]
        # Serving still works cold.
        assert executor.submit(CompileRequest(source=tagged("C"))).ok

    def test_worker_pool_cycle_answers_first_request_warm(self, tmp_path):
        with WorkerPool(workers=1, snapshot_dir=tmp_path) as pool:
            response = pool.submit(CompileRequest(source=tagged("P0")))
            assert response.ok
            reference = response.assignments[0].kernels
        assert snapshot_path(tmp_path).exists()
        with WorkerPool(workers=1, snapshot_dir=tmp_path) as restarted:
            warm = restarted.submit(CompileRequest(source=tagged("P1")))
            assert warm.ok and warm.assignments[0].kernels == reference
            stats = restarted.stats()
            assert stats["caches"]["plan_cache"]["hits"] >= 1
            assert stats["snapshot"]["workers_loaded"] == 1

    def test_save_snapshot_requires_configuration(self):
        executor = InProcessExecutor()
        with pytest.raises(RuntimeError):
            executor.save_snapshot()

    def test_double_close_returns_immediately(self, tmp_path):
        import time

        pool = WorkerPool(workers=1, snapshot_dir=tmp_path)
        pool.submit(CompileRequest(source=tagged("DC")))
        pool.close()
        started = time.monotonic()
        pool.close()  # must not re-dispatch export_snapshot to dead workers
        assert time.monotonic() - started < 5.0

    def test_import_keeps_the_hot_tail_when_over_capacity(self):
        # Exports are LRU-ordered oldest-first; a snapshot larger than the
        # cache bound must warm-boot with the most recently used entries,
        # not silently keep the stale head.
        session = fresh_session()
        for problem in random_problems(4, seed=77, length=4):
            session.compile(problem.expression)
        entries = session.plan_cache.export_entries()
        assert len(entries) == 4
        target = fresh_session()
        target.plan_cache.max_entries = 2
        assert target.plan_cache.import_entries(entries) == 2
        imported = {
            (sig, fp) for sig, fp, _ in target.plan_cache.export_entries()
        }
        assert imported == {(sig, fp) for sig, fp, _ in entries[-2:]}


# ---------------------------------------------------------------------------
# HTTP surface: POST /snapshot and 429 backpressure.
# ---------------------------------------------------------------------------

def _post(url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestSnapshotEndpoint:
    def test_snapshot_endpoint_persists_and_warm_boots(self, tmp_path):
        executor = InProcessExecutor(snapshot_dir=tmp_path)
        server, thread = start_server(executor, port=0)
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            status, _, body = _post(
                f"{base}/compile", {"source": tagged("H0")}
            )
            assert status == 200
            reference = body["assignments"][0]["kernels"]
            status, _, meta = _post(f"{base}/snapshot")
            assert status == 200
            assert meta["plan_entries"] >= 1
        finally:
            server.shutdown()
            thread.join()
        rebooted = InProcessExecutor(snapshot_dir=tmp_path)
        warm = rebooted.submit(CompileRequest(source=tagged("H1")))
        assert warm.ok and warm.assignments[0].kernels == reference
        assert rebooted.compiler.plan_cache.hits == 1

    def test_snapshot_with_body_does_not_corrupt_keepalive(self, tmp_path):
        # POST /snapshot needs no body, but one a client sends anyway must
        # be drained: the connection is HTTP/1.1 keep-alive, and leftover
        # bytes would be parsed as the start of the next request.
        import http.client

        executor = InProcessExecutor(snapshot_dir=tmp_path)
        executor.submit(CompileRequest(source=tagged("KA")))
        server, thread = start_server(executor, port=0)
        try:
            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=30)
            connection.request(
                "POST", "/snapshot", body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            assert connection.getresponse().read() and True
            connection.request("GET", "/healthz")  # same connection
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            connection.close()
        finally:
            server.shutdown()
            thread.join()
            executor.close()

    def test_snapshot_endpoint_without_dir_is_409(self):
        executor = InProcessExecutor()
        server, thread = start_server(executor, port=0)
        try:
            host, port = server.server_address[:2]
            status, _, body = _post(f"http://{host}:{port}/snapshot")
            assert status == 409
            assert "snapshot" in body["error"]
        finally:
            server.shutdown()
            thread.join()
            executor.close()


class _SaturatedExecutor:
    """An executor stub whose every dispatch reports saturation."""

    workers = 0
    snapshot_dir = None

    def submit(self, request, timeout=None):
        raise PoolSaturatedError("stub saturated", retry_after=7.0)

    def compile_batch(self, requests, timeout=None):
        raise PoolSaturatedError("stub saturated", retry_after=7.0)

    def ping(self):
        return {"status": "ok"}

    def stats(self):
        return {}

    def close(self):
        pass


class TestBackpressure:
    def test_in_process_bound_rejects_excess_inflight(self):
        executor = InProcessExecutor(max_inflight=1)
        executor._pending = 1  # simulate a concurrent request in flight
        with pytest.raises(PoolSaturatedError):
            executor.submit(CompileRequest(source=tagged("B")))
        assert executor.rejections == 1
        executor._pending = 0
        assert executor.submit(CompileRequest(source=tagged("B"))).ok

    def test_pool_reservation_is_all_or_nothing(self):
        with WorkerPool(workers=1, max_inflight_per_worker=2) as pool:
            pool._reserve([0])  # one slot taken
            with pytest.raises(PoolSaturatedError):
                pool._reserve([0, 0])  # two more would exceed the bound
            with pool._lock:
                assert pool._request_load[0] == 1  # nothing partially booked
            assert pool.rejections == 1
            with pool._lock:
                pool._request_load[0] = 0
            assert pool.submit(CompileRequest(source=tagged("B2"))).ok
            assert pool.stats()["pool"]["rejections"] == 1

    def test_http_maps_saturation_to_429_with_retry_after(self):
        server, thread = start_server(_SaturatedExecutor(), port=0)
        try:
            host, port = server.server_address[:2]
            base = f"http://{host}:{port}"
            status, headers, body = _post(
                f"{base}/compile", {"source": tagged("S")}
            )
            assert status == 429
            assert headers["Retry-After"] == "7"
            assert body["retry_after"] == 7
            status, headers, _ = _post(
                f"{base}/batch", {"requests": [{"source": tagged("S")}]}
            )
            assert status == 429
            assert "Retry-After" in headers
        finally:
            server.shutdown()
            thread.join()
