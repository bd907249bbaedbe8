"""Tests for the compilation service (API, executors, pool, HTTP)."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor, wait

import pytest

from repro.frontend import compile_source
from repro.service import (
    CompileOptions,
    CompileRequest,
    CompileResponse,
    InProcessExecutor,
    RequestError,
    WorkerPool,
    affinity_key,
    create_executor,
    execute_request,
)
from repro.service.http import start_server

#: Template for structurally similar chains: same shapes/properties/structure,
#: different operand names per tag (so identity/equality caches miss but the
#: signature-keyed match cache hits).
TEMPLATE = """
Matrix A{t} (200, 200) <spd>
Matrix B{t} (200, 100) <>
Matrix C{t} (100, 100) <lower_triangular, non_singular>
X := A{t}^-1 * B{t} * C{t}^T
"""


def similar_sources(count: int, prefix: str = "S"):
    return [TEMPLATE.replace("{t}", f"{prefix}{index}") for index in range(count)]


# ---------------------------------------------------------------------------
# Request/response model
# ---------------------------------------------------------------------------

class TestApi:
    def test_request_roundtrips_through_dict(self):
        request = CompileRequest(
            source="Matrix A (4, 4) <>\nX := A * A\n",
            options=CompileOptions(
                metric="flops", emit=("julia",), prune=False, match_cache=False
            ),
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert "options" in payload and "metric" not in payload
        clone = CompileRequest.from_dict(payload)
        assert clone == request

    def test_structured_spec_equals_source(self):
        structured = CompileRequest(
            operands={
                "A": {"rows": 200, "columns": 200, "properties": ["spd"]},
                "B": {"rows": 200, "columns": 100},
            },
            assignments=[{"target": "X", "expression": "A^-1 * B"}],
        )
        textual = CompileRequest(
            source="Matrix A (200, 200) <spd>\nMatrix B (200, 100) <>\nX := A^-1 * B\n"
        )
        left = execute_request(structured)
        right = execute_request(textual)
        assert left.ok and right.ok
        assert left.kernel_sequences == right.kernel_sequences == {"X": ["POSV"]}

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # neither source nor spec
            {"source": "X := A\n", "metric": "nonsense"},
            {"source": "X := A\n", "solver": "nonsense"},
            {"source": "X := A\n", "emit": ["fortran"]},
            {"source": "X := A\n", "bogus_field": 1},
            # Bad values inside the nested options object.
            {"source": "X := A\n", "options": "flops"},
            {"source": "X := A\n", "options": {"metric": "nonsense"}},
            {"source": "X := A\n", "options": {"emit": ["fortran"]}},
            {"source": "X := A\n", "options": {"prune": "yes"}},
            {"source": "X := A\n", "options": {"deadline_s": 0}},
            {"source": "X := A\n", "options": {"cost_cache_size": 0}},
            # A flat option field next to the nested object.
            {"source": "X := A\n", "metric": "flops", "options": {"prune": True}},
        ],
    )
    def test_malformed_requests_raise(self, payload):
        with pytest.raises(RequestError):
            CompileRequest.from_dict(payload)

    def test_execution_errors_fold_into_response(self):
        response = execute_request(CompileRequest(source="this is not DSL"))
        assert not response.ok
        assert response.error
        assert response.assignments == []

    def test_response_roundtrips_through_dict(self):
        response = execute_request(CompileRequest(source=similar_sources(1)[0]))
        clone = CompileResponse.from_dict(json.loads(json.dumps(response.to_dict())))
        assert clone.kernel_sequences == response.kernel_sequences
        assert clone.ok and clone.total_flops == response.total_flops

    def test_affinity_key_is_name_abstracted(self):
        a, b = similar_sources(2)
        assert affinity_key(CompileRequest(source=a)) == affinity_key(
            CompileRequest(source=b)
        )
        different = CompileRequest(
            source="Matrix A (7, 7) <>\nX := A * A * A\n"
        )
        assert affinity_key(CompileRequest(source=a)) != affinity_key(different)


# ---------------------------------------------------------------------------
# In-process executor (the tier-1 path: no processes are spawned)
# ---------------------------------------------------------------------------

class TestInProcessExecutor:
    def test_create_executor_fallback_spawns_nothing(self):
        before = multiprocessing.active_children()
        executor = create_executor(in_process=True)
        assert isinstance(executor, InProcessExecutor)
        assert executor.workers == 0
        executor.submit(CompileRequest(source=similar_sources(1)[0]))
        assert multiprocessing.active_children() == before
        executor.close()
        assert isinstance(create_executor(workers=0), InProcessExecutor)

    def test_batch_matches_compile_source(self):
        sources = similar_sources(20, prefix="InP")
        with create_executor(in_process=True) as executor:
            responses = executor.compile_batch(
                [CompileRequest(source=source) for source in sources]
            )
        assert all(response.ok for response in responses)
        for source, response in zip(sources, responses):
            direct = compile_source(source)
            assert response.assignment("X").kernels == direct.assignment(
                "X"
            ).kernel_sequence
            assert response.assignment("X").flops == pytest.approx(
                direct.assignment("X").flops
            )

    def test_emitted_code_matches_frontend(self):
        import re

        def normalized(code: str) -> str:
            # Temporary names draw from a process-global counter, so two
            # compilations of the same source differ only in T<n> numbering.
            return re.sub(r"\bT\d+\b", "T#", code)

        source = similar_sources(1, prefix="Code")[0]
        with create_executor(in_process=True) as executor:
            response = executor.submit(
                CompileRequest(
                    source=source, options=CompileOptions(emit=("julia", "numpy"))
                )
            )
        direct = compile_source(source)
        assert normalized(response.assignment("X").code["julia"]) == normalized(
            direct.assignment("X").julia()
        )
        assert normalized(response.assignment("X").code["numpy"]) == normalized(
            direct.assignment("X").numpy()
        )

    def test_stats_reflect_real_hits_and_reset(self):
        with create_executor(in_process=True) as executor:
            executor.reset_stats()
            sources = similar_sources(6, prefix="Stats")
            executor.compile_batch([CompileRequest(source=s) for s in sources])
            stats = executor.stats()
            assert stats["mode"] == "in-process"
            assert stats["pool"]["requests"] == 6
            match = stats["caches"]["match_cache"]
            # Request 2..6 are structurally identical to request 1, so the
            # signature-keyed cache must hit on the warm majority.
            assert match["hits"] > 0
            assert match["hit_rate"] > 0.5
            for layer in ("match_cache", "interner", "inference", "kernel_cost"):
                entry = stats["caches"][layer]
                for key in ("hits", "misses", "hit_rate", "size", "evictions"):
                    assert key in entry, (layer, key)
            executor.reset_stats()
            after = executor.stats()
            assert after["pool"]["requests"] == 0
            assert after["caches"]["match_cache"]["hits"] == 0

    def test_bad_request_is_error_response(self):
        with create_executor(in_process=True) as executor:
            response = executor.submit(CompileRequest(source="garbage ::= input"))
        assert not response.ok
        assert "Error" in (response.error or "")

    def test_concurrent_requests_stay_consistent(self):
        """Concurrent submits through the shared caches corrupt nothing."""
        sources = similar_sources(8, prefix="Thr") + [
            "Matrix D (60, 60) <diagonal, non_singular>\n"
            "Matrix E (60, 30) <>\nY := D^-1 * E\n"
        ] * 4
        expected = {
            source: compile_source(source).assignments[0].kernel_sequence
            for source in set(sources)
        }
        with create_executor(in_process=True) as executor:
            with ThreadPoolExecutor(max_workers=6) as threads:
                responses = list(
                    threads.map(
                        lambda source: executor.submit(CompileRequest(source=source)),
                        sources * 3,
                    )
                )
        for source, response in zip(sources * 3, responses):
            assert response.ok, response.error
            assert response.assignments[0].kernels == expected[source]


# ---------------------------------------------------------------------------
# Worker pool (persistent warm-cache processes)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def pool():
    pool = WorkerPool(workers=2, request_timeout=120.0)
    yield pool
    pool.close()


class TestWorkerPool:
    def test_batch_matches_compile_source(self, pool):
        sources = similar_sources(10, prefix="Pool")
        responses = pool.compile_batch(
            [CompileRequest(source=source) for source in sources]
        )
        assert all(response.ok for response in responses)
        direct = compile_source(sources[0])
        for response in responses:
            assert response.assignment("X").kernels == direct.assignment(
                "X"
            ).kernel_sequence

    def test_affinity_routes_similar_requests_to_one_worker(self, pool):
        requests = [CompileRequest(source=s) for s in similar_sources(5, prefix="Aff")]
        workers = {pool.worker_for(request) for request in requests}
        assert len(workers) == 1
        responses = pool.compile_batch(requests)
        assert {response.worker for response in responses} == workers

    def test_pooled_stats_reflect_hits(self, pool):
        pool.reset_stats()
        sources = similar_sources(8, prefix="PStats")
        pool.compile_batch([CompileRequest(source=source) for source in sources])
        stats = pool.stats()
        assert stats["mode"] == "pool"
        assert stats["workers"] == 2
        assert stats["pool"]["requests"] == 8
        # The plan cache answers renamed (signature-equal) requests above
        # the solvers, so warm traffic shows up there -- the match cache
        # underneath only ever sees cold solves (possibly none, when the
        # pool is already warm from earlier requests in this module).
        assert stats["caches"]["plan_cache"]["hits"] >= 7
        assert stats["caches"]["plan_cache"]["hit_rate"] > 0.5
        assert len(stats["per_worker"]) == 2

    def test_worker_crash_restarts_and_recovers(self, pool):
        requests = [
            CompileRequest(source=s) for s in similar_sources(4, prefix="Crash")
        ]
        target = pool.worker_for(requests[0])
        restarts_before = pool.restarts
        pool.crash_worker(target)
        assert not pool._procs[target].is_alive()
        responses = pool.compile_batch(requests, timeout=60.0)
        assert all(response.ok for response in responses)
        assert pool.restarts == restarts_before + 1
        assert pool.ping()["status"] == "ok"

    def test_ping_reports_all_workers(self, pool):
        health = pool.ping()
        assert health["alive"] == health["workers"] == 2


def product_source(size: int) -> str:
    """A two-matrix product; sizes 10/30 and 20/40 route to different workers
    of a two-worker pool."""
    return f"Matrix A ({size}, {size}) <>\nMatrix B ({size}, 5) <>\nX := A * B\n"


def patch_workers(monkeypatch, action):
    """Run ``action(request)`` before every request the workers compile.

    Patched before the pool forks, so the workers (and every worker
    restarted later) inherit it.
    """
    from repro.service import pool as pool_module

    compile_request = pool_module.execute_request

    def patched(request, *args, **kwargs):
        action(request)
        return compile_request(request, *args, **kwargs)

    monkeypatch.setattr(pool_module, "execute_request", patched)


class TestPoolTransport:
    def test_pool_starts_no_thread_in_the_calling_process(self):
        before = set(threading.enumerate())
        with WorkerPool(workers=2, request_timeout=120.0) as pool:
            requests = [
                CompileRequest(source=product_source(size)) for size in (10, 20, 30, 40)
            ]
            assert {pool.worker_for(request) for request in requests} == {0, 1}
            responses = pool.compile_batch(requests)
            assert all(response.ok for response in responses)
            assert {response.worker for response in responses} == {0, 1}
            started = [thread.name for thread in set(threading.enumerate()) - before]
        assert started == []

    def test_concurrent_callers_each_get_their_own_reply(self):
        """Eight threads share two workers: single calls and batches that
        lock both workers.  An unlocked pipe would hand one caller another's
        reply; a lock taken out of order would deadlock until the timeout
        fails the responses."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # The pool closes first, so a caller stuck on a worker is freed
            # before the thread pool joins its threads.
            with ThreadPoolExecutor(max_workers=8) as threads, WorkerPool(
                workers=2, request_timeout=30.0
            ) as pool:

                def call(number):
                    ids = [f"call{number}-{part}" for part in range(1 + number % 2)]
                    requests = [
                        CompileRequest(source=product_source(size), request_id=rid)
                        for size, rid in zip((10 + 10 * (number % 4), 20), ids)
                    ]
                    if len(requests) == 1:
                        return ids, [pool.submit(requests[0])]
                    return ids, pool.compile_batch(requests)

                futures = [threads.submit(call, number) for number in range(48)]
                assert not wait(futures, timeout=60.0).not_done
                for future in futures:
                    ids, responses = future.result()
                    assert [r.request_id for r in responses] == ids
                    assert all(r.ok for r in responses)
                assert pool._request_load == [0, 0]
                assert pool.stats()["pool"]["requests"] == 72
        finally:
            sys.setswitchinterval(interval)

    def test_crash_on_first_attempt_is_retried(self, monkeypatch, tmp_path):
        flag = tmp_path / "crashed"

        def crash_once(request):
            if request.request_id == "crash-once" and not flag.exists():
                flag.touch()
                os._exit(3)

        patch_workers(monkeypatch, crash_once)
        with WorkerPool(workers=1, request_timeout=120.0) as pool:
            response = pool.submit(
                CompileRequest(source=product_source(10), request_id="crash-once")
            )
            assert response.ok and response.request_id == "crash-once"
            assert flag.exists() and pool.restarts == 1
            after = pool.submit(CompileRequest(source=product_source(20)))
            assert after.ok and pool.restarts == 1
            assert pool._request_load == [0]

    def test_poison_request_fails_after_max_retries(self, monkeypatch):
        def poison(request):
            if request.request_id == "poison":
                os._exit(3)

        patch_workers(monkeypatch, poison)
        with WorkerPool(workers=1, request_timeout=120.0, max_retries=2) as pool:
            response = pool.submit(
                CompileRequest(source=product_source(10), request_id="poison")
            )
            assert not response.ok and response.request_id == "poison"
            assert response.error == "worker 0 crashed 3 times processing this message"
            # The first attempt and both resends each killed a worker, and
            # every dead worker was replaced.
            assert pool.restarts == 3
            after = pool.submit(CompileRequest(source=product_source(10)))
            assert after.ok and after.worker == 0
            assert pool.ping()["status"] == "ok"
            assert pool._request_load == [0]

    def test_timeout_leaves_a_stale_reply_that_is_discarded(self, monkeypatch):
        def slow(request):
            if request.request_id == "slow":
                time.sleep(1.5)

        patch_workers(monkeypatch, slow)
        with WorkerPool(workers=1, request_timeout=120.0) as pool:
            timed_out = pool.submit(
                CompileRequest(source=product_source(10), request_id="slow"),
                timeout=0.3,
            )
            assert not timed_out.ok and timed_out.request_id == "slow"
            assert timed_out.error == "request timed out waiting for a worker"
            assert pool._request_load == [0]
            # The worker still answers "slow" first; that reply must be
            # dropped, not returned to the next caller.
            after = pool.submit(
                CompileRequest(source=product_source(20), request_id="after")
            )
            assert after.ok and after.request_id == "after"
            assert pool.restarts == 0
            assert pool.stats()["pool"]["requests"] == 2


# ---------------------------------------------------------------------------
# HTTP front-end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def http_service():
    executor = InProcessExecutor()
    server, thread = start_server(executor, port=0)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base
    server.shutdown()
    thread.join(timeout=5.0)
    executor.close()


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


class TestHTTP:
    def test_compile_endpoint_matches_direct(self, http_service):
        source = similar_sources(1, prefix="Http")[0]
        status, body = _post(f"{http_service}/compile", {"source": source})
        assert status == 200 and body["ok"]
        direct = compile_source(source)
        assert body["assignments"][0]["kernels"] == direct.assignment(
            "X"
        ).kernel_sequence

    def test_batch_endpoint(self, http_service):
        sources = similar_sources(5, prefix="HBatch")
        status, body = _post(
            f"{http_service}/batch",
            {"requests": [{"source": source} for source in sources]},
        )
        assert status == 200
        assert body["count"] == 5 and body["failed"] == 0
        kernels = {
            tuple(response["assignments"][0]["kernels"])
            for response in body["responses"]
        }
        assert len(kernels) == 1

    def test_stats_reflect_real_hit_counts(self, http_service):
        _, before = _get(f"{http_service}/stats")
        sources = similar_sources(4, prefix="HStats")
        _post(
            f"{http_service}/batch",
            {"requests": [{"source": source} for source in sources]},
        )
        _, after = _get(f"{http_service}/stats")
        # Warm signature-equal traffic is answered by the plan cache (the
        # layer above the solvers); the match cache only ever sees cold
        # solves underneath it.
        layer_before = before["caches"]["plan_cache"]
        layer_after = after["caches"]["plan_cache"]
        assert layer_after["hits"] > layer_before["hits"]
        new_lookups = (
            layer_after["hits"]
            + layer_after["misses"]
            - layer_before["hits"]
            - layer_before["misses"]
        )
        new_hits = layer_after["hits"] - layer_before["hits"]
        assert new_lookups > 0
        assert new_hits / new_lookups > 0.5

    def test_healthz(self, http_service):
        status, body = _get(f"{http_service}/healthz")
        assert status == 200 and body["status"] == "ok"

    def test_malformed_json_is_400(self, http_service):
        request = urllib.request.Request(
            f"{http_service}/compile",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unknown_field_is_400(self, http_service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{http_service}/compile", {"sauce": "typo"})
        assert excinfo.value.code == 400

    def test_compile_error_is_400_with_error_body(self, http_service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{http_service}/compile", {"source": "garbage ::= input"})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["ok"] is False and body["error"]

    @pytest.mark.parametrize("path", ["/nope", "/timeseries", "/analytics"])
    def test_unknown_path_is_404(self, http_service, path):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{http_service}{path}")
        assert excinfo.value.code == 404

    def test_removed_profile_endpoint_is_404(self, http_service):
        source = similar_sources(1, prefix="Profiled")[0]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{http_service}/profile", {"source": source})
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("path", ["/compile", "/execute"])
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"options": {"solver": "topdown"}}, "unknown option fields"),
            ({"options": {"parallelism": "threads:2"}}, "unknown option fields"),
            ({"options": {"profile": True}}, "unknown option fields"),
            ({"options": {"cost_cache_size": 64}}, "unknown option fields"),
            ({"metric": "flops"}, "unknown request fields"),
            ({"emit": ["julia"]}, "unknown request fields"),
            ({"prune": False}, "unknown request fields"),
            ({"use_match_cache": False}, "unknown request fields"),
        ],
    )
    def test_removed_option_fields_are_400(self, http_service, path, fields, message):
        """Removed options (``solver``, ``parallelism``, ``profile``,
        ``cost_cache_size``) and top-level flat option fields are client
        errors, never a 500."""
        source = similar_sources(1, prefix="Removed")[0]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{http_service}{path}", {"source": source, **fields})
        with excinfo.value as error:
            assert error.code == 400
            assert message in json.loads(error.read())["error"]


# ---------------------------------------------------------------------------
# CLI (--serve boots a working server)
# ---------------------------------------------------------------------------

class TestServeCLI:
    def test_serve_flag_boots_http_server(self):
        import re
        import subprocess
        import sys
        import time

        process = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro.frontend",
                "--serve",
                "--in-process",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no address in banner: {banner!r}"
            base = f"http://127.0.0.1:{match.group(1)}"
            deadline = time.time() + 30
            while True:
                try:
                    status, body = _get(f"{base}/healthz")
                    break
                except OSError:
                    assert time.time() < deadline, "server never became healthy"
                    time.sleep(0.2)
            assert status == 200 and body["status"] == "ok"
            status, body = _post(
                f"{base}/compile", {"source": similar_sources(1, "Cli")[0]}
            )
            assert status == 200 and body["ok"]
        finally:
            process.terminate()
            process.wait(timeout=10)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="needs /proc to see worker pids"
    )
    def test_sigterm_stops_server_and_every_worker(self):
        """``terminate()`` takes the same exit as Ctrl-C: the server closes
        and shuts its pool down, so no worker process outlives it."""
        import re
        import subprocess
        import sys

        process = subprocess.Popen(
            [
                sys.executable,
                "-u",
                "-m",
                "repro.frontend",
                "--serve",
                "--workers",
                "2",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        worker_pids = []
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no address in banner: {banner!r}"
            _, stats = _get(f"http://127.0.0.1:{match.group(1)}/stats")
            worker_pids = [entry["pid"] for entry in stats["per_worker"]]
            assert len(worker_pids) == 2 and all(map(_alive, worker_pids))
            process.terminate()
            assert process.wait(timeout=30) == 0
            assert [pid for pid in worker_pids if _alive(pid)] == []
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
            for pid in worker_pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _alive(pid):
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            # The state field follows the parenthesised command name.
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False
