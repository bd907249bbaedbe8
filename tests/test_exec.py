"""The execution tier: module emitter, loader, execute path, service wiring.

Covers the ``module`` emitter (standalone importable modules, no ``repro``
at run time), the module loader/cache, the seeded operand environments,
:func:`repro.exec.api.run_execute_request` happy and error paths (including
emitted-vs-interpreted identity across the solver x metric matrix), and the
``POST /execute`` endpoint with its metrics/telemetry side channels.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.algebra import Matrix, Property
from repro.codegen import available_emitters, get_emitter
from repro.exec import (
    ModuleLoader,
    ModuleRunError,
    generate_module,
    plan_signature,
)
from repro.exec.api import ExecuteRequest, ExecuteResponse, run_execute_request
from repro.frontend.compiler import Compiler, main as cli_main
from repro.runtime import execute_program, random_environment
from repro.runtime.reference import evaluate as reference_evaluate
from repro.service.api import CompileRequest, RequestError
from repro.service.http import start_server
from repro.service.pool import InProcessExecutor, WorkerPool
from repro import telemetry
from repro.obs import logging as obs_logging

CHAIN_SOURCE = """Matrix A (30, 30) <spd>
Matrix B (30, 20) <>
Matrix C (20, 20) <lower_triangular, non_singular>
X := A^-1 * B * C^T
"""

DAG_SOURCE = """Matrix A (12, 15) <>
Matrix B (15, 18) <>
Matrix C (18, 12) <>
Y := A * B
Z := Y * C * A
"""

#: A pure product chain and a Kalman-style DAG whose plan uses solve kernels
#: with transposed right-hand sides (e.g. posv_l_it, sysv_r_ti).
PRODUCT_CHAIN_SOURCE = """Matrix P (120, 400) <full_rank>
Matrix Q (400, 80) <full_rank>
Matrix R (80, 300) <full_rank>
Matrix S (300, 60) <full_rank>
Y := P * Q * R * S
"""

KALMAN_DAG_SOURCE = """Matrix Hk (50, 90) <full_rank>
Matrix Pk (90, 90) <spd>
Matrix Bk (50, 40) <full_rank>
G := Hk * Pk * Hk^T
J := G^-1 * Bk
K := Pk * Hk^T * (Hk * Pk^-1 * Hk^T)^-1
"""


def _compile(source: str, **options):
    from repro.options import CompileOptions

    return Compiler(CompileOptions(**options)).compile(source)


def _request(source: str = CHAIN_SOURCE, **execute_fields) -> ExecuteRequest:
    return ExecuteRequest(compile=CompileRequest(source=source), **execute_fields)


# ---------------------------------------------------------------------------
# The module emitter
# ---------------------------------------------------------------------------

class TestModuleEmitter:
    def test_registered_as_stitched_emitter(self):
        assert "module" in available_emitters()
        assert get_emitter("module").stitched

    def test_emitted_source_is_standalone(self):
        source = _compile(CHAIN_SOURCE).emit("module")
        assert "import repro" not in source
        assert "from repro" not in source
        for constant in ("ENTRYPOINT", "ARGUMENTS", "RESULT", "OPERANDS"):
            assert constant in source

    def test_emit_module_renders_the_whole_dag_once(self):
        result = _compile(DAG_SOURCE)
        assert result.emit("module") == result.emit_stitched("module")

    def test_module_matches_reference_in_process(self):
        result = _compile(CHAIN_SOURCE)
        source = result.emit("module")
        namespace: dict = {}
        exec(compile(source, "<module>", "exec"), namespace)
        environment = random_environment(result, seed=11)
        value = namespace[namespace["ENTRYPOINT"]](
            **{name: environment[name] for name in namespace["ARGUMENTS"]}
        )
        expected = reference_evaluate(
            result.assignments[-1].expression, environment
        )
        np.testing.assert_allclose(value, expected, rtol=1e-9, atol=1e-11)

    def test_module_runs_in_fresh_process_without_repro(self, tmp_path):
        result = _compile(CHAIN_SOURCE)
        (tmp_path / "emitted.py").write_text(result.emit("module"))
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import sys\n"
            "import numpy as np\n"
            "import importlib.util\n"
            "spec = importlib.util.spec_from_file_location('emitted', "
            f"{str(tmp_path / 'emitted.py')!r})\n"
            "mod = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(mod)\n"
            "assert 'repro' not in sys.modules\n"
            "rng = np.random.default_rng(0)\n"
            "A = rng.standard_normal((30, 30)); A = A @ A.T + 30 * np.eye(30)\n"
            "B = rng.standard_normal((30, 20))\n"
            "C = np.tril(rng.standard_normal((20, 20))) + 20 * np.eye(20)\n"
            "value = getattr(mod, mod.ENTRYPOINT)(A=A, B=B, C=C)\n"
            "expected = np.linalg.inv(A) @ B @ C.T\n"
            "assert np.allclose(value, expected, rtol=1e-8, atol=1e-10)\n"
            "assert mod.RESULT == 'X'\n"
            "print('STANDALONE_OK')\n"
        )
        # No repo paths in the child: the emitted module must carry
        # everything it needs.
        completed = subprocess.run(
            [sys.executable, str(probe)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={"PATH": "/usr/bin:/bin", "HOME": str(tmp_path)},
        )
        assert completed.returncode == 0, completed.stderr
        assert "STANDALONE_OK" in completed.stdout

    def test_alias_program_module(self):
        result = _compile("Matrix A (6, 6) <>\nX := A\n")
        source = result.emit("module")
        namespace: dict = {}
        exec(compile(source, "<module>", "exec"), namespace)
        value = np.arange(36.0).reshape(6, 6)
        np.testing.assert_array_equal(
            namespace[namespace["ENTRYPOINT"]](A=value), value
        )

    @pytest.mark.parametrize("source", [CHAIN_SOURCE, DAG_SOURCE])
    def test_one_numpy_entrypoint(self, source):
        emitted = _compile(source).emit("module")
        namespace: dict = {}
        exec(compile(emitted, "<module>", "exec"), namespace)
        assert "numba" not in emitted
        assert emitted.count(f"def {namespace['ENTRYPOINT']}(") == 1


class TestPlanSignature:
    def test_stable_across_recompiles(self):
        first = plan_signature(_compile(CHAIN_SOURCE))
        second = plan_signature(_compile(CHAIN_SOURCE))
        assert first == second

    def test_sensitive_to_dimensions(self):
        grown = CHAIN_SOURCE.replace("(30, 20)", "(30, 25)").replace(
            "(20, 20)", "(25, 25)"
        )
        assert plan_signature(_compile(CHAIN_SOURCE)) != plan_signature(
            _compile(grown)
        )

    def test_accepts_bare_program(self):
        program = _compile(CHAIN_SOURCE).stitched_program()
        assert isinstance(plan_signature(program), str)


# ---------------------------------------------------------------------------
# The module loader
# ---------------------------------------------------------------------------

class TestModuleLoader:
    def test_load_lookup_and_stats(self):
        loader = ModuleLoader(max_entries=4)
        result = _compile(CHAIN_SOURCE)
        key = plan_signature(result)
        assert loader.lookup(key) is None
        loaded = loader.load(result.emit("module"), key)
        assert loader.lookup(key) is loaded
        stats = loader.stats()
        assert stats["size"] == 1 and stats["hits"] == 1 and stats["misses"] == 1
        loader.clear()

    def test_eviction_respects_lru_order(self):
        loader = ModuleLoader(max_entries=2)
        sources = [
            _compile(f"Matrix A ({n}, {n}) <spd>\nMatrix B ({n}, 4) <>\nX := A^-1 * B\n")
            for n in (5, 6, 7)
        ]
        keys = [plan_signature(result) for result in sources]
        for result, key in zip(sources, keys):
            loader.load(result.emit("module"), key)
        assert loader.lookup(keys[0]) is None  # evicted
        assert loader.lookup(keys[2]) is not None
        assert loader.stats()["evictions"] == 1
        loader.clear()

    def test_run_reports_missing_operands(self):
        loader = ModuleLoader()
        result = _compile(CHAIN_SOURCE)
        loaded = loader.load(result.emit("module"), plan_signature(result))
        with pytest.raises(ModuleRunError, match="missing operand"):
            loaded.run({"A": np.eye(30)})
        loader.clear()

    def test_broken_source_is_not_cached(self):
        loader = ModuleLoader()
        with pytest.raises(Exception):
            loader.load("raise RuntimeError('boom')\n", "broken-key")
        assert loader.lookup("broken-key") is None
        loader.clear()

    def test_close_removes_only_its_own_directory(self, tmp_path):
        result = _compile(CHAIN_SOURCE)
        key = plan_signature(result)
        owned = ModuleLoader()
        owned.load(result.emit("module"), key)
        directory = owned.directory
        assert os.path.isdir(directory)
        owned.close()
        assert not os.path.exists(directory)
        assert owned.lookup(key) is None

        supplied = ModuleLoader(directory=str(tmp_path))
        supplied.load(result.emit("module"), key)
        supplied.close()
        assert tmp_path.is_dir() and not list(tmp_path.iterdir())

    def test_closed_loader_loads_into_a_fresh_directory(self):
        result = _compile(CHAIN_SOURCE)
        key = plan_signature(result)
        loader = ModuleLoader()
        loader.load(result.emit("module"), key)
        first = loader.directory
        loader.close()
        loader.close()  # a second close is a no-op
        loaded = loader.load(result.emit("module"), key)
        second = loader.directory
        try:
            assert second != first and os.path.isdir(second)
            assert loader.lookup(key) is loaded
        finally:
            loader.close()
        assert not os.path.exists(second)

    def test_collected_loader_removes_its_directory(self):
        import gc

        result = _compile(CHAIN_SOURCE)
        loader = ModuleLoader()
        loader.load(result.emit("module"), plan_signature(result))
        directory = loader.directory
        assert os.path.isdir(directory)
        del loader
        gc.collect()
        assert not os.path.exists(directory)

    def test_finalizer_of_an_inherited_loader_keeps_the_directory(self, tmp_path):
        """A forked child runs its copy of the parent's finalizer with the
        parent's pid recorded; the parent's directory must survive it."""
        from repro.exec.loader import _remove_directory

        directory = tmp_path / "repro_exec_parent"
        directory.mkdir()
        _remove_directory(str(directory), os.getpid() + 1)
        assert directory.is_dir()
        _remove_directory(str(directory), os.getpid())
        assert not directory.exists()


# ---------------------------------------------------------------------------
# Seeded operand environments
# ---------------------------------------------------------------------------

class TestRandomEnvironment:
    def test_deterministic_per_seed(self):
        result = _compile(CHAIN_SOURCE)
        first = random_environment(result, seed=9)
        second = random_environment(result, seed=9)
        other = random_environment(result, seed=10)
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])
        assert any(not np.array_equal(first[n], other[n]) for n in first)

    def test_respects_declared_properties(self):
        environment = random_environment(_compile(CHAIN_SOURCE), seed=0)
        A, C = environment["A"], environment["C"]
        np.testing.assert_allclose(A, A.T)
        assert np.all(np.linalg.eigvalsh(A) > 0)
        np.testing.assert_array_equal(C, np.tril(C))

    def test_overrides_and_errors(self):
        result = _compile(CHAIN_SOURCE)
        override = np.eye(30)
        environment = random_environment(result, seed=0, overrides={"A": override})
        np.testing.assert_array_equal(environment["A"], override)
        with pytest.raises(ValueError, match="does not match"):
            random_environment(result, overrides={"A": np.eye(3)})
        with pytest.raises(ValueError, match="undeclared"):
            random_environment(result, overrides={"Q": np.eye(3)})

    def test_accepts_expression_and_mapping(self):
        a = Matrix("A", 5, 5, {Property.SPD})
        env = random_environment({"A": a}, seed=1)
        assert env["A"].shape == (5, 5)


# ---------------------------------------------------------------------------
# run_execute_request
# ---------------------------------------------------------------------------

class TestRunExecuteRequest:
    def test_chain_executes_and_validates(self):
        response = run_execute_request(_request(seed=4))
        assert response.ok and response.validated
        assert response.max_rel_error < 1e-8
        summary = response.results[0]
        assert summary["target"] == "X"
        assert (summary["rows"], summary["columns"]) == (30, 20)
        assert {"compile_s", "emit_s", "import_s", "run_s", "validate_s",
                "total_s"} <= set(response.timing)

    def test_repeat_execution_hits_module_cache(self):
        session = Compiler()
        request = _request(seed=4)
        run_execute_request(request, compiler=session)
        response = run_execute_request(request, compiler=session)
        assert response.ok and response.module_cache_hit
        assert response.timing["emit_s"] == 0.0

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("metric", ["flops", "time"])
    @pytest.mark.parametrize(
        "source", [CHAIN_SOURCE, DAG_SOURCE, PRODUCT_CHAIN_SOURCE, KALMAN_DAG_SOURCE]
    )
    def test_module_matches_reference_across_matrix(self, prune, metric, source):
        request = ExecuteRequest.from_dict(
            {
                "source": source,
                "options": {"prune": prune, "metric": metric},
                "execute": {"seed": 2},
            }
        )
        response = run_execute_request(request)
        assert response.ok, response.error
        assert response.validated

    def test_transposed_solve_kernels_render_correctly(self):
        # Regression test for the numpy templates dropping the rhs transpose
        # code, which made the emitted module diverge from the reference
        # (or crash).
        request = ExecuteRequest.from_dict(
            {"source": KALMAN_DAG_SOURCE, "execute": {"seed": 3}}
        )
        response = run_execute_request(request)
        assert response.ok, response.error
        assert response.validated
        assert response.max_rel_error < 1e-8

    @pytest.mark.parametrize("engine", ["interpreter", "both"])
    def test_removed_engines_rejected(self, engine):
        response = run_execute_request(_request(engine=engine))
        assert not response.ok and response.phase == "request"
        assert "unknown engine" in response.error

    def test_explicit_payloads_validate(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((30, 30))
        A = A @ A.T + 30 * np.eye(30)
        B = rng.standard_normal((30, 20))
        C = np.tril(rng.standard_normal((20, 20))) + 20 * np.eye(20)
        response = run_execute_request(
            _request(payloads={"A": A, "B": B, "C": C})
        )
        assert response.ok and response.validated
        expected = np.linalg.inv(A) @ B @ C.T
        assert np.isclose(response.results[0]["fro_norm"], np.linalg.norm(expected))

    def test_compile_failure_reports_phase(self):
        response = run_execute_request(_request(source="Matrix A (2, 2 <>\n"))
        assert not response.ok and response.phase == "compile"

    def test_payload_shape_error_reports_operands_phase(self):
        response = run_execute_request(_request(payloads={"A": np.eye(3)}))
        assert not response.ok and response.phase == "operands"
        assert "does not match" in response.error

    def test_singular_operand_fails_in_run_phase(self):
        session = Compiler()
        response = run_execute_request(
            _request(payloads={"A": np.zeros((30, 30))}), compiler=session
        )
        assert not response.ok and response.phase == "run"
        execution = session.cache_stats()["execution"]
        assert (execution["runs"], execution["run_errors"]) == (1, 1)

    def test_validation_failure_counts_and_reports(self):
        class _LyingModule:
            def run(self, environment):
                return np.zeros((30, 20))

        class _LyingLoader:
            def lookup(self, key):
                return _LyingModule()

        session = Compiler()
        response = run_execute_request(
            _request(seed=1), compiler=session, loader=_LyingLoader()
        )
        assert not response.ok and response.phase == "validate"
        assert response.validated is False
        assert response.max_rel_error > 1e-6
        assert "diverges from the reference" in response.error
        assert session.cache_stats()["execution"]["validation_failures"] == 1

    def test_validation_can_be_disabled(self):
        response = run_execute_request(_request(validate_numerics=False))
        assert response.ok and response.validated is None


class TestExecuteWire:
    def test_round_trip_with_payloads(self):
        request = _request(seed=7, rtol=1e-5, payloads={"A": np.eye(30)})
        restored = ExecuteRequest.from_dict(request.to_dict())
        assert restored.seed == 7 and restored.rtol == 1e-5
        np.testing.assert_array_equal(
            np.asarray(restored.payloads["A"]), np.eye(30)
        )

    def test_unknown_execute_field_rejected(self):
        with pytest.raises(RequestError, match="unknown execute fields"):
            ExecuteRequest.from_dict(
                {"source": CHAIN_SOURCE, "execute": {"bogus": 1}}
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(RequestError, match="unknown engine"):
            ExecuteRequest.from_dict(
                {"source": CHAIN_SOURCE, "execute": {"engine": "quantum"}}
            )

    def test_module_emit_target_legal_on_compile_wire(self):
        request = CompileRequest.from_dict(
            {"source": CHAIN_SOURCE, "options": {"emit": ["module"]}}
        )
        with InProcessExecutor() as executor:
            response = executor.submit(request)
        assert response.ok
        code = response.assignments[-1].code["module"]
        assert "ENTRYPOINT" in code and "import repro" not in code

    def test_response_round_trip(self):
        response = run_execute_request(_request(seed=4))
        restored = ExecuteResponse.from_dict(
            json.loads(json.dumps(response.to_dict()))
        )
        assert restored.ok == response.ok
        assert restored.results == response.results
        assert restored.timing == response.timing


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------

class TestExecutionLayer:
    def test_execution_layer_in_session_stats(self):
        layer = Compiler().cache_stats()["execution"]
        assert layer["layer"] == "execution"
        for key in ("runs", "run_errors", "validation_failures", "hits", "misses"):
            assert layer[key] == 0

    def test_runs_counted_and_aggregated(self):
        session = Compiler()
        run_execute_request(_request(seed=4), compiler=session)
        run_execute_request(_request(seed=4), compiler=session)
        snap = session.cache_stats()
        execution = snap["execution"]
        assert execution["runs"] == 2
        assert (execution["hits"], execution["misses"], execution["size"]) == (1, 1, 1)
        pooled = telemetry.aggregate([snap, snap])
        assert pooled["execution"]["runs"] == 4
        assert pooled["execution"]["hit_rate"] == 0.5

    def test_reset_keeps_loaded_modules(self):
        session = Compiler()
        run_execute_request(_request(seed=4), compiler=session)
        session.reset_cache_stats()
        execution = session.cache_stats()["execution"]
        assert (execution["runs"], execution["misses"], execution["size"]) == (0, 0, 1)
        assert run_execute_request(_request(seed=4), compiler=session).module_cache_hit


# ---------------------------------------------------------------------------
# Service executors and HTTP endpoint
# ---------------------------------------------------------------------------

class TestExecutorExecute:
    def test_in_process_execute(self):
        with InProcessExecutor() as executor:
            response = executor.execute(_request(seed=4))
            assert response.ok and response.validated
            assert executor.requests_served == 1

    def test_worker_pool_execute(self):
        with WorkerPool(workers=2, request_timeout=120.0) as pool:
            first = pool.execute(_request(seed=4))
            assert first.ok and first.validated
            assert first.worker in (0, 1)
            second = pool.execute(_request(seed=4))
            assert second.ok and second.module_cache_hit
            assert pool._request_load == [0, 0]

    def test_worker_shutdown_removes_module_directory(self, tmp_path, monkeypatch):
        """Pool workers leave through ``os._exit``, so no finalizer runs;
        the shutdown message itself must remove the loader's directory."""
        import tempfile

        # Forked workers inherit the temp root and make their directory here.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with WorkerPool(workers=1, request_timeout=120.0) as pool:
            assert pool.execute(_request(seed=4)).ok
            assert [p.name[:11] for p in tmp_path.iterdir()] == ["repro_exec_"]
        assert not list(tmp_path.iterdir())

    def test_worker_never_touches_the_parent_loader(self, tmp_path, monkeypatch):
        """A forked worker's session has a loader of its own: it writes no
        module into the parent's directory, and its shutdown unlinks none
        of the parent's module files."""
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        parent = Compiler().loader
        entry = parent.load("VALUE = 1\n", "parent-module")
        parent_files = sorted(os.listdir(parent.directory))
        try:
            with WorkerPool(workers=1, request_timeout=120.0) as pool:
                assert pool.execute(_request(seed=4)).ok
                others = [
                    path.name
                    for path in tmp_path.iterdir()
                    if str(path) != parent.directory
                ]
                assert len(others) == 1, others  # the worker's own directory
                assert sorted(os.listdir(parent.directory)) == parent_files
            assert sorted(os.listdir(parent.directory)) == parent_files
            assert os.path.exists(entry.path)
        finally:
            parent.close()


@pytest.fixture(scope="class")
def exec_service():
    executor = InProcessExecutor()
    server, thread = start_server(executor, port=0)
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base
    server.shutdown()
    thread.join(timeout=5.0)
    executor.close()


def _post(url, payload, headers=None):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


class TestExecuteEndpoint:
    def test_execute_returns_validated_result(self, exec_service):
        status, body, headers = _post(
            f"{exec_service}/execute",
            {"source": CHAIN_SOURCE, "execute": {"seed": 4}},
            headers={"X-Request-Id": "exec-test-1"},
        )
        assert status == 200 and body["ok"] and body["validated"]
        assert body["request_id"] == "exec-test-1"
        assert headers["X-Request-Id"] == "exec-test-1"
        assert body["results"][0]["target"] == "X"

    def test_execute_dag_program(self, exec_service):
        status, body, _ = _post(
            f"{exec_service}/execute",
            {"source": DAG_SOURCE, "execute": {"engine": "module"}},
        )
        assert status == 200 and body["ok"] and body["validated"]
        assert body["results"][0]["target"] == "Z"
        assert "engines_match" not in body and "implementation" not in body

    @pytest.mark.parametrize(
        "execute, message",
        [
            ({"engine": "quantum"}, "unknown engine"),
            ({"payloads": "AB"}, "'payloads' must map"),
            ({"payloads": [1]}, "'payloads' must map"),
            ({"validate": "false"}, "'validate' must be a boolean"),
            ({"validate": 0}, "'validate' must be a boolean"),
            ({"rtol": "nan"}, "must be finite"),
            ({"atol": "inf"}, "must be finite"),
            ({"engine": "interpreter"}, "unknown engine"),
            ({"engine": "both"}, "unknown engine"),
        ],
    )
    def test_execute_malformed_body_is_400(self, exec_service, execute, message):
        status, body, _ = _post(
            f"{exec_service}/execute", {"source": CHAIN_SOURCE, "execute": execute}
        )
        assert status == 400 and message in body["error"]

    def test_execute_run_failure_is_400_with_phase(self, exec_service):
        status, body, _ = _post(
            f"{exec_service}/execute",
            {
                "source": CHAIN_SOURCE,
                "execute": {"payloads": {"A": np.zeros((30, 30)).tolist()}},
            },
        )
        assert status == 400 and not body["ok"]
        assert body["phase"] == "run"

    def test_metrics_exposition_has_execution_series(self, exec_service):
        _post(f"{exec_service}/execute", {"source": CHAIN_SOURCE, "execute": {}})
        with urllib.request.urlopen(f"{exec_service}/metrics", timeout=30) as resp:
            text = resp.read().decode("utf-8")
        assert "repro_execute_phase_seconds" in text
        assert 'phase="run"' in text
        assert 'repro_validation_failures{layer="execution"} 0' in text
        assert "repro_execute_validation_failures" not in text

    def test_validation_failure_counted_and_logged_once(self, monkeypatch):
        """One diverging ``/execute`` (exact tolerances: the module and the
        reference round differently) is one warning line and one count."""
        import logging

        monkeypatch.setattr(
            obs_logging, "_DEFAULT_SUPPRESSOR", obs_logging.TokenBucketSuppressor()
        )
        records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("repro")
        logger.addHandler(handler)
        executor = InProcessExecutor()
        server, thread = start_server(executor, port=0)
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            status, body, _ = _post(
                f"{base}/execute",
                {"source": CHAIN_SOURCE, "execute": {"seed": 1, "rtol": 0, "atol": 0}},
            )
            with urllib.request.urlopen(f"{base}/metrics", timeout=30) as resp:
                text = resp.read().decode("utf-8")
        finally:
            logger.removeHandler(handler)
            server.shutdown()
            thread.join(timeout=5.0)
            executor.close()
        assert status == 400 and body["phase"] == "validate"
        warnings = [r for r in records if r.levelno >= logging.WARNING]
        assert [r.getMessage() for r in warnings] == ["execute validation failed"]
        assert 'repro_validation_failures{layer="execution"} 1' in text.splitlines()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCLIExecute:
    def test_cli_execute_reports_and_succeeds(self, tmp_path, capsys):
        path = tmp_path / "problem.chain"
        path.write_text(CHAIN_SOURCE)
        assert cli_main([str(path), "--execute", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "execution:" in out
        assert "validated against reference" in out

    def test_cli_execute_rejected_with_serve(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--serve", "--execute"])
        assert "--execute" in capsys.readouterr().err
