"""Tests for the end-to-end compiler front-end (DSL -> GMC -> code)."""

import subprocess
import sys

import pytest

from repro.frontend import CompilationResult, compile_source
from repro.kernels import default_catalog
from repro.options import CompileOptions

SOURCE = """
Matrix A (200, 200) <SPD>
Matrix B (200, 100) <>
Matrix C (100, 100) <LowerTriangular, NonSingular>
Vector y (100)

X := A^-1 * B * C^T
z := A^-1 * B * y
"""


class TestCompileSource:
    def test_returns_compilation_result(self):
        result = compile_source(SOURCE)
        assert isinstance(result, CompilationResult)
        assert len(result) == 2

    def test_operands_are_exposed(self):
        result = compile_source(SOURCE)
        assert set(result.operands) == {"A", "B", "C", "y"}

    def test_assignment_lookup(self):
        result = compile_source(SOURCE)
        compiled = result.assignment("X")
        assert compiled.target == "X"
        assert compiled.kernel_sequence == ["TRMM", "POSV"]

    def test_unknown_assignment_raises(self):
        with pytest.raises(KeyError):
            compile_source(SOURCE).assignment("Q")

    def test_vector_assignment_uses_matrix_vector_kernels(self):
        result = compile_source(SOURCE)
        kernels = result.assignment("z").kernel_sequence
        assert kernels[-1] == "POSV"
        assert "GEMV" in kernels

    def test_total_flops_is_sum_of_assignments(self):
        result = compile_source(SOURCE)
        assert result.total_flops == pytest.approx(
            sum(compiled.flops for compiled in result)
        )

    def test_julia_and_numpy_emission(self):
        result = compile_source(SOURCE)
        julia = result.julia()
        numpy_code = result.numpy()
        assert "function compute_X(" in julia
        assert "def compute_x(" in numpy_code
        assert "posv!" in julia
        assert "cholesky_solve" in numpy_code

    def test_report_mentions_operands_and_costs(self):
        report = compile_source(SOURCE).report()
        assert "operand A" in report
        assert "total cost" in report
        assert "TRMM -> POSV" in report

    def test_metric_selection(self):
        flops_result = compile_source(SOURCE, options=CompileOptions(metric="flops"))
        time_result = compile_source(SOURCE, options=CompileOptions(metric="time"))
        assert flops_result.assignment("X").flops <= time_result.assignment("X").flops + 1e-6

    def test_custom_catalog(self):
        generic_catalog = default_catalog(include_specialized=False)
        generic = compile_source(SOURCE, options=CompileOptions(catalog=generic_catalog))
        assert "POSV" not in generic.assignment("X").kernel_sequence

    def test_generated_numpy_code_executes(self):
        import numpy as np

        from repro.runtime import evaluate, instantiate_expression

        result = compile_source(SOURCE)
        compiled = result.assignment("X")
        namespace = {}
        exec(compile(compiled.numpy(), "<generated>", "exec"), namespace)
        import inspect

        function = namespace["compute_x"]
        environment = instantiate_expression(compiled.expression, seed=5)
        arguments = [environment[name] for name in inspect.signature(function).parameters]
        np.testing.assert_allclose(
            function(*arguments),
            evaluate(compiled.expression, environment),
            rtol=1e-7,
            atol=1e-7,
        )


class TestCommandLine:
    def _run(self, *arguments, stdin=SOURCE):
        return subprocess.run(
            [sys.executable, "-m", "repro.frontend", *arguments],
            input=stdin,
            capture_output=True,
            text=True,
            check=False,
        )

    def test_report_output(self):
        completed = self._run()
        assert completed.returncode == 0
        assert "TRMM -> POSV" in completed.stdout

    def test_julia_emission(self):
        completed = self._run("--emit", "julia")
        assert completed.returncode == 0
        assert "posv!" in completed.stdout

    def test_numpy_emission(self):
        completed = self._run("--emit", "numpy")
        assert completed.returncode == 0
        assert "cholesky_solve" in completed.stdout

    def test_file_input(self, tmp_path):
        path = tmp_path / "problem.chain"
        path.write_text(SOURCE, encoding="utf-8")
        completed = self._run(str(path), "--metric", "time")
        assert completed.returncode == 0
        assert "total cost" in completed.stdout


class TestCommandLineSolverFlags:
    """CLI parity with the HTTP service: --solver/--no-prune/--no-match-cache
    are expressible from the command line and change nothing about the
    chosen kernel sequences (the options only steer *how* the optimum is
    found)."""

    def _report(self, *arguments, tmp_path):
        from repro.frontend import main

        path = tmp_path / "problem.chain"
        path.write_text(SOURCE, encoding="utf-8")
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = main([str(path), *arguments])
        assert status == 0
        return buffer.getvalue()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--solver", "topdown"),
            ("--parallel", "threads:2"),
            ("--profile", "problem.chain"),
            ("--profile-out", "stacks.txt"),
        ],
    )
    def test_removed_solver_flags_are_usage_errors(self, flag, value, capsys):
        """One DP loop: there is no solver to pick and no thread policy.
        Profiling is ``python -m cProfile``, not a CLI flag."""
        from repro.frontend import main

        with pytest.raises(SystemExit) as excinfo:
            main([flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_no_prune_flag(self, tmp_path):
        default = self._report(tmp_path=tmp_path)
        unpruned = self._report("--no-prune", tmp_path=tmp_path)
        assert "TRMM -> POSV" in unpruned
        assert [l for l in default.splitlines() if "kernels:" in l] == [
            l for l in unpruned.splitlines() if "kernels:" in l
        ]

    def test_no_match_cache_flag(self, tmp_path):
        report = self._report("--no-prune", "--no-match-cache", tmp_path=tmp_path)
        assert "TRMM -> POSV" in report

    def test_emit_flag_uses_the_registry(self, tmp_path):
        julia = self._report("--emit", "julia", "--no-prune", tmp_path=tmp_path)
        assert "function compute_X(" in julia

    def test_pipeline_flags_are_rejected_in_serve_mode(self, capsys):
        """Service requests carry their own options; server-wide pipeline
        flags would be silently overridden, so --serve refuses them."""
        from repro.frontend import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--serve", "--metric", "time", "--no-prune", "--port", "0"])
        assert excinfo.value.code == 2
        assert "--metric" in capsys.readouterr().err

    def test_cli_flags_match_service_options(self, tmp_path):
        """The flag combination and the equivalent CompileRequest produce the
        same kernel sequences (CLI/service parity, both shapes of the same
        CompileOptions)."""
        from repro.service.api import CompileRequest, execute_request
        from repro import CompileOptions

        report = self._report("--no-prune", "--no-match-cache", tmp_path=tmp_path)
        cli_kernels = [
            line.split(":", 1)[1].strip().split(" -> ")
            for line in report.splitlines()
            if line.strip().startswith("kernels:")
        ]
        response = execute_request(
            CompileRequest(
                source=SOURCE,
                options=CompileOptions(prune=False, match_cache=False),
            )
        )
        assert response.ok
        assert cli_kernels == [list(r.kernels) for r in response.assignments]
