"""Tests for the unified CompileOptions / Compiler session API.

Covers the frozen options value (validation, immutability, wire format),
the Compiler session (warm metric instances, per-call overrides, cache
telemetry), the emitter registry, the dict-backed
``CompilationResult.assignment`` lookup, and the cross-entry-point identity
guarantee: the Python API, the CLI, the HTTP-service execution path and the
raw solver sessions build the same options and produce identical kernel
sequences.
"""

from __future__ import annotations

import pytest

from repro import CompileOptions, Compiler, Matrix, Property
from repro.algebra.dsl import parse_program
from repro.codegen import available_emitters, get_emitter, register_emitter, _EMITTERS
from repro.core import GMCAlgorithm
from repro.cost import FlopCount
from repro.frontend import compile_source, main
from repro.frontend.compiler import (
    CompilationResult,
    CompiledAssignment,
    compile_program,
)
from repro.kernels.catalog import KernelCatalog, build_default_kernels
from repro.service.api import CompileRequest, execute_request

SOURCE = """
Matrix A (200, 200) <SPD>
Matrix B (200, 100) <>
Matrix C (100, 100) <LowerTriangular, NonSingular>
Vector y (100)

X := A^-1 * B * C^T
z := A^-1 * B * y
"""


# ---------------------------------------------------------------------------
# CompileOptions
# ---------------------------------------------------------------------------

class TestCompileOptions:
    def test_defaults(self):
        options = CompileOptions()
        assert options.metric == "flops"
        assert options.prune and options.match_cache
        assert options.emit == ()
        assert options.deadline_s is None and not options.trace

    def test_is_frozen(self):
        with pytest.raises(AttributeError):
            CompileOptions().prune = False

    def test_replace_returns_new_validated_value(self):
        options = CompileOptions()
        derived = options.replace(metric="time", prune=False)
        assert derived.metric == "time" and not derived.prune
        assert options.metric == "flops" and options.prune  # original untouched
        with pytest.raises(ValueError):
            options.replace(metric="nonsense")

    @pytest.mark.parametrize("field", ["solver", "parallelism", "profile"])
    def test_removed_fields_are_rejected(self, field):
        """There is one DP loop: no solver choice, no intra-solve threads;
        profiling is ``python -m cProfile``, not an option."""
        with pytest.raises(TypeError):
            CompileOptions(**{field: "gmc"})
        with pytest.raises(ValueError, match="unknown option fields"):
            CompileOptions.from_wire({field: "gmc"})

    @pytest.mark.parametrize(
        "call",
        [
            lambda: GMCAlgorithm(metric="flops"),
            lambda: GMCAlgorithm(catalog=None),
            lambda: GMCAlgorithm(KernelCatalog(build_default_kernels())),
            lambda: compile_source(SOURCE, metric="time"),
            lambda: compile_source(SOURCE, catalog=None),
            lambda: GMCAlgorithm(prune=False),
            lambda: GMCAlgorithm(CompileOptions(), metric="flops"),
            lambda: compile_source(SOURCE, CompileOptions()),
            lambda: compile_program(parse_program(SOURCE), metric="flops"),
            lambda: compile_program(parse_program(SOURCE), catalog=None),
            lambda: CompileRequest(source=SOURCE, metric="flops"),
            lambda: CompileRequest(source=SOURCE, use_match_cache=False),
            lambda: execute_request(CompileRequest(source=SOURCE), metrics={}),
        ],
        ids=["gmc-metric", "gmc-catalog", "gmc-positional-catalog",
             "source-metric", "source-catalog", "gmc-prune",
             "gmc-options-and-metric", "source-positional-options",
             "program-metric", "program-catalog", "request-metric",
             "request-use-match-cache", "execute-metrics"],
    )
    def test_loose_option_keywords_are_rejected(self, call):
        """Options travel only as one CompileOptions value."""
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize(
        "bad",
        [
            {"metric": "nonsense"},
            {"emit": ("fortran",)},
            {"deadline_s": 0.0},
            {"deadline_s": -1.0},
        ],
    )
    def test_validation_rejects_bad_fields(self, bad):
        with pytest.raises((ValueError, TypeError)):
            CompileOptions(**bad)

    def test_catalog_must_quack_like_a_catalog(self):
        with pytest.raises(TypeError):
            CompileOptions(catalog="not a catalog")

    def test_metric_accepts_live_instances(self):
        metric = FlopCount()
        options = CompileOptions(metric=metric)
        assert options.resolve_metric() is metric
        assert options.metric_name == "flops"

    def test_wire_roundtrip(self):
        options = CompileOptions(
            metric="time",
            emit=("julia", "numpy"),
            prune=False,
            match_cache=False,
            deadline_s=2.5,
            trace=True,
        )
        clone = CompileOptions.from_wire(options.to_wire())
        assert clone == options

    def test_wire_defaults_roundtrip(self):
        assert CompileOptions.from_wire(CompileOptions().to_wire()) == CompileOptions()

    def test_wire_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            CompileOptions.from_wire({"solvr": "gmc"})

    def test_removed_cost_cache_size_is_an_unknown_field(self):
        with pytest.raises(ValueError, match="unknown option fields"):
            CompileOptions.from_wire({"cost_cache_size": 64})
        with pytest.raises(TypeError):
            CompileOptions(cost_cache_size=64)

    @pytest.mark.parametrize("key", ["prune", "match_cache"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_wire_rejects_non_boolean_toggles(self, key, value):
        """bool("false") is True -- a client's stringly-typed JSON must be
        rejected, not silently inverted."""
        with pytest.raises(ValueError, match="must be a boolean"):
            CompileOptions.from_wire({key: value})

    def test_wire_never_carries_the_catalog(self):
        catalog = KernelCatalog(build_default_kernels(), name="private")
        wire = CompileOptions(catalog=catalog).to_wire()
        assert "catalog" not in wire
        assert CompileOptions.from_wire(wire).catalog is None


# ---------------------------------------------------------------------------
# Emitter registry
# ---------------------------------------------------------------------------

class TestEmitterRegistry:
    def test_builtins_are_registered(self):
        assert {"julia", "numpy"} <= set(available_emitters())

    def test_unknown_emitter_names_the_available_ones(self):
        with pytest.raises(KeyError, match="julia"):
            get_emitter("fortran")

    def test_third_party_emitter_is_usable_everywhere(self):
        def generate_sexpr(program, function_name="compute"):
            calls = " ".join(call.kernel.display_name for call in program.calls)
            return f"({function_name} {calls})"

        register_emitter("sexpr", generate_sexpr)
        try:
            assert "sexpr" in available_emitters()
            # options validation accepts the new target ...
            options = CompileOptions(emit=("sexpr",))
            # ... the result API emits through it ...
            result = Compiler().compile(SOURCE, options=options)
            assert result.assignment("X").emit("sexpr") == "(compute_X TRMM POSV)"
            # ... and so does the service execution path.
            response = execute_request(CompileRequest(source=SOURCE, options=options))
            assert response.ok, response.error
            assert response.assignment("X").code["sexpr"] == "(compute_X TRMM POSV)"
        finally:
            _EMITTERS.pop("sexpr", None)

    def test_emit_shorthands_match_registry(self):
        result = compile_source(SOURCE)
        assert result.julia() == result.emit("julia")
        assert result.numpy() == result.emit("numpy")


# ---------------------------------------------------------------------------
# Compiler session
# ---------------------------------------------------------------------------

class TestCompilerSession:
    def test_compiles_source_text(self):
        result = Compiler().compile(SOURCE)
        assert result.assignment("X").kernel_sequence == ["TRMM", "POSV"]
        assert result.options is not None and result.options.metric_name == "flops"

    def test_compiles_parsed_programs_and_expressions(self):
        compiler = Compiler()
        parsed = compiler.compile(parse_program(SOURCE))
        assert parsed.assignment("X").kernel_sequence == ["TRMM", "POSV"]

        a = Matrix("A", 100, 100, {Property.SPD})
        b = Matrix("B", 100, 40)
        result = compiler.compile(a.I * b)
        assert result.assignment("X").kernel_sequence == ["POSV"]
        assert set(result.operands) == {"A", "B"}

    def test_rejects_unknown_inputs(self):
        with pytest.raises(TypeError):
            Compiler().compile(42)

    def test_session_reuses_one_metric_instance(self):
        compiler = Compiler()
        first = compiler.metric_for()
        second = compiler.metric_for()
        assert first is second
        timed = CompileOptions(metric="time")
        assert compiler.metric_for(timed) is compiler.metric_for(timed)

    def test_metric_instances_are_one_per_metric_name(self):
        """Option variants that share a metric name share its instance, so
        the session holds at most one metric per name; a caller's live
        metric instance is returned as it is and never stored."""
        compiler = Compiler()
        for name in ("flops", "time", "memory"):
            for deadline in (None, 1.0, 2.5):
                for prune in (True, False):
                    compiler.metric_for(
                        CompileOptions(metric=name, deadline_s=deadline, prune=prune)
                    )
        assert sorted(compiler._metrics) == ["flops", "memory", "time"]
        own = FlopCount()
        assert compiler.metric_for(CompileOptions(metric=own)) is own
        assert len(compiler._metrics) == 3

    def test_per_call_overrides_do_not_mutate_the_session(self):
        compiler = Compiler()
        timed = compiler.solve(
            Matrix("A", 50, 60) * Matrix("B", 60, 70) * Matrix("C", 70, 10),
            metric="time",
        )
        assert timed.metric.name == "time"
        assert compiler.options.metric == "flops"

    def test_solver_honours_options(self):
        compiler = Compiler()
        assert isinstance(compiler.solver(), GMCAlgorithm)
        assert compiler.solver(prune=False).prune is False
        # Session catalog always wins: per-call options share the warm caches.
        assert compiler.solver(prune=False).catalog is compiler.catalog

    def test_per_call_catalog_override_is_rejected(self):
        """A session is bound to one catalog (one warm cache domain); asking
        for a different one per call must fail loudly, never silently
        compile against the wrong catalog."""
        from repro.kernels import default_catalog

        compiler = Compiler()
        generic = default_catalog(include_specialized=False)
        with pytest.raises(ValueError, match="bound to catalog"):
            compiler.compile(SOURCE, catalog=generic)
        with pytest.raises(ValueError, match="bound to catalog"):
            compiler.compile(SOURCE, options=CompileOptions(catalog=generic))
        # The session's own catalog (or none at all) is always fine.
        assert compiler.compile(SOURCE, catalog=compiler.catalog).assignment(
            "X"
        ).kernel_sequence == ["TRMM", "POSV"]

    def test_match_cache_off_bypasses_the_cache(self):
        catalog = KernelCatalog(build_default_kernels(), name="bypass-test")
        compiler = Compiler(CompileOptions(catalog=catalog, match_cache=False))
        compiler.compile(SOURCE)
        stats = catalog.match_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_cache_stats_reports_all_layers(self):
        compiler = Compiler()
        compiler.compile(SOURCE)
        stats = compiler.cache_stats()
        for layer in ("match_cache", "interner", "inference", "kernel_cost"):
            assert layer in stats
        compiler.reset_cache_stats()
        assert compiler.cache_stats()["kernel_cost"]["hits"] == 0


# ---------------------------------------------------------------------------
# CompilationResult target index
# ---------------------------------------------------------------------------

class TestCompilationResultIndex:
    def test_lookup_is_dict_backed(self):
        result = compile_source(SOURCE)
        assert result._index["X"] is result.assignment("X")

    def test_keyerror_lists_available_targets(self):
        result = compile_source(SOURCE)
        with pytest.raises(KeyError, match="available targets.*'X'.*'z'"):
            result.assignment("Q")

    def test_external_append_is_picked_up(self):
        result = compile_source(SOURCE)
        clone = result.assignment("X")
        renamed = CompiledAssignment(
            target="copy",
            expression=clone.expression,
            solution=clone.solution,
            program=clone.program,
        )
        result.assignments.append(renamed)  # legacy construction pattern
        assert result.assignment("copy") is renamed

    def test_empty_result_keyerror(self):
        result = CompilationResult(operands={})
        with pytest.raises(KeyError, match="<none>"):
            result.assignment("X")

    def test_pop_then_append_cannot_hide_a_target(self):
        """Same-length list mutation: a lookup miss forces one full
        re-index, so the new target resolves instead of raising."""
        result = compile_source(SOURCE)
        result.assignment("X")  # prime the index
        replaced = result.assignments.pop()
        renamed = CompiledAssignment(
            target="Y",
            expression=replaced.expression,
            solution=replaced.solution,
            program=replaced.program,
        )
        result.assignments.append(renamed)
        assert result.assignment("Y") is renamed

    def test_duplicate_targets_keep_first_match_semantics(self):
        """Reassigned targets resolve to the FIRST assignment, exactly like
        the pre-index linear scan did, without degrading to rebuilds."""
        source = """
        Matrix A (60, 60) <SPD>
        Matrix B (60, 20) <>
        X := A^-1 * B
        X := A * B
        """
        result = compile_source("\n".join(line.strip() for line in source.splitlines()))
        assert len(result) == 2
        first = result.assignments[0]
        assert result.assignment("X") is first
        assert result.assignment("X") is first  # stable across repeated calls


# ---------------------------------------------------------------------------
# Cross-entry-point identity (acceptance criterion)
# ---------------------------------------------------------------------------

OPTION_MATRIX = [
    CompileOptions(),
    CompileOptions(prune=False),
    CompileOptions(match_cache=False),
    CompileOptions(prune=False, match_cache=False),
]


def _cli_kernel_sequences(options: CompileOptions, path, capsys):
    """Kernel sequences as reported by the real CLI with equivalent flags."""
    argv = [str(path), "--metric", options.metric_name]
    if not options.prune:
        argv.append("--no-prune")
    if not options.match_cache:
        argv.append("--no-match-cache")
    assert main(argv) == 0
    report = capsys.readouterr().out
    sequences = []
    for line in report.splitlines():
        if line.strip().startswith("kernels:"):
            sequences.append(line.split(":", 1)[1].strip().split(" -> "))
    return sequences


@pytest.mark.parametrize("options", OPTION_MATRIX, ids=lambda o: f"p{int(o.prune)}-mc{int(o.match_cache)}")
def test_all_entry_points_agree(options, tmp_path, capsys):
    """Python API, CLI, service execution path and raw solver sessions build
    the same CompileOptions and produce identical kernel sequences."""
    # 1. Python API (Compiler session).
    api_result = Compiler(options).compile(SOURCE)
    api_sequences = [c.kernel_sequence for c in api_result]

    # 2. Command line (the real argparse path).
    path = tmp_path / "problem.chain"
    path.write_text(SOURCE, encoding="utf-8")
    cli_sequences = _cli_kernel_sequences(options, path, capsys)

    # 3. HTTP-service execution path (what every executor runs).
    response = execute_request(CompileRequest(source=SOURCE, options=options))
    assert response.ok, response.error
    service_sequences = [list(r.kernels) for r in response.assignments]

    # 4. Raw solver session on the parsed program (the benchmark-script path).
    solver = GMCAlgorithm(options)
    bench_sequences = [
        list(solver.solve(expression).program(f"GMC[{t}]").kernel_names)
        for t, expression in parse_program(SOURCE).assignments
    ]

    assert api_sequences == cli_sequences == service_sequences == bench_sequences
    # The options value survives into the result for introspection.
    assert api_result.options.prune == options.prune
    assert api_result.options.match_cache == options.match_cache


def test_entry_points_agree_on_alternative_metric(tmp_path, capsys):
    options = CompileOptions(metric="time")
    api = [c.kernel_sequence for c in Compiler(options).compile(SOURCE)]
    path = tmp_path / "problem.chain"
    path.write_text(SOURCE, encoding="utf-8")
    cli = _cli_kernel_sequences(options, path, capsys)
    response = execute_request(CompileRequest(source=SOURCE, options=options))
    assert response.ok
    service = [list(r.kernels) for r in response.assignments]
    assert api == cli == service


def test_wire_roundtripped_options_produce_identical_results():
    """Options surviving a JSON wire roundtrip compile identically."""
    import json

    options = CompileOptions(metric="time", prune=False)
    request = CompileRequest(source=SOURCE, options=options)
    clone = CompileRequest.from_dict(json.loads(json.dumps(request.to_dict())))
    assert clone.options == options
    direct = execute_request(request)
    roundtripped = execute_request(clone)
    assert direct.kernel_sequences == roundtripped.kernel_sequences


def test_nested_wire_request_compiles_like_the_session():
    """A nested-options wire request yields the kernels and emitted code of a
    Compiler session built from the same options."""
    import json
    import re

    options = CompileOptions(
        metric="flops", emit=("julia",), prune=False, match_cache=False
    )
    wire = {"source": SOURCE, "options": json.loads(json.dumps(options.to_wire()))}
    response = execute_request(CompileRequest.from_dict(wire))
    assert response.ok, response.error
    session = Compiler(options).compile(SOURCE)
    assert response.kernel_sequences == {
        c.target: c.kernel_sequence for c in session
    }

    def normalized(code: str) -> str:
        # Temporaries draw from a process-global counter, so two
        # compilations of one source differ only in T<n> numbering.
        return re.sub(r"\bT\d+\b", "T#", code)

    assert normalized(response.assignment("X").code["julia"]) == normalized(
        session.assignment("X").emit("julia")
    )


def test_deadline_placeholder_is_threaded_to_solvers():
    options = CompileOptions(deadline_s=1.5)
    assert Compiler(options).solver().deadline_s == 1.5
    assert GMCAlgorithm(options).deadline_s == 1.5
