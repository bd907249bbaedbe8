"""Every pre-options call-shape still works, identically, with ONE warning.

The PR 4 API redesign keeps the legacy entry shapes alive through thin
shims that forward to the CompileOptions/Compiler API: each legacy call
must (a) raise exactly one :class:`DeprecationWarning`, and (b) return the
same kernel sequences as the canonical options-based spelling.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro import CompileOptions, Compiler, compile_source
from repro.core import GMCAlgorithm
from repro.cost import FlopCount
from repro.frontend.compiler import compile_program
from repro.algebra.dsl import parse_program
from repro.kernels import default_catalog
from repro.service.api import CompileRequest, RequestError, execute_request

SOURCE = """
Matrix A (200, 200) <SPD>
Matrix B (200, 100) <>
Matrix C (100, 100) <LowerTriangular, NonSingular>
X := A^-1 * B * C^T
"""

CHAIN = parse_program(SOURCE).expression("X")


def one_deprecation(func):
    """Run *func*, assert exactly one DeprecationWarning, return its result."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        result = func()
    deprecations = [
        entry for entry in record if issubclass(entry.category, DeprecationWarning)
    ]
    assert len(deprecations) == 1, (
        f"expected exactly one DeprecationWarning, got "
        f"{[str(entry.message) for entry in deprecations]}"
    )
    return result


def no_deprecation(func):
    """Run *func*, assert NO DeprecationWarning, return its result."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        result = func()
    deprecations = [
        entry for entry in record if issubclass(entry.category, DeprecationWarning)
    ]
    assert not deprecations, [str(entry.message) for entry in deprecations]
    return result


class TestCompileSourceShim:
    def test_metric_keyword_warns_once_and_matches(self):
        legacy = one_deprecation(lambda: compile_source(SOURCE, metric="time"))
        canonical = no_deprecation(
            lambda: Compiler(CompileOptions(metric="time")).compile(SOURCE)
        )
        assert legacy.assignment("X").kernel_sequence == canonical.assignment(
            "X"
        ).kernel_sequence

    def test_catalog_keyword_warns_once_and_matches(self):
        catalog = default_catalog(include_specialized=False)
        legacy = one_deprecation(lambda: compile_source(SOURCE, catalog=catalog))
        canonical = no_deprecation(
            lambda: Compiler(CompileOptions(catalog=catalog)).compile(SOURCE)
        )
        assert legacy.assignment("X").kernel_sequence == canonical.assignment(
            "X"
        ).kernel_sequence

    def test_bare_call_is_not_deprecated(self):
        no_deprecation(lambda: compile_source(SOURCE))

    def test_options_keyword_is_not_deprecated(self):
        result = no_deprecation(
            lambda: compile_source(SOURCE, options=CompileOptions(prune=False))
        )
        assert result.assignment("X").kernel_sequence == ["TRMM", "POSV"]

    def test_mixing_options_and_legacy_kwargs_raises(self):
        with pytest.raises(TypeError):
            compile_source(SOURCE, metric="time", options=CompileOptions())

    def test_compile_program_shim(self):
        program = parse_program(SOURCE)
        legacy = one_deprecation(lambda: compile_program(program, metric="flops"))
        assert legacy.assignment("X").kernel_sequence == ["TRMM", "POSV"]


class TestSolverShims:
    def test_loose_kwargs_warn_once_and_match(self):
        legacy = one_deprecation(
            lambda: GMCAlgorithm(metric=FlopCount(), prune=False).solve(CHAIN)
        )
        canonical = no_deprecation(
            lambda: GMCAlgorithm(
                CompileOptions(metric=FlopCount(), prune=False)
            ).solve(CHAIN)
        )
        assert legacy.kernel_sequence() == canonical.kernel_sequence()
        assert float(legacy.optimal_cost) == float(canonical.optimal_cost)

    def test_catalog_keyword_warns_once(self):
        solver = one_deprecation(lambda: GMCAlgorithm(catalog=default_catalog()))
        assert solver.catalog is default_catalog()

    def test_positional_catalog_warns_once(self):
        solver = one_deprecation(lambda: GMCAlgorithm(default_catalog()))
        assert solver.catalog is default_catalog()

    def test_bare_constructor_is_not_deprecated(self):
        no_deprecation(GMCAlgorithm)

    def test_mixing_options_and_legacy_kwargs_raises(self):
        with pytest.raises(TypeError):
            GMCAlgorithm(CompileOptions(), metric="flops")


class TestCompileRequestShims:
    LEGACY_WIRE = {
        "source": SOURCE,
        "metric": "flops",
        "emit": ["julia"],
        "prune": False,
        "use_match_cache": False,
        "request_id": "pr3-wire-dict",
    }

    def test_constructor_kwargs_warn_once_and_fold_into_options(self):
        request = one_deprecation(
            lambda: CompileRequest(
                source=SOURCE,
                metric="flops",
                emit=("julia",),
                prune=False,
                use_match_cache=False,
            )
        )
        assert request.options == CompileOptions(
            metric="flops",
            emit=("julia",),
            prune=False,
            match_cache=False,
        )

    def test_pr3_wire_dict_warns_once_and_matches_new_format(self):
        legacy_request = one_deprecation(
            lambda: CompileRequest.from_dict(dict(self.LEGACY_WIRE))
        )
        new_wire = {
            "source": SOURCE,
            "request_id": "new-wire-dict",
            "options": {
                "metric": "flops",
                "emit": ["julia"],
                "prune": False,
                "match_cache": False,
            },
        }
        new_request = no_deprecation(lambda: CompileRequest.from_dict(new_wire))
        assert legacy_request.options == new_request.options

        legacy_response = execute_request(legacy_request)
        new_response = execute_request(new_request)
        assert legacy_response.ok and new_response.ok
        assert legacy_response.kernel_sequences == new_response.kernel_sequences

        def normalized(code: str) -> str:
            # Temporary names draw from a process-global counter, so two
            # compilations of the same source differ only in T<n> numbering.
            import re

            return re.sub(r"\bT\d+\b", "T#", code)

        assert normalized(legacy_response.assignment("X").code["julia"]) == normalized(
            new_response.assignment("X").code["julia"]
        )

    def test_roundtrip_emits_the_new_wire_format(self):
        legacy_request = one_deprecation(
            lambda: CompileRequest.from_dict(dict(self.LEGACY_WIRE))
        )
        payload = json.loads(json.dumps(legacy_request.to_dict()))
        assert "options" in payload and "metric" not in payload
        clone = no_deprecation(lambda: CompileRequest.from_dict(payload))
        assert clone == legacy_request

    def test_flat_and_nested_options_cannot_be_mixed(self):
        with pytest.raises(RequestError):
            CompileRequest.from_dict(
                {"source": SOURCE, "metric": "flops", "options": {"prune": True}}
            )

    def test_new_format_requests_do_not_warn(self):
        no_deprecation(
            lambda: CompileRequest.from_dict(
                {"source": SOURCE, "options": {"metric": "flops"}}
            )
        )
        no_deprecation(lambda: CompileRequest.from_dict({"source": SOURCE}))
        no_deprecation(lambda: CompileRequest(source=SOURCE))

    def test_wire_warning_is_not_attributed_to_repro_internals(self):
        """A legacy wire payload originates from the remote client; its
        warning must survive the CI gate that errors on DeprecationWarnings
        attributed to repro.* modules, even when from_dict is invoked from
        library code (HTTP handler, pool worker)."""
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("error", DeprecationWarning)
            # Re-allow the synthetic wire module (mirrors the CI gate which
            # only escalates repro.* attributions).
            warnings.filterwarnings(
                "always", category=DeprecationWarning, module="legacy_wire"
            )
            warnings.filterwarnings(
                "error", category=DeprecationWarning, module=r"repro\..*"
            )
            CompileRequest.from_dict({"source": SOURCE, "metric": "flops"})
        deprecations = [
            entry for entry in record if issubclass(entry.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert deprecations[0].filename == "<legacy wire payload>"

    def test_bad_legacy_options_still_raise_request_errors(self):
        with pytest.raises(RequestError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                CompileRequest.from_dict({"source": SOURCE, "metric": "nonsense"})
