"""Tests for the DAG segment-decomposition layer (:mod:`repro.core.segments`).

Covers the identity matrix required by the DAG front end (auto-decomposed
compiles must be kernel-for-kernel identical to hand-decomposed per-chain
solves across prune x match cache), CSE reuse and invalidation,
stitched-program execution, error reporting, sibling plan-cache
amortization (including the Jacobian DAG workload) and the segment
telemetry counters.
"""

import numpy as np
import pytest

from repro.algebra import (
    Inverse,
    Matrix,
    Property,
    Temporary,
    Times,
    infer_properties,
    parse_program,
)
from repro.core import UncomputableSegmentError, decompose_program
from repro.experiments.workload import jacobian_workload
from repro.frontend import CompileOptions, Compiler, compile_source
from repro.kernels import default_catalog
from repro.runtime import execute_program, instantiate_expression

#: The staged ensemble-Kalman-gain DAG used throughout: W is a real chain,
#: K consumes W's result, Pe's inline inverse forces a synthetic segment.
DAG_SOURCE = """
Matrix Xb (40, 12) <>
Matrix S (12, 12) <spd>
Matrix Yb (30, 12) <>
Matrix R (30, 30) <spd>
W := S * Yb^T * R^-1
K := Xb * W
Pe := S * (Yb^T * R^-1 * Yb)^-1
"""


def dag_operands():
    xb = Matrix("Xb", 40, 12)
    s = Matrix("S", 12, 12, {Property.SPD})
    yb = Matrix("Yb", 30, 12)
    r = Matrix("R", 30, 30, {Property.SPD})
    return xb, s, yb, r


class TestDecomposition:
    def test_segments_come_out_in_dependency_order(self):
        plan = decompose_program(parse_program(DAG_SOURCE))
        assert plan.targets == ("W", "K", "Pe")
        assert plan.synthetic_count == 1
        synthetic = [seg for seg in plan if seg.synthetic]
        # The synthetic inner product is created before the segment that
        # wraps its result.
        assert plan.segments.index(synthetic[0]) < plan.segments.index(
            plan.segment("Pe")
        )

    def test_reference_resolves_to_result_temporary(self):
        plan = decompose_program(parse_program(DAG_SOURCE))
        k = plan.segment("K")
        assert isinstance(k.expression, Times)
        w_factor = k.expression.children[1]
        assert isinstance(w_factor, Temporary)
        assert w_factor.name == "W"
        assert w_factor is plan.segment("W").result

    def test_result_temporary_carries_inferred_properties(self):
        _, s, yb, r = dag_operands()
        plan = decompose_program(parse_program(DAG_SOURCE))
        synthetic = next(seg for seg in plan if seg.synthetic)
        # Yb^T R^-1 Yb is symmetric; the extraction's result operand must
        # carry that so the Pe segment can match symmetric-solve kernels.
        expected = infer_properties(Times(yb.T, r.I, yb))
        assert synthetic.result.properties == expected
        assert Property.SYMMETRIC in synthetic.result.properties

    def test_shared_inline_subexpression_is_solved_once(self):
        source = """
Matrix A (8, 10) <>
Matrix B (12, 10) <>
Matrix H (10, 20) <>
Matrix P (20, 20) <spd>
X := A * (H * P * H^T)^-1
Y := B * (H * P * H^T)^-1
"""
        plan = decompose_program(parse_program(source))
        assert plan.synthetic_count == 1
        assert plan.cse_reuses >= 1

    def test_identical_rhs_is_cse_reused(self):
        source = """
Matrix A (8, 8) <>
Matrix B (8, 8) <>
G := A * B
H := A * B
X := G * H
"""
        plan = decompose_program(parse_program(source))
        # H's right-hand side is the same interned chain as G's: no second
        # solve, H aliases G's segment result.
        g = plan.segment("G")
        assert g.uses >= 1

    def test_sum_raises_with_segment_and_signature(self):
        source = """
Matrix A (8, 8) <>
Matrix B (8, 8) <>
X := A + B
"""
        with pytest.raises(UncomputableSegmentError) as excinfo:
            decompose_program(parse_program(source))
        assert excinfo.value.segment == "X"
        assert excinfo.value.signature is not None
        assert "signature" in str(excinfo.value)


class TestAutoVsHandIdentity:
    """The DAG identity matrix: auto-decomposed kernel sequences must equal
    hand-decomposed per-chain solves for every pipeline configuration."""

    @pytest.mark.parametrize("prune", [True, False])
    @pytest.mark.parametrize("match_cache", [True, False])
    def test_dag_compile_matches_hand_decomposition(self, prune, match_cache):
        options = CompileOptions(prune=prune, match_cache=match_cache)
        session = Compiler(options)
        result = session.compile(DAG_SOURCE)

        xb, s, yb, r = dag_operands()
        w_chain = Times(s, yb.T, r.I)
        w = Matrix("W", 12, 30, infer_properties(w_chain))
        inner_chain = Times(yb.T, r.I, yb)
        inner = Matrix("_i", 12, 12, infer_properties(inner_chain))

        hand = {
            "W": session.solve(w_chain).kernel_sequence(),
            "K": session.solve(Times(xb, w)).kernel_sequence(),
            "_synthetic": session.solve(inner_chain).kernel_sequence(),
            "Pe": session.solve(Times(s, inner.I)).kernel_sequence(),
        }
        for compiled in result.assignments:
            key = "_synthetic" if compiled.synthetic else compiled.target
            assert compiled.kernel_sequence == hand[key], (
                prune, match_cache, compiled.target)

    def test_plan_cached_recompile_is_identical(self):
        session = Compiler()
        cold = [c.kernel_sequence for c in session.compile(DAG_SOURCE).assignments]
        warm = [c.kernel_sequence for c in session.compile(DAG_SOURCE).assignments]
        assert warm == cold


class TestCSEInvalidation:
    SOURCE_TEMPLATE = """
Matrix A (12, 14) <>
Matrix B (14, 9) <>
Matrix C (9, 7) <>
Matrix S (10, 10) <{s_props}>
Matrix T (10, 4) <>
U := A * B * C
V := S^-1 * T
"""

    def test_changing_one_operand_invalidates_only_dependent_segments(self):
        session = Compiler()
        session.compile(self.SOURCE_TEMPLATE.format(s_props="spd"))
        cold = session.segment_work.stats()
        assert (cold["hits"], cold["misses"]) == (0, 2)

        # "Mutate" S: drop SPD down to general non-singular.  U does not
        # depend on S, so its segment must still be answered by the plan
        # cache; V's chain signature changed, so it (and only it) re-solves.
        changed = session.compile(
            self.SOURCE_TEMPLATE.format(s_props="non_singular")
        )
        after = session.segment_work.stats()
        assert after["hits"] - cold["hits"] == 1
        assert after["misses"] - cold["misses"] == 1
        # And the re-solved segment actually picked different kernels:
        # SPD S^-1 T is a Cholesky solve, general S^-1 T an LU solve.
        assert changed.assignment("V").kernel_sequence == ["GESV"]

    def test_unchanged_sibling_program_hits_on_every_segment(self):
        session = Compiler()
        session.compile(DAG_SOURCE)
        before = session.segment_work.stats()
        sibling = DAG_SOURCE
        for name in ("Xb", "S", "Yb", "R"):
            sibling = sibling.replace(name, name + "2")
        session.compile(sibling)
        after = session.segment_work.stats()
        lookups = (after["hits"] + after["misses"]) - (
            before["hits"] + before["misses"]
        )
        assert lookups == 4
        assert after["hits"] - before["hits"] == 4
        assert after["misses"] == before["misses"]

    def test_jacobian_sibling_models_hit_the_plan_cache(self):
        """After the first model, sibling Jacobian models are answered by the
        plan cache (two misses in 84 lookups), and every answer equals a
        plan-cache-off compile."""
        problems = jacobian_workload(models=12, blocks=6)
        session = Compiler()
        results = [session.compile(problem.source) for problem in problems]
        after = session.segment_work.stats()
        hits = after["hits"]
        lookups = hits + after["misses"]
        assert lookups == 12 * 7
        assert hits / lookups >= 0.9

        reference = Compiler(CompileOptions(plan_cache=False))
        for problem, result in zip(problems, results):
            want = reference.compile(problem.source)
            assert [a.target for a in result] == [a.target for a in want]
            for got, expected in zip(result, want):
                assert got.kernel_sequence == expected.kernel_sequence, (
                    problem.identifier,
                    got.target,
                )


class TestStitchedExecution:
    def test_stitched_program_matches_numpy_reference(self):
        result = compile_source(DAG_SOURCE)
        xb, s, yb, r = dag_operands()
        env = instantiate_expression(Times(xb, s, yb.T, r.I), seed=7)
        stitched = result.stitched_program()
        assert stitched.output.name == "Pe"
        value = execute_program(stitched, env)
        s_v, yb_v, r_v = env["S"], env["Yb"], env["R"]
        reference = s_v @ np.linalg.inv(yb_v.T @ np.linalg.solve(r_v, yb_v))
        assert np.max(np.abs(value - reference)) < 1e-8

    def test_stitched_intermediate_flow(self):
        source = """
Matrix L (20, 20) <lower_triangular, non_singular>
Matrix A (20, 20) <symmetric>
C := L^-1 * A
Ap := C * L^-T
"""
        result = compile_source(source)
        stitched = result.stitched_program()
        assert stitched.output.name == "Ap"
        outputs = [call.output.name for call in stitched.calls]
        # The first segment's final call is renamed to its target so the
        # second segment's inputs resolve against produced outputs.
        assert "C" in outputs

    def test_emit_stitched_numpy_runs(self):
        result = compile_source(DAG_SOURCE)
        code = result.emit_stitched("numpy")
        assert "def " in code
        namespace = {}
        exec(code, namespace)  # noqa: S102 - generated code under test


class TestErrorReporting:
    def test_uncomputable_segment_names_segment_and_signature(self):
        catalog = default_catalog(include_combined_inverse=False)
        session = Compiler(CompileOptions(catalog=catalog))
        source = """
Matrix A (20, 20) <non_singular>
Matrix B (20, 20) <non_singular>
X := A^-1 * B^-1
"""
        with pytest.raises(UncomputableSegmentError, match="segment 'X'") as excinfo:
            session.compile(source)
        assert excinfo.value.segment == "X"
        assert excinfo.value.signature is not None

    def test_failure_in_later_segment_reports_that_segment(self):
        catalog = default_catalog(include_combined_inverse=False)
        session = Compiler(CompileOptions(catalog=catalog))
        source = """
Matrix A (20, 30) <>
Matrix B (30, 20) <>
Matrix C (20, 20) <non_singular>
Matrix D (20, 20) <non_singular>
U := A * B
X := C^-1 * D^-1
"""
        with pytest.raises(UncomputableSegmentError, match="segment 'X'") as excinfo:
            session.compile(source)
        assert excinfo.value.segment == "X"

    def test_subclass_of_chain_error_keeps_existing_handlers_working(self):
        from repro.core import UncomputableChainError

        assert issubclass(UncomputableSegmentError, UncomputableChainError)


class TestTelemetry:
    def test_segment_layer_in_session_stats(self):
        session = Compiler()
        session.compile(DAG_SOURCE)
        stats = session.cache_stats()["segments"]
        assert stats["layer"] == "segments"
        assert stats["programs"] == 1
        assert stats["segments"] == 4
        assert stats["synthetic"] == 1

    def test_reset_zeroes_segment_counters(self):
        session = Compiler()
        session.compile(DAG_SOURCE)
        session.reset_cache_stats()
        stats = session.cache_stats()["segments"]
        assert stats["programs"] == 0
        assert stats["hits"] == 0
        assert stats["misses"] == 0
