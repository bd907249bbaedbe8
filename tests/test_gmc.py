"""Tests for the Generalized Matrix Chain algorithm (paper Section 3)."""

import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra import (
    Inverse,
    InverseTranspose,
    Matrix,
    Property,
    Temporary,
    Times,
    Transpose,
    Vector,
)
from repro.core import (
    GMCAlgorithm,
    MatrixChainDP,
    UncomputableChainError,
    generate_program,
    solve_chain,
)
from repro.cost import FlopCount, KernelCountMetric, PerformanceMetric
from repro.kernels import default_catalog, mcp_catalog
from repro.options import CompileOptions

from test_property_based import generalized_chains


class TestEquivalenceWithClassicDP:
    """On plain chains (no unary operators, no properties) GMC must find
    exactly the classic matrix chain optimum (Section 2 vs. Section 3)."""

    def _chain(self, sizes):
        return Times(*[Matrix(f"M{i}", sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)])

    @pytest.mark.parametrize(
        "sizes",
        [
            [10, 100, 5, 50],
            [30, 35, 15, 5, 10, 20, 25],
            [130, 700, 383, 1340, 193, 900],
            [40, 20, 30, 10, 30],
            [5, 10, 3, 12, 5, 50, 6],
        ],
    )
    def test_same_optimal_flops_as_dp(self, sizes):
        dp = MatrixChainDP(sizes)
        solution = GMCAlgorithm(CompileOptions(metric=FlopCount())).solve(
            self._chain(sizes)
        )
        assert solution.optimal_cost == pytest.approx(dp.optimal_cost)

    @pytest.mark.parametrize("sizes", [[10, 100, 5, 50], [30, 35, 15, 5, 10, 20, 25]])
    def test_same_result_with_gemm_only_catalog(self, sizes):
        dp = MatrixChainDP(sizes)
        solution = GMCAlgorithm(CompileOptions(catalog=mcp_catalog())).solve(
            self._chain(sizes)
        )
        assert solution.optimal_cost == pytest.approx(dp.optimal_cost)

    def test_parenthesization_matches_dp_choice(self):
        sizes = [130, 700, 383, 1340, 193, 900]
        solution = GMCAlgorithm().solve(self._chain(sizes))
        assert solution.parenthesization() == "((((M0 * M1) * M2) * M3) * M4)"


class TestKernelSelection:
    def test_spd_solve_uses_posv(self):
        a = Matrix("A", 30, 30, {Property.SPD})
        b = Matrix("B", 30, 10)
        solution = GMCAlgorithm().solve(Times(Inverse(a), b))
        assert solution.kernel_sequence() == ["POSV"]

    def test_triangular_solve_uses_trsm(self):
        lower = Matrix("L", 30, 30, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        b = Matrix("B", 30, 10)
        solution = GMCAlgorithm().solve(Times(Inverse(lower), b))
        assert solution.kernel_sequence() == ["TRSM"]

    def test_general_solve_uses_gesv(self):
        a = Matrix("A", 30, 30, {Property.NON_SINGULAR})
        b = Matrix("B", 30, 10)
        solution = GMCAlgorithm().solve(Times(Inverse(a), b))
        assert solution.kernel_sequence() == ["GESV"]

    def test_right_side_solve(self):
        a = Matrix("A", 30, 30, {Property.SPD})
        b = Matrix("B", 10, 30)
        solution = GMCAlgorithm().solve(Times(b, Inverse(a)))
        assert solution.kernel_sequence() == ["POSV"]

    def test_diagonal_product_uses_diagmm(self):
        d = Matrix("D", 30, 30, {Property.DIAGONAL})
        b = Matrix("B", 30, 10)
        solution = GMCAlgorithm().solve(Times(d, b))
        assert solution.kernel_sequence() == ["DIAGMM"]

    def test_symmetric_product_uses_symm(self):
        s = Matrix("S", 30, 30, {Property.SYMMETRIC})
        b = Matrix("B", 30, 10)
        solution = GMCAlgorithm().solve(Times(s, b))
        assert solution.kernel_sequence() == ["SYMM"]

    def test_gram_product_uses_syrk(self):
        a = Matrix("A", 30, 20)
        solution = GMCAlgorithm().solve(Times(Transpose(a), a))
        assert solution.kernel_sequence() == ["SYRK"]

    def test_table2_example_kernel_sequence(self):
        """The GMC row of Table 2: A^-1 B C^T -> TRMM then POSV."""
        a = Matrix("A", 100, 100, {Property.SPD})
        b = Matrix("B", 100, 80)
        c = Matrix("C", 80, 80, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        solution = GMCAlgorithm().solve(Times(Inverse(a), b, Transpose(c)))
        assert solution.kernel_sequence() == ["TRMM", "POSV"]
        assert solution.parenthesization() == "(A^-1 * (B * C^T))"

    def test_matrix_vector_chain_is_right_associated(self):
        """M1 M2 v must be computed as M1 (M2 v) -- two GEMVs."""
        m1 = Matrix("M1", 100, 80)
        m2 = Matrix("M2", 80, 60)
        v = Vector("v", 60)
        solution = GMCAlgorithm().solve(Times(m1, m2, v))
        assert solution.kernel_sequence() == ["GEMV", "GEMV"]
        assert solution.parenthesization() == "(M1 * (M2 * v))"

    def test_vector_tail_chain_uses_outer_product_last(self):
        """The Section 4 tail case M1 M2 v1 v2^T: GEMVs then one GER."""
        m1 = Matrix("M1", 100, 80)
        m2 = Matrix("M2", 80, 60)
        v1 = Vector("v1", 60)
        v2 = Vector("v2", 50)
        solution = GMCAlgorithm().solve(Times(m1, m2, v1, Transpose(v2)))
        assert solution.kernel_sequence() == ["GEMV", "GEMV", "GER"]


class TestPropertyPropagation:
    def test_section32_example_uses_properties_for_parenthesization(self):
        """X := A^T A B (n=20, m=15): exploiting the symmetry/SPD-ness of
        A^T A changes the chosen parenthesization (Section 3.2)."""
        a = Matrix("A", 20, 20)
        b = Matrix("B", 20, 15)
        with_properties = GMCAlgorithm().solve(Times(Transpose(a), a, b))
        assert with_properties.parenthesization() == "((A^T * A) * B)"
        assert with_properties.total_flops == pytest.approx(14000)
        assert with_properties.kernel_sequence() == ["SYRK", "SYMM"]

    def test_section32_example_without_properties_prefers_right_first(self):
        a = Matrix("A", 20, 20)
        b = Matrix("B", 20, 15)
        generic = GMCAlgorithm(
            CompileOptions(catalog=default_catalog(include_specialized=False))
        ).solve(Times(Transpose(a), a, b))
        assert generic.parenthesization() == "(A^T * (A * B))"
        assert generic.total_flops == pytest.approx(24000)

    def test_intermediate_temporaries_carry_inferred_properties(self):
        lower1 = Matrix("L1", 20, 20, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        lower2 = Matrix("L2", 20, 20, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        b = Matrix("B", 20, 10)
        solution = GMCAlgorithm().solve(Times(lower1, lower2, b))
        tmp = solution.tmps[0][1]
        assert isinstance(tmp, Temporary)
        assert Property.LOWER_TRIANGULAR in tmp.properties

    def test_triangular_chain_uses_trmm_throughout(self):
        lower1 = Matrix("L1", 20, 20, {Property.LOWER_TRIANGULAR})
        lower2 = Matrix("L2", 20, 20, {Property.LOWER_TRIANGULAR})
        b = Matrix("B", 20, 10)
        solution = GMCAlgorithm().solve(Times(lower1, lower2, b))
        assert set(solution.kernel_sequence()) == {"TRMM"}

    def test_kalman_style_chain_exploits_spd(self):
        xb = Matrix("Xb", 60, 30)
        s = Matrix("S", 30, 30, {Property.SPD})
        yb = Matrix("Yb", 50, 30)
        r = Matrix("R", 50, 50, {Property.SPD})
        solution = GMCAlgorithm().solve(Times(xb, s, Transpose(yb), Inverse(r)))
        assert "POSV" in solution.kernel_sequence()
        assert "SYMM" in solution.kernel_sequence()


class TestCompleteness:
    """The completeness behaviour of Section 3.4."""

    def test_chain_with_adjacent_inverses_is_solved_via_other_split(self):
        a = Matrix("A", 20, 20, {Property.NON_SINGULAR})
        b = Matrix("B", 20, 20, {Property.NON_SINGULAR})
        c = Matrix("C", 20, 10)
        catalog = default_catalog(include_combined_inverse=False)
        solution = GMCAlgorithm(CompileOptions(catalog=catalog)).solve(
            Times(Inverse(a), Inverse(b), c)
        )
        assert solution.computable
        assert solution.parenthesization() == "(A^-1 * (B^-1 * C))"
        assert solution.kernel_sequence() == ["GESV", "GESV"]

    def test_two_factor_inverse_product_is_uncomputable_without_kernel(self):
        a = Matrix("A", 20, 20, {Property.NON_SINGULAR})
        b = Matrix("B", 20, 20, {Property.NON_SINGULAR})
        catalog = default_catalog(include_combined_inverse=False)
        solution = GMCAlgorithm(CompileOptions(catalog=catalog)).solve(
            Times(Inverse(a), Inverse(b))
        )
        assert not solution.computable
        assert solution.metric.is_infinite(solution.optimal_cost)
        with pytest.raises(UncomputableChainError):
            list(solution.construct_solution())

    def test_two_factor_inverse_product_with_combined_kernel(self):
        a = Matrix("A", 20, 20, {Property.NON_SINGULAR})
        b = Matrix("B", 20, 20, {Property.NON_SINGULAR})
        solution = GMCAlgorithm().solve(Times(Inverse(a), Inverse(b)))
        assert solution.computable
        assert solution.kernel_sequence() == ["GESV2"]

    def test_generate_raises_on_uncomputable_chain(self):
        a = Matrix("A", 20, 20, {Property.NON_SINGULAR})
        b = Matrix("B", 20, 20, {Property.NON_SINGULAR})
        catalog = default_catalog(include_combined_inverse=False)
        with pytest.raises(UncomputableChainError):
            GMCAlgorithm(CompileOptions(catalog=catalog)).generate(
                Times(Inverse(a), Inverse(b))
            )


class TestSolutionObject:
    def _solution(self):
        a = Matrix("A", 12, 12, {Property.SPD})
        b = Matrix("B", 12, 8)
        c = Matrix("C", 8, 8, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        return GMCAlgorithm().solve(Times(Inverse(a), b, Transpose(c)))

    def test_program_dependency_order(self):
        solution = self._solution()
        program = solution.program()
        produced = set()
        for call in program.calls:
            for operand in call.substitution.values():
                for leaf in operand.leaves():
                    if isinstance(leaf, Temporary):
                        assert leaf.name in produced
            produced.add(call.output.name)
        assert program.output.name in produced

    def test_total_flops_equals_sum_of_calls(self):
        solution = self._solution()
        program = solution.program()
        assert solution.total_flops == pytest.approx(program.total_flops)

    def test_optimal_cost_equals_total_flops_for_flop_metric(self):
        solution = self._solution()
        assert solution.optimal_cost == pytest.approx(solution.total_flops)

    def test_generation_time_recorded(self):
        solution = self._solution()
        assert solution.generation_time > 0.0

    def test_str_contains_key_information(self):
        text = str(self._solution())
        assert "metric" in text
        assert "parenthesization" in text

    def test_output_temporary_shape(self):
        solution = self._solution()
        assert solution.output.rows == 12
        assert solution.output.columns == 8

    def test_solution_length(self):
        assert self._solution().length == 3


class TestMetricsChangeSolutions:
    def test_kernel_count_metric_minimizes_calls(self):
        a = Matrix("A", 10, 20)
        b = Matrix("B", 20, 30)
        c = Matrix("C", 30, 5)
        solution = GMCAlgorithm(CompileOptions(metric=KernelCountMetric())).solve(
            Times(a, b, c)
        )
        assert solution.optimal_cost == 2.0

    def test_time_metric_produces_computable_solution(self):
        a = Matrix("A", 64, 64, {Property.SPD})
        b = Matrix("B", 64, 32)
        solution = GMCAlgorithm(CompileOptions(metric=PerformanceMetric())).solve(
            Times(Inverse(a), b)
        )
        assert solution.computable
        assert solution.optimal_cost > 0.0

    def test_string_metric_names_accepted(self):
        a = Matrix("A", 16, 8)
        b = Matrix("B", 8, 4)
        for metric in ("flops", "time", "memory", "accuracy", "kernels"):
            assert GMCAlgorithm(CompileOptions(metric=metric)).solve(
                Times(a, b)
            ).computable


class TestInputHandling:
    def test_accepts_factor_sequences(self):
        a = Matrix("A", 10, 12)
        b = Matrix("B", 12, 6)
        solution = GMCAlgorithm().solve([a, b])
        assert solution.computable

    def test_accepts_nested_expressions(self):
        a = Matrix("A", 10, 10, {Property.NON_SINGULAR})
        b = Matrix("B", 10, 10, {Property.NON_SINGULAR})
        c = Matrix("C", 10, 4)
        # (A B)^-1 C must be normalized to B^-1 A^-1 C first.
        solution = GMCAlgorithm().solve(Times(Inverse(Times(a, b)), c))
        assert solution.computable
        assert solution.length == 3

    def test_rejects_non_expressions(self):
        with pytest.raises(TypeError):
            GMCAlgorithm().solve([Matrix("A", 3, 3), "B"])

    def test_single_factor_chain(self):
        a = Matrix("A", 5, 5)
        solution = GMCAlgorithm().solve([a])
        assert solution.optimal_cost == 0.0
        assert solution.program().calls == []

    def test_convenience_wrappers(self):
        a = Matrix("A", 10, 12)
        b = Matrix("B", 12, 6)
        assert solve_chain(Times(a, b)).computable
        assert len(generate_program(Times(a, b)).calls) == 1

    def test_inverse_transpose_factor(self):
        lower = Matrix("L", 12, 12, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        b = Matrix("B", 12, 6)
        solution = GMCAlgorithm().solve(Times(InverseTranspose(lower), b))
        assert solution.kernel_sequence() == ["TRSM"]


class TestGenerationTimeScaling:
    def test_generation_time_is_independent_of_matrix_size(self):
        """The DP cost depends on the chain length, not the operand sizes."""
        small = [Matrix(f"S{i}", 10, 10) for i in range(8)]
        large = [Matrix(f"L{i}", 2000, 2000) for i in range(8)]
        gmc = GMCAlgorithm()
        time_small = gmc.solve(Times(*small)).generation_time
        time_large = gmc.solve(Times(*large)).generation_time
        assert time_large < 50 * max(time_small, 1e-4)

    def test_chain_of_length_ten_is_fast(self):
        matrices = [Matrix(f"M{i}", 100 + i, 100 + i + 1) for i in range(10)]
        solution = GMCAlgorithm().solve(Times(*matrices))
        assert solution.generation_time < 1.0
        assert solution.computable


class TestSolutionCallMaterialization:
    """``program()``, ``total_flops`` and ``kernel_sequence()`` share one
    materialized call list instead of each re-running the Fig. 7 recursion."""

    def _solution(self):
        matrices = [Matrix(f"M{i}", 10 * (i + 1), 10 * (i + 2)) for i in range(5)]
        return GMCAlgorithm().solve(Times(*matrices))

    def test_kernel_calls_is_materialized_once(self):
        solution = self._solution()
        assert solution.kernel_calls() is solution.kernel_calls()

    def test_consumers_agree_with_the_generator(self):
        solution = self._solution()
        generated = list(solution.construct_solution())
        assert solution.kernel_sequence() == [
            call.kernel.display_name for call in generated
        ]
        assert solution.total_flops == pytest.approx(
            sum(call.flops for call in generated)
        )
        assert [call.kernel.id for call in solution.program()] == [
            call.kernel.id for call in generated
        ]

    def test_uncomputable_solution_still_raises(self):
        a = Matrix("A", 8, 8, {Property.NON_SINGULAR})
        b = Matrix("B", 8, 8, {Property.NON_SINGULAR})
        catalog = default_catalog(include_combined_inverse=False)
        solution = GMCAlgorithm(CompileOptions(catalog=catalog)).solve(
            Times(Inverse(a), Inverse(b))
        )
        with pytest.raises(UncomputableChainError):
            solution.kernel_calls()


class TestSplitPruning:
    """Lower-bound pruning must never change the chosen solution."""

    @pytest.mark.parametrize(
        "sizes",
        [
            [10, 100, 5, 50],
            [30, 35, 15, 5, 10, 20, 25],
            [130, 700, 383, 1340, 193, 900],
        ],
    )
    def test_pruned_equals_exhaustive(self, sizes):
        chain = Times(
            *[Matrix(f"M{i}", sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]
        )
        pruned = GMCAlgorithm(CompileOptions(prune=True)).solve(chain)
        exhaustive = GMCAlgorithm(CompileOptions(prune=False)).solve(chain)
        assert float(pruned.optimal_cost) == pytest.approx(
            float(exhaustive.optimal_cost)
        )
        assert pruned.parenthesization() == exhaustive.parenthesization()
        assert pruned.kernel_sequence() == exhaustive.kernel_sequence()


def exhaustive_solver(**options):
    return GMCAlgorithm(CompileOptions(prune=False, **options))


def _table2_chain():
    a = Matrix("A", 50, 50, {Property.SPD})
    b = Matrix("B", 50, 30)
    c = Matrix("C", 30, 30, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
    return Times(Inverse(a), b, Transpose(c))


class TestExhaustiveArm:
    """``prune=False`` is the reference arm of the one loop: every split in
    ascending ``k``, no bound.  It must stand on its own as a solver."""

    def test_same_solution_as_pruned_on_table2_chain(self):
        chain = _table2_chain()
        exhaustive = exhaustive_solver().solve(chain)
        pruned = GMCAlgorithm(CompileOptions()).solve(chain)
        assert exhaustive.optimal_cost == pytest.approx(pruned.optimal_cost)
        assert exhaustive.kernel_sequence() == pruned.kernel_sequence()
        assert exhaustive.parenthesization() == pruned.parenthesization()

    def test_program_executes_correctly(self):
        from repro.runtime import allclose, execute_program, instantiate_expression

        chain = _table2_chain()
        program = exhaustive_solver().solve(chain).program()
        environment = instantiate_expression(chain, seed=3)
        result = execute_program(program, environment)
        assert allclose(chain, environment, result, rtol=1e-7, atol=1e-7)

    def test_uncomputable_chain_detected(self):
        a = Matrix("A", 10, 10, {Property.NON_SINGULAR})
        b = Matrix("B", 10, 10, {Property.NON_SINGULAR})
        catalog = default_catalog(include_combined_inverse=False)
        solution = exhaustive_solver(catalog=catalog).solve(
            Times(Inverse(a), Inverse(b))
        )
        assert not solution.computable
        with pytest.raises(UncomputableChainError):
            list(solution.construct_solution())

    def test_partial_uncomputability_is_skipped(self):
        a = Matrix("A", 10, 10, {Property.NON_SINGULAR})
        b = Matrix("B", 10, 10, {Property.NON_SINGULAR})
        c = Matrix("C", 10, 6)
        catalog = default_catalog(include_combined_inverse=False)
        solution = exhaustive_solver(catalog=catalog).solve(
            Times(Inverse(a), Inverse(b), c)
        )
        assert solution.computable
        assert solution.kernel_sequence() == ["GESV", "GESV"]

    def test_metric_selection(self):
        timed = exhaustive_solver(metric="time").solve(_table2_chain())
        assert timed.computable
        assert timed.optimal_cost > 0.0

    def test_single_factor_chain(self):
        solution = exhaustive_solver().solve([Matrix("A", 5, 5)])
        assert solution.optimal_cost == 0.0
        assert solution.program().calls == []

    @given(generalized_chains())
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_pruned_equals_exhaustive_on_random_chains(self, expression):
        """Unary operators and properties included (the plain-chain case is
        ``TestSplitPruning``)."""
        pruned = GMCAlgorithm(CompileOptions()).solve(expression)
        exhaustive = exhaustive_solver().solve(expression)
        assert pruned.computable == exhaustive.computable
        assert pruned.optimal_cost == exhaustive.optimal_cost
        assert pruned.splits == exhaustive.splits
        if exhaustive.computable:
            assert pruned.kernel_sequence() == exhaustive.kernel_sequence()
            assert pruned.total_flops == exhaustive.total_flops


class TestWorkCounters:
    """The loop's work counters, per solve and in the ``solver`` layer."""

    PALETTE = (40, 60, 80, 100)

    def _chain(self, seed, length):
        import random

        rng = random.Random(seed)
        dims = [rng.choice(self.PALETTE) for _ in range(length + 1)]
        return [Matrix(f"M{i}", dims[i], dims[i + 1]) for i in range(length)]

    def _solve(self, chain, **options):
        return GMCAlgorithm(CompileOptions(plan_cache=False, **options)).solve(chain)

    def test_counts_cells_and_diagonals(self):
        n = 9
        solution = self._solve(self._chain(seed=6, length=n))
        assert solution.diagonals == n - 1
        assert solution.cells_evaluated == n * (n - 1) // 2

    def test_pruning_is_observable(self):
        chain = self._chain(seed=8, length=12)
        assert self._solve(chain, prune=True).cells_pruned > 0
        assert self._solve(chain, prune=False).cells_pruned == 0

    def test_solver_layer_sums_the_session_solves(self):
        from repro.frontend import Compiler

        session = Compiler(CompileOptions(plan_cache=False))
        first = session.solve(self._chain(seed=9, length=6))
        second = session.solve(self._chain(seed=10, length=12))
        layer = session.cache_stats()["solver"]
        assert layer["solves"] == 2
        for key in ("cells_evaluated", "cells_pruned", "diagonals"):
            assert layer[key] == getattr(first, key) + getattr(second, key)
        assert layer["hits"] == first.memo_hits + second.memo_hits
        assert layer["misses"] == first.memo_misses + second.memo_misses

    @pytest.mark.parametrize("prune", [True, False])
    def test_decision_memo_hits_surface_on_the_solution(self, prune):
        solution = self._solve(self._chain(seed=10, length=12), prune=prune)
        # Palette dims repeat, so the memo must have both missed (first
        # sighting of each split signature) and hit (every repeat).
        assert solution.memo_misses > 0
        assert solution.memo_hits > 0

    def test_match_cache_off_bypasses_the_decision_memo(self):
        solution = self._solve(self._chain(seed=10, length=12), match_cache=False)
        assert (solution.memo_hits, solution.memo_misses) == (0, 0)


class TestDeadlineChecker:
    def test_none_never_expires(self):
        from repro.core.gmc import DeadlineChecker

        checker = DeadlineChecker(None)
        assert checker.deadline is None
        assert not checker.expired()

    def test_expiry_is_sticky(self):
        from repro.core.gmc import DeadlineChecker

        checker = DeadlineChecker(0.0)
        assert checker.expired()
        assert checker.expired()
