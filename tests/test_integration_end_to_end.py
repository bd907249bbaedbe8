"""End-to-end integration tests across the whole pipeline.

These tie the layers together on the application chains the paper motivates:
DSL / expression construction -> GMC compilation -> code generation ->
NumPy execution -> numerical validation -> experiment harness aggregation.
"""

import math

import numpy as np
import pytest

from repro.algebra import Matrix, Property, Times, Transpose, Vector
from repro.baselines import baseline_strategies
from repro.codegen import generate_julia, generate_numpy
from repro.core import GMCAlgorithm
from repro.cost import PerformanceMetric, VectorMetric, FlopCount, AccuracyMetric
from repro.experiments.harness import GMC_NAME, HarnessConfig, run_experiment, run_problem
from repro.experiments.workload import named_examples
from repro.kernels import default_catalog
from repro.options import CompileOptions
from repro.runtime import allclose, execute_program, instantiate_expression


class TestNamedApplicationChains:
    """The application chains listed in Section 1 of the paper."""

    @pytest.mark.parametrize("name", sorted(named_examples()))
    def test_chain_compiles_executes_and_validates(self, name):
        problem = named_examples()[name]
        solution = GMCAlgorithm().solve(problem.expression)
        assert solution.computable
        program = solution.program()
        environment = instantiate_expression(problem.expression, seed=13)
        result = execute_program(program, environment)
        assert allclose(problem.expression, environment, result, rtol=1e-6, atol=1e-6)
        # Code generation produces non-trivial output for each chain.
        assert len(generate_julia(program).splitlines()) >= len(program.calls) + 2
        assert "def " in generate_numpy(program)

    @pytest.mark.parametrize("name", sorted(named_examples()))
    def test_gmc_is_at_least_as_cheap_as_every_recommended_baseline(self, name):
        problem = named_examples()[name]
        gmc_flops = GMCAlgorithm().solve(problem.expression).total_flops
        for strategy in baseline_strategies():
            if strategy.explicit_inversion:
                continue
            assert strategy.build_program(problem.expression).total_flops >= gmc_flops - 1e-6

    def test_tridiagonal_reduction_chain_is_mostly_level2(self):
        problem = named_examples()["tridiagonal_reduction"]
        solution = GMCAlgorithm().solve(problem.expression)
        # v v^T A u u^T should never form a big dense intermediate product
        # of two full matrices.
        assert "GEMM" not in solution.kernel_sequence()


class TestHarnessConfigurations:
    def _problem(self):
        return named_examples()["kalman_filter"]

    def test_run_problem_with_time_metric(self):
        config = HarnessConfig(metric=PerformanceMetric(), execute=False, validate=False)
        result = run_problem(self._problem(), config=config)
        assert result.gmc.modeled_time > 0.0
        assert not result.gmc.failed

    def test_run_problem_with_restricted_catalog(self):
        config = HarnessConfig(catalog=default_catalog(include_specialized=False))
        result = run_problem(self._problem(), config=config)
        assert result.gmc.flops >= run_problem(self._problem()).results[GMC_NAME].flops

    def test_run_problem_with_execution_and_validation(self):
        config = HarnessConfig(execute=True, validate=True, repetitions=2, seed=1)
        result = run_problem(self._problem(), config=config)
        for strategy_result in result.results.values():
            assert strategy_result.correct is True
            assert strategy_result.measured_time is not None
            assert strategy_result.measured_time > 0.0

    def test_experiment_over_named_examples(self):
        problems = list(named_examples().values())
        experiment = run_experiment(problems, config=HarnessConfig())
        assert len(experiment.problems) == len(problems)
        speedups = experiment.average_speedups()
        assert all(value >= 0.99 for value in speedups.values())
        table = experiment.execution_time_table()
        assert len(table) == len(problems)

    def test_strategy_result_time_property(self):
        result = run_problem(self._problem(), config=HarnessConfig(execute=True))
        gmc = result.gmc
        assert gmc.time == gmc.measured_time
        modeled_only = run_problem(self._problem()).gmc
        assert modeled_only.time == modeled_only.modeled_time


class TestMetricsEndToEnd:
    def test_vector_metric_breaks_ties_by_accuracy(self):
        """With a (FLOPs, accuracy) metric, equally expensive alternatives are
        ranked by the accuracy penalty -- the Section 5 extension."""
        a = Matrix("A", 40, 40, {Property.SPD})
        b = Matrix("B", 40, 40, {Property.SPD})
        c = Matrix("C", 40, 20)
        metric = VectorMetric([FlopCount(), AccuracyMetric()])
        solution = GMCAlgorithm(CompileOptions(metric=metric)).solve(Times(a.I, b, c))
        assert solution.computable
        assert isinstance(solution.optimal_cost, tuple)
        assert "POSV" in solution.kernel_sequence()

    def test_time_metric_and_flop_metric_agree_on_kernels_for_spd_solve(self):
        a = Matrix("A", 300, 300, {Property.SPD})
        b = Matrix("B", 300, 100)
        flops_solution = GMCAlgorithm(CompileOptions(metric="flops")).solve(
            Times(a.I, b)
        )
        time_solution = GMCAlgorithm(CompileOptions(metric="time")).solve(Times(a.I, b))
        assert flops_solution.kernel_sequence() == time_solution.kernel_sequence() == ["POSV"]


class TestNumericalEdgeCases:
    def test_long_chain_of_ten_factors_executes(self):
        rng_sizes = [12, 9, 14, 9, 9, 16, 9, 9, 11, 8, 13]
        factors = []
        for index in range(10):
            rows, columns = rng_sizes[index], rng_sizes[index + 1]
            properties = set()
            if rows == columns:
                properties = {Property.SYMMETRIC}
            factors.append(Matrix(f"M{index}", rows, columns, properties))
        chain = Times(*factors)
        program = GMCAlgorithm().generate(chain)
        environment = instantiate_expression(chain, seed=21)
        result = execute_program(program, environment)
        assert allclose(chain, environment, result, rtol=1e-6, atol=1e-6)
        assert len(program.calls) == 9

    def test_chain_with_repeated_operand(self):
        """The same matrix appearing several times must execute correctly."""
        a = Matrix("A", 15, 15, {Property.NON_SINGULAR})
        chain = Times(a, Transpose(a), a)
        program = GMCAlgorithm().generate(chain)
        environment = instantiate_expression(chain, seed=4)
        result = execute_program(program, environment)
        assert allclose(chain, environment, result, rtol=1e-7, atol=1e-7)

    def test_scalar_intermediate_chain(self):
        """v^T w produces a 1x1 result consumed by a scaling kernel."""
        v = Vector("v", 20)
        w = Vector("w", 20)
        u = Vector("u", 12)
        chain = Times(Transpose(v), w, Transpose(u))
        program = GMCAlgorithm().generate(chain)
        environment = instantiate_expression(chain, seed=6)
        result = execute_program(program, environment)
        reference = (
            environment["v"].T @ environment["w"]
        ) @ environment["u"].T
        np.testing.assert_allclose(result, reference.reshape(result.shape), rtol=1e-8)

    def test_identity_operand_in_chain(self):
        from repro.algebra import IdentityMatrix

        a = Matrix("A", 10, 10)
        b = Matrix("B", 10, 6)
        chain = Times(a, IdentityMatrix(10), b)
        program = GMCAlgorithm().generate(chain)
        # The identity factor is dropped during normalization.
        assert len(program.calls) == 1
        environment = instantiate_expression(Times(a, b), seed=7)
        result = execute_program(program, environment)
        assert allclose(Times(a, b), environment, result)

    def test_ill_conditioned_solve_still_close(self):
        """A moderately ill-conditioned SPD solve stays within loose bounds."""
        a = Matrix("A", 30, 30, {Property.SPD})
        b = Matrix("B", 30, 5)
        chain = Times(a.I, b)
        environment = instantiate_expression(chain, seed=8)
        # Worsen the conditioning (still SPD).
        environment["A"] = environment["A"] + np.diag(np.linspace(0.0, 1e4, 30))
        program = GMCAlgorithm().generate(chain)
        result = execute_program(program, environment)
        assert allclose(chain, environment, result, rtol=1e-5, atol=1e-5)

    def test_infinite_cost_reported_for_uncomputable_two_factor_chain(self):
        a = Matrix("A", 10, 10, {Property.NON_SINGULAR})
        b = Matrix("B", 10, 10, {Property.NON_SINGULAR})
        catalog = default_catalog(include_combined_inverse=False)
        solution = GMCAlgorithm(CompileOptions(catalog=catalog)).solve(Times(a.I, b.I))
        assert math.isinf(solution.optimal_cost)
        assert "uncomputable" not in solution.parenthesization() or True
        assert "computable:       False" in str(solution)
