"""Tests for program execution, operand instantiation and reference evaluation."""

import dataclasses

import numpy as np
import pytest

from repro.algebra import (
    IdentityMatrix,
    Inverse,
    InverseTranspose,
    Matrix,
    Property,
    Times,
    Transpose,
    Vector,
    ZeroMatrix,
)
from repro.core import GMCAlgorithm, generate_program
from repro.runtime import (
    ExecutionError,
    Executor,
    allclose,
    chain_operands,
    evaluate,
    execute_program,
    instantiate_expression,
    instantiate_matrix,
    time_program,
)
from repro.runtime.executor import compiled_statement
from repro.runtime.reference import ReferenceEvaluationError
from repro.runtime.timing import estimate_time, time_callable


class TestOperandInstantiation:
    def test_shape(self, rng):
        value = instantiate_matrix(Matrix("A", 4, 7), rng)
        assert value.shape == (4, 7)

    def test_diagonal(self, rng):
        value = instantiate_matrix(Matrix("D", 5, 5, {Property.DIAGONAL}), rng)
        assert np.allclose(value, np.diag(np.diag(value)))
        assert np.all(np.abs(np.diag(value)) >= 1.0)

    def test_lower_triangular(self, rng):
        value = instantiate_matrix(
            Matrix("L", 5, 5, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR}), rng
        )
        assert np.allclose(value, np.tril(value))
        assert np.linalg.matrix_rank(value) == 5

    def test_upper_triangular(self, rng):
        value = instantiate_matrix(Matrix("U", 5, 5, {Property.UPPER_TRIANGULAR}), rng)
        assert np.allclose(value, np.triu(value))

    def test_unit_diagonal(self, rng):
        value = instantiate_matrix(
            Matrix("L", 5, 5, {Property.LOWER_TRIANGULAR, Property.UNIT_DIAGONAL}), rng
        )
        assert np.allclose(np.diag(value), 1.0)

    def test_symmetric(self, rng):
        value = instantiate_matrix(Matrix("S", 6, 6, {Property.SYMMETRIC}), rng)
        assert np.allclose(value, value.T)

    def test_spd(self, rng):
        value = instantiate_matrix(Matrix("P", 6, 6, {Property.SPD}), rng)
        assert np.allclose(value, value.T)
        assert np.all(np.linalg.eigvalsh(value) > 0)

    def test_identity_and_zero(self, rng):
        assert np.allclose(instantiate_matrix(IdentityMatrix(4), rng), np.eye(4))
        assert np.allclose(instantiate_matrix(ZeroMatrix(3, 4), rng), 0.0)

    def test_orthogonal(self, rng):
        value = instantiate_matrix(Matrix("Q", 5, 5, {Property.ORTHOGONAL}), rng)
        assert np.allclose(value.T @ value, np.eye(5), atol=1e-10)

    def test_non_singular(self, rng):
        value = instantiate_matrix(Matrix("G", 5, 5, {Property.NON_SINGULAR}), rng)
        assert np.linalg.matrix_rank(value) == 5

    def test_instantiate_expression_collects_all_leaves(self):
        a = Matrix("A", 4, 4, {Property.SPD})
        b = Matrix("B", 4, 3)
        env = instantiate_expression(Times(Inverse(a), b), seed=0)
        assert set(env) == {"A", "B"}

    def test_chain_operands_deduplicates(self):
        a = Matrix("A", 4, 4)
        operands = chain_operands(Times(a, a))
        assert list(operands) == ["A"]

    def test_seed_reproducibility(self):
        a = Matrix("A", 4, 4)
        env1 = instantiate_expression(Times(a, a), seed=3)
        env2 = instantiate_expression(Times(a, a), seed=3)
        np.testing.assert_allclose(env1["A"], env2["A"])


class TestReferenceEvaluation:
    def test_product_and_transpose(self, rng):
        a = Matrix("A", 3, 4)
        b = Matrix("B", 3, 5)
        env = {"A": rng.standard_normal((3, 4)), "B": rng.standard_normal((3, 5))}
        np.testing.assert_allclose(
            evaluate(Times(Transpose(a), b), env), env["A"].T @ env["B"]
        )

    def test_inverse(self, rng):
        a = Matrix("A", 4, 4)
        env = {"A": rng.standard_normal((4, 4)) + 4 * np.eye(4)}
        np.testing.assert_allclose(evaluate(Inverse(a), env), np.linalg.inv(env["A"]))

    def test_inverse_transpose(self, rng):
        a = Matrix("A", 4, 4)
        env = {"A": rng.standard_normal((4, 4)) + 4 * np.eye(4)}
        np.testing.assert_allclose(
            evaluate(InverseTranspose(a), env), np.linalg.inv(env["A"]).T
        )

    def test_missing_operand_raises(self):
        with pytest.raises(ReferenceEvaluationError):
            evaluate(Matrix("A", 3, 3), {})

    def test_allclose_detects_mismatch(self, rng):
        a = Matrix("A", 3, 3)
        env = {"A": rng.standard_normal((3, 3))}
        assert allclose(a, env, env["A"])
        assert not allclose(a, env, env["A"] + 1.0)


class TestExecutor:
    def _run(self, expr, seed=0):
        program = generate_program(expr)
        env = instantiate_expression(expr, seed=seed)
        result = execute_program(program, env)
        assert allclose(expr, env, result), f"wrong result for {expr}"
        return program

    def test_simple_product(self):
        self._run(Times(Matrix("A", 6, 5), Matrix("B", 5, 7)))

    def test_transposed_product(self):
        self._run(Times(Transpose(Matrix("A", 5, 6)), Matrix("B", 5, 7)))

    def test_both_transposed(self):
        self._run(Times(Transpose(Matrix("A", 5, 6)), Transpose(Matrix("B", 7, 5))))

    def test_spd_solve(self):
        a = Matrix("A", 8, 8, {Property.SPD})
        self._run(Times(Inverse(a), Matrix("B", 8, 3)))

    def test_triangular_solve_left_and_right(self):
        lower = Matrix("L", 8, 8, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        self._run(Times(Inverse(lower), Matrix("B", 8, 3)))
        self._run(Times(Matrix("C", 3, 8), Inverse(lower)))

    def test_inverse_transpose_solve(self):
        lower = Matrix("L", 8, 8, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        self._run(Times(InverseTranspose(lower), Matrix("B", 8, 3)))

    def test_general_solve(self):
        a = Matrix("A", 8, 8, {Property.NON_SINGULAR})
        self._run(Times(Inverse(a), Matrix("B", 8, 3)))

    def test_right_general_solve(self):
        a = Matrix("A", 8, 8, {Property.NON_SINGULAR})
        self._run(Times(Matrix("B", 3, 8), Inverse(a)))

    def test_diagonal_solve(self):
        d = Matrix("D", 8, 8, {Property.DIAGONAL, Property.NON_SINGULAR})
        self._run(Times(Inverse(d), Matrix("B", 8, 3)))

    def test_combined_inverse(self):
        a = Matrix("A", 8, 8, {Property.NON_SINGULAR})
        b = Matrix("B", 8, 8, {Property.NON_SINGULAR})
        self._run(Times(Inverse(a), Inverse(b)))

    def test_gram_chain(self):
        a = Matrix("A", 8, 6)
        b = Matrix("B", 6, 4)
        self._run(Times(Transpose(a), a, b))

    def test_vector_chain(self):
        m1 = Matrix("M1", 9, 7)
        m2 = Matrix("M2", 7, 6)
        v = Vector("v", 6)
        self._run(Times(m1, m2, v))

    def test_outer_product_chain(self):
        v1 = Vector("v1", 6)
        v2 = Vector("v2", 5)
        m = Matrix("M", 9, 6)
        self._run(Times(m, v1, Transpose(v2)))

    def test_inner_product_chain(self):
        v1 = Vector("v1", 6)
        v2 = Vector("v2", 6)
        program = self._run(Times(Transpose(v1), v2))
        assert program.output.rows == 1

    def test_long_mixed_chain(self):
        a = Matrix("A", 10, 10, {Property.SPD})
        lower = Matrix("L", 10, 10, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        b = Matrix("B", 10, 7)
        c = Matrix("C", 7, 7, {Property.DIAGONAL, Property.NON_SINGULAR})
        d = Matrix("D", 7, 4)
        self._run(Times(Inverse(a), lower, b, Inverse(c), d))

    def test_generalized_eigenproblem_reduction(self):
        lower = Matrix("L", 9, 9, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        s = Matrix("A", 9, 9, {Property.SYMMETRIC})
        self._run(Times(Inverse(lower), s, InverseTranspose(lower)))

    def test_missing_operand_value_raises(self):
        a = Matrix("A", 4, 4)
        b = Matrix("B", 4, 4)
        program = generate_program(Times(a, b))
        with pytest.raises(ExecutionError):
            Executor().execute(program, {"A": np.eye(4)})

    def test_executor_reuse_binds_values(self, rng):
        a = Matrix("A", 4, 4)
        b = Matrix("B", 4, 4)
        program = generate_program(Times(a, b))
        executor = Executor()
        executor.bind("A", rng.standard_normal((4, 4)))
        executor.bind("B", rng.standard_normal((4, 4)))
        result = executor.execute(program)
        np.testing.assert_allclose(result, executor.value("A") @ executor.value("B"))

    def test_empty_program_without_output_raises(self):
        from repro.kernels.kernel import Program

        with pytest.raises(ExecutionError):
            Executor().execute(Program(calls=[], output=None))

    def test_execute_call_runs_the_kernel_numpy_template(self, rng):
        # The interpreter has no per-family dispatch: a kernel whose template
        # says "copy X" computes a copy of X, not the product its pattern
        # names.
        program = generate_program(Times(Matrix("A", 4, 3), Matrix("B", 3, 5)))
        (call,) = program.calls
        copy_x = dataclasses.replace(call.kernel, numpy_template="{out} = {X}")
        call = dataclasses.replace(call, kernel=copy_x)
        a = rng.standard_normal((4, 3))
        result = Executor({"A": a, "B": rng.standard_normal((3, 5))}).execute_call(call)
        np.testing.assert_array_equal(result, a)

    def test_statements_compile_once(self, rng):
        expr = Times(Matrix("A", 6, 6, {Property.SPD}).I, Matrix("B", 6, 4), Matrix("C", 4, 3))
        program = generate_program(expr)
        env = instantiate_expression(expr, seed=0)
        first = Executor().execute(program, env)
        misses = compiled_statement.cache_info().misses
        second = Executor().execute(program, env)
        assert compiled_statement.cache_info().misses == misses
        np.testing.assert_array_equal(first, second)


class TestTiming:
    def test_time_program_returns_statistics(self):
        expr = Times(Matrix("A", 30, 30), Matrix("B", 30, 30))
        program = generate_program(expr)
        env = instantiate_expression(expr, seed=0)
        result = time_program(program, env, repetitions=2, warmup=1)
        assert result.best > 0.0
        assert result.best <= result.mean <= result.worst
        assert result.repetitions == 2
        assert "ms" in str(result)

    def test_time_program_validates_repetitions(self):
        expr = Times(Matrix("A", 5, 5), Matrix("B", 5, 5))
        program = generate_program(expr)
        env = instantiate_expression(expr, seed=0)
        with pytest.raises(ValueError):
            time_program(program, env, repetitions=0)

    def test_time_callable(self):
        result = time_callable(lambda: sum(range(1000)), repetitions=2)
        assert result.best >= 0.0

    def test_estimate_time_is_positive(self):
        expr = Times(Matrix("A", 50, 50), Matrix("B", 50, 50))
        program = generate_program(expr)
        assert estimate_time(program) > 0.0
