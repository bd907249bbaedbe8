"""Tests for per-request deadline enforcement (``CompileOptions.deadline_s``).

The GMC loop checks the deadline at cell boundaries, in both the pruned
and the exhaustive (``prune=False``) arm: an
expired budget returns the best-so-far solution marked ``complete=False``
instead of either ignoring the budget (the pre-enforcement placeholder
behavior) or raising.  The marker travels through the service wire as
``AssignmentResult.complete``.
"""

import pytest

from repro.core import GMCAlgorithm
from repro.experiments.workload import ChainGenerator
from repro.options import CompileOptions
from repro.service.api import AssignmentResult, CompileRequest, execute_request



def long_chain(seed=3, length=12):
    generator = ChainGenerator(
        min_length=length,
        max_length=length,
        size_choices=(40, 80, 120, 200),
        square_probability=0.45,
        transpose_probability=0.25,
        inverse_probability=0.25,
        property_probability=0.60,
        seed=seed,
    )
    return generator.generate_many(1)[0].expression


@pytest.mark.parametrize("prune", [True, False])
class TestDeadlineEnforcement:
    def test_expired_deadline_returns_best_so_far(self, prune):
        solver = GMCAlgorithm(CompileOptions(prune=prune, deadline_s=1e-9))
        solution = solver.solve(long_chain())
        assert solution.complete is False  # budget expired mid-solve

    def test_expired_uncomputable_solve_blames_the_deadline(self, prune):
        from repro.core import UncomputableChainError

        solver = GMCAlgorithm(CompileOptions(prune=prune, deadline_s=1e-9))
        solution = solver.solve(long_chain())
        if solution.computable:  # pragma: no cover -- machine-speed dependent
            pytest.skip("solve finished a computable prefix within the budget")
        with pytest.raises(UncomputableChainError, match="deadline expired"):
            solution.program()

    def test_execute_request_error_names_the_deadline(self, prune):
        from repro.service.api import CompileRequest, execute_request

        request = CompileRequest(
            source=(
                "Matrix A (50, 50) <>\nMatrix B (50, 50) <>\n"
                "Matrix C (50, 50) <>\nMatrix D (50, 50) <>\n"
                "X := A * B * C * D\n"
            ),
            options=CompileOptions(prune=prune, deadline_s=1e-9),
        )
        response = execute_request(request)
        assert response.ok is False
        assert "deadline expired" in response.error

    def test_roomy_deadline_is_complete_and_optimal(self, prune):
        expression = long_chain(seed=5, length=8)
        with_budget = GMCAlgorithm(
            CompileOptions(prune=prune, deadline_s=300.0)
        ).solve(expression)
        reference = GMCAlgorithm(CompileOptions(prune=prune)).solve(expression)
        assert with_budget.complete is True
        assert with_budget.computable == reference.computable
        if reference.computable:
            assert with_budget.parenthesization() == reference.parenthesization()
            assert float(with_budget.optimal_cost) == pytest.approx(
                float(reference.optimal_cost)
            )

    def test_no_deadline_is_always_complete(self, prune):
        solution = GMCAlgorithm(CompileOptions(prune=prune)).solve(
            long_chain(seed=9, length=6)
        )
        assert solution.complete is True


class TestDeadlineOnTheWire:
    def test_complete_marker_roundtrips(self):
        result = AssignmentResult(
            target="X",
            expression="A * B",
            kernels=["GEMM"],
            parenthesization="(A * B)",
            cost=1.0,
            flops=1.0,
            generation_time_s=0.0,
            complete=False,
        )
        assert result.to_dict()["complete"] is False
        assert AssignmentResult.from_dict(result.to_dict()).complete is False
        # Absent on old payloads -> assumed complete.
        legacy = {k: v for k, v in result.to_dict().items() if k != "complete"}
        assert AssignmentResult.from_dict(legacy).complete is True

    def test_execute_request_reports_complete_solves(self):
        request = CompileRequest(
            source="Matrix A (20, 20) <spd>\nMatrix B (20, 10) <>\nX := A^-1 * B\n",
            options=CompileOptions(deadline_s=300.0),
        )
        response = execute_request(request)
        assert response.ok
        assert response.assignments[0].complete is True
