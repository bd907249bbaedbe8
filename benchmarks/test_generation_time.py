"""Benchmark of the GMC solution-generation time (Section 4).

Paper claims: 0.03 s on average, always below 0.07 s, independent of the
matrix sizes (the DP cost depends only on the chain length and the number of
properties).  The absolute numbers here are much smaller (the paper's Python
prototype runs inside the full Linnea compiler); the bench checks the paper's
qualitative claims -- millisecond scale, size independence -- and records the
generation time as the pytest-benchmark measurement.
"""

from __future__ import annotations

import statistics

import pytest

from repro.algebra import Matrix, Times
from repro.core import GMCAlgorithm
from repro.cost import FlopCount
from repro.experiments.figures import generation_time
from repro.experiments.workload import paper_generator
from repro.options import CompileOptions


def test_single_chain_generation_time(benchmark):
    """Benchmark one representative chain of length 10 (the paper's maximum)."""
    generator = paper_generator(seed=7)
    problem = None
    for candidate in generator.generate_many(50):
        if candidate.length == 10:
            problem = candidate
            break
    assert problem is not None
    gmc = GMCAlgorithm()
    solution = benchmark(gmc.solve, problem.expression)
    assert solution.computable


@pytest.mark.measured
def test_generation_time_statistics(benchmark):
    result = benchmark.pedantic(
        lambda: generation_time(count=30, seed=0, full_scale=True),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    data = result.data
    # Milliseconds, not seconds: comfortably below the paper's 70 ms bound.
    assert data["max"] < 0.5
    assert data["mean"] < 0.1


def test_generation_work_is_independent_of_matrix_sizes():
    """Clock-free form of the size-independence claim: the DP prices the
    same number of kernel calls, and picks the same parenthesization, for
    one chain at 1x and at 50x operand sizes."""

    def solve(scale):
        priced = []

        class Counting(FlopCount):
            def kernel_cost(self, kernel, substitution):
                priced.append(kernel.id)
                return super().kernel_cost(kernel, substitution)

        sizes = (37, 20, 45, 12, 30, 25, 40, 15, 33)
        matrices = [
            Matrix(f"M{i}", sizes[i] * scale, sizes[i + 1] * scale) for i in range(8)
        ]
        solution = GMCAlgorithm(CompileOptions(metric=Counting())).solve(Times(*matrices))
        assert solution.computable
        return len(priced), solution.parenthesization()

    (small_work, small_plan), (large_work, large_plan) = solve(1), solve(50)
    assert small_work > 0
    assert large_work == small_work
    assert large_plan == small_plan


@pytest.mark.measured
def test_generation_time_is_independent_of_matrix_sizes(benchmark):
    """Solving the same-length chain with 50x larger operands must not take
    noticeably longer (Section 4: 'the generation time does not depend on
    matrix sizes')."""
    gmc = GMCAlgorithm()

    def times_for(scale):
        samples = []
        for _ in range(5):
            matrices = [Matrix(f"M{i}", 37 * scale, 37 * scale) for i in range(8)]
            samples.append(gmc.solve(Times(*matrices)).generation_time)
        return statistics.median(samples)

    def run():
        return times_for(1), times_for(50)

    small, large = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert large < 20 * max(small, 1e-4)
