"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's own figures: they quantify how much each GMC
ingredient contributes on the benchmark workload.

* property-specialized kernels on/off (Section 3.2 motivation);
* the cost metric: FLOPs vs. roofline time vs. kernel count;
* the composite ``A^-1 B^-1`` kernel on/off (Sections 3.4 / 5);
* the Armadillo-style heuristic vs. the full DP (value of exact search).
"""

from __future__ import annotations

import statistics

from repro.core import GMCAlgorithm
from repro.cost import FlopCount, KernelCountMetric, PerformanceMetric
from repro.kernels import default_catalog
from repro.options import CompileOptions


def _solve_all(problems, **options):
    gmc = GMCAlgorithm(CompileOptions(**options))
    return [gmc.solve(problem.expression) for problem in problems]


def test_ablation_specialized_kernels(benchmark, bench_problems):
    """Without TRMM/SYMM/SYRK/TRSM/POSV/... the same chains need more FLOPs."""

    def run():
        full = _solve_all(bench_problems)
        generic = _solve_all(
            bench_problems, catalog=default_catalog(include_specialized=False)
        )
        return full, generic

    full, generic = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    ratios = []
    for with_props, without_props in zip(full, generic):
        assert with_props.computable and without_props.computable
        assert with_props.total_flops <= without_props.total_flops + 1e-6
        ratios.append(without_props.total_flops / max(with_props.total_flops, 1.0))
    # On a property-rich workload the specialized kernels save a noticeable
    # fraction of the work on average.
    assert statistics.mean(ratios) > 1.05
    assert max(ratios) > 1.3


def test_ablation_cost_metric(benchmark, bench_problems):
    """Different metrics can pick different solutions; the FLOP-optimal one is
    never beaten in FLOPs and the time-optimal one never beaten in time."""
    performance = PerformanceMetric()

    def run():
        by_flops = _solve_all(bench_problems, metric=FlopCount())
        by_time = _solve_all(bench_problems, metric=performance)
        by_count = _solve_all(bench_problems, metric=KernelCountMetric())
        return by_flops, by_time, by_count

    by_flops, by_time, by_count = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    for flops_solution, time_solution, count_solution in zip(by_flops, by_time, by_count):
        assert flops_solution.total_flops <= time_solution.total_flops + 1e-6
        assert time_solution.optimal_cost <= _modeled_time(flops_solution, performance) + 1e-12
        assert count_solution.optimal_cost <= len(list(flops_solution.construct_solution()))


def _modeled_time(solution, performance):
    return sum(
        performance.kernel_cost(call.kernel, call.substitution)
        for call in solution.construct_solution()
    )


def test_ablation_combined_inverse_kernel(benchmark, bench_problems):
    """Removing the composite A^-1 B^-1 kernel must never make a computable
    chain cheaper, and every benchmark chain must stay computable (adjacent
    inverted operands can always be split differently)."""

    def run():
        with_kernel = _solve_all(bench_problems)
        without_kernel = _solve_all(
            bench_problems, catalog=default_catalog(include_combined_inverse=False)
        )
        return with_kernel, without_kernel

    with_kernel, without_kernel = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    for full, restricted in zip(with_kernel, without_kernel):
        assert full.computable
        assert restricted.computable
        assert full.total_flops <= restricted.total_flops + 1e-6


def test_ablation_exact_dp_vs_armadillo_heuristic(benchmark, bench_problems):
    """How much of GMC's advantage comes from exact search: compare the DP
    optimum against the Armadillo-style heuristic on the same (property-
    aware) kernel selection."""
    from repro.baselines import ARMADILLO_RECOMMENDED

    def run():
        gmc = _solve_all(bench_problems)
        heuristic = [
            ARMADILLO_RECOMMENDED.build_program(problem.expression)
            for problem in bench_problems
        ]
        return gmc, heuristic

    gmc, heuristic = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    wins = 0
    for solution, program in zip(gmc, heuristic):
        assert solution.total_flops <= program.total_flops + 1e-6
        if solution.total_flops < program.total_flops * 0.999:
            wins += 1
    # The exact DP strictly improves on the heuristic for a fair share of the
    # workload (the rest are chains where the heuristic happens to be optimal).
    assert wins >= len(gmc) * 0.2
