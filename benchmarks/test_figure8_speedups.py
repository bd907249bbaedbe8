"""Benchmark / reproduction of Figure 8: average speedup of GMC over baselines.

Paper: the average speedup of the GMC-generated code over the other
libraries and languages is between 6 and 15 ("about 9" overall); Armadillo
is the strongest baseline (thanks to its chain heuristic) and the naive
Eigen/Matlab variants are the slowest.

The benchmark-scale reproduction uses a smaller random workload (see
``conftest.BENCH_CHAIN_COUNT``) and the modeled execution time, so the
absolute speedups differ, but the qualitative shape must hold:

* GMC is better than every baseline on average;
* each recommended variant beats (or ties) its naive counterpart;
* Armadillo is the closest competitor;
* the structure-blind naive variants (Eigen n, Matlab n) are the worst.
"""

from __future__ import annotations

import statistics

import pytest

from repro.experiments.figures import figure8


def test_figure8_shape(benchmark, modeled_experiment):
    result = benchmark.pedantic(
        lambda: figure8(experiment=modeled_experiment),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    speedups = result.data["speedups"]

    # GMC is at least as good as every baseline on average.
    assert all(value >= 1.0 for value in speedups.values())
    # The overall average speedup is substantial (paper: ~9x at full scale).
    assert result.data["overall_average"] > 1.5

    # Recommended variants are at least as close to GMC as naive variants.
    assert speedups["julia_recommended"] <= speedups["julia_naive"] + 1e-9
    assert speedups["eigen_recommended"] <= speedups["eigen_naive"] + 1e-9
    assert speedups["matlab_recommended"] <= speedups["matlab_naive"] + 1e-9
    assert speedups["armadillo_recommended"] <= speedups["armadillo_naive"] + 1e-9

    # Armadillo (chain heuristic) is the strongest baseline family.
    armadillo_best = min(speedups["armadillo_naive"], speedups["armadillo_recommended"])
    others_best = min(
        value
        for name, value in speedups.items()
        if not name.startswith("armadillo")
    )
    assert armadillo_best <= others_best + 1e-9

    # The structure-blind naive variants are the slowest.
    worst = max(speedups, key=speedups.get)
    assert worst in ("eigen_naive", "matlab_naive")


@pytest.mark.measured
def test_figure8_measured_speedups_are_consistent(benchmark, measured_experiment):
    """With measured NumPy execution the ordering may get noisy, but GMC must
    still be clearly ahead of the naive strategies on average."""
    result = benchmark.pedantic(
        lambda: figure8(experiment=measured_experiment, execute=True),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    speedups = result.data["speedups"]
    naive_average = statistics.mean(
        speedups[name] for name in ("julia_naive", "eigen_naive", "matlab_naive", "blaze_naive")
    )
    assert naive_average > 1.0
