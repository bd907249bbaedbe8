"""Benchmark / reproduction of Figure 9: per-problem execution times.

Paper: over 100 random chains, the GMC-generated code is the fastest in 86%
of the cases, never more than a factor 1.66 slower than the best solution,
and for at least 10% of the problems some baseline is more than 10x slower.

The modeled-time reproduction makes GMC win essentially always (all
strategies share one cost model); the measured-time run re-introduces real
execution effects.  The bench checks the paper's three statistics in the
direction that must hold for the reproduction to be faithful.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.figures import figure9
from repro.experiments.harness import GMC_NAME


def test_figure9_modeled_statistics(benchmark, modeled_experiment):
    result = benchmark.pedantic(
        lambda: figure9(experiment=modeled_experiment),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    data = result.data

    # GMC is fastest on a large majority of problems (paper: 86%).
    assert data["fraction_gmc_fastest"] >= 0.85
    # When it is not the fastest, it is never far behind (paper: <= 1.66).
    assert data["worst_case_ratio"] <= 1.66
    # On a sizable fraction of problems some baseline is >10x slower
    # (paper: at least 10% of the test cases).
    assert data["fraction_baseline_10x_slower"] >= 0.10

    # The Fig. 9 rows are sorted by the GMC time and contain every strategy.
    rows = data["rows"]
    gmc_times = [row[GMC_NAME] for row in rows]
    assert gmc_times == sorted(gmc_times)
    assert all(len(row) >= 11 for row in rows)  # problem id + 10 strategies


@pytest.mark.measured
def test_figure9_measured_statistics(benchmark, measured_experiment):
    result = benchmark.pedantic(
        lambda: figure9(experiment=measured_experiment, execute=True),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    data = result.data
    # Measured wall-clock at laptop scale does not reproduce the paper's win
    # rate: NumPy/SciPy kernel overheads at these operand sizes differ a lot
    # from MKL's behaviour at sizes up to 2000 (see EXPERIMENTS.md).  The
    # qualitative claim that survives the backend change is the bounded
    # worst case: the GMC program is never far from the best strategy.
    assert math.isfinite(data["worst_case_ratio"])
    assert data["worst_case_ratio"] < 3.0
    assert 0.0 <= data["fraction_gmc_fastest"] <= 1.0
    # And GMC clearly beats the structure-blind naive strategies on average.
    from repro.experiments.figures import figure8

    speedups = figure8(experiment=measured_experiment, execute=True).data["speedups"]
    for name in ("julia_naive", "eigen_naive", "matlab_naive", "blaze_naive"):
        assert speedups[name] > 1.2, name


def test_every_generated_program_is_numerically_correct(benchmark, measured_experiment):
    """The evaluation is only meaningful if every strategy's program computes
    the right value on every problem."""
    summary = benchmark(measured_experiment.correctness_summary)
    for strategy, (correct, checked) in summary.items():
        assert checked > 0
        assert correct == checked, f"{strategy}: {correct}/{checked}"
