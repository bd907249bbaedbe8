"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one table or figure of the paper (see DESIGN.md
for the experiment index).  The random-chain experiments share one cached
experiment run per session so that the Fig. 8 and Fig. 9 benches do not
repeat the same work.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import HarnessConfig, run_experiment
from repro.experiments.workload import ChainGenerator

#: Number of random chains used by the benchmark-scale experiments.  The
#: paper uses 100 chains with sizes up to 2000; the benchmark default uses a
#: smaller batch on a smaller grid so the whole suite runs in a few minutes.
BENCH_CHAIN_COUNT = 20

#: Size grid for the benchmark-scale experiments.
BENCH_SIZES = (40, 80, 120, 160, 200)


def bench_generator(seed: int = 2018) -> ChainGenerator:
    return ChainGenerator(
        min_length=3,
        max_length=10,
        size_choices=BENCH_SIZES,
        vector_probability=0.10,
        square_probability=0.40,
        transpose_probability=0.25,
        inverse_probability=0.25,
        property_probability=0.60,
        seed=seed,
    )


@pytest.fixture(scope="session")
def bench_problems():
    return bench_generator().generate_many(BENCH_CHAIN_COUNT)


@pytest.fixture(scope="session")
def modeled_experiment(bench_problems):
    """Experiment run with modeled (cost-model) times only."""
    config = HarnessConfig(execute=False, validate=False, seed=0)
    return run_experiment(bench_problems, config=config)


#: Number of chains for the measured (NumPy-executed) experiment.  Fewer but
#: larger problems than the modeled experiment: at tiny operand sizes the
#: per-call Python/SciPy overhead would drown out the kernel time and the
#: measured comparison would be pure noise.
MEASURED_CHAIN_COUNT = 12

MEASURED_SIZES = (100, 200, 300, 400)


@pytest.fixture(scope="session")
def measured_problems():
    generator = ChainGenerator(
        min_length=3,
        max_length=7,
        size_choices=MEASURED_SIZES,
        vector_probability=0.10,
        square_probability=0.40,
        transpose_probability=0.25,
        inverse_probability=0.25,
        property_probability=0.60,
        seed=77,
    )
    return generator.generate_many(MEASURED_CHAIN_COUNT)


@pytest.fixture(scope="session")
def measured_experiment(measured_problems):
    """Experiment run with NumPy execution and numerical validation.

    Each program is timed min-of-5, in rounds interleaved across the
    strategies of a problem, so a single noisy stretch cannot decide the
    measured ratios the Fig. 8/9 benches bound.
    """
    config = HarnessConfig(execute=True, validate=True, repetitions=5, seed=0)
    return run_experiment(measured_problems, config=config)
