"""The experiment harness: run every strategy on every problem and aggregate.

The harness reproduces the measurement procedure of Section 4: for each test
problem, the GMC algorithm and each baseline strategy produce a kernel
program; each program is costed with the FLOP metric and the performance
model, optionally executed (and timed) on property-respecting random
operands, and validated against a direct reference evaluation.  The
aggregation helpers compute the quantities the paper reports: average
speedup per baseline (Fig. 8), per-problem execution times (Fig. 9), the
fraction of problems where GMC is fastest, worst-case ratios, and GMC
generation-time statistics.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..baselines.registry import BASELINE_STRATEGIES, build_gmc_program
from ..baselines.strategy import EvaluationStrategy, StrategyError
from ..core.gmc import GMCAlgorithm
from ..cost.metrics import CostMetric, FlopCount, PerformanceMetric
from ..options import CompileOptions
from ..kernels.catalog import KernelCatalog, default_catalog
from ..kernels.kernel import Program
from ..runtime.blas_threads import single_blas_thread
from ..runtime.executor import Executor
from ..runtime.operands import instantiate_expression
from ..runtime.reference import allclose
from .workload import TestProblem

#: Name used for the GMC "strategy" in result tables.
GMC_NAME = "GMC"


@dataclass
class StrategyResult:
    """Result of one strategy on one problem."""

    strategy: str
    label: str
    flops: float
    modeled_time: float
    measured_time: Optional[float] = None
    kernel_sequence: Tuple[str, ...] = ()
    correct: Optional[bool] = None
    failed: bool = False
    error: str = ""

    @property
    def time(self) -> float:
        """Measured time when available, modeled time otherwise."""
        if self.measured_time is not None:
            return self.measured_time
        return self.modeled_time


@dataclass
class ProblemResult:
    """Results of every strategy on one problem."""

    problem: TestProblem
    generation_time: float
    results: Dict[str, StrategyResult] = field(default_factory=dict)

    @property
    def gmc(self) -> StrategyResult:
        return self.results[GMC_NAME]

    def speedup_over(self, strategy: str, use_measured: bool = False) -> Optional[float]:
        """Speedup of the GMC program over a baseline on this problem."""
        baseline = self.results.get(strategy)
        if baseline is None or baseline.failed or self.gmc.failed:
            return None
        gmc_time = self.gmc.measured_time if use_measured else self.gmc.modeled_time
        other_time = baseline.measured_time if use_measured else baseline.modeled_time
        if gmc_time is None or other_time is None or gmc_time <= 0.0:
            return None
        return other_time / gmc_time

    def fastest_strategy(self, use_measured: bool = False) -> str:
        """Name of the strategy with the smallest (measured or modeled) time."""
        best_name = ""
        best_time = float("inf")
        for name, result in self.results.items():
            if result.failed:
                continue
            value = result.measured_time if use_measured else result.modeled_time
            if value is None:
                continue
            if value < best_time:
                best_time = value
                best_name = name
        return best_name


@dataclass
class ExperimentResult:
    """Aggregated results over a batch of problems."""

    problems: List[ProblemResult] = field(default_factory=list)
    strategies: Tuple[str, ...] = ()
    labels: Mapping[str, str] = field(default_factory=dict)

    # --------------------------------------------------------------- figures
    def average_speedups(self, use_measured: bool = False) -> Dict[str, float]:
        """Average speedup of GMC over every baseline (the bars of Fig. 8)."""
        speedups: Dict[str, float] = {}
        for strategy in self.strategies:
            if strategy == GMC_NAME:
                continue
            values = [
                problem.speedup_over(strategy, use_measured=use_measured)
                for problem in self.problems
            ]
            values = [value for value in values if value is not None]
            if values:
                speedups[strategy] = sum(values) / len(values)
        return speedups

    def execution_time_table(self, use_measured: bool = False) -> List[Dict[str, float]]:
        """Per-problem times of every strategy, sorted by the GMC time (Fig. 9)."""
        rows: List[Dict[str, float]] = []
        for problem in self.problems:
            row: Dict[str, float] = {"problem": problem.problem.identifier}
            for name, result in problem.results.items():
                value = result.measured_time if use_measured else result.modeled_time
                row[name] = float("nan") if (value is None or result.failed) else value
            rows.append(row)
        rows.sort(key=lambda row: row.get(GMC_NAME, float("inf")))
        return rows

    def fraction_gmc_fastest(self, use_measured: bool = False) -> float:
        """Fraction of problems where the GMC program is the fastest (paper: 86%)."""
        if not self.problems:
            return 0.0
        wins = sum(
            1
            for problem in self.problems
            if problem.fastest_strategy(use_measured=use_measured) == GMC_NAME
        )
        return wins / len(self.problems)

    def worst_case_ratio(self, use_measured: bool = False) -> float:
        """Worst ratio of GMC time to the best strategy's time (paper: <= 1.66)."""
        worst = 1.0
        for problem in self.problems:
            gmc = problem.gmc
            if gmc.failed:
                continue
            gmc_time = gmc.measured_time if use_measured else gmc.modeled_time
            best = min(
                (
                    (result.measured_time if use_measured else result.modeled_time)
                    for result in problem.results.values()
                    if not result.failed
                ),
                default=None,
            )
            if gmc_time and best and best > 0.0:
                worst = max(worst, gmc_time / best)
        return worst

    def generation_time_statistics(self) -> Dict[str, float]:
        """GMC solution-generation time statistics (paper: 0.03 s avg, < 0.07 s max)."""
        times = [problem.generation_time for problem in self.problems]
        if not times:
            return {"mean": 0.0, "max": 0.0, "min": 0.0}
        return {
            "mean": statistics.mean(times),
            "max": max(times),
            "min": min(times),
        }

    def correctness_summary(self) -> Dict[str, Tuple[int, int]]:
        """Per strategy: (number validated correct, number validated)."""
        summary: Dict[str, Tuple[int, int]] = {}
        for strategy in self.strategies:
            checked = 0
            correct = 0
            for problem in self.problems:
                result = problem.results.get(strategy)
                if result is None or result.correct is None:
                    continue
                checked += 1
                correct += int(result.correct)
            summary[strategy] = (correct, checked)
        return summary


@dataclass
class HarnessConfig:
    """Configuration of one harness run."""

    metric: CostMetric = field(default_factory=FlopCount)
    performance_model: PerformanceMetric = field(default_factory=PerformanceMetric)
    catalog: Optional[KernelCatalog] = None
    execute: bool = False
    validate: bool = False
    repetitions: int = 1
    seed: int = 0


def run_problem(
    problem: TestProblem,
    strategies: Sequence[EvaluationStrategy] = BASELINE_STRATEGIES,
    config: Optional[HarnessConfig] = None,
) -> ProblemResult:
    """Run GMC plus every baseline strategy on one problem."""
    config = config or HarnessConfig()
    catalog = config.catalog if config.catalog is not None else default_catalog()
    environment = None
    if config.execute or config.validate:
        environment = instantiate_expression(problem.expression, seed=config.seed)

    start = time.perf_counter()
    gmc_solution = GMCAlgorithm(
        CompileOptions(
            metric=config.metric if config.metric is not None else "flops",
            catalog=catalog,
        )
    ).solve(problem.expression)
    generation_time = time.perf_counter() - start

    problem_result = ProblemResult(problem=problem, generation_time=generation_time)

    programs: List[Tuple[str, str, Optional[Program], str]] = []
    if gmc_solution.computable:
        programs.append((GMC_NAME, GMC_NAME, gmc_solution.program(), ""))
    else:
        programs.append((GMC_NAME, GMC_NAME, None, "chain not computable with the catalog"))
    for strategy in strategies:
        try:
            program = strategy.build_program(problem.expression, catalog=catalog)
            programs.append((strategy.name, strategy.label, program, ""))
        except StrategyError as error:
            programs.append((strategy.name, strategy.label, None, str(error)))

    measurable: List[Tuple[StrategyResult, Program]] = []
    for name, label, program, error in programs:
        if program is None:
            problem_result.results[name] = StrategyResult(
                strategy=name,
                label=label,
                flops=float("inf"),
                modeled_time=float("inf"),
                failed=True,
                error=error,
            )
            continue
        modeled_time = sum(
            config.performance_model.kernel_cost(call.kernel, call.substitution)
            for call in program.calls
        )
        result = StrategyResult(
            strategy=name,
            label=label,
            flops=program.total_flops,
            modeled_time=modeled_time,
            kernel_sequence=program.kernel_names,
        )
        problem_result.results[name] = result
        measurable.append((result, program))
    if environment is not None:
        _execute_and_validate(measurable, problem, environment, config)
    return problem_result


def _execute_and_validate(
    measurable: Sequence[Tuple[StrategyResult, Program]],
    problem: TestProblem,
    environment: Mapping[str, np.ndarray],
    config: HarnessConfig,
) -> None:
    """Run every program once (validated), then time each one min-of-N.

    The timed rounds interleave the programs: a burst of machine noise then
    inflates one sample of every program rather than every sample of one,
    and the minimum over ``config.repetitions`` rounds discards it.  They
    run at one thread per loaded OpenBLAS, as a service worker runs
    generated code (:func:`~repro.runtime.blas_threads.single_blas_thread`).
    """
    timed = []
    for result, program in measurable:
        try:
            value = Executor().execute(program, environment)
        except Exception:  # pragma: no cover - defensive: execution errors are recorded
            result.correct = False
            continue
        if config.validate:
            result.correct = allclose(
                problem.expression, environment, value, rtol=1e-6, atol=1e-6
            )
        if config.execute:
            timed.append((result, program, []))
    if not timed:
        return
    with single_blas_thread():
        for _ in range(max(1, config.repetitions)):
            for result, program, samples in timed:
                executor = Executor()
                start = time.perf_counter()
                executor.execute(program, environment)
                samples.append(time.perf_counter() - start)
    for result, _, samples in timed:
        result.measured_time = min(samples)


def run_experiment(
    problems: Sequence[TestProblem],
    strategies: Sequence[EvaluationStrategy] = BASELINE_STRATEGIES,
    config: Optional[HarnessConfig] = None,
) -> ExperimentResult:
    """Run the full experiment over a batch of problems."""
    config = config or HarnessConfig()
    names = [GMC_NAME] + [strategy.name for strategy in strategies]
    labels = {GMC_NAME: GMC_NAME}
    labels.update({strategy.name: strategy.label for strategy in strategies})
    result = ExperimentResult(strategies=tuple(names), labels=labels)
    for problem in problems:
        result.problems.append(run_problem(problem, strategies=strategies, config=config))
    return result
