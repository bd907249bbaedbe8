"""Tests for the cost-metric framework (Section 3.3 of the paper)."""

import copy
import math

import pytest

from repro.algebra import Matrix, Property, Times, Inverse
from repro.cost import (
    AccuracyMetric,
    CustomMetric,
    DEFAULT_MACHINE,
    FlopCount,
    KernelCountMetric,
    MachineModel,
    MemoryMetric,
    PerformanceMetric,
    VectorMetric,
    WeightedSumMetric,
    resolve_metric,
)
from repro.kernels import default_catalog
from repro.matching import Substitution
from repro.options import CompileOptions


def _gemm_case(m=100, k=80, n=60):
    catalog = default_catalog()
    kernel = catalog.by_id("gemm_nn")
    substitution = Substitution({"X": Matrix("A", m, k), "Y": Matrix("B", k, n)})
    return kernel, substitution


def _posv_case(n=100, nrhs=50):
    catalog = default_catalog()
    kernel = catalog.by_id("posv_l_in")
    substitution = Substitution(
        {"X": Matrix("A", n, n, {Property.SPD}), "Y": Matrix("B", n, nrhs)}
    )
    return kernel, substitution


class TestMachineModel:
    def test_compute_time(self):
        machine = MachineModel(peak_flops=1e9, bandwidth_bytes=1e9)
        assert machine.compute_time(1e9, efficiency=1.0) == pytest.approx(1.0)
        assert machine.compute_time(1e9, efficiency=0.5) == pytest.approx(2.0)

    def test_transfer_time(self):
        machine = MachineModel(peak_flops=1e9, bandwidth_bytes=8e9, word_bytes=8.0)
        assert machine.transfer_time(1e9) == pytest.approx(1.0)

    def test_zero_work_is_free(self):
        assert DEFAULT_MACHINE.compute_time(0.0, 0.5) == 0.0
        assert DEFAULT_MACHINE.transfer_time(0.0) == 0.0

    def test_machine_balance_positive(self):
        assert DEFAULT_MACHINE.machine_balance > 0


class TestFlopCount:
    def test_matches_kernel_flops(self):
        kernel, substitution = _gemm_case()
        assert FlopCount().kernel_cost(kernel, substitution) == kernel.flops(substitution)

    def test_zero_and_infinity(self):
        metric = FlopCount()
        assert metric.zero == 0.0
        assert metric.is_infinite(metric.infinity)
        assert not metric.is_infinite(1.0)

    def test_combine_is_addition(self):
        assert FlopCount().combine(2.0, 3.0) == 5.0


class TestPerformanceMetric:
    def test_time_is_positive(self):
        kernel, substitution = _gemm_case()
        assert PerformanceMetric().kernel_cost(kernel, substitution) > 0.0

    def test_gemm_beats_gemv_in_efficiency(self):
        """The same FLOPs cost more time on a memory-bound kernel."""
        catalog = default_catalog()
        metric = PerformanceMetric()
        gemm = catalog.by_id("gemm_nn")
        gemv = catalog.by_id("gemv_n")
        # 1000 x 1000 matrix times vector: same flops via either interface.
        substitution = Substitution({"X": Matrix("A", 1000, 1000), "Y": Matrix("v", 1000, 1)})
        assert metric.kernel_cost(gemv, substitution) >= metric.kernel_cost(gemm, substitution) * 0.99

    def test_memory_bound_operations_hit_the_roofline(self):
        """For a matrix-vector product the transfer term dominates."""
        machine = MachineModel(peak_flops=1e12, bandwidth_bytes=1e9)
        metric = PerformanceMetric(machine)
        catalog = default_catalog()
        gemv = catalog.by_id("gemv_n")
        substitution = Substitution({"X": Matrix("A", 2000, 2000), "Y": Matrix("v", 2000, 1)})
        cost = metric.kernel_cost(gemv, substitution)
        assert cost >= machine.transfer_time(2000 * 2000)

    def test_larger_problems_cost_more(self):
        metric = PerformanceMetric()
        small = _gemm_case(50, 50, 50)
        large = _gemm_case(500, 500, 500)
        assert metric.kernel_cost(*large) > metric.kernel_cost(*small)


class TestOtherMetrics:
    def test_memory_metric_counts_elements(self):
        kernel, substitution = _gemm_case(10, 20, 30)
        assert MemoryMetric().kernel_cost(kernel, substitution) == 10 * 20 + 20 * 30

    def test_accuracy_metric_penalizes_explicit_inversion(self):
        catalog = default_catalog()
        metric = AccuracyMetric()
        getri = catalog.by_id("getri")
        posv = catalog.by_id("posv_l_in")
        spd = Matrix("A", 100, 100, {Property.SPD})
        rhs = Matrix("B", 100, 10)
        inversion_cost = metric.kernel_cost(getri, Substitution({"X": spd}))
        solve_cost = metric.kernel_cost(posv, Substitution({"X": spd, "Y": rhs}))
        assert inversion_cost > solve_cost

    def test_kernel_count_metric(self):
        kernel, substitution = _gemm_case()
        assert KernelCountMetric().kernel_cost(kernel, substitution) == 1.0

    def test_weighted_sum(self):
        kernel, substitution = _gemm_case()
        combined = WeightedSumMetric([(FlopCount(), 1.0), (KernelCountMetric(), 10.0)])
        expected = kernel.flops(substitution) + 10.0
        assert combined.kernel_cost(kernel, substitution) == pytest.approx(expected)

    def test_weighted_sum_requires_components(self):
        with pytest.raises(ValueError):
            WeightedSumMetric([])

    def test_custom_metric(self):
        kernel, substitution = _gemm_case()
        metric = CustomMetric(lambda k, s: 42.0, name="answer")
        assert metric.kernel_cost(kernel, substitution) == 42.0
        assert metric.name == "answer"


class TestVectorMetric:
    def test_costs_are_tuples(self):
        kernel, substitution = _gemm_case()
        metric = VectorMetric([FlopCount(), KernelCountMetric()])
        cost = metric.kernel_cost(kernel, substitution)
        assert cost == (kernel.flops(substitution), 1.0)

    def test_lexicographic_comparison(self):
        metric = VectorMetric([FlopCount(), KernelCountMetric()])
        assert (10.0, 2.0) < (10.0, 3.0)
        assert (9.0, 5.0) < (10.0, 0.0)
        assert metric.zero == (0.0, 0.0)

    def test_combine_is_componentwise(self):
        metric = VectorMetric([FlopCount(), KernelCountMetric()])
        assert metric.combine((1.0, 2.0), (3.0, 4.0)) == (4.0, 6.0)

    def test_infinity_detection(self):
        metric = VectorMetric([FlopCount(), KernelCountMetric()])
        assert metric.is_infinite(metric.infinity)
        assert metric.is_infinite((math.inf, 0.0))
        assert not metric.is_infinite((1.0, 2.0))

    def test_requires_components(self):
        with pytest.raises(ValueError):
            VectorMetric([])

    def test_usable_in_gmc(self):
        """A (FLOPs, accuracy) vector metric drives the GMC algorithm."""
        from repro.core import GMCAlgorithm

        a = Matrix("A", 20, 20, {Property.SPD})
        b = Matrix("B", 20, 10)
        metric = VectorMetric([FlopCount(), AccuracyMetric()])
        solution = GMCAlgorithm(CompileOptions(metric=metric)).solve(
            Times(Inverse(a), b)
        )
        assert solution.computable
        assert isinstance(solution.optimal_cost, tuple)


class TestResolveMetric:
    def test_none_gives_flops(self):
        assert isinstance(resolve_metric(None), FlopCount)

    def test_instances_pass_through(self):
        metric = PerformanceMetric()
        assert resolve_metric(metric) is metric

    def test_string_names(self):
        assert isinstance(resolve_metric("flops"), FlopCount)
        assert isinstance(resolve_metric("time"), PerformanceMetric)
        assert isinstance(resolve_metric("memory"), MemoryMetric)
        assert isinstance(resolve_metric("accuracy"), AccuracyMetric)
        assert isinstance(resolve_metric("kernels"), KernelCountMetric)

    def test_unknown_string_raises(self):
        with pytest.raises(ValueError):
            resolve_metric("speed-of-light")

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            resolve_metric(42)


class TestStatelessMetrics:
    """A metric is a pure pricing function: pricing a whole DP changes
    nothing it holds, and it has no memo to size, count or reset."""

    @pytest.mark.parametrize("name", ["flops", "time", "memory", "accuracy", "kernels"])
    def test_solve_leaves_the_metric_unchanged(self, name):
        from repro.core import GMCAlgorithm

        metric = resolve_metric(name)
        before = {key: copy.copy(value) for key, value in vars(metric).items()}
        chain = Times(
            Matrix("A", 30, 30, {Property.SPD}),
            Matrix("B", 30, 20),
            Matrix("C", 20, 40),
            Matrix("D", 40, 10),
        )
        solution = GMCAlgorithm(CompileOptions(metric=metric)).solve(chain)
        assert solution.computable
        assert solution.kernel_calls()
        assert vars(metric) == before

    def test_no_memo_api_is_left(self):
        for metric in (FlopCount(), CustomMetric(lambda kernel, substitution: 1.0)):
            for attribute in ("kernel_cost_cached", "cost_cache_size", "stats", "reset_stats"):
                assert not hasattr(metric, attribute), attribute
