"""Metric behaviour through full GMC solves (satellite coverage).

Exercises the paths a unit test on ``kernel_cost`` alone cannot reach:
vector-metric tuple infinities propagating through uncomputable chains,
caching of pure custom metrics across repeated solves, the
``resolve_metric`` rejection messages, and the ``lower_bound`` pruning hook.
"""

import math

import pytest

from repro.algebra import Matrix, Property, Times
from repro.core import GMCAlgorithm
from repro.cost import (
    AccuracyMetric,
    CustomMetric,
    FlopCount,
    VectorMetric,
    WeightedSumMetric,
    resolve_metric,
)
from repro.kernels.catalog import KernelCatalog, build_default_kernels
from repro.options import CompileOptions


@pytest.fixture
def fresh_catalog():
    return KernelCatalog(build_default_kernels(), name="metrics-test")


@pytest.fixture
def no_gesv2_catalog():
    return KernelCatalog(
        build_default_kernels(include_combined_inverse=False), name="no-gesv2"
    )


def _chain(*sizes):
    return Times(
        *[Matrix(f"M{i}", sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]
    )


class TestVectorMetricThroughGMC:
    def test_uncomputable_chain_yields_tuple_infinity(self, no_gesv2_catalog):
        metric = VectorMetric([FlopCount(), AccuracyMetric()])
        a = Matrix("A", 8, 8, {Property.NON_SINGULAR})
        b = Matrix("B", 8, 8, {Property.NON_SINGULAR})
        solution = GMCAlgorithm(
            CompileOptions(catalog=no_gesv2_catalog, metric=metric)
        ).solve(
            a.I * b.I
        )
        assert not solution.computable
        assert solution.optimal_cost == metric.infinity
        assert isinstance(solution.optimal_cost, tuple)
        assert all(math.isinf(component) for component in solution.optimal_cost)
        assert metric.is_infinite(solution.optimal_cost)

    def test_flops_component_matches_scalar_solve(self, fresh_catalog):
        chain = _chain(30, 35, 15, 5, 10, 20, 25)
        vector_metric = VectorMetric([FlopCount(), AccuracyMetric()])
        vector = GMCAlgorithm(
            CompileOptions(catalog=fresh_catalog, metric=vector_metric)
        ).solve(chain)
        scalar = GMCAlgorithm(
            CompileOptions(catalog=fresh_catalog, metric=FlopCount())
        ).solve(chain)
        assert vector.computable
        assert vector.optimal_cost[0] == pytest.approx(float(scalar.optimal_cost))
        assert vector.parenthesization() == scalar.parenthesization()

    def test_vector_costs_accumulate_componentwise(self, fresh_catalog):
        metric = VectorMetric([FlopCount(), AccuracyMetric()])
        solution = GMCAlgorithm(
            CompileOptions(catalog=fresh_catalog, metric=metric)
        ).solve(
            _chain(10, 100, 5, 50)
        )
        totals = [0.0, 0.0]
        for call in solution.kernel_calls():
            totals[0] += call.cost[0]
            totals[1] += call.cost[1]
        assert solution.optimal_cost[0] == pytest.approx(totals[0])
        assert solution.optimal_cost[1] == pytest.approx(totals[1])


class TestCustomMetricThroughGMC:
    def test_cacheable_custom_metric_matches_flops(self, fresh_catalog):
        calls = []

        def flops_cost(kernel, substitution):
            calls.append(kernel.id)
            return kernel.flops(substitution)

        metric = CustomMetric(flops_cost, name="counted-flops", cacheable=True)
        algorithm = GMCAlgorithm(CompileOptions(catalog=fresh_catalog, metric=metric))
        chain = _chain(30, 35, 15, 5, 10, 20, 25)
        first = algorithm.solve(chain)
        reference = GMCAlgorithm(
            CompileOptions(catalog=fresh_catalog, metric=FlopCount())
        ).solve(chain)
        assert first.computable
        assert float(first.optimal_cost) == pytest.approx(float(reference.optimal_cost))
        assert first.parenthesization() == reference.parenthesization()
        assert calls
        second = algorithm.solve(chain)
        assert float(second.optimal_cost) == pytest.approx(float(first.optimal_cost))

    def test_uncacheable_custom_metric_is_reevaluated(self, fresh_catalog):
        calls = []

        def counting(kernel, substitution):
            calls.append(kernel.id)
            return kernel.flops(substitution)

        metric = CustomMetric(counting, name="stateful")
        assert not metric.cacheable
        algorithm = GMCAlgorithm(CompileOptions(catalog=fresh_catalog, metric=metric))
        chain = _chain(10, 100, 5, 50)
        algorithm.solve(chain)
        evaluations_after_first = len(calls)
        algorithm.solve(chain)
        assert len(calls) > evaluations_after_first

    def test_custom_metric_disables_pruning_by_default(self):
        metric = CustomMetric(lambda kernel, substitution: -1.0)
        assert metric.lower_bound(1.0, 2.0) is None
        trusted = CustomMetric(
            lambda kernel, substitution: 1.0, cacheable=True, nonnegative=True
        )
        assert trusted.lower_bound(1.0, 2.0) == pytest.approx(3.0)


class TestLowerBoundHook:
    def test_scalar_bound_is_the_sum(self):
        assert FlopCount().lower_bound(2.0, 3.0) == pytest.approx(5.0)

    def test_vector_bound_is_componentwise(self):
        metric = VectorMetric([FlopCount(), AccuracyMetric()])
        assert metric.lower_bound((1.0, 2.0), (3.0, 4.0)) == (4.0, 6.0)

    def test_negative_weight_disables_the_bound(self):
        metric = WeightedSumMetric([(FlopCount(), 1.0), (AccuracyMetric(), -0.5)])
        assert not metric.nonnegative
        assert metric.lower_bound(1.0, 1.0) is None
        positive = WeightedSumMetric([(FlopCount(), 1.0), (AccuracyMetric(), 0.5)])
        assert positive.nonnegative
        assert positive.lower_bound(1.0, 1.0) == pytest.approx(2.0)


class TestResolveMetricRejections:
    def test_unknown_name_message(self):
        with pytest.raises(ValueError, match="unknown cost metric name: 'bogus'"):
            resolve_metric("bogus")

    def test_non_metric_object_message(self):
        with pytest.raises(TypeError, match="cannot interpret 42 as a cost metric"):
            resolve_metric(42)

    def test_known_names_resolve(self):
        assert resolve_metric("flops").name == "flops"
        assert resolve_metric(None).name == "flops"
        metric = FlopCount()
        assert resolve_metric(metric) is metric
