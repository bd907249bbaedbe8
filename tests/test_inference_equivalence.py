"""Differential tests: single-pass memoized inference vs. legacy predicates.

The memoized engine (:class:`repro.algebra.inference.PropertyInference`)
re-implements the Fig. 6 predicate recursion as one fused bottom-up pass.
These tests pin the two paths together: on randomly generated generalized
chains (and every node of their trees) the inferred property sets must be
*identical*, and the GMC algorithm must produce identical solutions under
either path -- and with hash-consing turned off.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra import (
    Matrix,
    Property,
    Times,
    clear_inference_cache,
    has_property,
    has_property_legacy,
    infer_properties,
    infer_properties_legacy,
    inference_engine,
    intern,
    interning_disabled,
    legacy_inference,
)
from repro.algebra.inference import PREDICATES, PropertyInference
from repro.core import GMCAlgorithm
from repro.options import CompileOptions
from repro.experiments.workload import ChainGenerator
from test_property_based import generalized_chains

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _solve_uncached(reference_path, expression, options=None):
    """Solve *expression* on *reference_path* reusing no result the fast solve
    cached: the process-wide inference memo is dropped, and the match cache
    (and with it the split-decision memo) is off, so every split walks the
    discrimination net.

    The intern table is left warm on purpose.  It caches no results, the
    ``interning_disabled`` arm never reads it, and a table carried across
    examples is what makes the fast solves canonicalize against equal nodes
    they did not create (a cold table would hide a broken rebuild).
    """
    clear_inference_cache()
    options = (options or CompileOptions()).replace(match_cache=False)
    with reference_path():
        return GMCAlgorithm(options).solve(expression)


class TestPropertySetEquivalence:
    @given(generalized_chains())
    @_SETTINGS
    def test_every_node_matches_legacy_inference(self, expression):
        for node in expression.preorder():
            assert infer_properties(node) == infer_properties_legacy(node), str(node)

    @given(generalized_chains())
    @_SETTINGS
    def test_has_property_matches_legacy_for_all_properties(self, expression):
        for node in expression.preorder():
            for prop in Property:
                assert has_property(node, prop) == has_property_legacy(node, prop), (
                    str(node),
                    prop,
                )

    @given(generalized_chains())
    @_SETTINGS
    def test_memoized_engine_is_stable_across_repeats(self, expression):
        first = infer_properties(expression)
        again = infer_properties(expression)
        assert first == again
        assert infer_properties(intern(expression)) == first

    def test_workload_chains_match_legacy(self):
        generator = ChainGenerator(
            min_length=3, max_length=10, size_choices=(4, 6, 9), seed=13
        )
        for problem in generator.generate_many(25):
            for node in problem.expression.preorder():
                assert infer_properties(node) == infer_properties_legacy(node)

    def test_engine_memoizes_shared_subtrees(self):
        engine = PropertyInference()
        a = Matrix("A", 4, 4, {Property.SPD})
        b = Matrix("B", 4, 4, {Property.LOWER_TRIANGULAR})
        chain = Times(a, b, a)
        engine.raw_properties(chain)
        misses = engine.misses
        engine.raw_properties(chain)
        assert engine.misses == misses  # second call is a pure cache hit
        assert engine.hits > 0

    def test_registered_predicate_is_respected(self):
        # Register an extra predicate under a property that has no fused
        # bottom-up rule: the engine must detect the registry mutation and
        # honour the predicate without any manual cache clearing.
        marker = Property.VECTOR
        assert marker not in PREDICATES
        weird = Matrix("weird", 3, 3)
        before = infer_properties(weird)  # populate the memo first
        assert marker not in before
        PREDICATES[marker] = lambda expr: isinstance(expr, Matrix) and expr.name == "weird"
        try:
            assert marker in infer_properties_legacy(weird)
            assert infer_properties(weird) == infer_properties_legacy(weird)
        finally:
            del PREDICATES[marker]
        assert infer_properties(weird) == before

    def test_replacing_builtin_predicate_is_honoured(self):
        # Replacing a built-in predicate must override the fused rules (and
        # the leaf fast path) on the default inference path.
        lower = Matrix("L", 4, 4, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        product = Times(lower, lower)
        assert Property.LOWER_TRIANGULAR in infer_properties(product)
        original = PREDICATES[Property.LOWER_TRIANGULAR]
        PREDICATES[Property.LOWER_TRIANGULAR] = lambda expr: False
        try:
            assert infer_properties(product) == infer_properties_legacy(product)
            assert Property.LOWER_TRIANGULAR not in infer_properties(product)
            assert not has_property(product, Property.LOWER_TRIANGULAR)
            assert not has_property(lower, Property.LOWER_TRIANGULAR)
        finally:
            PREDICATES[Property.LOWER_TRIANGULAR] = original
        assert Property.LOWER_TRIANGULAR in infer_properties(product)


class TestSolverEquivalence:
    @pytest.mark.parametrize("reference_path", [legacy_inference, interning_disabled])
    @given(generalized_chains())
    @_SETTINGS
    def test_gmc_solution_identical_under_both_paths(self, reference_path, expression):
        fast = GMCAlgorithm().solve(expression)
        reference = _solve_uncached(reference_path, expression)
        assert fast.computable == reference.computable
        if reference.computable:
            assert fast.optimal_cost == pytest.approx(reference.optimal_cost)
            assert fast.parenthesization() == reference.parenthesization()
            assert fast.kernel_sequence() == reference.kernel_sequence()

    @given(generalized_chains())
    @_SETTINGS
    def test_exhaustive_solution_identical_under_both_paths(self, expression):
        exhaustive = CompileOptions(prune=False)
        fast = GMCAlgorithm(exhaustive).solve(expression)
        legacy = _solve_uncached(legacy_inference, expression, exhaustive)
        assert fast.computable == legacy.computable
        if legacy.computable:
            assert fast.optimal_cost == pytest.approx(legacy.optimal_cost)
            assert fast.parenthesization() == legacy.parenthesization()

    def test_inferred_temporary_properties_identical(self):
        a = Matrix("A", 6, 6, {Property.SPD})
        b = Matrix("B", 6, 6, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
        c = Matrix("C", 6, 6, {Property.DIAGONAL, Property.NON_SINGULAR})
        chain = Times(a.I, b, c)
        fast = GMCAlgorithm().solve(chain)
        legacy = _solve_uncached(legacy_inference, chain)
        n = fast.length
        for i in range(n):
            for j in range(i + 1, n):
                fast_tmp = fast.tmps[i][j]
                legacy_tmp = legacy.tmps[i][j]
                if fast_tmp is None or legacy_tmp is None:
                    assert fast_tmp is None and legacy_tmp is None
                else:
                    assert fast_tmp.properties == legacy_tmp.properties, (i, j)


class TestMatcherEquivalence:
    """The optimized acceptance path (grouped entries, precomputed slot
    metadata, wildcard-edge pruning) must report exactly the same matches as
    the reference binding path kept from the original implementation."""

    @given(generalized_chains())
    @_SETTINGS
    def test_catalog_matches_identical_under_both_binding_paths(self, expression):
        from repro.kernels import default_catalog
        from repro.matching import legacy_binding

        catalog = default_catalog()
        factors = list(expression.children)
        subjects = [expression] + [
            Times(left, right)
            for left, right in zip(factors, factors[1:])
        ]
        for subject in subjects:
            fast = {
                (kernel.id, substitution)
                for kernel, substitution in catalog.match(subject)
            }
            with legacy_binding():
                reference = {
                    (kernel.id, substitution)
                    for kernel, substitution in catalog.match(
                        subject, use_cache=False
                    )
                }
            assert fast == reference, str(subject)

    @given(generalized_chains())
    @_SETTINGS
    def test_gmc_solution_identical_under_legacy_binding(self, expression):
        from repro.matching import legacy_binding

        fast = GMCAlgorithm().solve(expression)
        reference = _solve_uncached(legacy_binding, expression)
        assert fast.computable == reference.computable
        if reference.computable:
            assert fast.optimal_cost == pytest.approx(reference.optimal_cost)
            assert fast.parenthesization() == reference.parenthesization()
            assert fast.kernel_sequence() == reference.kernel_sequence()


def test_default_engine_is_exposed():
    engine = inference_engine()
    assert isinstance(engine, PropertyInference)
