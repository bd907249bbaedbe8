"""Differential tests: the shipped engine and matcher against test oracles.

The memoized engine (:class:`repro.algebra.inference.PropertyInference`)
re-implements the Fig. 6 predicate recursion (kept in
``reference_inference.py``) as one fused bottom-up pass, and the
discrimination net matches every kernel pattern in one walk where the
reference matches one pattern at a time with
:func:`repro.matching.patterns.match` -- the role the one-to-one matcher
plays next to the many-to-one net in MatchPy (Krebber, Barthels &
Bientinesi, arXiv:1710.00077).  These tests pin each pair together: on randomly generated
generalized chains (and every node of their trees) the inferred property
sets and kernel matches must be *identical*, and the GMC algorithm must
produce identical solutions with either reference substituted -- and with
hash-consing turned off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest
from hypothesis import HealthCheck, given, settings

from repro.algebra import (
    Inverse,
    InverseTranspose,
    Matrix,
    Plus,
    Property,
    Times,
    Transpose,
    clear_inference_cache,
    has_property,
    infer_properties,
    inference_engine,
    intern,
)
from repro.algebra.inference import PropertyInference
from repro.algebra.operators import _Compound, _Unary
from repro.core import GMCAlgorithm
from repro.kernels import default_catalog
from repro.matching import Wildcard, match
from repro.options import CompileOptions
from repro.experiments.workload import ChainGenerator
from reference_inference import (
    fig6_inference,
    has_property_legacy,
    identity_interning,
    infer_properties_legacy,
)
from test_property_based import generalized_chains

_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _solve_uncached(reference_path, expression, options=None):
    """Solve *expression* on *reference_path* reusing no result the fast solve
    cached: the process-wide inference memo is dropped, and the match cache
    (and with it the split-decision memo) is off, so every split runs the
    matcher.

    The intern table is left warm on purpose.  It caches no results, the
    ``identity_interning`` arm never reads it, and a table carried across
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

    def test_every_compound_node_type_has_rules(self):
        # The engine has rules for exactly the five operators and gives any
        # other node an empty rule set, so a new operator type fails here
        # until it has rules (and a Fig. 6 case).
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        assert set(subclasses(_Compound)) - {_Unary} == {
            Times, Plus, Transpose, Inverse, InverseTranspose,
        }

    def test_wildcard_leaf_satisfies_no_rule(self):
        wildcard = Wildcard("X")
        assert infer_properties(wildcard) == infer_properties_legacy(wildcard)
        assert PropertyInference().raw_properties(wildcard) == frozenset()


class TestSolverEquivalence:
    @pytest.mark.parametrize("reference_path", [fig6_inference, identity_interning])
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
        legacy = _solve_uncached(fig6_inference, expression, exhaustive)
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
        legacy = _solve_uncached(fig6_inference, chain)
        n = fast.length
        for i in range(n):
            for j in range(i + 1, n):
                fast_tmp = fast.tmps[i][j]
                legacy_tmp = legacy.tmps[i][j]
                if fast_tmp is None or legacy_tmp is None:
                    assert fast_tmp is None and legacy_tmp is None
                else:
                    assert fast_tmp.properties == legacy_tmp.properties, (i, j)


def _match_each_pattern(catalog, subject):
    """Every ``(kernel, substitution)`` whose pattern matches *subject* on
    its own (:func:`repro.matching.patterns.match`)."""
    for kernel in catalog:
        substitution = match(kernel.pattern, subject)
        if substitution is not None:
            yield kernel, substitution


@contextmanager
def one_pattern_at_a_time() -> Iterator[None]:
    """Answer the default catalog's net walks with :func:`_match_each_pattern`."""
    catalog = default_catalog()

    def reference_match(subject):
        for kernel, substitution in _match_each_pattern(catalog, subject):
            yield kernel.pattern, substitution, kernel

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(vars(catalog.net), "match", reference_match)
        yield


def _subjects(expression):
    """The chain itself plus every product of two adjacent factors."""
    factors = list(expression.children)
    return [expression] + [
        Times(left, right) for left, right in zip(factors, factors[1:])
    ]


class TestMatcherEquivalence:
    """The discrimination net (grouped entries, precomputed slot metadata,
    wildcard-edge pruning) must report exactly the matches of matching each
    kernel pattern on its own; the match cache must serve the same set."""

    @given(generalized_chains())
    @_SETTINGS
    def test_catalog_matches_equal_one_pattern_at_a_time(self, expression):
        catalog = default_catalog()
        for subject in _subjects(expression):
            reference = {
                (kernel.id, substitution)
                for kernel, substitution in _match_each_pattern(catalog, subject)
            }
            for use_cache in (False, True):
                net = {
                    (kernel.id, substitution)
                    for kernel, substitution in catalog.match(
                        subject, use_cache=use_cache
                    )
                }
                assert net == reference, (str(subject), use_cache)

    @given(generalized_chains())
    @_SETTINGS
    def test_gmc_solution_identical_under_reference_matcher(self, expression):
        fast = GMCAlgorithm().solve(expression)
        reference = _solve_uncached(one_pattern_at_a_time, expression)
        assert fast.computable == reference.computable
        if reference.computable:
            assert fast.optimal_cost == pytest.approx(reference.optimal_cost)
            assert fast.parenthesization() == reference.parenthesization()
            assert fast.kernel_sequence() == reference.kernel_sequence()

    def test_reference_matcher_replaces_the_net_walk(self):
        # The whole-solve arm above only means something if the solver's
        # kernel lookups really go through the substituted matcher.
        catalog = default_catalog()
        chain = Times(Matrix("A", 6, 6, {Property.SPD}).I, Matrix("B", 6, 4))
        subjects = []
        with one_pattern_at_a_time():
            reference_match = vars(catalog.net)["match"]
            vars(catalog.net)["match"] = lambda subject: (
                subjects.append(subject) or reference_match(subject)
            )
            solution = GMCAlgorithm(CompileOptions(match_cache=False)).solve(chain)
        assert subjects
        assert solution.kernel_sequence()
        assert "match" not in vars(catalog.net)


def test_default_engine_is_exposed():
    engine = inference_engine()
    assert isinstance(engine, PropertyInference)
