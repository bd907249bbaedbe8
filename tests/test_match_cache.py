"""Tests for the signature-keyed kernel-match cache and DP pruning.

Covers the shape/property signature, cache hit/re-binding semantics, the
invalidation story (catalog extension and predicate-registry mutation must
never serve stale kernels), LRU bounding, and end-to-end equivalence of the
cached + pruned GMC pipeline against the uncached, unpruned reference loop.
"""

import math

import pytest

from repro.algebra import Matrix, Property, Temporary, Times, Transpose, Vector
from repro.core import GMCAlgorithm
from repro.experiments.workload import ChainGenerator
from repro.kernels.catalog import KernelCatalog, build_default_kernels, default_catalog
from repro.kernels.kernel import Kernel
from repro.kernels.helpers import binary_pattern
from repro.matching import MatchCache, Pattern, Wildcard
from repro.matching.patterns import Substitution
from repro.options import CompileOptions


def _fresh_catalog(**kwargs) -> KernelCatalog:
    """A catalog with a private match cache (the process-wide default
    catalog's cache would leak state between tests)."""
    return KernelCatalog(build_default_kernels(**kwargs), name="test")


def _random_chains(count, seed, min_length=4, max_length=9):
    generator = ChainGenerator(
        min_length=min_length,
        max_length=max_length,
        size_choices=(40, 80, 120, 200),
        vector_probability=0.10,
        square_probability=0.45,
        transpose_probability=0.25,
        inverse_probability=0.25,
        property_probability=0.60,
        seed=seed,
    )
    return generator.generate_many(count)


class TestSignature:
    def test_names_are_abstracted(self):
        a = Matrix("A", 10, 20)
        b = Matrix("B", 10, 20)
        assert a.signature() == b.signature()

    def test_shape_is_not(self):
        assert Matrix("A", 10, 20).signature() != Matrix("A", 20, 10).signature()

    def test_properties_are_not(self):
        plain = Matrix("A", 8, 8)
        spd = Matrix("A", 8, 8, {Property.SPD})
        assert plain.signature() != spd.signature()

    def test_temporary_and_matrix_coincide(self):
        # Repeated solves rebuild temporaries under fresh names; the
        # signature must identify them with any same-shape/property leaf.
        tmp = Temporary(12, 7, properties={Property.FULL_RANK})
        mat = Matrix("X", 12, 7, {Property.FULL_RANK})
        assert tmp.signature() == mat.signature()

    def test_leaf_equality_pattern_is_captured(self):
        # SYRK-style non-linearity: A^T A has a repeated leaf, A^T B does not.
        a = Matrix("A", 9, 4)
        b = Matrix("B", 9, 4)
        assert Times(a.T, a).signature() != Times(a.T, b).signature()
        # ... but two *renamings* of the same equality pattern coincide.
        assert Times(a.T, a).signature() == Times(b.T, b).signature()

    def test_operator_skeleton_is_captured(self):
        a = Matrix("A", 6, 6)
        b = Matrix("B", 6, 6)
        assert Times(a, b).signature() != Times(Transpose(a), b).signature()

    def test_wildcards_keep_their_identity(self):
        assert Wildcard("x").signature() != Wildcard("y").signature()

    def test_cached_on_node(self):
        expr = Times(Matrix("A", 5, 5), Matrix("B", 5, 5))
        assert expr.signature() is expr.signature()


class TestMatchCacheRebinding:
    def test_hit_rebinds_to_new_subject(self):
        catalog = _fresh_catalog()
        a, b = Matrix("A", 10, 8), Matrix("B", 8, 6)
        c, d = Matrix("C", 10, 8), Matrix("D", 8, 6)
        first = catalog.match(Times(a, b))
        assert catalog.match_cache.misses >= 1
        second = catalog.match(Times(c, d))
        assert catalog.match_cache.hits >= 1
        assert [k.id for k, _ in first] == [k.id for k, _ in second]
        # The re-bound substitutions reference the *new* operands.
        for _, substitution in second:
            for value in substitution.values():
                assert value in (c, d)

    def test_cached_results_equal_uncached(self):
        catalog = _fresh_catalog()
        subjects = []
        for problem in _random_chains(10, seed=31):
            factors = list(problem.expression.children)
            for left, right in zip(factors, factors[1:]):
                subjects.append(Times(left, right))
        # Warm the cache, then compare every subject against the direct walk.
        for subject in subjects:
            catalog.match(subject)
        for subject in subjects:
            cached = catalog.match(subject)
            direct = catalog.match(subject, use_cache=False)
            assert [(k.id, dict(s)) for k, s in cached] == [
                (k.id, dict(s)) for k, s in direct
            ]

    def test_nonlinear_pattern_not_served_to_nonrepeated_subject(self):
        catalog = _fresh_catalog()
        a = Matrix("A", 9, 4)
        b = Matrix("B", 9, 4)
        syrk = {k.display_name for k, _ in catalog.match(Times(a.T, a))}
        plain = {k.display_name for k, _ in catalog.match(Times(a.T, b))}
        assert "SYRK" in syrk
        assert "SYRK" not in plain

    def test_wildcard_subjects_are_not_cached(self):
        catalog = _fresh_catalog()
        subject = Times(Wildcard("x"), Matrix("B", 8, 6))
        catalog.match(subject)
        # A wildcard is not a concrete operand; no entry may be stored for it.
        assert len(catalog.match_cache) == 0


class TestMatchCacheInvalidation:
    def test_catalog_extension_is_not_served_stale_kernels(self):
        catalog = _fresh_catalog()
        c, b = Matrix("C", 8, 8), Matrix("B", 8, 8)
        subject = Times(c, b)
        catalog.match(subject)  # cache the kernel list for this signature
        pattern, _, _ = binary_pattern("N", "N")
        extra = Kernel(
            id="custom_mm",
            display_name="CUSTOMMM",
            pattern=Pattern(pattern, name="custom"),
            operands=("X", "Y"),
            cost=lambda s: 1.0,
            efficiency=0.9,
            julia_template="{out} = {X} * {Y}",
            numpy_template="{out} = {X} @ {Y}",
        )
        extended = catalog.extended([extra])
        names = {k.display_name for k, _ in extended.match(Times(c, b))}
        assert "CUSTOMMM" in names
        # The original catalog is immutable and unaffected.
        names = {k.display_name for k, _ in catalog.match(Times(c, b))}
        assert "CUSTOMMM" not in names

    def test_net_extension_flushes_by_version(self):
        catalog = _fresh_catalog()
        c, b = Matrix("C", 8, 8), Matrix("B", 8, 8)
        catalog.match(Times(c, b))
        assert len(catalog.match_cache) > 0
        pattern, _, _ = binary_pattern("N", "N")
        extra = Kernel(
            id="custom_mm2",
            display_name="CUSTOMMM2",
            pattern=Pattern(pattern, name="custom2"),
            operands=("X", "Y"),
            cost=lambda s: 1.0,
            efficiency=0.9,
            julia_template="{out} = {X} * {Y}",
            numpy_template="{out} = {X} @ {Y}",
        )
        # Mutating the underlying net directly (not via ``extended``) bumps
        # its version; the cache must flush rather than serve the old list.
        catalog._net.add(extra.pattern, extra)
        names = {k.display_name for k, _ in catalog.match(Times(c, b))}
        assert "CUSTOMMM2" in names

    def test_opaque_constraints_bypass_the_cache(self):
        # A user constraint may observe what the signature abstracts away
        # (here: the operand *name*); such patterns must never be served
        # from cache.  Stock constraints are marked ``structural_predicate``
        # and stay cacheable.
        from repro.matching.patterns import Constraint

        pattern, _, _ = binary_pattern("N", "N")
        name_sensitive = Constraint(
            lambda substitution: substitution["X"].name == "A", "X is named A"
        )
        kernel = Kernel(
            id="named_mm",
            display_name="NAMEDMM",
            pattern=Pattern(pattern, constraints=[name_sensitive], name="named"),
            operands=("X", "Y"),
            cost=lambda s: 1.0,
            efficiency=0.9,
            julia_template="{out} = {X} * {Y}",
            numpy_template="{out} = {X} @ {Y}",
        )
        catalog = _fresh_catalog().extended([kernel])
        assert catalog._net.has_opaque_predicates
        a, c, b = Matrix("A", 8, 8), Matrix("C", 8, 8), Matrix("B", 8, 8)
        hit = {k.display_name for k, _ in catalog.match(Times(a, b))}
        miss = {k.display_name for k, _ in catalog.match(Times(c, b))}
        assert "NAMEDMM" in hit
        assert "NAMEDMM" not in miss
        # The stock catalog carries no opaque callables.
        assert not _fresh_catalog()._net.has_opaque_predicates

    def test_concrete_leaf_patterns_bypass_the_cache(self):
        anchor = Matrix("ANCHOR", 8, 8)
        pattern = Pattern(Times(anchor, Wildcard("Y")), name="anchored")
        kernel = Kernel(
            id="anchored_mm",
            display_name="ANCHORED",
            pattern=pattern,
            operands=("Y",),
            cost=lambda s: 1.0,
            efficiency=0.9,
            julia_template="{out} = {Y}",
            numpy_template="{out} = {Y}",
        )
        catalog = _fresh_catalog().extended([kernel])
        assert catalog._net.has_concrete_leaf_patterns
        b = Matrix("B", 8, 8)
        other = Matrix("OTHER", 8, 8)  # same signature as ANCHOR, different name
        hit = {k.display_name for k, _ in catalog.match(Times(anchor, b))}
        miss = {k.display_name for k, _ in catalog.match(Times(other, b))}
        assert "ANCHORED" in hit
        assert "ANCHORED" not in miss


class TestMatchCacheBounds:
    def test_lru_eviction_keeps_working_set(self):
        catalog = _fresh_catalog()
        cache = catalog.match_cache
        cache.max_entries = 8
        hot = Times(Matrix("H1", 3, 3), Matrix("H2", 3, 3))
        catalog.match(hot)
        for size in range(4, 40):
            catalog.match(Times(Matrix("A", size, size), Matrix("B", size, size)))
            catalog.match(hot)  # keep the hot signature recent
        assert len(cache) <= cache.max_entries
        hits_before = cache.hits
        catalog.match(Times(Matrix("X", 3, 3), Matrix("Y", 3, 3)))
        assert cache.hits == hits_before + 1  # hot entry survived the churn

    def test_hit_rate_reporting(self):
        catalog = _fresh_catalog()
        a, b = Matrix("A", 10, 8), Matrix("B", 8, 6)
        catalog.match(Times(a, b))
        catalog.match_cache.reset_stats()
        catalog.match(Times(Matrix("C", 10, 8), Matrix("D", 8, 6)))
        assert catalog.match_cache.hit_rate == pytest.approx(1.0)


class TestEndToEndEquivalence:
    """The acceptance property: cached + pruned solves must be identical to
    the uncached, unpruned reference path."""

    @pytest.mark.parametrize("seed", [11, 23, 57])
    def test_bottom_up_solutions_identical(self, seed):
        catalog = _fresh_catalog()
        fast = GMCAlgorithm(CompileOptions(catalog=catalog))
        # match_cache=False also bypasses the per-solve decision memo.
        reference = GMCAlgorithm(
            CompileOptions(catalog=catalog, prune=False, match_cache=False)
        )
        for problem in _random_chains(8, seed=seed):
            got = fast.solve(problem.expression)
            # Solve twice so the second pass runs against a warm cache.
            got_warm = fast.solve(problem.expression)
            want = reference.solve(problem.expression)
            assert got.computable == got_warm.computable == want.computable
            if want.computable:
                assert float(got.optimal_cost) == pytest.approx(float(want.optimal_cost))
                assert float(got_warm.optimal_cost) == pytest.approx(
                    float(want.optimal_cost)
                )
                assert got.parenthesization() == want.parenthesization()
                assert got_warm.parenthesization() == want.parenthesization()
                assert got.kernel_sequence() == want.kernel_sequence()

    def test_exhaustive_solutions_identical(self):
        """The prune=False arm with every cache on vs the same arm with every
        cache off."""
        catalog = _fresh_catalog()
        fast = GMCAlgorithm(CompileOptions(catalog=catalog, prune=False))
        reference = GMCAlgorithm(
            CompileOptions(catalog=catalog, prune=False, match_cache=False)
        )
        for problem in _random_chains(8, seed=71):
            got = fast.solve(problem.expression)
            want = reference.solve(problem.expression)
            assert got.computable == want.computable
            if want.computable:
                assert float(got.optimal_cost) == pytest.approx(float(want.optimal_cost))
                assert got.parenthesization() == want.parenthesization()

    def test_uncomputable_chain_stays_uncomputable(self):
        catalog = _fresh_catalog(include_combined_inverse=False)
        a = Matrix("A", 8, 8, {Property.NON_SINGULAR})
        b = Matrix("B", 8, 8, {Property.NON_SINGULAR})
        solution = GMCAlgorithm(CompileOptions(catalog=catalog)).solve(a.I * b.I)
        assert not solution.computable
        assert math.isinf(solution.optimal_cost)
        # Dead cells materialize no temporary.
        assert solution.tmps[0][1] is None

    @pytest.mark.parametrize("length", [8, 12])
    def test_repeated_solve_hits_the_cache(self, length):
        catalog = _fresh_catalog()
        algorithm = GMCAlgorithm(CompileOptions(catalog=catalog))
        problem = _random_chains(1, seed=5, min_length=length, max_length=length)[0]
        algorithm.solve(problem.expression)
        catalog.match_cache.reset_stats()
        algorithm.solve(problem.expression)
        assert catalog.match_cache.hits > 0
        assert catalog.match_cache.hit_rate > 0.9


class TestDefaultCatalogNormalization:
    def test_call_shapes_share_one_catalog(self):
        assert default_catalog() is default_catalog(True, True)
        assert default_catalog() is default_catalog(include_combined_inverse=True)
        assert default_catalog() is default_catalog(
            include_combined_inverse=True, include_specialized=True
        )

    def test_distinct_configurations_stay_distinct(self):
        assert default_catalog() is not default_catalog(include_specialized=False)
        assert default_catalog(False, True) is default_catalog(
            include_combined_inverse=False
        )
