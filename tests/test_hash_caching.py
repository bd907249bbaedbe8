"""Tests for the expression identity caches and the hash-consing layer.

Expressions cache their structural ``_key()`` tuple and hash at construction
(:meth:`Expression._prime_identity_cache`); the interner maps structurally
equal expressions onto one canonical object.  These tests pin down the
invariants the rest of the system relies on: cached identity equals
recomputed identity, equality/hashing semantics are unchanged, and interned
construction is referentially transparent.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from repro.algebra import (
    ExpressionInterner,
    Inverse,
    InverseTranspose,
    Matrix,
    Property,
    Temporary,
    Times,
    Transpose,
    Vector,
    default_interner,
    intern,
)
from repro.algebra.operators import Plus
from repro.matching.patterns import Wildcard
from test_property_based import generalized_chains

_SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _sample_expressions():
    a = Matrix("A", 8, 8, {Property.SPD})
    b = Matrix("B", 8, 5)
    l = Matrix("L", 5, 5, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
    v = Vector("v", 5)
    return [
        a,
        b,
        l,
        v,
        Temporary(8, 5, {Property.FULL_RANK}, origin=Times(a, b)),
        Transpose(b),
        Inverse(a),
        InverseTranspose(l),
        Times(a, b, l),
        Times(Inverse(a), b),
        Plus(a, Transpose(a)),
        Times(Transpose(b), a, b),
    ]


class TestIdentityCaches:
    def test_cached_key_equals_recomputed_key(self):
        for expr in _sample_expressions():
            assert expr.structural_key() == expr._key()
            # The cache is sticky: repeated calls return the same object.
            assert expr.structural_key() is expr.structural_key()

    def test_cached_hash_equals_uncached_formula(self):
        for expr in _sample_expressions():
            assert hash(expr) == hash((type(expr).__name__, expr._key()))

    def test_caches_are_primed_at_construction(self):
        for expr in _sample_expressions():
            assert hasattr(expr, "_key_cache")
            assert hasattr(expr, "_hash_cache")

    def test_structurally_equal_copies_hash_and_compare_equal(self):
        a1 = Matrix("A", 8, 8, {Property.SPD})
        a2 = Matrix("A", 8, 8, {Property.SPD})
        assert a1 == a2 and hash(a1) == hash(a2)
        t1, t2 = Times(a1, a1.T), Times(a2, a2.T)
        assert t1 == t2 and hash(t1) == hash(t2)
        assert Times(a1, a1) != Times(a1, a1.I)
        # Different leaf type with identical fields must stay distinct.
        tmp = Temporary(8, 8, {Property.SPD}, name="A")
        assert tmp != a1

    def test_wildcard_uses_lazy_cache_path(self):
        wild = Wildcard("X")
        assert hash(wild) == hash(Wildcard("X"))
        assert wild.structural_key() == ("X",)
        pattern_node = Times(wild, Wildcard("Y"))
        assert pattern_node == Times(Wildcard("X"), Wildcard("Y"))

    @given(generalized_chains())
    @_SETTINGS
    def test_random_chain_nodes_have_consistent_caches(self, expression):
        for node in expression.preorder():
            assert node.structural_key() == node._key()
            assert hash(node) == hash((type(node).__name__, node._key()))


class TestInterning:
    def test_interned_construction_returns_identical_objects(self):
        interner = ExpressionInterner()
        a1 = Matrix("A", 8, 8, {Property.SPD})
        a2 = Matrix("A", 8, 8, {Property.SPD})
        assert interner.intern(a1) is interner.intern(a2)
        chain1 = Times(a1, Transpose(a1))
        chain2 = Times(a2, Transpose(a2))
        assert interner.intern(chain1) is interner.intern(chain2)

    def test_interned_node_holds_canonical_children(self):
        interner = ExpressionInterner()
        a = interner.intern(Matrix("A", 4, 4))
        b = interner.intern(Matrix("B", 4, 4))
        product = interner.intern(Times(Matrix("A", 4, 4), Matrix("B", 4, 4)))
        assert product.children[0] is a
        assert product.children[1] is b

    def test_interning_preserves_structure_and_text(self):
        for expr in _sample_expressions():
            interner = ExpressionInterner()
            canonical = interner.intern(expr)
            assert canonical == expr
            assert str(canonical) == str(expr)
            assert canonical.shape == expr.shape

    def test_distinct_expressions_stay_distinct(self):
        interner = ExpressionInterner()
        a = interner.intern(Matrix("A", 4, 4))
        b = interner.intern(Matrix("B", 4, 4))
        assert a is not b
        assert interner.intern(Times(a, b)) is not interner.intern(Times(b, a))

    def test_module_level_intern_uses_default_interner(self):
        a = intern(Matrix("InternMe", 3, 3))
        assert intern(Matrix("InternMe", 3, 3)) is a
        assert default_interner().intern(Matrix("InternMe", 3, 3)) is a

    def test_table_reset_keeps_interning_sound(self):
        interner = ExpressionInterner(max_entries=2)
        a = interner.intern(Matrix("A", 4, 4))
        interner.intern(Matrix("B", 4, 4))
        interner.intern(Matrix("C", 4, 4))  # triggers the wholesale reset
        again = interner.intern(Matrix("A", 4, 4))
        assert again == a  # identity may differ after a reset, equality may not
