"""Tests for symbolic property inference (paper Section 3.2, Fig. 5/6).

Each ``is_*`` check below asks the shipped engine (:func:`has_property`)
and asserts that the Fig. 6 predicate of ``reference_inference.py`` agrees
on the same expression.
"""

from repro.algebra import (
    IdentityMatrix,
    Inverse,
    InverseTranspose,
    Matrix,
    Plus,
    Property,
    Times,
    Transpose,
    ZeroMatrix,
    has_property,
    infer_properties,
    properties_after_inverse,
    properties_after_transpose,
)
from reference_inference import PREDICATES


def _engine_check(prop):
    def check(expr):
        answer = has_property(expr, prop)
        assert answer == PREDICATES[prop](expr), (str(expr), prop)
        return answer

    return check


is_banded = _engine_check(Property.BANDED)
is_diagonal = _engine_check(Property.DIAGONAL)
is_full_rank = _engine_check(Property.FULL_RANK)
is_identity = _engine_check(Property.IDENTITY)
is_lower_triangular = _engine_check(Property.LOWER_TRIANGULAR)
is_non_singular = _engine_check(Property.NON_SINGULAR)
is_orthogonal = _engine_check(Property.ORTHOGONAL)
is_spd = _engine_check(Property.SPD)
is_spsd = _engine_check(Property.SPSD)
is_symmetric = _engine_check(Property.SYMMETRIC)
is_unit_diagonal = _engine_check(Property.UNIT_DIAGONAL)
is_upper_triangular = _engine_check(Property.UPPER_TRIANGULAR)
is_zero = _engine_check(Property.ZERO)

L = Matrix("L", 6, 6, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
L2 = Matrix("L2", 6, 6, {Property.LOWER_TRIANGULAR})
U = Matrix("U", 6, 6, {Property.UPPER_TRIANGULAR})
D = Matrix("D", 6, 6, {Property.DIAGONAL, Property.NON_SINGULAR})
S = Matrix("S", 6, 6, {Property.SYMMETRIC})
P = Matrix("P", 6, 6, {Property.SPD})
G = Matrix("G", 6, 6, {Property.NON_SINGULAR})
R = Matrix("R", 6, 4, {Property.FULL_RANK})
Q = Matrix("Q", 6, 6, {Property.ORTHOGONAL})


class TestTriangularInference:
    """The inference rules given explicitly in the paper (Fig. 5/6)."""

    def test_leaf_lower_triangular(self):
        assert is_lower_triangular(L)
        assert not is_lower_triangular(U)

    def test_product_of_lower_triangular_is_lower_triangular(self):
        assert is_lower_triangular(Times(L, L2))

    def test_product_of_lower_and_diagonal_is_lower_triangular(self):
        assert is_lower_triangular(Times(L, D))

    def test_transpose_of_lower_is_upper(self):
        assert is_upper_triangular(Transpose(L))
        assert not is_lower_triangular(Transpose(L))

    def test_transpose_of_upper_is_lower(self):
        assert is_lower_triangular(Transpose(U))

    def test_paper_figure5_example(self):
        """A * B^T with A lower and B upper triangular is lower triangular."""
        a = Matrix("A", 6, 6, {Property.LOWER_TRIANGULAR})
        b = Matrix("B", 6, 6, {Property.UPPER_TRIANGULAR})
        assert is_lower_triangular(Times(a, Transpose(b)))

    def test_inverse_of_lower_is_lower(self):
        assert is_lower_triangular(Inverse(L))

    def test_inverse_transpose_of_lower_is_upper(self):
        assert is_upper_triangular(InverseTranspose(L))

    def test_mixed_product_is_not_triangular(self):
        assert not is_lower_triangular(Times(L, U))
        assert not is_upper_triangular(Times(L, U))

    def test_sum_of_lower_triangular_is_lower_triangular(self):
        assert is_lower_triangular(Plus(L, L2))


class TestDiagonalInference:
    def test_leaf(self):
        assert is_diagonal(D)
        assert not is_diagonal(L)

    def test_product_of_diagonals(self):
        d2 = Matrix("D2", 6, 6, {Property.DIAGONAL})
        assert is_diagonal(Times(D, d2))

    def test_transpose_and_inverse_preserve_diagonality(self):
        assert is_diagonal(Transpose(D))
        assert is_diagonal(Inverse(D))

    def test_diagonal_is_both_triangular(self):
        assert is_lower_triangular(D)
        assert is_upper_triangular(D)


class TestSymmetryInference:
    def test_leaf(self):
        assert is_symmetric(S)
        assert not is_symmetric(L)

    def test_transpose_of_symmetric_is_symmetric(self):
        assert is_symmetric(Transpose(S))

    def test_inverse_of_symmetric_is_symmetric(self):
        assert is_symmetric(Inverse(S))

    def test_gram_product_is_symmetric(self):
        a = Matrix("A", 5, 7)
        assert is_symmetric(Times(Transpose(a), a))
        assert is_symmetric(Times(a, Transpose(a)))

    def test_congruence_preserves_symmetry(self):
        """B S B^T is symmetric -- the L^-1 A L^-T example of Section 3.2."""
        b = Matrix("B", 6, 6)
        assert is_symmetric(Times(b, S, Transpose(b)))

    def test_generalized_eigenproblem_reduction_is_symmetric(self):
        """L^-1 A L^-T with A symmetric is symmetric (Section 3.2)."""
        assert is_symmetric(Times(Inverse(L), S, InverseTranspose(L)))

    def test_product_of_symmetric_matrices_is_not_symmetric_in_general(self):
        s2 = Matrix("S2", 6, 6, {Property.SYMMETRIC})
        assert not is_symmetric(Times(S, s2))

    def test_product_of_diagonals_is_symmetric(self):
        d2 = Matrix("D2", 6, 6, {Property.DIAGONAL})
        assert is_symmetric(Times(D, d2))

    def test_sum_of_symmetric_is_symmetric(self):
        assert is_symmetric(Plus(S, P))


class TestSpdInference:
    def test_leaf(self):
        assert is_spd(P)
        assert not is_spd(S)

    def test_inverse_of_spd_is_spd(self):
        assert is_spd(Inverse(P))

    def test_gram_of_full_rank_is_spd(self):
        """A^T A with A of full column rank is SPD (Section 3.2 example)."""
        a = Matrix("A", 6, 6, {Property.NON_SINGULAR})
        assert is_spd(Times(Transpose(a), a))

    def test_gram_without_rank_information_is_spsd_not_spd(self):
        a = Matrix("A", 6, 4)
        expr = Times(Transpose(a), a)
        assert is_spsd(expr)
        assert not is_spd(expr)

    def test_congruence_with_nonsingular_preserves_spd(self):
        assert is_spd(Times(G, P, Transpose(G)))

    def test_congruence_of_inverse_triangular_preserves_spd(self):
        assert is_spd(Times(Inverse(L), P, InverseTranspose(L)))

    def test_sum_of_spd_is_spd(self):
        p2 = Matrix("P2", 6, 6, {Property.SPD})
        assert is_spd(Plus(P, p2))

    def test_spd_implies_symmetric_via_has_property(self):
        assert has_property(P, Property.SYMMETRIC)


class TestOtherPredicates:
    def test_zero_propagation_through_product(self):
        z = ZeroMatrix(6, 6)
        assert is_zero(Times(z, G))
        assert is_zero(Times(G, z))

    def test_sum_with_zero_is_not_zero(self):
        z = ZeroMatrix(6, 6)
        assert not is_zero(Plus(z, G))

    def test_identity_product(self):
        identity = IdentityMatrix(6)
        assert is_identity(Times(identity, identity))
        assert not is_identity(Times(identity, G))

    def test_orthogonal_product(self):
        q2 = Matrix("Q2", 6, 6, {Property.ORTHOGONAL})
        assert is_orthogonal(Times(Q, q2))
        assert is_orthogonal(Transpose(Q))
        assert is_orthogonal(Inverse(Q))

    def test_non_singular_product(self):
        assert is_non_singular(Times(G, P))
        assert not is_non_singular(Times(G, S))

    def test_full_rank_from_non_singular(self):
        assert is_full_rank(G)
        assert is_full_rank(Inverse(G))

    def test_banded_for_diagonal(self):
        assert is_banded(D)

    def test_unit_diagonal_product(self):
        l_unit = Matrix("L1", 6, 6, {Property.LOWER_TRIANGULAR, Property.UNIT_DIAGONAL})
        l_unit2 = Matrix("L2u", 6, 6, {Property.LOWER_TRIANGULAR, Property.UNIT_DIAGONAL})
        assert is_unit_diagonal(Times(l_unit, l_unit2))
        assert not is_unit_diagonal(Times(l_unit, L))

    def test_unit_diagonal_product_needs_one_triangular_orientation(self):
        """Unit-diagonal factors multiply to a unit-diagonal product only
        when all are triangular the same way (``L U`` has no unit
        diagonal in general)."""
        l_unit = Matrix("Lu", 6, 6, {Property.LOWER_TRIANGULAR, Property.UNIT_DIAGONAL})
        u_unit = Matrix("Uu", 6, 6, {Property.UPPER_TRIANGULAR, Property.UNIT_DIAGONAL})
        unit = Matrix("Du", 6, 6, {Property.UNIT_DIAGONAL})
        for product in (
            Times(l_unit, u_unit),
            Times(u_unit, l_unit),
            Times(l_unit, Transpose(l_unit)),
            Times(l_unit, unit),
            Times(unit, unit),
        ):
            assert not is_unit_diagonal(product), str(product)
            assert Property.UNIT_DIAGONAL not in infer_properties(product)
        assert is_unit_diagonal(Times(u_unit, Transpose(l_unit)))


class TestInferProperties:
    def test_returns_closed_set(self):
        inferred = infer_properties(Times(Transpose(R), R))
        assert Property.SYMMETRIC in inferred
        assert Property.SQUARE in inferred

    def test_vector_and_scalar_bookkeeping(self):
        v = Matrix("v", 6, 1)
        w = Matrix("w", 6, 1)
        assert Property.SCALAR in infer_properties(Times(Transpose(v), w))
        assert Property.VECTOR in infer_properties(Times(S, v))

    def test_triangular_product_inference(self):
        inferred = infer_properties(Times(L, D))
        assert Property.LOWER_TRIANGULAR in inferred

    def test_plain_product_has_no_structural_properties(self):
        a = Matrix("A", 6, 5)
        b = Matrix("B", 5, 7)
        inferred = infer_properties(Times(a, b))
        assert Property.LOWER_TRIANGULAR not in inferred
        assert Property.SYMMETRIC not in inferred


class TestPropertySetTransforms:
    def test_transpose_swaps_triangularity(self):
        props = frozenset({Property.LOWER_TRIANGULAR})
        assert Property.UPPER_TRIANGULAR in properties_after_transpose(props)
        assert Property.LOWER_TRIANGULAR not in properties_after_transpose(props)

    def test_transpose_preserves_symmetric(self):
        props = frozenset({Property.SYMMETRIC})
        assert Property.SYMMETRIC in properties_after_transpose(props)

    def test_inverse_preserves_structure(self):
        props = frozenset({Property.SPD})
        after = properties_after_inverse(props)
        assert Property.SPD in after
        assert Property.NON_SINGULAR in after

    def test_inverse_drops_zero(self):
        after = properties_after_inverse(frozenset({Property.LOWER_TRIANGULAR}))
        assert Property.LOWER_TRIANGULAR in after
