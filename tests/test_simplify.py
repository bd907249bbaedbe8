"""Tests for expression normalization into canonical chain form."""

import pytest

from repro.algebra import (
    IdentityMatrix,
    Inverse,
    InverseTranspose,
    Matrix,
    NormalizationError,
    Plus,
    Property,
    Times,
    Transpose,
    as_chain,
    is_chain_factor,
    normalize,
    unary_decomposition,
    wrap_leaf,
)
from repro.algebra.simplify import invert, transpose

A = Matrix("A", 4, 4, {Property.NON_SINGULAR})
B = Matrix("B", 4, 4, {Property.NON_SINGULAR})
C = Matrix("C", 4, 6)
S = Matrix("S", 4, 4, {Property.SYMMETRIC})
D = Matrix("D", 4, 4, {Property.DIAGONAL})


class TestTransposeRewrites:
    def test_double_transpose_cancels(self):
        assert normalize(Transpose(Transpose(A))) == A

    def test_transpose_of_product_reverses(self):
        assert normalize(Transpose(Times(A, C))) == Times(Transpose(C), Transpose(A))

    def test_transpose_of_inverse_becomes_inverse_transpose(self):
        assert normalize(Transpose(Inverse(A))) == InverseTranspose(A)

    def test_transpose_of_symmetric_leaf_is_dropped(self):
        assert normalize(Transpose(S)) == S

    def test_transpose_of_diagonal_leaf_is_dropped(self):
        assert normalize(Transpose(D)) == D

    def test_transpose_of_sum(self):
        assert normalize(Transpose(Plus(A, B))) == Plus(Transpose(A), Transpose(B))

    def test_transpose_helper_on_plain_leaf(self):
        assert transpose(C) == Transpose(C)


class TestInverseRewrites:
    def test_double_inverse_cancels(self):
        assert normalize(Inverse(Inverse(A))) == A

    def test_inverse_of_transpose_becomes_inverse_transpose(self):
        assert normalize(Inverse(Transpose(A))) == InverseTranspose(A)

    def test_inverse_of_product_reverses(self):
        assert normalize(Inverse(Times(A, B))) == Times(Inverse(B), Inverse(A))

    def test_inverse_transpose_of_transpose(self):
        assert normalize(InverseTranspose(Transpose(A))) == Inverse(A)

    def test_inverse_transpose_of_symmetric_becomes_inverse(self):
        assert normalize(InverseTranspose(S)) == Inverse(S)

    def test_invert_helper(self):
        assert invert(Inverse(A)) == A


class TestProductNormalization:
    def test_nested_products_flatten(self):
        expr = Times(Times(A, B), Times(A, C))
        assert normalize(expr).children == (A, B, A, C)

    def test_identity_factors_are_dropped(self):
        identity = IdentityMatrix(4)
        assert normalize(Times(A, identity, C)) == Times(A, C)

    def test_identity_only_product_keeps_factors(self):
        identity = IdentityMatrix(4)
        normalized = normalize(Times(identity, identity))
        assert normalized.shape == (4, 4)

    def test_single_remaining_factor_after_identity_removal(self):
        identity = IdentityMatrix(4)
        assert normalize(Times(identity, C)) == C

    def test_transposed_and_inverted_identity_factors_are_dropped(self):
        identity = IdentityMatrix(4)
        expr = Times(A, Transpose(identity), Inverse(identity), C)
        assert normalize(expr) == Times(A, C)

    def test_normalize_does_not_grow_the_inference_memo(self):
        # Requests arrive under fresh operand names; the declared-property
        # checks of normalization must not memoize one entry per name.
        from repro.algebra import inference_engine

        before = inference_engine().stats()
        for index in range(5):
            sym = Matrix(f"Sym{index}", 4, 4, {Property.SYMMETRIC})
            identity = IdentityMatrix(4)
            normalize(Times(Transpose(sym), Inverse(identity), Transpose(C.T)))
        after = inference_engine().stats()
        assert after["size"] == before["size"]
        assert after["inferred_size"] == before["inferred_size"]

    def test_mixed_unary_normalization(self):
        expr = Transpose(Times(Inverse(A), C))
        normalized = normalize(expr)
        assert normalized == Times(Transpose(C), InverseTranspose(A))


class TestAsChain:
    def test_plain_chain(self):
        assert as_chain(Times(A, B, C)) == (A, B, C)

    def test_chain_with_wrapped_factors(self):
        factors = as_chain(Times(Inverse(A), C))
        assert factors == (Inverse(A), C)

    def test_nested_expression_is_normalized_first(self):
        factors = as_chain(Transpose(Times(A, C)))
        assert factors == (Transpose(C), Transpose(A))

    def test_single_matrix(self):
        assert as_chain(A) == (A,)

    def test_sum_raises(self):
        with pytest.raises(NormalizationError):
            as_chain(Plus(A, B))

    def test_factor_with_inner_sum_raises(self):
        with pytest.raises(NormalizationError):
            as_chain(Times(Plus(A, B), C))


class TestFactorHelpers:
    def test_is_chain_factor(self):
        assert is_chain_factor(A)
        assert is_chain_factor(Transpose(A))
        assert is_chain_factor(Inverse(A))
        assert is_chain_factor(InverseTranspose(A))
        assert not is_chain_factor(Times(A, B))
        assert not is_chain_factor(Transpose(Times(A, B)))

    def test_unary_decomposition_plain(self):
        assert unary_decomposition(A) == (A, False, False)

    def test_unary_decomposition_transpose(self):
        assert unary_decomposition(Transpose(A)) == (A, True, False)

    def test_unary_decomposition_inverse(self):
        assert unary_decomposition(Inverse(A)) == (A, False, True)

    def test_unary_decomposition_inverse_transpose(self):
        assert unary_decomposition(InverseTranspose(A)) == (A, True, True)

    def test_unary_decomposition_rejects_compound(self):
        with pytest.raises(NormalizationError):
            unary_decomposition(Times(A, B))

    def test_wrap_leaf_roundtrip(self):
        for transposed in (False, True):
            for inverted in (False, True):
                wrapped = wrap_leaf(A, transposed, inverted)
                assert unary_decomposition(wrapped) == (A, transposed, inverted)


class TestNormalizationIdempotence:
    def test_normalize_is_idempotent_on_examples(self):
        examples = [
            Times(A, B, C),
            Transpose(Times(A, C)),
            Inverse(Times(A, B)),
            Times(Inverse(A), C),
            InverseTranspose(Transpose(A)),
        ]
        for expr in examples:
            once = normalize(expr)
            assert normalize(once) == once
