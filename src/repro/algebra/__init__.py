"""Symbolic linear-algebra expression language.

This package is the expression substrate of the reproduction: matrices and
vectors annotated with structural properties, the operators of the Linnea
grammar (product, sum, transpose, inverse, inverse-transpose), symbolic
property inference, normalization to canonical chain form and a small
textual DSL front-end.
"""

from .expression import (
    Expression,
    IdentityMatrix,
    Matrix,
    Reference,
    ShapeError,
    Temporary,
    Vector,
    ZeroMatrix,
    signature_digest,
    signature_repr,
)
from .inference import (
    PropertyInference,
    clear_inference_cache,
    has_property,
    infer_properties,
    inference_engine,
    properties_after_inverse,
    properties_after_transpose,
)
from .interning import (
    ExpressionInterner,
    clear_intern_table,
    default_interner,
    intern,
)
from .operators import Inverse, InverseTranspose, Plus, Times, Transpose
from .properties import Property, PropertyError, closure, implies, parse_property
from .simplify import (
    NormalizationError,
    as_chain,
    is_chain_factor,
    normalize,
    unary_decomposition,
    wrap_leaf,
)
from .dsl import ParseError, Program, parse_expression, parse_program

__all__ = [
    "Expression",
    "Matrix",
    "Vector",
    "IdentityMatrix",
    "ZeroMatrix",
    "Temporary",
    "Reference",
    "ShapeError",
    "signature_digest",
    "signature_repr",
    "Times",
    "Plus",
    "Transpose",
    "Inverse",
    "InverseTranspose",
    "Property",
    "PropertyError",
    "closure",
    "implies",
    "parse_property",
    "infer_properties",
    "has_property",
    "PropertyInference",
    "inference_engine",
    "clear_inference_cache",
    "ExpressionInterner",
    "intern",
    "default_interner",
    "clear_intern_table",
    "properties_after_transpose",
    "properties_after_inverse",
    "normalize",
    "as_chain",
    "is_chain_factor",
    "unary_decomposition",
    "wrap_leaf",
    "NormalizationError",
    "ParseError",
    "Program",
    "parse_program",
    "parse_expression",
]
