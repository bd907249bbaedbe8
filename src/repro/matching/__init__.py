"""Syntactic many-to-one pattern matching (the MatchPy stand-in).

The matcher is used by the kernel catalog to decide which kernels can
compute a given sub-expression, mirroring the role MatchPy plays in the
paper's reference implementation (Section 3.1).
"""

from .discrimination_net import DiscriminationNet
from .match_cache import MatchCache
from .patterns import (
    Constraint,
    Pattern,
    Substitution,
    Wildcard,
    match,
    matches,
    property_constraint,
)

__all__ = [
    "Wildcard",
    "Substitution",
    "Constraint",
    "Pattern",
    "match",
    "matches",
    "property_constraint",
    "DiscriminationNet",
    "MatchCache",
]
