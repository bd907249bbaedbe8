"""Core symbolic expression types: the abstract base class and the leaves.

The GMC algorithm operates on symbolic expression trees (paper Section 3.1).
An expression is either a *leaf* -- a named matrix, vector or scalar with a
size and a set of structural properties -- or a *compound* node built from
the operators defined in :mod:`repro.algebra.operators` (``Times``, ``Plus``,
``Transpose``, ``Inverse``, ``InverseTranspose``).

Expressions are immutable and hashable; structural equality is used
throughout (two ``Matrix`` leaves are equal when they have the same name,
shape and properties).
"""

from __future__ import annotations

import functools
import itertools
from typing import FrozenSet, Iterable, Iterator, Optional, Tuple

from .properties import Property, check_consistency


class ShapeError(ValueError):
    """Raised when operand dimensions do not conform."""


class Expression:
    """Abstract base class for every node of a symbolic expression tree."""

    #: Cached structural identity (``_key_cache``) and hash (``_hash_cache``).
    #: Expressions are immutable, so both are computed at most once; the
    #: constructors of concrete node types prime them eagerly (see
    #: :meth:`_prime_identity_cache`) so that building a parent node reuses
    #: the already-cached hashes of its children instead of re-walking the
    #: whole subtree on every dict lookup.  ``_token_cache`` and
    #: ``_flat_cache`` are reserved for the discrimination net's per-node
    #: trie token and preorder flattening, and ``_sig_cache`` for the
    #: shape/property signature of :meth:`signature` (all computed lazily
    #: on first use).
    __slots__ = ("_key_cache", "_hash_cache", "_token_cache", "_flat_cache", "_sig_cache")

    #: Child expressions (empty tuple for leaves).
    children: Tuple["Expression", ...] = ()

    # ------------------------------------------------------------------ shape
    @property
    def rows(self) -> Optional[int]:
        """Number of rows, or ``None`` when unknown (e.g. for wildcards)."""
        raise NotImplementedError

    @property
    def columns(self) -> Optional[int]:
        """Number of columns, or ``None`` when unknown."""
        raise NotImplementedError

    @property
    def shape(self) -> Tuple[Optional[int], Optional[int]]:
        return (self.rows, self.columns)

    @property
    def is_square(self) -> bool:
        return self.rows is not None and self.rows == self.columns

    @property
    def is_vector(self) -> bool:
        """True when one (but not both) of the dimensions is 1."""
        rows, columns = self.rows, self.columns
        if rows is None or columns is None:
            return False
        return (rows == 1) != (columns == 1)

    @property
    def is_row_vector(self) -> bool:
        return self.rows == 1 and (self.columns or 0) > 1

    @property
    def is_column_vector(self) -> bool:
        return self.columns == 1 and (self.rows or 0) > 1

    @property
    def is_scalar_shaped(self) -> bool:
        return self.rows == 1 and self.columns == 1

    # ------------------------------------------------------------- navigation
    @property
    def is_leaf(self) -> bool:
        return not self.children

    def preorder(self) -> Iterator["Expression"]:
        """Yield this node and all descendants in preorder."""
        yield self
        for child in self.children:
            yield from child.preorder()

    def leaves(self) -> Iterator["Expression"]:
        """Yield the leaf nodes of the tree, left to right."""
        for node in self.preorder():
            if node.is_leaf:
                yield node

    @property
    def size(self) -> int:
        """Number of nodes in the expression tree."""
        return sum(1 for _ in self.preorder())

    @property
    def depth(self) -> int:
        """Number of levels in the expression tree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth for child in self.children)

    # ------------------------------------------------------------ convenience
    @property
    def T(self) -> "Expression":  # noqa: N802 - mirrors numpy/Julia spelling
        """Transpose of this expression (syntactic, not simplified)."""
        from .operators import Transpose

        return Transpose(self)

    @property
    def I(self) -> "Expression":  # noqa: N802, E743 - mathematical spelling
        """Inverse of this expression (syntactic, not simplified)."""
        from .operators import Inverse

        return Inverse(self)

    @property
    def invT(self) -> "Expression":  # noqa: N802
        """Inverse-transpose of this expression."""
        from .operators import InverseTranspose

        return InverseTranspose(self)

    def __mul__(self, other: "Expression") -> "Expression":
        from .operators import Times

        if not isinstance(other, Expression):
            return NotImplemented
        return Times(self, other)

    def __matmul__(self, other: "Expression") -> "Expression":
        return self.__mul__(other)

    def __add__(self, other: "Expression") -> "Expression":
        from .operators import Plus

        if not isinstance(other, Expression):
            return NotImplemented
        return Plus(self, other)

    # -------------------------------------------------------------- identity
    def _key(self) -> Tuple:
        """Structural identity key; subclasses must override."""
        raise NotImplementedError

    def structural_key(self) -> Tuple:
        """The structural identity key, cached after the first computation.

        Equivalent to :meth:`_key` but O(1) amortized; all identity-sensitive
        code (hashing, equality, discrimination-net tokens) should go through
        this accessor rather than calling ``_key`` directly.
        """
        try:
            return self._key_cache
        except AttributeError:
            key = self._key()
            object.__setattr__(self, "_key_cache", key)
            return key

    def _prime_identity_cache(self) -> None:
        """Compute and store the identity key and hash of a finished node.

        Called at the end of every concrete constructor.  Because children
        are always constructed (and primed) before their parent, priming a
        compound node costs O(#children), not O(subtree size).
        """
        key = self._key()
        object.__setattr__(self, "_key_cache", key)
        object.__setattr__(self, "_hash_cache", hash((type(self).__name__, key)))

    def signature(self) -> Tuple:
        """Shape/property signature: a compact, hashable digest of this tree.

        The signature abstracts over *operand names*: it records the operator
        skeleton (node type and arity, in preorder), the dimensions and the
        declared property set of every :class:`Matrix` leaf, and -- crucially
        for non-linear patterns such as SYRK's ``X^T X`` -- the *equality
        pattern* of the leaves, as first-occurrence indices.  Two expressions
        with equal signatures are therefore indistinguishable to any purely
        structural analysis: syntactic kernel matching, shape/property
        constraints and symbolic property inference all produce corresponding
        results on them.  This is the cache key of the signature-keyed
        kernel-match cache (:mod:`repro.matching.match_cache`), which lets
        structurally similar DP cells -- and repeated solves, whose fresh
        temporaries differ only by name -- reuse match results.

        Non-matrix leaves (pattern wildcards) keep their full structural key,
        so distinct patterns never collide.  The result is cached on the node
        (expressions are immutable), so with hash-consed nodes it is computed
        once per canonical subtree.
        """
        try:
            return self._sig_cache
        except AttributeError:
            pass
        leaf_ids: dict = {}
        parts = []
        for node in self.preorder():
            if node.children:
                parts.append((type(node).__name__, len(node.children)))
            elif isinstance(node, Matrix):
                key = node.structural_key()
                index = leaf_ids.setdefault(key, len(leaf_ids))
                parts.append((index, node.rows, node.columns, node.properties))
            else:
                parts.append((type(node).__name__, node.structural_key()))
        signature = tuple(parts)
        object.__setattr__(self, "_sig_cache", signature)
        return signature

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return NotImplemented
        try:
            if self._hash_cache != other._hash_cache:  # type: ignore[attr-defined]
                return False
        except AttributeError:
            pass
        return self.structural_key() == other.structural_key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        try:
            return self._hash_cache
        except AttributeError:
            value = hash((type(self).__name__, self.structural_key()))
            object.__setattr__(self, "_hash_cache", value)
            return value

    def __repr__(self) -> str:
        return str(self)


class Matrix(Expression):
    """A named matrix operand with fixed dimensions and properties.

    Parameters
    ----------
    name:
        Identifier used in generated code and printed expressions.
    rows, columns:
        Dimensions; both must be positive integers.
    properties:
        Iterable of :class:`~repro.algebra.properties.Property` annotations.
        The stored set is the closure under the implication lattice, and
        bookkeeping properties (``SQUARE``, ``VECTOR``, ``SCALAR``) are added
        automatically from the shape.
    """

    __slots__ = ("name", "_rows", "_columns", "properties")

    def __init__(
        self,
        name: str,
        rows: int,
        columns: int,
        properties: Iterable[Property] = (),
    ) -> None:
        if not name:
            raise ValueError("matrix name must be a non-empty string")
        if rows <= 0 or columns <= 0:
            raise ShapeError(
                f"matrix {name!r} must have positive dimensions, got {rows}x{columns}"
            )
        props = set(properties)
        if rows == columns:
            props.add(Property.SQUARE)
        if (rows == 1) != (columns == 1):
            props.add(Property.VECTOR)
        if rows == 1 and columns == 1:
            props.add(Property.SCALAR)
        closed = check_consistency(props)
        if rows != columns:
            non_square = {
                Property.SQUARE,
                Property.DIAGONAL,
                Property.LOWER_TRIANGULAR,
                Property.UPPER_TRIANGULAR,
                Property.SYMMETRIC,
                Property.SPD,
                Property.IDENTITY,
                Property.ORTHOGONAL,
                Property.NON_SINGULAR,
            }
            conflict = closed & non_square
            if conflict:
                names = ", ".join(sorted(p.name for p in conflict))
                raise ShapeError(
                    f"matrix {name!r} is {rows}x{columns} (not square) but was "
                    f"annotated with square-only properties: {names}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_rows", int(rows))
        object.__setattr__(self, "_columns", int(columns))
        object.__setattr__(self, "properties", frozenset(closed))
        self._prime_identity_cache()

    def __setattr__(self, key: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Matrix instances are immutable")

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def columns(self) -> int:
        return self._columns

    def has_property(self, prop: Property) -> bool:
        return prop in self.properties

    def with_properties(self, *extra: Property) -> "Matrix":
        """Return a copy of this matrix with additional properties."""
        return Matrix(
            self.name, self._rows, self._columns, self.properties | set(extra)
        )

    def _key(self) -> Tuple:
        return (self.name, self._rows, self._columns, self.properties)

    def __str__(self) -> str:
        return self.name


class Vector(Matrix):
    """A column vector: an ``n x 1`` matrix.

    The paper treats vectors as matrices with one unit dimension
    (Section 1.1); this subclass only adds a convenient constructor.
    """

    __slots__ = ()

    def __init__(
        self, name: str, length: int, properties: Iterable[Property] = ()
    ) -> None:
        super().__init__(name, length, 1, properties)

    @property
    def length(self) -> int:
        return self.rows


class IdentityMatrix(Matrix):
    """The ``n x n`` identity matrix."""

    __slots__ = ()

    def __init__(self, n: int, name: str = "I") -> None:
        super().__init__(name, n, n, {Property.IDENTITY})


class ZeroMatrix(Matrix):
    """The ``rows x columns`` zero matrix."""

    __slots__ = ()

    def __init__(self, rows: int, columns: int, name: str = "0") -> None:
        props = {Property.ZERO}
        if rows == columns:
            props.add(Property.SYMMETRIC)
        super().__init__(name, rows, columns, props)


class Temporary(Matrix):
    """A compiler-generated temporary operand.

    The GMC algorithm stores symbolic temporaries in the ``tmps`` table
    (paper Fig. 4, line 9: ``create_tmp``).  A temporary behaves exactly like
    a matrix but remembers which sub-expression it stands for, which is
    useful for debugging and for emitting comments in generated code.
    """

    __slots__ = ("origin",)

    _counter = itertools.count(1)

    def __init__(
        self,
        rows: int,
        columns: int,
        properties: Iterable[Property] = (),
        origin: Optional[Expression] = None,
        name: Optional[str] = None,
    ) -> None:
        if name is None:
            name = f"T{next(Temporary._counter)}"
        super().__init__(name, rows, columns, properties)
        object.__setattr__(self, "origin", origin)

    def _key(self) -> Tuple:
        # Identity of a temporary is its name (unique) plus shape; the origin
        # expression is metadata and deliberately excluded.
        return (self.name, self.rows, self.columns, self.properties)

    @classmethod
    def reset_counter(cls) -> None:
        """Reset the global naming counter (used by tests for determinism).

        Temporary identity is name-based and assumes names are never reused;
        resetting the counter breaks that assumption for any canonical nodes
        already held by the process-wide interner, so the intern table is
        dropped along with the counter.
        """
        cls._counter = itertools.count(1)
        from .interning import clear_intern_table

        clear_intern_table()


class Reference(Matrix):
    """A leaf standing for the result of an earlier assignment.

    The DSL front-end (:mod:`repro.algebra.dsl`) emits a ``Reference`` when a
    right-hand side names a previously assigned target: the leaf carries the
    target's *name* and the shape of its defining expression, but no
    properties -- properties of an assignment result are *inferred*, and
    inference belongs to the segment-decomposition layer
    (:mod:`repro.core.segments`), which replaces every ``Reference`` with the
    producing segment's result operand before anything is solved.  Keeping
    the reference a leaf (instead of inlining the defining expression) is
    what preserves the assignment-DAG boundary through ``Times`` flattening.
    """

    __slots__ = ("origin",)

    def __init__(
        self,
        name: str,
        rows: int,
        columns: int,
        origin: Optional[Expression] = None,
    ) -> None:
        super().__init__(name, rows, columns, ())
        object.__setattr__(self, "origin", origin)

    def _key(self) -> Tuple:
        # Identity is the referenced target's name plus shape; the defining
        # expression is metadata (exactly as ``Temporary.origin``).
        return (self.name, self.rows, self.columns, self.properties)


def matrix_properties(expr: Expression) -> FrozenSet[Property]:
    """Return the declared property set of a leaf, or an empty set otherwise."""
    if isinstance(expr, Matrix):
        return expr.properties
    return frozenset()


def _canonical_signature_part(part):
    if isinstance(part, frozenset):
        return tuple(sorted(p.name for p in part))
    if isinstance(part, tuple):
        return tuple(_canonical_signature_part(p) for p in part)
    return part


@functools.lru_cache(maxsize=4096)
def signature_repr(signature: Tuple) -> str:
    """A cross-process-stable repr of a :meth:`Expression.signature` tuple.

    The raw tuple embeds ``frozenset`` property sets whose iteration order
    follows the members' identity hashes -- different in every process --
    so ``repr(signature)`` is only stable *within* one process.  This
    renders every frozenset as a sorted tuple of property names instead,
    making the string safe to compare, hash or merge across the service's
    worker-process boundary (request affinity keys,
    :func:`signature_digest`).
    """
    return repr(_canonical_signature_part(signature))


def signature_digest(expr: Expression) -> str:
    """A short stable digest of :meth:`Expression.signature`.

    Error messages and telemetry need to *name* a sub-expression's
    name-abstracted signature without dumping the full tuple (which grows
    with the chain); the digest is a 12-hex-character SHA-1 prefix of the
    signature's canonical repr (:func:`signature_repr`), stable across
    processes for structurally equal expressions.
    """
    import hashlib

    return hashlib.sha1(
        signature_repr(expr.signature()).encode("utf-8")
    ).hexdigest()[:12]
