"""Decomposition of assignment DAGs into ordered matrix-chain segments.

The GMC solver (:mod:`repro.core.gmc`) eats one
*matrix chain* at a time, but the programs the paper motivates -- the
ensemble Kalman filter, the generalized eigenproblem, Jacobian blocks of a
symbolic model -- are expression *DAGs*: several assignments, later
right-hand sides referencing earlier targets, and sub-expressions (inverses
of non-square products, shared sub-products) that no single chain can
express.  This module is the bridge: it normalizes an arbitrary assignment
DAG into an ordered list of :class:`ChainSegment` values, each of which *is*
a canonical chain the unchanged solvers accept.

Decomposition performs three rewrites, in one pass over the program:

* **reference resolution** -- a :class:`~repro.algebra.expression.Reference`
  leaf (the DSL's spelling of "use the result of an earlier assignment") is
  replaced by the producing segment's *result operand*: a
  :class:`~repro.algebra.expression.Temporary` named after the segment whose
  properties are **inferred** from the segment's chain, so downstream
  segments see e.g. the symmetry of ``H P H^T`` and match SYMM/SYSV kernels;
* **non-chain extraction** -- a unary operator around a product that cannot
  be pushed to the leaves (``(A B)^-1`` with non-square ``A``, ``B``) makes
  the inner product its own segment; the unary then wraps the segment's
  square result operand, which is a valid chain factor;
* **hash-consed common-subexpression identification** -- segments are keyed
  by their interned canonical chain (and source) expression; a sub-expression
  that appears again -- as a later assignment's right-hand side or inside
  another extraction -- reuses the existing segment's result operand instead
  of being solved twice.

Segments come out in dependency order (a segment only references results of
earlier segments), so the per-segment kernel programs concatenate into one
topologically ordered program (see
:meth:`repro.frontend.compiler.CompilationResult.stitched_program`).  Each
segment is solved independently, which is what lets every segment hit the
session's plan cache on its own signature -- the amortization lever for
structurally-sibling DAG traffic (Jacobian workloads).

A :class:`~repro.frontend.compiler.Compiler` session counts what each plan
holds -- segments, synthetic segments, CSE reuses -- in its ``segments``
telemetry layer (:mod:`repro.telemetry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..algebra.dsl import Program as ParsedProgram
from ..algebra.expression import (
    Expression,
    Matrix,
    Reference,
    ShapeError,
    Temporary,
    signature_digest,
)
from ..algebra.inference import infer_properties
from ..algebra.interning import intern
from ..algebra.operators import Inverse, InverseTranspose, Plus, Times, Transpose
from ..algebra.simplify import NormalizationError, is_chain_factor, normalize
from .gmc import UncomputableChainError

__all__ = [
    "ChainSegment",
    "SegmentPlan",
    "UncomputableSegmentError",
    "decompose_program",
]

_UNARY_TYPES = (Transpose, Inverse, InverseTranspose)


class UncomputableSegmentError(UncomputableChainError):
    """DAG-level counterpart of :class:`UncomputableChainError`.

    Raised when a segment of a decomposed program cannot be computed --
    because its sub-expression has no kernel mapping (sums: no addition
    kernels are registered), because it references an undefined target, or
    because the chain solver reported the segment's chain uncomputable.  The
    message and the ``segment`` / ``signature`` attributes identify *which*
    segment and *which* name-abstracted sub-expression signature failed, not
    just a DP cell index.
    """


@dataclass
class ChainSegment:
    """One chain-shaped unit of work of a decomposed program.

    Attributes
    ----------
    target:
        Result name: the assignment target for user segments, a synthesized
        ``_sN`` name for extracted/CSE segments.
    expression:
        The canonical chain expression to solve.  Leaves are declared
        operands or result operands of *earlier* segments.
    source:
        The sub-expression as written (references unresolved) -- kept for
        diagnostics and reports.
    result:
        The operand later segments (and the stitched program) use for this
        segment's value: a named :class:`Temporary` with inferred properties
        for multi-factor chains, the single chain factor itself otherwise
        (trivial segments are aliases, not computations).
    synthetic:
        ``True`` for segments the decomposition created (extractions, CSE),
        ``False`` for user assignment targets.
    uses:
        How many later occurrences reused this segment's result through
        common-subexpression identification (references excluded for
        trivial segments -- an alias reuse saves no solve).
    """

    target: str
    expression: Expression
    source: Expression
    result: Expression
    synthetic: bool
    uses: int = 0

    @property
    def factors(self) -> Tuple[Expression, ...]:
        if isinstance(self.expression, Times):
            return self.expression.children
        return (self.expression,)

    @property
    def trivial(self) -> bool:
        """A single-factor segment: an alias, nothing for the DP to solve."""
        return len(self.factors) < 2

    def __str__(self) -> str:
        kind = "synthetic" if self.synthetic else "target"
        return f"segment {self.target} ({kind}): {self.expression}"


@dataclass
class SegmentPlan:
    """The ordered chain segments of one assignment program."""

    operands: Dict[str, Matrix]
    segments: List[ChainSegment] = field(default_factory=list)

    @property
    def targets(self) -> Tuple[str, ...]:
        """User assignment targets, in program order."""
        return tuple(s.target for s in self.segments if not s.synthetic)

    @property
    def synthetic_count(self) -> int:
        return sum(1 for s in self.segments if s.synthetic)

    @property
    def cse_reuses(self) -> int:
        """Total sub-expression occurrences served by an existing segment."""
        return sum(s.uses for s in self.segments)

    def segment(self, target: str) -> ChainSegment:
        """The segment producing *target* (latest definition wins)."""
        for seg in reversed(self.segments):
            if seg.target == target:
                return seg
        available = ", ".join(repr(s.target) for s in self.segments) or "<none>"
        raise KeyError(f"no segment {target!r}; available: {available}")

    def __iter__(self):
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)


class _Decomposer:
    """One-pass DAG-to-segments rewriter (see module docstring)."""

    def __init__(self, program: ParsedProgram) -> None:
        self.operands: Dict[str, Matrix] = dict(program.operands)
        self.segments: List[ChainSegment] = []
        #: Latest segment per assignment target (reference resolution).
        self.by_target: Dict[str, ChainSegment] = {}
        #: Hash-consed CSE map: interned canonical (source or chain)
        #: expression -> producing segment.
        self.by_source: Dict[Expression, ChainSegment] = {}
        self._used_names = set(self.operands) | {t for t, _ in program.assignments}
        self._synth_counter = 0

    # ------------------------------------------------------------------- API
    def run(self, program: ParsedProgram) -> SegmentPlan:
        for target, expr in program.assignments:
            chain = self._chainify(expr, target)
            seg = self._make_segment(target, chain, expr, synthetic=False)
            self.by_target[target] = seg
        return SegmentPlan(operands=self.operands, segments=self.segments)

    # ------------------------------------------------------------- rewriting
    def _chainify(self, expr: Expression, target: str) -> Expression:
        """Rewrite *expr* into chain form, creating segments as needed."""
        reused = self._reuse(expr)
        if reused is not None:
            return reused
        if isinstance(expr, Reference):
            producer = self.by_target.get(expr.name)
            if producer is None:
                raise UncomputableSegmentError(
                    f"segment {target!r}: reference to undefined target "
                    f"{expr.name!r} (targets must be assigned before use)",
                    segment=target,
                )
            if not producer.trivial:
                producer.uses += 1
            return producer.result
        if isinstance(expr, Matrix):
            return expr
        if isinstance(expr, Plus):
            raise UncomputableSegmentError(
                f"segment {target!r}: sum sub-expression {expr} (signature "
                f"{signature_digest(expr)}) cannot be decomposed into matrix-"
                f"chain segments: no addition kernels are registered",
                segment=target,
                signature=expr.signature(),
            )
        if isinstance(expr, Times):
            return Times(*[self._chainify(child, target) for child in expr.children])
        if isinstance(expr, _UNARY_TYPES):
            inner = self._chainify(expr.operand, target)
            rebuilt = type(expr)(inner)
            pushed = self._push_down(rebuilt)
            if pushed is not None:
                return pushed
            # The unary cannot be distributed over the inner product (e.g.
            # ``(A B)^-1`` with non-square factors): the product becomes its
            # own segment and the unary wraps its square result operand.
            producer = self._extract(inner)
            return normalize(type(expr)(producer.result))
        raise UncomputableSegmentError(
            f"segment {target!r}: unsupported node {type(expr).__name__} in "
            f"{expr} (signature {signature_digest(expr)})",
            segment=target,
            signature=expr.signature(),
        )

    def _reuse(self, expr: Expression) -> Optional[Expression]:
        """The existing segment result for *expr*, when one was registered."""
        seg = self.by_source.get(intern(expr))
        if seg is None:
            return None
        if not seg.trivial:
            seg.uses += 1
        return seg.result

    @staticmethod
    def _push_down(rebuilt: Expression) -> Optional[Expression]:
        """Normalize *rebuilt*; ``None`` when it does not reach chain form."""
        try:
            normalized = normalize(rebuilt)
        except (ShapeError, NormalizationError):
            return None
        factors = (
            normalized.children if isinstance(normalized, Times) else (normalized,)
        )
        if all(is_chain_factor(f) for f in factors):
            return normalized
        return None

    def _extract(self, inner: Expression) -> ChainSegment:
        seg = self.by_source.get(intern(inner))
        if seg is not None:
            if not seg.trivial:
                seg.uses += 1
            return seg
        return self._make_segment(
            self._fresh_name(), inner, inner, synthetic=True
        )

    # ------------------------------------------------------------- segments
    def _make_segment(
        self, target: str, chain: Expression, source: Expression, synthetic: bool
    ) -> ChainSegment:
        factors = chain.children if isinstance(chain, Times) else (chain,)
        if len(factors) >= 2:
            result: Expression = Temporary(
                rows=chain.rows,
                columns=chain.columns,
                properties=infer_properties(intern(chain)),
                origin=chain,
                name=target,
            )
        else:
            result = factors[0]
        seg = ChainSegment(
            target=target,
            expression=chain,
            source=source,
            result=result,
            synthetic=synthetic,
        )
        self.segments.append(seg)
        if len(factors) >= 2:
            # Hash-consed CSE registration: later occurrences of either the
            # written form (references unresolved) or the canonical chain
            # reuse this segment's result instead of being solved again.
            self.by_source.setdefault(intern(source), seg)
            self.by_source.setdefault(intern(chain), seg)
        return seg

    def _fresh_name(self) -> str:
        while True:
            self._synth_counter += 1
            name = f"_s{self._synth_counter}"
            if name not in self._used_names:
                self._used_names.add(name)
                return name


def decompose_program(program: ParsedProgram) -> SegmentPlan:
    """Normalize an assignment DAG into ordered chain segments.

    Raises :class:`UncomputableSegmentError` for programs no segment plan can
    compute (sums, references to undefined targets).  Shape errors in the
    written expressions (e.g. inverting a genuinely non-square
    sub-expression) propagate as
    :class:`~repro.algebra.expression.ShapeError` exactly as they do from the
    expression constructors.
    """
    return _Decomposer(program).run(program)
