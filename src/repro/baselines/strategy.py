"""The generic library-strategy simulator.

Every library/language the paper compares against (Section 4) is modeled as
an :class:`EvaluationStrategy` that deterministically maps a generalized
matrix chain to a kernel program, the way that library would evaluate the
expression:

* a *parenthesization policy* (left-to-right for Matlab/Julia/Eigen/Blaze,
  the size heuristic for Armadillo, vector-aware right association for
  Blaze);
* *inverse handling*: naive variants invert explicitly (``inv(A)*B``),
  recommended variants solve linear systems (``A\\B``);
* *property visibility*: which structural properties the library's type
  system (Julia types, Eigen views, Blaze adaptors, Armadillo trimat/sympd,
  Matlab's runtime inspection) makes available when kernels are selected.

The simulator reuses the kernel catalog and the pattern matcher, so baseline
programs are built from exactly the same kernels as GMC programs and can be
costed and executed identically -- the comparison isolates the *decisions*
(parenthesization, solve vs. invert, specialization), which is what the
paper's Fig. 8/9 measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..algebra.expression import Expression, Matrix, Temporary
from ..algebra.inference import infer_properties
from ..algebra.interning import intern
from ..algebra.operators import Inverse, InverseTranspose, Times, Transpose
from ..algebra.properties import Property
from ..algebra.simplify import as_chain, unary_decomposition, wrap_leaf
from ..cost.metrics import CostMetric, FlopCount
from ..kernels.catalog import KernelCatalog, default_catalog
from ..kernels.kernel import Kernel, KernelCall, Program
from ..matching.patterns import Substitution
from . import parenthesizers


class StrategyError(RuntimeError):
    """Raised when a strategy cannot map a chain onto the kernel catalog."""


#: Structural properties (beyond shape bookkeeping) that a library can "see".
STRUCTURAL_PROPERTIES = frozenset(
    {
        Property.LOWER_TRIANGULAR,
        Property.UPPER_TRIANGULAR,
        Property.DIAGONAL,
        Property.SYMMETRIC,
        Property.SPD,
        Property.SPSD,
        Property.IDENTITY,
        Property.ORTHOGONAL,
        Property.PERMUTATION,
        Property.UNIT_DIAGONAL,
        Property.BANDED,
        Property.TRIDIAGONAL,
        Property.ZERO,
    }
)

#: Non-structural bookkeeping properties that every library sees trivially.
SHAPE_PROPERTIES = frozenset(
    {
        Property.SQUARE,
        Property.VECTOR,
        Property.SCALAR,
        Property.NON_SINGULAR,
        Property.FULL_RANK,
    }
)

ALL_STRUCTURAL = STRUCTURAL_PROPERTIES


@dataclass(frozen=True)
class EvaluationStrategy:
    """Configuration of one simulated library implementation.

    Attributes
    ----------
    name:
        Machine-readable identifier (``"julia_naive"``).
    label:
        The short label used in the paper's figures (``"Jl n"``).
    library:
        Library family name (``"Julia"``), used for grouping in reports.
    parenthesization:
        Key into :data:`repro.baselines.parenthesizers.PARENTHESIZERS`.
    explicit_inversion:
        ``True`` for naive variants (``inv(A)``), ``False`` for recommended
        variants (linear-system solves).
    product_properties:
        Properties visible when choosing multiplication kernels.
    solve_properties:
        Properties visible when choosing solve kernels (recommended variants)
        or explicit-inversion kernels (naive variants).
    description:
        One-line description used in reports.
    """

    name: str
    label: str
    library: str
    parenthesization: str = "left_to_right"
    explicit_inversion: bool = False
    product_properties: FrozenSet[Property] = frozenset()
    solve_properties: FrozenSet[Property] = frozenset()
    description: str = ""

    def __post_init__(self) -> None:
        if self.parenthesization not in parenthesizers.PARENTHESIZERS:
            raise ValueError(f"unknown parenthesization policy {self.parenthesization!r}")

    # ------------------------------------------------------------------ API
    def build_program(
        self,
        chain: Expression,
        catalog: Optional[KernelCatalog] = None,
        metric: Optional[CostMetric] = None,
    ) -> Program:
        """Map *chain* to the kernel program this library would execute."""
        builder = _StrategyProgramBuilder(
            strategy=self,
            catalog=catalog if catalog is not None else default_catalog(),
            metric=metric if metric is not None else FlopCount(),
        )
        return builder.build(chain)

    def __str__(self) -> str:
        return self.label


class _StrategyProgramBuilder:
    """Builds the kernel program of one strategy for one chain."""

    def __init__(
        self, strategy: EvaluationStrategy, catalog: KernelCatalog, metric: CostMetric
    ) -> None:
        self.strategy = strategy
        self.catalog = catalog
        self.metric = metric
        self.calls: List[KernelCall] = []

    # ----------------------------------------------------------------- build
    def build(self, chain: Expression) -> Program:
        factors = list(as_chain(chain))
        if self.strategy.explicit_inversion:
            factors = [self._resolve_inverse(factor) for factor in factors]
        if len(factors) == 1:
            output = self._only_factor_output(factors[0])
            return Program(
                calls=self.calls,
                output=output,
                expression=chain,
                strategy=self.strategy.name,
            )
        shapes = [(factor.rows, factor.columns) for factor in factors]
        policy = parenthesizers.PARENTHESIZERS[self.strategy.parenthesization]
        tree = policy(shapes)
        outputs: Dict[object, Expression] = {}
        result: Optional[Expression] = None
        for left_tree, right_tree in parenthesizers.tree_products(tree):
            left = outputs.get(_key(left_tree))
            if left is None:
                left = factors[left_tree]  # type: ignore[index]
            right = outputs.get(_key(right_tree))
            if right is None:
                right = factors[right_tree]  # type: ignore[index]
            result = self._emit_product(left, right)
            outputs[_key((left_tree, right_tree))] = result
        return Program(
            calls=self.calls,
            output=result,
            expression=chain,
            strategy=self.strategy.name,
        )

    # ------------------------------------------------------------- inversion
    def _resolve_inverse(self, factor: Expression) -> Expression:
        """Naive strategies: replace ``A^-1`` by an explicit inversion call."""
        if not isinstance(factor, (Inverse, InverseTranspose)):
            return factor
        leaf, transposed, _ = unary_decomposition(factor)
        masked = self._masked(leaf, self.strategy.solve_properties)
        expr = intern(Inverse(masked))
        kernel, substitution = self._select_kernel(expr)
        properties = infer_properties(expr) & (
            self.strategy.product_properties | SHAPE_PROPERTIES
        )
        output = Temporary(
            rows=leaf.rows,
            columns=leaf.columns,
            properties=properties,
            origin=expr,
        )
        self._record(kernel, substitution, output, expr)
        return Transpose(output) if transposed else output

    # -------------------------------------------------------------- products
    def _emit_product(self, left: Expression, right: Expression) -> Expression:
        expr = intern(Times(self._mask_factor(left), self._mask_factor(right)))
        kernel, substitution = self._select_kernel(expr)
        properties = infer_properties(expr) & (
            self.strategy.product_properties | SHAPE_PROPERTIES
        )
        output = Temporary(
            rows=expr.rows,
            columns=expr.columns,
            properties=properties,
            origin=expr,
        )
        self._record(kernel, substitution, output, expr)
        return output

    def _only_factor_output(self, factor: Expression) -> Optional[Matrix]:
        if isinstance(factor, Matrix):
            return factor
        return None

    # -------------------------------------------------------------- plumbing
    def _mask_factor(self, factor: Expression) -> Expression:
        """Hide the properties the library cannot see, preserving the wrapper."""
        if isinstance(factor, Matrix):
            return self._masked(factor, self.strategy.product_properties)
        if isinstance(factor, (Transpose, Inverse, InverseTranspose)):
            leaf, transposed, inverted = unary_decomposition(factor)
            visible = (
                self.strategy.solve_properties if inverted else self.strategy.product_properties
            )
            return wrap_leaf(self._masked(leaf, visible), transposed, inverted)
        raise StrategyError(f"unexpected chain factor {factor}")

    def _masked(self, leaf: Matrix, visible: FrozenSet[Property]) -> Matrix:
        kept = (leaf.properties & visible) | (leaf.properties & SHAPE_PROPERTIES)
        if kept == leaf.properties:
            return leaf
        # Masked copies recur for every product the strategy emits; interning
        # dedupes them so inference over masked operands memoizes by identity.
        return intern(Matrix(leaf.name, leaf.rows, leaf.columns, kept))

    def _select_kernel(self, expr: Expression) -> Tuple[Kernel, Substitution]:
        matches = self.catalog.match(expr)
        if not matches:
            raise StrategyError(
                f"strategy {self.strategy.name} cannot compute {expr} with the catalog"
            )
        best = None
        best_key = None
        for kernel, substitution in matches:
            cost = self.metric.kernel_cost(kernel, substitution)
            key = (cost, -len(kernel.pattern.constraints), kernel.id)
            if best_key is None or key < best_key:
                best_key = key
                best = (kernel, substitution)
        return best

    def _record(
        self,
        kernel: Kernel,
        substitution: Substitution,
        output: Matrix,
        expr: Expression,
    ) -> None:
        self.calls.append(
            KernelCall(
                kernel=kernel,
                substitution=substitution,
                output=output,
                expression=expr,
                flops=kernel.flops(substitution),
                cost=self.metric.kernel_cost(kernel, substitution),
            )
        )


def _key(tree: object) -> object:
    """Hashable identity of a parenthesization sub-tree."""
    if isinstance(tree, int):
        return tree
    left, right = tree
    return (_key(left), _key(right))
