"""Chain algorithms: the classic matrix chain DP and the GMC algorithm.

* :mod:`repro.core.mcp` -- the standard matrix chain problem (Section 2):
  bottom-up DP, memoized DP, brute-force oracle, heuristics.
* :mod:`repro.core.gmc` -- the Generalized Matrix Chain algorithm
  (Section 3): the paper's contribution.
* :mod:`repro.core.decision_memo` -- the per-solve, signature-keyed memo
  of per-split kernel decisions the GMC loop consults.
* :mod:`repro.core.segments` -- decomposition of assignment DAGs
  (multi-assignment programs, references, non-chain subtrees, shared
  subexpressions) into ordered chain segments the solvers accept.

Convenience functions
---------------------

:func:`solve_chain` and :func:`generate_program` wrap the most common use:
hand in an expression (or DSL text plus operand definitions), get back the
solved chain or the generated kernel program.
"""

from typing import Optional, Union

from ..algebra.expression import Expression
from ..cost.metrics import CostMetric
from ..kernels.catalog import KernelCatalog
from ..kernels.kernel import Program
from ..options import CompileOptions
from .gmc import GMCAlgorithm, GMCSolution, UncomputableChainError
from .segments import (
    ChainSegment,
    SegmentPlan,
    UncomputableSegmentError,
    decompose_program,
)
from .mcp import (
    MatrixChainDP,
    brute_force_optimal_cost,
    catalan_number,
    chin_heuristic,
    left_to_right_cost,
    matrix_chain_order,
    memoized_matrix_chain,
    parenthesization_cost,
    right_to_left_cost,
)


def _convenience_options(
    metric: Union[CostMetric, str, None],
    catalog: Optional[KernelCatalog],
    options: Optional[CompileOptions],
) -> CompileOptions:
    if options is not None:
        if metric is not None or catalog is not None:
            raise TypeError("pass either options or metric=/catalog=, not both")
        return options
    return CompileOptions(
        metric="flops" if metric is None else metric, catalog=catalog
    )


def solve_chain(
    chain: Expression,
    metric: Union[CostMetric, str, None] = None,
    catalog: Optional[KernelCatalog] = None,
    *,
    options: Optional[CompileOptions] = None,
) -> GMCSolution:
    """Solve a generalized matrix chain and return the full solution object."""
    return GMCAlgorithm(_convenience_options(metric, catalog, options)).solve(chain)


def generate_program(
    chain: Expression,
    metric: Union[CostMetric, str, None] = None,
    catalog: Optional[KernelCatalog] = None,
    *,
    options: Optional[CompileOptions] = None,
) -> Program:
    """Solve a generalized matrix chain and return the optimal kernel program."""
    return GMCAlgorithm(_convenience_options(metric, catalog, options)).generate(chain)


__all__ = [
    "GMCAlgorithm",
    "GMCSolution",
    "UncomputableChainError",
    "UncomputableSegmentError",
    "ChainSegment",
    "SegmentPlan",
    "decompose_program",
    "MatrixChainDP",
    "matrix_chain_order",
    "memoized_matrix_chain",
    "brute_force_optimal_cost",
    "parenthesization_cost",
    "catalan_number",
    "chin_heuristic",
    "left_to_right_cost",
    "right_to_left_cost",
    "solve_chain",
    "generate_program",
]
