"""Structured BLAS level-2 kernels: TRMV, SYMV, TRSV.

These compute the same mathematical operations as the corresponding level-3
kernels with a single right-hand side (TRMM, SYMM, TRSM with ``n = 1``) and
therefore have identical FLOP counts; they exist as separate catalog entries
because real BLAS exposes them separately, because generated code should call
the vector routine when the operand is a vector, and because their efficiency
characteristics (memory-bound) differ from the level-3 routines.  The GMC
tie-breaking rule (prefer the more constrained kernel at equal cost) selects
them automatically whenever the right-hand side is a vector.
"""

from __future__ import annotations

from typing import List

from ..matching.patterns import Pattern, Substitution
from . import flops, helpers
from .kernel import Kernel

EFFICIENCY = {
    "TRMV": 0.06,
    "SYMV": 0.06,
    "TRSV": 0.05,
}


def build_trmv_kernels() -> List[Kernel]:
    """Triangular matrix times column vector."""
    kernels: List[Kernel] = []
    for uplo in ("lower", "upper"):
        for trans in ("N", "T"):
            pattern_expr, _, _ = helpers.binary_pattern(trans, "N")
            constraints = (
                helpers.triangular("X", uplo),
                helpers.not_diagonal("X"),
                helpers.column_vector("Y"),
            )

            def cost(substitution: Substitution, trans=trans) -> float:
                m, _ = helpers.operand_dims(substitution["X"], trans)
                return flops.trmv(m)

            uplo_char = "L" if uplo == "lower" else "U"
            kernels.append(
                Kernel(
                    id=f"trmv_{uplo}_{trans.lower()}",
                    display_name="TRMV",
                    pattern=Pattern(
                        pattern_expr, constraints=constraints, name=f"TRMV_{uplo}_{trans}"
                    ),
                    operands=("X", "Y"),
                    cost=cost,
                    efficiency=EFFICIENCY["TRMV"],
                    julia_template=(
                        f"trmv!('{uplo_char}', '{trans}', 'N', {{X}}, {{Y}})"
                    ),
                    numpy_template=(
                        "{out} = " + ("{X}.T" if trans == "T" else "{X}") + " @ {Y}"
                    ),
                    level=2,
                    description="triangular matrix-vector product",
                )
            )
    return kernels


def build_symv_kernels() -> List[Kernel]:
    """Symmetric matrix times column vector."""
    pattern_expr, _, _ = helpers.binary_pattern("N", "N")
    constraints = (
        helpers.symmetric("X"),
        helpers.not_diagonal("X"),
        helpers.column_vector("Y"),
    )

    def cost(substitution: Substitution) -> float:
        return flops.symv(substitution["X"].rows or 1)

    return [
        Kernel(
            id="symv",
            display_name="SYMV",
            pattern=Pattern(pattern_expr, constraints=constraints, name="SYMV"),
            operands=("X", "Y"),
            cost=cost,
            efficiency=EFFICIENCY["SYMV"],
            julia_template="symv!('L', 1.0, {X}, {Y}, 0.0, {out})",
            numpy_template="{out} = {X} @ {Y}",
            level=2,
            description="symmetric matrix-vector product",
        )
    ]


def build_trsv_kernels() -> List[Kernel]:
    """Triangular solve with a single right-hand side."""
    kernels: List[Kernel] = []
    for uplo in ("lower", "upper"):
        for code in ("I", "IT"):
            pattern_expr, _, _ = helpers.binary_pattern(code, "N")
            constraints = (
                helpers.triangular("X", uplo),
                helpers.not_diagonal("X"),
                helpers.column_vector("Y"),
            )

            def cost(substitution: Substitution) -> float:
                return flops.trsv(substitution["X"].rows or 1)

            uplo_char = "L" if uplo == "lower" else "U"
            trans_char = "T" if code == "IT" else "N"
            kernels.append(
                Kernel(
                    id=f"trsv_{uplo}_{code.lower()}",
                    display_name="TRSV",
                    pattern=Pattern(
                        pattern_expr, constraints=constraints, name=f"TRSV_{uplo}_{code}"
                    ),
                    operands=("X", "Y"),
                    cost=cost,
                    efficiency=EFFICIENCY["TRSV"],
                    julia_template=f"trsv!('{uplo_char}', '{trans_char}', 'N', {{X}}, {{Y}})",
                    numpy_template=(
                        f"{{out}} = solve_triangular({{X}}, {{Y}}, lower={uplo == 'lower'}"
                        + (", transposed=True" if code == "IT" else "")
                        + ")"
                    ),
                    level=2,
                    description="triangular solve with a single right-hand side",
                )
            )
    return kernels


def build_structured_vector_kernels() -> List[Kernel]:
    """All structured level-2 kernels of the default catalog."""
    kernels: List[Kernel] = []
    kernels.extend(build_trmv_kernels())
    kernels.extend(build_symv_kernels())
    kernels.extend(build_trsv_kernels())
    return kernels
