"""BLAS-style multiplication kernels (levels 1, 2 and 3).

Each kernel family is generated programmatically, one :class:`Kernel` per
transposition/side/structure variant, mirroring the way the real BLAS
interface enumerates its ``side``/``uplo``/``trans`` arguments.  The families
defined here are the multiplication kernels of Table 1 of the paper plus the
vector kernels needed for chains that contain vectors (Section 4 discusses
chains of the form ``M1 ... Mn v1 v2^T``):

=========  ===============================  ==========================
Family     Computes                         Cost (paper conventions)
=========  ===============================  ==========================
GEMM       general ``op(A) op(B)``          ``2 m n k``
TRMM       triangular times general         ``m^2 n``
SYMM       symmetric times general          ``m^2 n``
SYRK       ``A^T A`` / ``A A^T``            ``m^2 k``
DIAGMM     diagonal times general           ``m n``
GEMV       general matrix times vector      ``2 m n``
GEVM       row vector times matrix          ``2 m n``
GER        outer product ``x y^T``          ``m n``
DOT        inner product ``x^T y``          ``2 n``
SCALMM     1x1 operand times matrix         ``m n``
=========  ===============================  ==========================

Efficiency figures (fraction of machine peak, used by the performance cost
metric) reflect the usual behaviour of optimized BLAS: compute-bound level-3
kernels run near peak, memory-bound level-2/level-1 kernels run far below.
"""

from __future__ import annotations

from typing import List

from ..algebra.operators import Times, Transpose
from ..matching.patterns import Pattern, Substitution
from . import flops, helpers
from .kernel import Kernel

#: Default efficiency (fraction of peak) per kernel family.
EFFICIENCY = {
    "GEMM": 0.90,
    "TRMM": 0.80,
    "SYMM": 0.80,
    "SYRK": 0.82,
    "DIAGMM": 0.05,
    "GEMV": 0.06,
    "GEVM": 0.06,
    "GER": 0.04,
    "DOT": 0.03,
    "SCALMM": 0.04,
}


def _np_operand(placeholder: str, code: str) -> str:
    """NumPy spelling of a wrapped operand inside a template."""
    if helpers.is_transposed_code(code):
        return placeholder + ".T"
    return placeholder


def _trans_char(code: str) -> str:
    return "T" if helpers.is_transposed_code(code) else "N"


# ---------------------------------------------------------------------------
# GEMM: the universal matrix-matrix product (no structure requirements).
# ---------------------------------------------------------------------------

def build_gemm_kernels() -> List[Kernel]:
    kernels = []
    for left in ("N", "T"):
        for right in ("N", "T"):
            pattern_expr, _, _ = helpers.binary_pattern(left, right)

            def cost(substitution: Substitution, left=left, right=right) -> float:
                m, k, n = helpers.product_dims(substitution, left, right)
                return flops.gemm(m, n, k)

            kernels.append(
                Kernel(
                    id=f"gemm_{left.lower()}{right.lower()}",
                    display_name="GEMM",
                    pattern=Pattern(pattern_expr, name=f"GEMM_{left}{right}"),
                    operands=("X", "Y"),
                    cost=cost,
                    efficiency=EFFICIENCY["GEMM"],
                    julia_template=(
                        f"gemm!('{_trans_char(left)}', '{_trans_char(right)}', "
                        "1.0, {X}, {Y}, 0.0, {out})"
                    ),
                    numpy_template=(
                        "{out} = " + _np_operand("{X}", left) + " @ " + _np_operand("{Y}", right)
                    ),
                    level=3,
                    description="general matrix-matrix product",
                )
            )
    return kernels


# ---------------------------------------------------------------------------
# TRMM: triangular matrix times general matrix, either side.
# ---------------------------------------------------------------------------

def build_trmm_kernels() -> List[Kernel]:
    kernels = []
    for side in ("L", "R"):
        for uplo in ("lower", "upper"):
            for tri_op in ("N", "T"):
                for other_op in ("N", "T"):
                    if side == "L":
                        left, right = tri_op, other_op
                        constraint = helpers.triangular("X", uplo)
                    else:
                        left, right = other_op, tri_op
                        constraint = helpers.triangular("Y", uplo)
                    pattern_expr, _, _ = helpers.binary_pattern(left, right)

                    def cost(
                        substitution: Substitution, left=left, right=right, side=side
                    ) -> float:
                        m, k, n = helpers.product_dims(substitution, left, right)
                        if side == "L":
                            return flops.trmm(m, n)
                        return flops.trmm(n, m)

                    uplo_char = "L" if uplo == "lower" else "U"
                    kernels.append(
                        Kernel(
                            id=f"trmm_{side.lower()}_{uplo}_{tri_op.lower()}{other_op.lower()}",
                            display_name="TRMM",
                            pattern=Pattern(
                                pattern_expr,
                                constraints=(constraint,),
                                name=f"TRMM_{side}_{uplo}_{tri_op}{other_op}",
                            ),
                            operands=("X", "Y"),
                            cost=cost,
                            efficiency=EFFICIENCY["TRMM"],
                            julia_template=(
                                f"trmm!('{side}', '{uplo_char}', '{_trans_char(tri_op)}', 'N', "
                                "1.0, " + ("{X}, {Y}" if side == "L" else "{Y}, {X}") + ")"
                            ),
                            numpy_template=(
                                "{out} = "
                                + _np_operand("{X}", left)
                                + " @ "
                                + _np_operand("{Y}", right)
                            ),
                            level=3,
                            description="triangular matrix times general matrix",
                        )
                    )
    return kernels


# ---------------------------------------------------------------------------
# SYMM: symmetric matrix times general matrix, either side.
# ---------------------------------------------------------------------------

def build_symm_kernels() -> List[Kernel]:
    kernels = []
    for side in ("L", "R"):
        for other_op in ("N", "T"):
            if side == "L":
                left, right = "N", other_op
                constraints = (helpers.symmetric("X"), helpers.not_diagonal("X"))
            else:
                left, right = other_op, "N"
                constraints = (helpers.symmetric("Y"), helpers.not_diagonal("Y"))
            pattern_expr, _, _ = helpers.binary_pattern(left, right)

            def cost(substitution: Substitution, left=left, right=right, side=side) -> float:
                m, k, n = helpers.product_dims(substitution, left, right)
                if side == "L":
                    return flops.symm(m, n)
                return flops.symm(n, m)

            kernels.append(
                Kernel(
                    id=f"symm_{side.lower()}_{other_op.lower()}",
                    display_name="SYMM",
                    pattern=Pattern(
                        pattern_expr, constraints=constraints, name=f"SYMM_{side}_{other_op}"
                    ),
                    operands=("X", "Y"),
                    cost=cost,
                    efficiency=EFFICIENCY["SYMM"],
                    julia_template=(
                        f"symm!('{side}', 'L', 1.0, "
                        + ("{X}, {Y}" if side == "L" else "{Y}, {X}")
                        + ", 0.0, {out})"
                    ),
                    numpy_template=(
                        "{out} = " + _np_operand("{X}", left) + " @ " + _np_operand("{Y}", right)
                    ),
                    level=3,
                    description="symmetric matrix times general matrix",
                )
            )
    return kernels


# ---------------------------------------------------------------------------
# SYRK: A^T A and A A^T (non-linear patterns: the same wildcard twice).
# ---------------------------------------------------------------------------

def build_syrk_kernels() -> List[Kernel]:
    kernels = []
    for trans in ("T", "N"):
        x = helpers.operand_wildcard("X")
        if trans == "T":
            pattern_expr = Times(Transpose(x), x)
        else:
            pattern_expr = Times(x, Transpose(x))

        def cost(substitution: Substitution, trans=trans) -> float:
            operand = substitution["X"]
            rows = operand.rows or 1
            columns = operand.columns or 1
            if trans == "T":
                return flops.syrk(columns, rows)
            return flops.syrk(rows, columns)

        kernels.append(
            Kernel(
                id=f"syrk_{trans.lower()}",
                display_name="SYRK",
                pattern=Pattern(
                    pattern_expr,
                    constraints=(helpers.not_vector("X"),),
                    name=f"SYRK_{trans}",
                ),
                operands=("X",),
                cost=cost,
                efficiency=EFFICIENCY["SYRK"],
                julia_template=f"syrk!('L', '{trans}', 1.0, {{X}}, 0.0, {{out}})",
                numpy_template=(
                    "{out} = {X}.T @ {X}" if trans == "T" else "{out} = {X} @ {X}.T"
                ),
                level=3,
                description="symmetric rank-k update (Gram matrix)",
            )
        )
    return kernels


# ---------------------------------------------------------------------------
# DIAGMM: diagonal matrix times general matrix (either side).
# ---------------------------------------------------------------------------

def build_diagmm_kernels() -> List[Kernel]:
    kernels = []
    for side in ("L", "R"):
        for other_op in ("N", "T"):
            if side == "L":
                left, right = "N", other_op
                constraints = (helpers.diagonal("X"), helpers.not_scalar("X"))
            else:
                left, right = other_op, "N"
                constraints = (helpers.diagonal("Y"), helpers.not_scalar("Y"))
            pattern_expr, _, _ = helpers.binary_pattern(left, right)

            def cost(substitution: Substitution, left=left, right=right) -> float:
                m, _, n = helpers.product_dims(substitution, left, right)
                return flops.diagmm(m, n)

            # Row (side L) or column (side R) scaling by the diagonal: m*n
            # work instead of a dense GEMM.  On side L a 1-D vector is
            # reshaped to a column first, so it cannot broadcast to n x n.
            if side == "L":
                numpy_template = (
                    "{out} = np.diagonal({X})[:, None] * "
                    + _np_operand("{Y}", right)
                    + ".reshape(len({X}), -1)"
                )
            else:
                numpy_template = "{out} = " + _np_operand("{X}", left) + " * np.diagonal({Y})"

            kernels.append(
                Kernel(
                    id=f"diagmm_{side.lower()}_{other_op.lower()}",
                    display_name="DIAGMM",
                    pattern=Pattern(
                        pattern_expr, constraints=constraints, name=f"DIAGMM_{side}_{other_op}"
                    ),
                    operands=("X", "Y"),
                    cost=cost,
                    efficiency=EFFICIENCY["DIAGMM"],
                    julia_template=(
                        "{out} = Diagonal("
                        + ("{X}" if side == "L" else "{Y}")
                        + ") * "
                        + ("{Y}" if side == "L" else "{X}")
                    ),
                    numpy_template=numpy_template,
                    level=3,
                    description="diagonal matrix scaling of a general matrix",
                )
            )
    return kernels


# ---------------------------------------------------------------------------
# Vector kernels: GEMV, GEVM, GER, DOT, SCALMM.
# ---------------------------------------------------------------------------

def build_gemv_kernels() -> List[Kernel]:
    kernels = []
    for left in ("N", "T"):
        pattern_expr, _, _ = helpers.binary_pattern(left, "N")

        def cost(substitution: Substitution, left=left) -> float:
            m, k, _ = helpers.product_dims(substitution, left, "N")
            return flops.gemv(m, k)

        kernels.append(
            Kernel(
                id=f"gemv_{left.lower()}",
                display_name="GEMV",
                pattern=Pattern(
                    pattern_expr,
                    constraints=(helpers.not_vector("X"), helpers.column_vector("Y")),
                    name=f"GEMV_{left}",
                ),
                operands=("X", "Y"),
                cost=cost,
                efficiency=EFFICIENCY["GEMV"],
                julia_template=(
                    f"gemv!('{_trans_char(left)}', 1.0, {{X}}, {{Y}}, 0.0, {{out}})"
                ),
                numpy_template="{out} = " + _np_operand("{X}", left) + " @ {Y}",
                level=2,
                description="general matrix-vector product",
            )
        )
    return kernels


def build_gevm_kernels() -> List[Kernel]:
    """Row-vector times matrix: ``x^T A`` and ``r A`` for a row vector ``r``."""
    kernels = []
    variants = [
        ("gevm_t", "T", "N", (helpers.column_vector("X"), helpers.not_vector("Y"))),
        ("gevm_tt", "T", "T", (helpers.column_vector("X"), helpers.not_vector("Y"))),
        ("gevm_n", "N", "N", (helpers.row_vector("X"), helpers.not_vector("Y"))),
        ("gevm_nt", "N", "T", (helpers.row_vector("X"), helpers.not_vector("Y"))),
    ]
    for kernel_id, left, right, constraints in variants:

        def cost(substitution: Substitution, left=left, right=right) -> float:
            _, k, n = helpers.product_dims(substitution, left, right)
            return flops.gemv(k, n)

        kernels.append(
            Kernel(
                id=kernel_id,
                display_name="GEMV",
                pattern=Pattern(
                    helpers.binary_pattern(left, right)[0],
                    constraints=constraints,
                    name=kernel_id.upper(),
                ),
                operands=("X", "Y"),
                cost=cost,
                efficiency=EFFICIENCY["GEVM"],
                julia_template=(
                    "gemv!('T', 1.0, " + _np_operand("{Y}", right) + ", {X}, 0.0, {out})"
                ),
                numpy_template=(
                    "{out} = " + _np_operand("{X}", left) + " @ " + _np_operand("{Y}", right)
                ),
                level=2,
                description="row vector times matrix",
            )
        )
    return kernels


def build_ger_kernels() -> List[Kernel]:
    """Outer products ``x y^T`` (and the already-row-shaped variant)."""
    kernels = []
    variants = [
        ("ger_nt", "N", "T", (helpers.column_vector("X"), helpers.column_vector("Y"))),
        ("ger_nn", "N", "N", (helpers.column_vector("X"), helpers.row_vector("Y"))),
    ]
    for kernel_id, left, right, constraints in variants:

        def cost(substitution: Substitution, left=left, right=right) -> float:
            m, _, n = helpers.product_dims(substitution, left, right)
            return flops.ger(m, n)

        kernels.append(
            Kernel(
                id=kernel_id,
                display_name="GER",
                pattern=Pattern(
                    helpers.binary_pattern(left, right)[0],
                    constraints=constraints,
                    name=kernel_id.upper(),
                ),
                operands=("X", "Y"),
                cost=cost,
                efficiency=EFFICIENCY["GER"],
                julia_template="ger!(1.0, {X}, {Y}, {out})",
                numpy_template=(
                    "{out} = " + _np_operand("{X}", left) + " @ " + _np_operand("{Y}", right)
                ),
                level=2,
                description="outer product of two vectors",
            )
        )
    return kernels


def build_dot_kernels() -> List[Kernel]:
    """Inner products ``x^T y``."""
    kernels = []
    variants = [
        ("dot_t", "T", "N", (helpers.column_vector("X"), helpers.column_vector("Y"))),
        ("dot_n", "N", "N", (helpers.row_vector("X"), helpers.column_vector("Y"))),
    ]
    for kernel_id, left, right, constraints in variants:

        def cost(substitution: Substitution, left=left, right=right) -> float:
            _, k, _ = helpers.product_dims(substitution, left, right)
            return flops.dot(k)

        kernels.append(
            Kernel(
                id=kernel_id,
                display_name="DOT",
                pattern=Pattern(
                    helpers.binary_pattern(left, right)[0],
                    constraints=constraints,
                    name=kernel_id.upper(),
                ),
                operands=("X", "Y"),
                cost=cost,
                efficiency=EFFICIENCY["DOT"],
                julia_template="{out} = dot({X}, {Y})",
                numpy_template=(
                    "{out} = " + _np_operand("{X}", left) + " @ " + _np_operand("{Y}", right)
                ),
                level=1,
                description="inner product of two vectors",
            )
        )
    return kernels


def build_scal_kernels() -> List[Kernel]:
    """Multiplication by a 1x1 operand (scalar intermediate results)."""
    kernels = []
    variants = [
        ("scal_left", "N", "N", (helpers.scalar("X"),)),
        ("scal_right", "N", "N", (helpers.scalar("Y"), helpers.not_scalar("X"))),
        ("scal_right_t", "T", "N", (helpers.scalar("Y"), helpers.not_scalar("X"))),
        ("scal_left_t", "N", "T", (helpers.scalar("X"), helpers.not_scalar("Y"))),
    ]
    for kernel_id, left, right, constraints in variants:

        def cost(substitution: Substitution, kernel_id=kernel_id, left=left, right=right) -> float:
            m, k, n = helpers.product_dims(substitution, left, right)
            if "left" in kernel_id:
                return flops.scalmm(k, n)
            return flops.scalmm(m, k)

        kernels.append(
            Kernel(
                id=kernel_id,
                display_name="SCAL",
                pattern=Pattern(
                    helpers.binary_pattern(left, right)[0],
                    constraints=constraints,
                    name=kernel_id.upper(),
                ),
                operands=("X", "Y"),
                cost=cost,
                efficiency=EFFICIENCY["SCALMM"],
                julia_template="{out} = {X} .* {Y}",
                numpy_template=(
                    "{out} = " + _np_operand("{X}", left) + " * " + _np_operand("{Y}", right)
                ),
                level=1,
                description="multiplication by a 1x1 (scalar) operand",
            )
        )
    return kernels


def build_multiplication_kernels() -> List[Kernel]:
    """All BLAS-style multiplication kernels of the default catalog."""
    kernels: List[Kernel] = []
    kernels.extend(build_gemm_kernels())
    kernels.extend(build_trmm_kernels())
    kernels.extend(build_symm_kernels())
    kernels.extend(build_syrk_kernels())
    kernels.extend(build_diagmm_kernels())
    kernels.extend(build_gemv_kernels())
    kernels.extend(build_gevm_kernels())
    kernels.extend(build_ger_kernels())
    kernels.extend(build_dot_kernels())
    kernels.extend(build_scal_kernels())
    return kernels
