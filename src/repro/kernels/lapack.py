"""LAPACK-style kernels: linear-system solves and explicit inversion.

The GMC algorithm never needs to invert a matrix explicitly: an inverted
operand inside a chain is always consumed by a *solve* kernel
(``A^-1 B`` -> TRSM / POSV / SYSV / GESV depending on the structure of
``A``), which is both cheaper and numerically preferable (paper Section 3.3).
Explicit inversion kernels (GETRI, POTRI, TRTRI, DIAGINV) are nevertheless
part of the catalog because the *naive* baseline strategies of Section 4
(``inv(A)*B`` in Julia/Matlab/Eigen/Blaze/Armadillo) require them.

Solve kernel families
---------------------

=========  ===========================================  =====================
Family     Computes                                     Cost
=========  ===========================================  =====================
TRSM       ``T^-1 B`` / ``B T^-1``, T triangular        ``m^2 n``
POSV       ``S^-1 B`` / ``B S^-1``, S SPD               ``n^3/3 + 2 n^2 m``
SYSV       ``S^-1 B`` / ``B S^-1``, S symmetric         ``n^3/3 + 2 n^2 m``
GESV       ``A^-1 B`` / ``B A^-1``, general A           ``2 n^3/3 + 2 n^2 m``
DIAGSV     ``D^-1 B`` / ``B D^-1``, D diagonal          ``m n``
GESV2      ``A^-1 B^-1`` (both operands inverted)       ``2 n^3 + gesv``
GETRI      ``A^-1`` explicitly (general)                ``2 n^3``
POTRI      ``A^-1`` explicitly (SPD)                    ``n^3``
TRTRI      ``T^-1`` explicitly (triangular)             ``n^3 / 3``
DIAGINV    ``D^-1`` explicitly (diagonal)               ``n``
TRANS      explicit transposition                       ``0`` FLOPs
=========  ===========================================  =====================

The GESV2 combined kernel realizes the assumption stated in Section 5 of the
paper ("we assumed that a kernel for ``X := A^-1 B^-1`` is provided"); the
default catalog includes it, and :func:`repro.kernels.catalog.default_catalog`
can exclude it to reproduce the completeness discussion of Section 3.4.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..matching.patterns import Constraint, Pattern, Substitution
from . import flops, helpers
from .kernel import Kernel

#: Efficiency (fraction of peak) for solve/inversion kernels.
EFFICIENCY = {
    "TRSM": 0.70,
    "POSV": 0.60,
    "SYSV": 0.50,
    "GESV": 0.55,
    "DIAGSV": 0.05,
    "GESV2": 0.45,
    "GETRI": 0.45,
    "POTRI": 0.50,
    "TRTRI": 0.50,
    "DIAGINV": 0.02,
    "TRANS": 0.05,
}

_INVERSE_CODES = ("I", "IT")
_PLAIN_CODES = ("N", "T")


def _np_operand(placeholder: str, code: str) -> str:
    if helpers.is_transposed_code(code):
        return placeholder + ".T"
    return placeholder


def _solve_dims(
    substitution: Substitution, side: str, left_code: str, right_code: str
) -> Tuple[int, int]:
    """Return ``(n, nrhs)``: the size of the inverted (square) operand and the
    free dimension of the other operand."""
    m, k, n = helpers.product_dims(substitution, left_code, right_code)
    if side == "L":
        return m, n
    return n, m


def _left_solve_variants() -> Sequence[Tuple[str, str, str]]:
    """(kernel id suffix, left wrapper, right wrapper) for A^-1-on-the-left."""
    variants = []
    for left in _INVERSE_CODES:
        for right in _PLAIN_CODES:
            variants.append((f"l_{left.lower()}{right.lower()}", left, right))
    return variants


def _right_solve_variants() -> Sequence[Tuple[str, str, str]]:
    variants = []
    for left in _PLAIN_CODES:
        for right in _INVERSE_CODES:
            variants.append((f"r_{left.lower()}{right.lower()}", left, right))
    return variants


def _solve_family(
    family: str,
    display_name: str,
    structure: str,
    constraints_for: "callable",
    cost_fn: "callable",
    julia_name: str,
    numpy_solver: str,
    efficiency: float,
    numpy_options: str = "",
) -> List[Kernel]:
    """Generate the left- and right-side variants of one solve family.

    *numpy_options* is appended to every NumPy helper call after the two
    operands (TRSM passes its uplo as ``, lower=...``).
    """
    kernels: List[Kernel] = []
    for side, variants in (("L", _left_solve_variants()), ("R", _right_solve_variants())):
        for suffix, left, right in variants:
            inverted = "X" if side == "L" else "Y"
            other = "Y" if side == "L" else "X"
            pattern_expr, _, _ = helpers.binary_pattern(left, right)
            constraints = constraints_for(inverted)

            def cost(
                substitution: Substitution,
                side=side,
                left=left,
                right=right,
                cost_fn=cost_fn,
            ) -> float:
                n, nrhs = _solve_dims(substitution, side, left, right)
                return cost_fn(n, nrhs)

            transposed_system = helpers.is_transposed_code(left if side == "L" else right)
            kernels.append(
                Kernel(
                    id=f"{family}_{suffix}",
                    display_name=display_name,
                    pattern=Pattern(
                        pattern_expr,
                        constraints=constraints,
                        name=f"{display_name}_{side}_{left}{right}",
                    ),
                    operands=("X", "Y"),
                    cost=cost,
                    efficiency=efficiency,
                    julia_template=(
                        f"{julia_name}!("
                        + ("{X}, {Y}" if side == "L" else "{Y}, {X}")
                        + ")"
                    ),
                    numpy_template=(
                        "{out} = "
                        + numpy_solver
                        + "("
                        + ("{X}" if side == "L" else "{Y}")
                        + ", "
                        # The right-hand side carries its own transpose code
                        # (the coefficient's transpose travels separately via
                        # ``transposed=True``).
                        + (
                            _np_operand("{Y}", right)
                            if side == "L"
                            else _np_operand("{X}", left)
                        )
                        + numpy_options
                        + (", transposed=True" if transposed_system else "")
                        + (", side='R'" if side == "R" else "")
                        + ")"
                    ),
                    level="lapack",
                    description=f"linear-system solve with a {structure} coefficient matrix",
                )
            )
    return kernels


def build_trsm_kernels() -> List[Kernel]:
    kernels: List[Kernel] = []
    for uplo in ("lower", "upper"):
        def constraints_for(name: str, uplo=uplo) -> Tuple[Constraint, ...]:
            return (helpers.triangular(name, uplo), helpers.not_diagonal(name))

        kernels += _solve_family(
            family=f"trsm_{uplo}",
            display_name="TRSM",
            structure="triangular",
            constraints_for=constraints_for,
            cost_fn=flops.trsm,
            julia_name="trsm",
            numpy_solver="solve_triangular",
            efficiency=EFFICIENCY["TRSM"],
            numpy_options=f", lower={uplo == 'lower'}",
        )
    return kernels


def build_posv_kernels() -> List[Kernel]:
    def constraints_for(name: str) -> Tuple[Constraint, ...]:
        return (helpers.spd(name), helpers.not_diagonal(name))

    return _solve_family(
        family="posv",
        display_name="POSV",
        structure="spd",
        constraints_for=constraints_for,
        cost_fn=flops.posv,
        julia_name="posv",
        numpy_solver="cholesky_solve",
        efficiency=EFFICIENCY["POSV"],
    )


def build_sysv_kernels() -> List[Kernel]:
    def constraints_for(name: str) -> Tuple[Constraint, ...]:
        return (helpers.symmetric(name), helpers.not_diagonal(name))

    return _solve_family(
        family="sysv",
        display_name="SYSV",
        structure="symmetric",
        constraints_for=constraints_for,
        cost_fn=flops.sysv,
        julia_name="sysv",
        numpy_solver="symmetric_solve",
        efficiency=EFFICIENCY["SYSV"],
    )


def build_gesv_kernels() -> List[Kernel]:
    def constraints_for(name: str) -> Tuple[Constraint, ...]:
        return ()

    return _solve_family(
        family="gesv",
        display_name="GESV",
        structure="general",
        constraints_for=constraints_for,
        cost_fn=flops.gesv,
        julia_name="gesv",
        numpy_solver="lu_solve",
        efficiency=EFFICIENCY["GESV"],
    )


def build_diagsv_kernels() -> List[Kernel]:
    def constraints_for(name: str) -> Tuple[Constraint, ...]:
        return (helpers.diagonal(name), helpers.not_scalar(name))

    def cost_fn(n: int, nrhs: int) -> float:
        return flops.diagmm(n, nrhs)

    return _solve_family(
        family="diagsv",
        display_name="DIAGSV",
        structure="diagonal",
        constraints_for=constraints_for,
        cost_fn=cost_fn,
        julia_name="diagsv",
        numpy_solver="diagonal_solve",
        efficiency=EFFICIENCY["DIAGSV"],
    )


def build_combined_inverse_kernels() -> List[Kernel]:
    """Kernels for ``A^-1 B^-1`` (both operands inverted).

    Such a routine does not exist in BLAS/LAPACK; the paper (Section 5)
    assumes one is provided, constructed from existing kernels.  The cost
    model reflects the natural construction: explicitly invert the right
    operand, then solve with the left one.
    """
    kernels: List[Kernel] = []
    for left in _INVERSE_CODES:
        for right in _INVERSE_CODES:
            pattern_expr, _, _ = helpers.binary_pattern(left, right)

            def cost(substitution: Substitution, left=left, right=right) -> float:
                m, k, n = helpers.product_dims(substitution, left, right)
                return flops.getri(n) + flops.gesv(m, n)

            kernels.append(
                Kernel(
                    id=f"gesv2_{left.lower()}_{right.lower()}",
                    display_name="GESV2",
                    pattern=Pattern(pattern_expr, name=f"GESV2_{left}{right}"),
                    operands=("X", "Y"),
                    cost=cost,
                    efficiency=EFFICIENCY["GESV2"],
                    julia_template="gesv!({X}, getri!({Y}))",
                    numpy_template=(
                        "{out} = lu_solve({X}, invert("
                        + _np_operand("{Y}", right)
                        + ")"
                        + (", transposed=True" if left == "IT" else "")
                        + ")"
                    ),
                    level="lapack",
                    description="product of two inverted operands (composite kernel)",
                )
            )
    return kernels


def build_inversion_kernels() -> List[Kernel]:
    """Explicit inversion kernels, used mainly by the naive baselines."""
    kernels: List[Kernel] = []
    # The last field is the stored triangle of X (``None``: not
    # triangular); the transposed variants invert ``X.T``, whose stored
    # triangle is the other one.
    specs = [
        ("getri", "GETRI", (), "general", flops.getri, "invert", "inv!({X})", None),
        (
            "potri",
            "POTRI",
            (helpers.spd("X"), helpers.not_diagonal("X")),
            "spd",
            flops.potri,
            "invert_spd",
            "potri!('L', {X})",
            None,
        ),
        (
            "trtri_lower",
            "TRTRI",
            (helpers.lower("X"), helpers.not_diagonal("X")),
            "triangular",
            flops.trtri,
            "invert_triangular",
            "trtri!('L', 'N', {X})",
            True,
        ),
        (
            "trtri_upper",
            "TRTRI",
            (helpers.upper("X"), helpers.not_diagonal("X")),
            "triangular",
            flops.trtri,
            "invert_triangular",
            "trtri!('U', 'N', {X})",
            False,
        ),
        (
            "diaginv",
            "DIAGINV",
            (helpers.diagonal("X"), helpers.not_scalar("X")),
            "diagonal",
            flops.diaginv,
            "invert_diagonal",
            "{out} = inv(Diagonal({X}))",
            None,
        ),
    ]
    for code in ("I", "IT"):
        for base_id, display, constraints, structure, cost_fn, helper, julia, lower in specs:
            pattern_expr, _ = helpers.unary_pattern(code)
            efficiency_key = display if display in EFFICIENCY else "GETRI"

            def cost(substitution: Substitution, cost_fn=cost_fn) -> float:
                operand = substitution["X"]
                return cost_fn(operand.rows or 1)

            suffix = "" if code == "I" else "_t"
            kernels.append(
                Kernel(
                    id=f"{base_id}{suffix}",
                    display_name=display,
                    pattern=Pattern(pattern_expr, constraints=constraints, name=f"{display}_{code}"),
                    operands=("X",),
                    cost=cost,
                    efficiency=EFFICIENCY[efficiency_key],
                    julia_template=julia,
                    numpy_template="{out} = " + helper + "({X}"
                    + (".T" if code == "IT" else "")
                    + ("" if lower is None else f", lower={lower != (code == 'IT')}")
                    + ")",
                    level="lapack",
                    description=f"explicit inversion of a {structure} matrix",
                )
            )
    return kernels


def build_transpose_kernel() -> List[Kernel]:
    """Explicit out-of-place transposition (0 FLOPs, pure data movement)."""
    pattern_expr, _ = helpers.unary_pattern("T")

    def cost(substitution: Substitution) -> float:
        return flops.transpose_copy(
            substitution["X"].rows or 1, substitution["X"].columns or 1
        )

    def memory(substitution: Substitution) -> float:
        operand = substitution["X"]
        return 2.0 * (operand.rows or 1) * (operand.columns or 1)

    return [
        Kernel(
            id="transpose",
            display_name="TRANS",
            pattern=Pattern(pattern_expr, name="TRANS"),
            operands=("X",),
            cost=cost,
            efficiency=EFFICIENCY["TRANS"],
            julia_template="{out} = copy(transpose({X}))",
            numpy_template="{out} = {X}.T.copy()",
            level=1,
            memory=memory,
            description="explicit out-of-place transposition",
        )
    ]


def build_solver_kernels(include_combined_inverse: bool = True) -> List[Kernel]:
    """All solve/inversion kernels of the default catalog."""
    kernels: List[Kernel] = []
    kernels.extend(build_trsm_kernels())
    kernels.extend(build_posv_kernels())
    kernels.extend(build_sysv_kernels())
    kernels.extend(build_gesv_kernels())
    kernels.extend(build_diagsv_kernels())
    if include_combined_inverse:
        kernels.extend(build_combined_inverse_kernels())
    kernels.extend(build_inversion_kernels())
    kernels.extend(build_transpose_kernel())
    return kernels
