"""NumPy/SciPy helper routines for the solve and inversion kernels.

This module is the numerical runtime substituting for the MKL-backed BLAS
and LAPACK libraries used in the paper's evaluation.  Products, SYRK and
transposes render as plain ``@``/``.T`` statements; the solve and inversion
kernels' NumPy statements call the helpers below.  The
:class:`~repro.runtime.executor.Executor` runs those statements with these
helpers in its namespace, and the code generators inline their source into
emitted code (:mod:`repro.codegen.runtime_inline`) -- so the interpreter and
generated code share one implementation.

The helpers accept a ``side`` argument mirroring BLAS (``'L'``: the
structured/inverted operand is on the left of the product; ``'R'``: on the
right) and a ``transposed`` flag for solves against a transposed coefficient
matrix.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg as scipy_linalg

#: The helpers kernel statements may call, in rendering order.
__all__ = [
    "solve_triangular",
    "cholesky_solve",
    "symmetric_solve",
    "lu_solve",
    "diagonal_solve",
    "invert",
    "invert_spd",
    "invert_triangular",
    "invert_diagonal",
]


def _is_lower(matrix: np.ndarray) -> bool:
    return bool(np.allclose(matrix, np.tril(matrix)))


def _as_matrix(array: np.ndarray) -> np.ndarray:
    if array.ndim == 1:
        return array.reshape(-1, 1)
    return array


def solve_triangular(
    coefficient: np.ndarray,
    rhs: np.ndarray,
    transposed: bool = False,
    side: str = "L",
) -> np.ndarray:
    """TRSM/TRSV: solve a triangular system from the left or the right."""
    coefficient = _as_matrix(coefficient)
    rhs = _as_matrix(rhs)
    lower = _is_lower(coefficient)
    if side == "L":
        return scipy_linalg.solve_triangular(
            coefficient, rhs, lower=lower, trans="T" if transposed else "N"
        )
    # X * T^-1  <=>  solve T^T Z^T = X^T and transpose back.
    solution = scipy_linalg.solve_triangular(
        coefficient, rhs.T, lower=lower, trans="N" if transposed else "T"
    )
    return solution.T


def cholesky_solve(
    coefficient: np.ndarray,
    rhs: np.ndarray,
    transposed: bool = False,
    side: str = "L",
) -> np.ndarray:
    """POSV: Cholesky-based solve with an SPD coefficient matrix."""
    coefficient = _as_matrix(coefficient)
    rhs = _as_matrix(rhs)
    factor = scipy_linalg.cho_factor(coefficient, lower=True)
    if side == "L":
        return scipy_linalg.cho_solve(factor, rhs)
    return scipy_linalg.cho_solve(factor, rhs.T).T


def symmetric_solve(
    coefficient: np.ndarray,
    rhs: np.ndarray,
    transposed: bool = False,
    side: str = "L",
) -> np.ndarray:
    """SYSV: solve with a symmetric (possibly indefinite) coefficient matrix."""
    coefficient = _as_matrix(coefficient)
    rhs = _as_matrix(rhs)
    if side == "L":
        return scipy_linalg.solve(coefficient, rhs, assume_a="sym")
    return scipy_linalg.solve(coefficient, rhs.T, assume_a="sym").T


def lu_solve(
    coefficient: np.ndarray,
    rhs: np.ndarray,
    transposed: bool = False,
    side: str = "L",
) -> np.ndarray:
    """GESV: LU-based solve with a general coefficient matrix."""
    coefficient = _as_matrix(coefficient)
    rhs = _as_matrix(rhs)
    system = coefficient.T if transposed else coefficient
    if side == "L":
        return np.linalg.solve(system, rhs)
    return np.linalg.solve(system.T, rhs.T).T


def diagonal_solve(
    coefficient: np.ndarray,
    rhs: np.ndarray,
    transposed: bool = False,
    side: str = "L",
) -> np.ndarray:
    """DIAGSV: solve with a diagonal coefficient matrix (element-wise divide)."""
    coefficient = _as_matrix(coefficient)
    rhs = _as_matrix(rhs)
    diag = np.diag(coefficient)
    if side == "L":
        return rhs / diag[:, None]
    return rhs / diag[None, :]


def invert(matrix: np.ndarray) -> np.ndarray:
    """GETRI: explicit inversion of a general matrix."""
    return np.linalg.inv(_as_matrix(matrix))


def invert_spd(matrix: np.ndarray) -> np.ndarray:
    """POTRI: explicit inversion of an SPD matrix via Cholesky."""
    matrix = _as_matrix(matrix)
    factor = scipy_linalg.cho_factor(matrix, lower=True)
    return scipy_linalg.cho_solve(factor, np.eye(matrix.shape[0]))


def invert_triangular(matrix: np.ndarray) -> np.ndarray:
    """TRTRI: explicit inversion of a triangular matrix."""
    matrix = _as_matrix(matrix)
    return scipy_linalg.solve_triangular(
        matrix, np.eye(matrix.shape[0]), lower=_is_lower(matrix)
    )


def invert_diagonal(matrix: np.ndarray) -> np.ndarray:
    """DIAGINV: explicit inversion of a diagonal matrix."""
    matrix = _as_matrix(matrix)
    return np.diag(1.0 / np.diag(matrix))

