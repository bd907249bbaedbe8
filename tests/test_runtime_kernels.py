"""Tests for the NumPy kernel implementations (the execution backend)."""

import numpy as np
import pytest

from repro.runtime import kernels_numpy as backend


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def _spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _lower(rng, n):
    a = np.tril(rng.standard_normal((n, n)))
    np.fill_diagonal(a, np.abs(np.diag(a)) + 1.0)
    return a


class TestTriangularSolves:
    def test_left_lower(self, rng):
        lower = _lower(rng, 5)
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            backend.solve_triangular(lower, b, lower=True),
            np.linalg.solve(lower, b),
        )

    def test_left_upper(self, rng):
        upper = _lower(rng, 5).T
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            backend.solve_triangular(upper, b, lower=False),
            np.linalg.solve(upper, b),
        )

    def test_left_transposed(self, rng):
        lower = _lower(rng, 5)
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(
            backend.solve_triangular(lower, b, lower=True, transposed=True),
            np.linalg.solve(lower.T, b),
        )

    def test_right(self, rng):
        lower = _lower(rng, 4)
        b = rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            backend.solve_triangular(lower, b, lower=True, side="R"),
            b @ np.linalg.inv(lower),
        )

    def test_right_transposed(self, rng):
        lower = _lower(rng, 4)
        b = rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            backend.solve_triangular(lower, b, lower=True, transposed=True, side="R"),
            b @ np.linalg.inv(lower.T),
        )


class TestFactorizationSolves:
    def test_cholesky_left(self, rng):
        spd = _spd(rng, 6)
        b = rng.standard_normal((6, 2))
        np.testing.assert_allclose(
            backend.cholesky_solve(spd, b), np.linalg.solve(spd, b), rtol=1e-9
        )

    def test_cholesky_right(self, rng):
        spd = _spd(rng, 6)
        b = rng.standard_normal((2, 6))
        np.testing.assert_allclose(
            backend.cholesky_solve(spd, b, side="R"), b @ np.linalg.inv(spd), rtol=1e-8
        )

    def test_symmetric_solve(self, rng):
        sym = rng.standard_normal((6, 6))
        sym = (sym + sym.T) / 2 + 6 * np.eye(6)
        b = rng.standard_normal((6, 3))
        np.testing.assert_allclose(
            backend.symmetric_solve(sym, b), np.linalg.solve(sym, b), rtol=1e-9
        )

    def test_lu_left(self, rng):
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal((6, 3))
        np.testing.assert_allclose(backend.lu_solve(a, b), np.linalg.solve(a, b))

    def test_lu_left_transposed(self, rng):
        a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
        b = rng.standard_normal((6, 3))
        np.testing.assert_allclose(
            backend.lu_solve(a, b, transposed=True), np.linalg.solve(a.T, b)
        )

    def test_lu_right(self, rng):
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        b = rng.standard_normal((3, 5))
        np.testing.assert_allclose(
            backend.lu_solve(a, b, side="R"), b @ np.linalg.inv(a), rtol=1e-9
        )

    def test_lu_right_transposed(self, rng):
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        b = rng.standard_normal((3, 5))
        np.testing.assert_allclose(
            backend.lu_solve(a, b, transposed=True, side="R"),
            b @ np.linalg.inv(a.T),
            rtol=1e-9,
        )

    def test_diagonal_solve_left(self, rng):
        diag = np.diag(rng.uniform(1.0, 2.0, size=5))
        b = rng.standard_normal((5, 3))
        np.testing.assert_allclose(backend.diagonal_solve(diag, b), np.linalg.solve(diag, b))

    def test_diagonal_solve_right(self, rng):
        diag = np.diag(rng.uniform(1.0, 2.0, size=5))
        b = rng.standard_normal((3, 5))
        np.testing.assert_allclose(
            backend.diagonal_solve(diag, b, side="R"), b @ np.linalg.inv(diag)
        )


class TestInversion:
    def test_invert(self, rng):
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        np.testing.assert_allclose(backend.invert(a), np.linalg.inv(a))

    def test_invert_spd(self, rng):
        spd = _spd(rng, 5)
        np.testing.assert_allclose(backend.invert_spd(spd), np.linalg.inv(spd), rtol=1e-8)

    def test_invert_triangular(self, rng):
        lower = _lower(rng, 5)
        np.testing.assert_allclose(
            backend.invert_triangular(lower, lower=True),
            np.linalg.inv(lower),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_invert_diagonal(self, rng):
        diag = np.diag(rng.uniform(1.0, 3.0, size=5))
        np.testing.assert_allclose(backend.invert_diagonal(diag), np.linalg.inv(diag))
