"""Shared fixtures for the test suite."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.algebra import Matrix, Property, Vector
from repro.kernels import default_catalog

_TESTS_DIR = Path(__file__).resolve().parent

#: A DeprecationWarning attributed to a ``repro.*`` frame -- repro code
#: calling a NumPy/SciPy API its maintainers deprecated -- fails the test
#: instead of scrolling past in the warnings summary.
_REPRO_DEPRECATIONS_ARE_ERRORS = pytest.mark.filterwarnings(
    r"error::DeprecationWarning:repro\..*"
)


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _TESTS_DIR in Path(item.path).resolve().parents:
            item.add_marker(_REPRO_DEPRECATIONS_ARE_ERRORS)


@pytest.fixture
def catalog():
    """The default kernel catalog (cached at module level by the library)."""
    return default_catalog()


@pytest.fixture
def spd_matrix():
    return Matrix("A", 8, 8, {Property.SPD})


@pytest.fixture
def lower_matrix():
    return Matrix("L", 8, 8, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})


@pytest.fixture
def upper_matrix():
    return Matrix("U", 8, 8, {Property.UPPER_TRIANGULAR, Property.NON_SINGULAR})


@pytest.fixture
def general_square():
    return Matrix("G", 8, 8, {Property.NON_SINGULAR})


@pytest.fixture
def rectangular():
    return Matrix("B", 8, 5)


@pytest.fixture
def column_vector():
    return Vector("v", 5)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
