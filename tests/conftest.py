import sys
from pathlib import Path

import pytest

# make the sibling oracle module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).resolve().parent))

from z2memory import _blas, build_tfim, lowest_eigenpairs


@pytest.fixture(scope="session")
def solve_cache():
    """Session-wide memo for eigenpair solves shared across test modules."""
    cache = {}

    def solve(n, lam, k=1):
        key = (n, float(lam), k)
        if key not in cache:
            cache[key] = lowest_eigenpairs(build_tfim(n, lam), k)
        return cache[key]

    return solve


@pytest.fixture
def without_lapack(monkeypatch):
    """_blas without its LAPACK table, as where numpy's BLAS lacks any of
    its routines: lu_solver and tridiagonal_lowest both fall back to
    numpy.linalg."""
    monkeypatch.setattr(_blas, "_lapack", lambda: None)
