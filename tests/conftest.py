import sys
from pathlib import Path

import pytest

# make the sibling oracle module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).resolve().parent))

from z2memory import build_tfim, lowest_eigenpairs


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
