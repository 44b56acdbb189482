"""The pure-state paths make no BLAS dot or norm on 2^14 or more entries:
OpenBLAS runs those on two threads, whose second thread busy-waits and
whose wake-up can stall a call for milliseconds (pauli's module
docstring).  numpy's reductions are patched here to refuse such inputs,
and build_vcm's Gram route, whose 3N-row product runs through the @
operator where no patch of numpy reaches, is refused outright."""

import numpy as np
import pytest

from z2memory import (
    StateVector,
    build_tfim,
    build_vcm,
    identity_report,
    lowest_eigenpairs,
    state_mz_distribution,
    superposed_state,
)
from z2memory import macroscopicity

LONG = 1 << 14


def _refusing(func):
    def call(*args, **kwargs):
        sizes = [np.size(arg) for arg in args if isinstance(arg, np.ndarray)]
        if sizes and max(sizes) >= LONG:
            raise AssertionError(f"{func.__name__} on {max(sizes)} entries")
        return func(*args, **kwargs)

    return call


def _no_gram(state):
    raise AssertionError(f"Gram route on {state.dim} entries")


@pytest.fixture
def no_long_blas(monkeypatch):
    for module, name in ((np, "vdot"), (np, "dot"), (np, "inner"), (np.linalg, "norm")):
        monkeypatch.setattr(module, name, _refusing(getattr(module, name)))
    monkeypatch.setattr(macroscopicity, "_gram_entries", _no_gram)


def test_guard_refuses_long_reductions(no_long_blas):
    long = np.ones(LONG)
    for call, args in (
        (np.vdot, (long, long)),
        (np.dot, (long, long)),
        (np.inner, (long, long)),
        (np.linalg.norm, (long,)),
    ):
        with pytest.raises(AssertionError, match="entries"):
            call(*args)
    assert np.vdot(long[1:], long[1:]) == LONG - 1
    with pytest.raises(AssertionError, match="Gram route"):
        build_vcm(StateVector(3, np.arange(8.0)).normalized())


def test_pure_state_paths_make_no_long_blas_reduction(no_long_blas):
    assert all(ok for *_, ok in identity_report(14))
    pairs = lowest_eigenpairs(build_tfim(14, 0.5), 2)
    combo = superposed_state(*pairs.eigenvectors)
    assert build_vcm(combo).e1 > 0.0
    dist = state_mz_distribution(0.5, 14, "superposed")
    assert abs(dist.probabilities.sum() - 1.0) < 1e-10
