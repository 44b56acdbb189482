"""The pure-state paths make no BLAS dot or norm on 2^14 or more entries:
OpenBLAS runs those on two threads, whose second thread busy-waits and
whose wake-up can stall a call for milliseconds (pauli's module
docstring).  numpy's reductions are patched here to refuse such inputs,
and build_vcm's Gram route, whose 3N-row product runs through the @
operator where no patch of numpy reaches, is refused outright.

The symmetric-block solves, whose LU OpenBLAS threads from 100 unknowns
on, run inside _blas.one_thread(), and the gap's Lanczos does not."""

import ctypes
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from z2memory import (
    ConvergenceError,
    StateVector,
    build_tfim,
    build_vcm,
    gap_scan,
    identity_report,
    lowest_eigenpairs,
    state_mz_distribution,
    superposed_state,
)
from z2memory import _blas, eigensolve, macroscopicity

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


# The symmetric-block solves run with numpy's OpenBLAS on one thread
# (_blas.one_thread); the gap's Lanczos keeps the caller's pool.  The
# count is read by setting it and setting it back, since the getter's
# symbol name differs between builds.


def _count(setter):
    count = setter(1)
    setter(count)
    return count


@pytest.fixture
def blas_setter():
    """numpy's thread-count setter, with the caller's count at 2, so that a
    pin shows as 1 and a restored count as 2."""
    setter = _blas._thread_setter()
    if setter is None:
        pytest.skip("numpy's BLAS exports no openblas_set_num_threads_local")
    saved = setter(2)
    yield setter
    setter(saved)


def test_the_setter_reaches_numpys_openblas(blas_setter):
    # scipy loads a second OpenBLAS that exports the same setter; numpy's
    # ILP64 build alone has this getter, so it reads numpy's own count
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if getter is None:
        pytest.skip("numpy's BLAS is not the scipy-openblas ILP64 build")
    getter.argtypes = []
    getter.restype = ctypes.c_int
    assert getter() == 2
    with _blas.one_thread():
        assert getter() == 1
    assert getter() == 2


def _spy_on_solves(monkeypatch, setter, error=None):
    counts = []

    def spy(mat, rhs):
        counts.append(_count(setter))
        if error is not None:
            raise error
        return np.linalg.solve(mat, rhs)

    monkeypatch.setattr(eigensolve, "solve", spy)
    return counts


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("n", range(12, 15))
def test_block_solves_run_on_one_thread(blas_setter, monkeypatch, n, k):
    counts = _spy_on_solves(monkeypatch, blas_setter)
    lowest_eigenpairs(build_tfim(n, 0.5), k)
    assert counts == [1] * (k * eigensolve.SHIFT_STEPS)
    assert _count(blas_setter) == 2


def test_callers_count_returns_after_a_failed_solve(blas_setter, monkeypatch):
    counts = _spy_on_solves(monkeypatch, blas_setter, LinAlgError("Singular matrix"))
    with pytest.raises(ConvergenceError, match="Singular matrix"):
        lowest_eigenpairs(build_tfim(12, 0.5), 1)
    assert counts == [1]
    assert _count(blas_setter) == 2


def test_gap_scan_runs_at_the_callers_count(blas_setter, monkeypatch):
    counts = []
    lanczos = eigensolve._lanczos_smallest

    def spy(op, rng):
        counts.append(_count(blas_setter))
        return lanczos(op, rng)

    monkeypatch.setattr(eigensolve, "_lanczos_smallest", spy)
    gap_scan(0.5, 12, 13)
    assert counts == [2] * 4


def test_without_the_symbol_the_scope_does_nothing(blas_setter, monkeypatch):
    monkeypatch.setattr(_blas, "_thread_setter", lambda: None)
    counts = _spy_on_solves(monkeypatch, blas_setter)
    lowest_eigenpairs(build_tfim(12, 0.5), 1)
    assert counts == [2] * eigensolve.SHIFT_STEPS


def test_overlapping_scopes_keep_the_pin_and_restore_the_count(blas_setter):
    # the setter is process-wide in pthreads builds of OpenBLAS: a scope
    # that left while another still ran would unpin it, and the other
    # would then restore a count of 1 for good
    first_in, second_trying, first_out = (threading.Event() for _ in range(3))
    seen = []

    def first():
        with _blas.one_thread():
            first_in.set()
            second_trying.wait(5)
            time.sleep(0.05)  # the second scope tries to open meanwhile
        first_out.set()

    def second():
        first_in.wait(5)
        second_trying.set()
        with _blas.one_thread():
            first_out.wait(5)
            seen.append(_count(blas_setter))

    threads = [threading.Thread(target=f) for f in (first, second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert seen == [1]
    assert _count(blas_setter) == 2


def test_block_solves_in_several_threads_keep_their_bits(blas_setter):
    # more workers than cores and a short switch interval: every solve runs
    # pinned, so each thread's doublet equals the serial one to the bit
    h = build_tfim(12, 0.5)
    want = lowest_eigenpairs(h, 2).eigenvalues
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(lowest_eigenpairs, h, 2) for _ in range(8)]
            got = [future.result(timeout=60).eigenvalues for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(values, want) for values in got)
    assert _count(blas_setter) == 2
