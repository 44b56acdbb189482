"""One-thread scopes and an LU factorization for the OpenBLAS that numpy
loaded, through ctypes.

OpenBLAS threads an LU from 100 unknowns on, and a GEMM or a determinant
of modest size too.  On a 2-core desk machine the second thread then
busy-waits between calls, doubling a run's CPU time for little or no wall
time.  one_thread() runs a block of code with OpenBLAS's thread count at 1
and gives the caller's count back on exit, normal or not.  The pinned
scopes:

- eigensolve._symmetric_ground, the shifted solves behind e2, superpose
  and pz: a 362-unknown solve took 1.8-2.4 ms on the pool and 1.6-2.1 ms
  on one thread.  Its LU runs once per block (lu_solver, below).
- majorana.ground_correlations, the N/2 determinants per axis of a
  scan-e1 point: at N=512 a point took 146 ms wall and 279 ms CPU on the
  pool against 122 and 148 ms pinned.  OpenBLAS threads a determinant
  from about 144 x 144 on, so below N = 288 the pin changes nothing.
- eigensolve._lanczos_doublet, the gap's sector solves: its Gram-Schmidt
  products woke the second thread for no wall time (gap_scan(0.5, 8, 14)
  took 0.12 s wall and 0.24 s CPU on the pool, 0.11-0.12 s of each
  pinned).  Its one dot that rounded differently on the pool, the N=14
  quotient, is summed in the pool's two halves, so the gap keeps its
  bits.
- thermal.thermal_scan up to thermal.ONE_THREAD_MAX_SITES sites, its
  block eigh calls and the W products: there one thread is as fast, the
  benchmark's thermal pass at N = 8 and 9 takes half the CPU time, and a
  fresh process's first threaded call can stall for most of a second.
  Larger scans keep the caller's count, because there the pool saves
  wall time.

So only thermal scans above thermal.ONE_THREAD_MAX_SITES sites reach the
pool.

The count is set by openblas_set_num_threads_local, which returns the
previous count.  Its symbol is looked up in the scope of numpy's own
linear-algebra extension, so the library found is the one numpy linked:
scipy loads a second OpenBLAS with the same symbol, which would pin
nothing numpy runs.  Despite its name, in the pthreads builds that numpy's
wheels ship the setter changes the process-wide count (seen with OpenBLAS
0.3.31: other threads read a count of 1 while a scope is open), so while
any thread is inside one_thread() the BLAS calls of every other thread run
on one thread too.  Only a thermal scan above thermal.ONE_THREAD_MAX_SITES
sites runs unpinned, so only its rounding can move: it keeps every
contract, but its bits can differ from the pool's.  Scopes hold one lock
and never overlap: with overlapping scopes a process-wide count would be
restored while another scope still runs, or left at 1 for good.  A
scope holds the lock for its whole run: a pinned thermal scan for all its
blocks (about 40 ms at N = 10), a block solve for milliseconds, a gap
doublet for about 0.1 s at N = 14 and a scan-e1 point for up to 0.15 s at
N = 512.  A thread that opens a scope meanwhile waits.

Where numpy's BLAS exports no such symbol (MKL, Accelerate, older
OpenBLAS releases), one_thread() does nothing and the pool keeps its
count.

lu_solver calls dgetrf and dgetrs from the same library, under the names
that the scipy-openblas ILP64 build of numpy's wheels exports
(scipy_dgetrf_64_ and scipy_dgetrs_64_, 64-bit integers), so a matrix
solved several times is factored once.  numpy.linalg.solve runs dgesv,
which is dgetrf followed by dgetrs, so each solve keeps the bits of one
numpy.linalg.solve.  Where numpy's BLAS exports no such symbols, each
solve is one numpy.linalg.solve on the matrix, one factorization per
solve.  The factors stay inside lu_solver's closure, so no caller sees
which route ran.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from collections.abc import Callable, Iterator

import numpy as np
import numpy.linalg._umath_linalg as _numpy_lapack
from numpy.linalg import LinAlgError

_lock = threading.RLock()  # held for a whole scope; nested scopes are fine
_INT = ctypes.c_int64  # LAPACK's integer in the ILP64 build
_INT_P = ctypes.POINTER(_INT)


def _numpy_symbol(name: str):
    """A function of numpy's BLAS, looked up in the scope of numpy's own
    linear-algebra extension, or None where that library does not export
    it."""
    try:
        return getattr(ctypes.CDLL(_numpy_lapack.__file__), name)
    except (OSError, AttributeError):
        return None


@functools.cache
def _thread_setter():
    """openblas_set_num_threads_local of numpy's BLAS, or None."""
    setter = _numpy_symbol("openblas_set_num_threads_local")
    if setter is not None:
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
    return setter


@contextlib.contextmanager
def one_thread() -> Iterator[None]:
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    count it had before, whether the block returns or raises."""
    setter = _thread_setter()
    if setter is None:
        yield
        return
    with _lock:
        count = setter(1)
        try:
            yield
        finally:
            setter(count)


@functools.cache
def _lu_routines():
    """dgetrf and dgetrs of numpy's BLAS, or None where it is not the
    scipy-openblas ILP64 build that exports them under these names."""
    getrf = _numpy_symbol("scipy_dgetrf_64_")
    getrs = _numpy_symbol("scipy_dgetrs_64_")
    if getrf is None or getrs is None:
        return None
    matrix = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    pivots = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    getrf.argtypes = [_INT_P, _INT_P, matrix, _INT_P, pivots, _INT_P]
    getrs.argtypes = [
        ctypes.c_char_p, _INT_P, _INT_P, matrix, _INT_P, pivots, matrix, _INT_P,
        _INT_P,
    ]
    getrf.restype = getrs.restype = None
    return getrf, getrs


def _size(n: int) -> _INT_P:
    return ctypes.byref(_INT(n))


def lu_solver(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function that returns the solution x of mat x = rhs for one
    right-hand side of len(mat) entries.

    mat, square float64, is factored here by one dgetrf, and each call runs
    one dgetrs on the factors: the same bits as numpy.linalg.solve's dgesv,
    which is dgetrf then dgetrs.  Where numpy's BLAS exports no dgetrf, mat
    is kept and each call is one numpy.linalg.solve on it.  An exactly
    singular factor raises LinAlgError("Singular matrix"), as
    numpy.linalg.solve does."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.dtype != np.float64:
        raise ValueError(
            f"lu_solver needs a square float64 matrix, got {mat.shape} {mat.dtype}"
        )
    n = mat.shape[0]
    routines = _lu_routines()
    if routines is not None:
        getrf, getrs = routines
        factors = np.array(mat, order="F")
        pivots = np.empty(n, dtype=np.int64)
        info = _INT()
        getrf(_size(n), _size(n), factors, _size(max(1, n)), pivots, ctypes.byref(info))
        if info.value > 0:
            raise LinAlgError("Singular matrix")
        if info.value < 0:
            raise LinAlgError(f"dgetrf rejected argument {-info.value}")

    def solve(rhs: np.ndarray) -> np.ndarray:
        if rhs.shape != (n,):
            raise ValueError(
                f"lu_solver needs a right-hand side of {n} entries, got {rhs.shape}"
            )
        if routines is None:
            return np.linalg.solve(mat, rhs)
        x = np.array(rhs, dtype=np.float64)
        info = _INT()
        getrs(
            b"N", _size(n), _size(1), factors, _size(max(1, n)), pivots, x,
            _size(max(1, n)), ctypes.byref(info),
        )
        if info.value != 0:
            raise LinAlgError(f"dgetrs rejected argument {-info.value}")
        return x

    return solve
