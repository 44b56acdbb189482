"""One-thread scopes, an LU factorization and a tridiagonal eigenvector
for the OpenBLAS that numpy loaded, through ctypes.

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

Everything here reaches numpy's linear-algebra library through one
handle, opened once (_library), and the LAPACK routines through one
table (_lapack): dgetrf, dgetrs, dstebz and dstein, under the names that
the scipy-openblas ILP64 build of numpy's wheels exports
(scipy_dgetrf_64_ and so on, 64-bit integers).  The table is None where
any of the four is missing, and then lu_solver and tridiagonal_lowest
both fall back to numpy.linalg: one decision for both.  Every LAPACK call
follows one convention: each argument is a ctypes scalar by reference, a
ctypes view of a numpy array, bytes or a hidden length by value, all
made once per function returned and kept in one argument list per
routine; no routine gets argtypes, so a call converts nothing.

lu_solver calls dgetrf once and dgetrs once per solve, so a matrix solved
several times is factored once.  numpy.linalg.solve runs dgesv, which is
dgetrf followed by dgetrs, so each solve keeps the bits of one
numpy.linalg.solve.  Without the table each solve is one
numpy.linalg.solve on the matrix, one factorization per solve.  The
factors stay inside lu_solver's closure, so no caller sees which route
ran.

tridiagonal_lowest calls dstebz and dstein for the gap's Lanczos Ritz
step, the pair that scipy's eigh_tridiagonal runs for one selected
eigenvector, so the vector has its bits without scipy.  dstebz is
Fortran with two character arguments, so it also gets gfortran's two
hidden length arguments.  Without the table each call is
numpy.linalg.eigh of the dense tridiagonal matrix, whose bits differ.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from collections.abc import Callable, Iterator, Sequence

import numpy as np
import numpy.linalg._umath_linalg as _numpy_lapack
from numpy.linalg import LinAlgError

_lock = threading.RLock()  # held for a whole scope; nested scopes are fine
_INT = ctypes.c_int64  # LAPACK's integer in the ILP64 build
_arr, _ref = np.ctypeslib.as_ctypes, ctypes.byref  # each keeps its object


@functools.cache
def _library():
    """numpy's BLAS, opened once in the scope of numpy's own linear-algebra
    extension, or None where it cannot be opened."""
    try:
        return ctypes.CDLL(_numpy_lapack.__file__)
    except OSError:
        return None


def _thread_setter():
    """openblas_set_num_threads_local of numpy's BLAS, or None; it takes
    and returns a C int, ctypes' defaults."""
    return getattr(_library(), "openblas_set_num_threads_local", None)


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
def _lapack() -> dict | None:
    """dgetrf, dgetrs, dstebz and dstein of numpy's BLAS by their LAPACK
    names, or None where it is not the scipy-openblas ILP64 build that
    exports all four."""
    routines = {}
    for name in ("dgetrf", "dgetrs", "dstebz", "dstein"):
        routine = getattr(_library(), f"scipy_{name}_64_", None)
        if routine is None:
            return None
        routine.restype = None
        routines[name] = routine
    return routines


def lu_solver(mat: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function that returns the solution x of mat x = rhs for one
    right-hand side of len(mat) entries.

    mat, square float64, is factored here by one dgetrf, and each call runs
    one dgetrs on the factors: the same bits as numpy.linalg.solve's dgesv,
    which is dgetrf then dgetrs.  Each call copies rhs into the closure's
    own buffer and returns a copy of the solution.  Without the LAPACK
    table mat is kept and each call is one numpy.linalg.solve on it.  An
    exactly singular factor raises LinAlgError("Singular matrix"), as
    numpy.linalg.solve does."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.dtype != np.float64:
        raise ValueError(
            f"lu_solver needs a square float64 matrix, got {mat.shape} {mat.dtype}"
        )
    n = mat.shape[0]
    lapack = _lapack()
    if lapack is not None:
        factors = np.array(mat, order="F")  # dgetrf overwrites it with the LU
        pivots = np.empty(n, dtype=np.int64)
        x = np.empty(n)  # dgetrs overwrites the right-hand side with x
        size, lead, one, info = _INT(n), _INT(max(1, n)), _INT(1), _INT()
        columns = _arr(factors.T)  # C-contiguous view of the Fortran memory
        ipiv = _arr(pivots)
        lapack["dgetrf"](_ref(size), _ref(size), columns, _ref(lead), ipiv, _ref(info))
        if info.value > 0:
            raise LinAlgError("Singular matrix")
        if info.value < 0:
            raise LinAlgError(f"dgetrf rejected argument {-info.value}")
        getrs_args = (
            b"N", _ref(size), _ref(one), columns, _ref(lead), ipiv, _arr(x), _ref(lead),
            _ref(info),
        )

    def solve(rhs: np.ndarray) -> np.ndarray:
        if rhs.shape != (n,):
            raise ValueError(
                f"lu_solver needs a right-hand side of {n} entries, got {rhs.shape}"
            )
        if lapack is None:
            return np.linalg.solve(mat, rhs)
        x[:] = rhs
        lapack["dgetrs"](*getrs_args)
        if info.value != 0:
            raise LinAlgError(f"dgetrs rejected argument {-info.value}")
        return x.copy()

    return solve


def tridiagonal_lowest(
    capacity: int,
) -> Callable[[Sequence[float], Sequence[float]], np.ndarray]:
    """A function that returns the unit eigenvector of the lowest eigenvalue
    of the symmetric tridiagonal matrix with diagonal ``d`` and off-diagonal
    ``e``, for len(d) = len(e) + 1 <= capacity.

    Bisection (dstebz, range "I", index 1, abstol 0, order "B") finds the
    eigenvalue and inverse iteration (dstein) its vector: the calls and
    arguments of scipy's eigh_tridiagonal for one selected index.  Their
    workspaces and argument lists are kept for every call.  A nonzero LAPACK
    info raises LinAlgError("LAPACK info <info>").  Without the LAPACK
    table each call is column 0 of numpy.linalg.eigh of the dense
    len(d) x len(d) matrix."""
    lapack = _lapack()
    if lapack is None:

        def lowest(d: Sequence[float], e: Sequence[float]) -> np.ndarray:
            mat = np.diag(np.asarray(d, dtype=np.float64))
            i = np.arange(len(e))
            mat[i + 1, i] = mat[i, i + 1] = e
            return np.linalg.eigh(mat)[1][:, 0]

        return lowest
    cap = max(1, capacity)
    d, e, w, z = (np.zeros(cap) for _ in range(4))
    work = np.zeros(5 * cap)  # dstebz takes 4 cap, dstein 5 cap
    iblock, isplit = np.zeros(cap, np.int64), np.zeros(cap, np.int64)
    iwork = np.zeros(3 * cap, np.int64)  # dstebz takes 3 cap, dstein cap
    vl, vu = ctypes.c_double(0.0), ctypes.c_double(1.0)  # unused with range "I"
    abstol = ctypes.c_double(0.0)
    one = _INT(1)  # il = iu = 1, and dstein's count of vectors
    n, m, nsplit, ifail, info = _INT(), _INT(), _INT(), _INT(), _INT()
    length = ctypes.c_size_t(1)  # gfortran's hidden length of a character
    stebz_args = (
        b"I", b"B", _ref(n), _ref(vl), _ref(vu), _ref(one), _ref(one), _ref(abstol),
        _arr(d), _arr(e), _ref(m), _ref(nsplit), _arr(w), _arr(iblock),
        _arr(isplit), _arr(work), _arr(iwork), _ref(info), length, length,
    )
    stein_args = (
        _ref(n), _arr(d), _arr(e), _ref(one), _arr(w), _arr(iblock), _arr(isplit),
        _arr(z), _ref(n), _arr(work), _arr(iwork), _ref(ifail), _ref(info),
    )

    def lowest(alphas: Sequence[float], betas: Sequence[float]) -> np.ndarray:
        size = len(alphas)
        if not 0 < size <= cap or len(betas) != size - 1:
            raise ValueError(
                f"tridiagonal_lowest({capacity}) got {size} diagonal and"
                f" {len(betas)} off-diagonal entries"
            )
        d[:size] = alphas
        e[: size - 1] = betas
        n.value = size
        lapack["dstebz"](*stebz_args)
        if info.value == 0:
            lapack["dstein"](*stein_args)
        if info.value != 0:
            raise LinAlgError(f"LAPACK info {info.value}")
        return z[:size].copy()

    return lowest
