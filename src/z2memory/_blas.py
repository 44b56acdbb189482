"""One-thread scopes for the OpenBLAS that numpy loaded, through ctypes.

OpenBLAS threads an LU from 100 unknowns on, and a GEMM or a determinant
of modest size too.  On a 2-core desk machine the second thread then
busy-waits between calls, doubling a run's CPU time for little or no wall
time.  one_thread() runs a block of code with OpenBLAS's thread count at 1
and gives the caller's count back on exit, normal or not.  The pinned
scopes:

- eigensolve._symmetric_ground, the shifted solves behind e2, superpose
  and pz: a 362-unknown solve took 1.8-2.4 ms on the pool and 1.6-2.1 ms
  on one thread.
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
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from collections.abc import Iterator

import numpy.linalg._umath_linalg as _numpy_lapack

_lock = threading.RLock()  # held for a whole scope; nested scopes are fine


@functools.cache
def _thread_setter():
    """openblas_set_num_threads_local of numpy's BLAS, or None where that
    library does not export it."""
    try:
        setter = ctypes.CDLL(_numpy_lapack.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
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
