"""One-thread scopes for the OpenBLAS that numpy loaded, through ctypes.

OpenBLAS runs an LU of 100 unknowns or more on its thread pool.  On a
2-core desk machine the second thread then busy-waits between calls,
doubling a run's CPU time for no wall time: a 362-unknown solve took
1.8-2.4 ms on the pool and 1.6-2.1 ms on one thread.  one_thread() runs a
block of code with OpenBLAS's thread count at 1 and gives the caller's
count back on exit, normal or not.

The count is set by openblas_set_num_threads_local, which returns the
previous count.  Its symbol is looked up in the scope of numpy's own
linear-algebra extension, so the library found is the one numpy linked:
scipy loads a second OpenBLAS with the same symbol, which would pin
nothing numpy runs.  Despite its name, in the pthreads builds that numpy's
wheels ship the setter changes the process-wide count (seen with OpenBLAS
0.3.31: other threads read a count of 1 while a scope is open), so while
any thread is inside one_thread() the BLAS calls of every other thread run
on one thread too.  Their results keep every contract, but their rounding
can differ from the pool's.  So scopes hold one lock and never overlap:
with overlapping scopes a process-wide count would be restored while
another scope still runs, or left at 1 for good.  The solves they wrap
take milliseconds, and they would each run on one thread anyway.

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
