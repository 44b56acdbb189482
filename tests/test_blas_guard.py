"""The pure-state paths make no BLAS dot or norm on 2^14 or more entries:
OpenBLAS runs those on two threads, whose second thread busy-waits and
whose wake-up can stall a call for milliseconds (pauli's module
docstring).  numpy's reductions are patched here to refuse such inputs,
and build_vcm's Gram route, whose 3N-row product runs through the @
operator where no patch of numpy reaches, is refused outright.

The symmetric-block solves, whose LU OpenBLAS threads from 100 unknowns
on, the gap's Lanczos, the scan-e1 determinants and thermal scans of up to
thermal.ONE_THREAD_MAX_SITES sites run inside _blas.one_thread(); only
larger thermal scans keep the caller's pool.  The gap's N=14 quotient is
summed in the two halves that the pool's dot adds, so its bits are pinned
here at either count.  Each block is factored once by _blas.lu_solver and
solved once per step by the function it returns, with the bits of one
numpy.linalg.solve per step, through numpy's own dgetrf and dgetrs and
through the fallback where those are not exported.  A walk over the
package's source checks that _blas's docstring names every pinned scope and
that no other module reaches for ctypes."""

import ast
import ctypes
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from numpy.linalg import LinAlgError

import z2memory
from z2memory import (
    ConvergenceError,
    StateVector,
    build_tfim,
    build_vcm,
    default_kt_grid,
    gap_scan,
    identity_report,
    lowest_eigenpairs,
    state_mz_distribution,
    superposed_state,
    thermal_scan,
)
from z2memory import _blas, eigensolve, macroscopicity, majorana, thermal

LONG = 1 << 14


def _refusing(func):
    def call(*args, **kwargs):
        sizes = [np.size(arg) for arg in args if isinstance(arg, np.ndarray)]
        if sizes and max(sizes) >= LONG:
            raise AssertionError(f"{func.__name__} on {max(sizes)} entries")
        return func(*args, **kwargs)

    return call


def _no_gram(amps, n):
    raise AssertionError(f"Gram route on {amps.size} entries")


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


# The symmetric-block solves, the gap's Lanczos, the scan-e1 determinants
# and the small thermal scans run with numpy's OpenBLAS on one thread
# (_blas.one_thread); only larger thermal scans keep the caller's pool.
# The count is read by setting it and setting it back, since the getter's
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
    pytest.importorskip("scipy.linalg")  # loads scipy's OpenBLAS

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
    """Counts seen by each block's factorization and by each of its
    solves; ``error``, if given, is raised by the factorization."""
    counts = []

    def spy_solver(mat):
        counts.append(_count(setter))
        if error is not None:
            raise error
        solve = _blas.lu_solver(mat)

        def spy_solve(rhs):
            counts.append(_count(setter))
            return solve(rhs)

        return spy_solve

    monkeypatch.setattr(eigensolve, "lu_solver", spy_solver)
    return counts


@pytest.mark.parametrize("k", (1, 2))
@pytest.mark.parametrize("n", range(12, 15))
def test_block_solves_run_on_one_thread(blas_setter, monkeypatch, n, k):
    counts = _spy_on_solves(monkeypatch, blas_setter)
    lowest_eigenpairs(build_tfim(n, 0.5), k)
    assert counts == [1] * (k * (1 + eigensolve.SHIFT_STEPS))
    assert _count(blas_setter) == 2


def test_callers_count_returns_after_a_failed_solve(blas_setter, monkeypatch):
    counts = _spy_on_solves(monkeypatch, blas_setter, LinAlgError("Singular matrix"))
    with pytest.raises(ConvergenceError, match="Singular matrix"):
        lowest_eigenpairs(build_tfim(12, 0.5), 1)
    assert counts == [1]
    assert _count(blas_setter) == 2


# each block is factored once (dgetrf) and solved SHIFT_STEPS times
# (dgetrs): numpy.linalg.solve's dgesv is those two calls, so the vectors
# keep the bits of one solve per step; the fallback, where numpy's BLAS
# exports no dgetrf, is that solve
BLOCK_FIELDS = (0.0, 1e-8, -1e-8, 1.0, -1.0, 1e3)


@pytest.fixture(params=("ctypes", "fallback"))
def lu_path(request):
    if request.param == "fallback":
        request.getfixturevalue("without_lapack")
    elif _blas._lapack() is None:
        pytest.skip("numpy's BLAS is not the scipy-openblas ILP64 build")
    return request.param


def _two_solves(h, sign, e0):
    """_symmetric_ground with one numpy.linalg.solve per step."""
    block = eigensolve._symmetric_block(h.n_sites, sign)
    mat = block.hamiltonian(h, e0 - eigensolve.SHIFT_REL * max(1.0, abs(e0)))
    x = np.ones(block.reps.size)
    if h.lam > 0:
        x -= 2.0 * (eigensolve.popcounts(h.n_sites, block.reps) & 1)
    with _blas.one_thread():
        for _ in range(eigensolve.SHIFT_STEPS):
            x = np.linalg.solve(mat, x)
            x /= np.linalg.norm(x)
    return block.coef * x[block.col]


@pytest.mark.parametrize("n", range(3, 15))
def test_one_factor_gives_the_bits_of_a_solve_per_step(lu_path, n):
    for sign in (1.0, -1.0):
        for lam in BLOCK_FIELDS:
            h = build_tfim(n, lam)
            e0 = majorana.sector_energy(n, lam, sign)
            got = eigensolve._symmetric_ground(h, sign, e0)
            assert got.tobytes() == _two_solves(h, sign, e0).tobytes(), (sign, lam)
    # the factors of one block at two fields, of one size and pivoted
    # differently, solved in turn: each closure owns its factors and
    # buffers, and every solution it returns is a copy (on one thread, as
    # the blocks are solved: on the pool OpenBLAS's dgesv can round a
    # threaded LU differently)
    block = eigensolve._symmetric_block(n, 1.0)
    mats = [block.hamiltonian(build_tfim(n, lam)) for lam in (0.5, -0.7)]
    got = [[np.ones(len(mat))] for mat in mats]
    want = [[np.ones(len(mat))] for mat in mats]
    with _blas.one_thread():
        solves = [_blas.lu_solver(mat) for mat in mats]
        for _ in range(3):
            for i, mat in enumerate(mats):
                got[i].append(solves[i](got[i][-1]))
                want[i].append(np.linalg.solve(mat, want[i][-1]))
    for got_i, want_i in zip(got, want):
        assert [x.tobytes() for x in got_i] == [x.tobytes() for x in want_i]


def test_singular_block_is_a_convergence_error(lu_path, monkeypatch):
    # at zero field the block is diagonal with the closed-form energy -N
    # on it: unshifted, B - e0 has an exact zero pivot
    monkeypatch.setattr(eigensolve, "SHIFT_REL", 0.0)
    with pytest.raises(ConvergenceError, match="block solve failed: Singular matrix"):
        lowest_eigenpairs(build_tfim(8, 0.0), 1)


def test_lu_routines_refuse_a_wrong_shape(lu_path):
    with pytest.raises(ValueError, match="square float64"):
        _blas.lu_solver(np.ones((3, 4)))
    with pytest.raises(ValueError, match="right-hand side of 3"):
        _blas.lu_solver(np.eye(3))(np.ones(4))


def _spy_on_gap(monkeypatch, setter):
    """Counts seen by the sector Lanczos solves and the N=14 quotients."""
    counts = {"lanczos": [], "quotient": []}
    lanczos, quotient = eigensolve._lanczos_smallest, eigensolve._recorded_quotient

    def spy_lanczos(op, rng):
        counts["lanczos"].append(_count(setter))
        return lanczos(op, rng)

    def spy_quotient(full, hv):
        if full.size == 1 << 14:
            counts["quotient"].append(_count(setter))
        return quotient(full, hv)

    monkeypatch.setattr(eigensolve, "_lanczos_smallest", spy_lanczos)
    monkeypatch.setattr(eigensolve, "_recorded_quotient", spy_quotient)
    return counts


def test_gap_lanczos_runs_on_one_thread_and_restores_the_count(
    blas_setter, monkeypatch
):
    counts = _spy_on_gap(monkeypatch, blas_setter)
    gap_scan(0.5, 13, 14)
    assert counts == {"lanczos": [1] * 4, "quotient": [1] * 2}
    assert _count(blas_setter) == 2


def test_callers_count_returns_after_a_gap_convergence_error(
    blas_setter, monkeypatch
):
    # an exhausted matvec budget: exit 2 from the CLI
    counts = _spy_on_gap(monkeypatch, blas_setter)
    monkeypatch.setattr(eigensolve, "MATVEC_BUDGET", 3)
    with pytest.raises(ConvergenceError, match="exhausted 3 matrix applications"):
        gap_scan(0.5, 14, 14)
    assert counts == {"lanczos": [1], "quotient": []}
    assert _count(blas_setter) == 2


# gap_scan(lam, 14, 14) as printed on the default 2-thread pool before the
# gap's Lanczos was pinned, at the ordered fields of the benchmark's
# variants 1, 3 and 8, whose N=14 rows moved under one thread while the
# quotient was still one dot
RECORDED_GAPS = {
    0.4854: 1.1089888827697791e-05,
    0.4891: 1.230836777033062e-05,
    0.4895: 1.2447246859892402e-05,
}


@pytest.mark.parametrize("count", (1, 2))
@pytest.mark.parametrize("lam", sorted(RECORDED_GAPS))
def test_gap_keeps_its_recorded_bits_at_any_callers_count(blas_setter, lam, count):
    blas_setter(count)
    try:
        got = gap_scan(lam, 14, 14)
    finally:
        blas_setter(2)
    assert got == [(14, RECORDED_GAPS[lam])]


def test_gap_cli_prints_the_same_row_on_one_thread():
    src = str(Path(z2memory.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "z2memory.cli", "gap", "--n-min", "14",
            "--n-max", "14", "--lambda", "0.4854"]
    default = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    rows = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        env = {**default, **extra, "PYTHONPATH": src}
        out = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=120, check=True
        )
        rows.append(out.stdout.splitlines()[-1])
    assert rows[0] == rows[1]
    assert rows[0].split(",")[:2] == ["14", repr(RECORDED_GAPS[0.4854])]


def test_without_the_symbol_the_scope_does_nothing(blas_setter, monkeypatch):
    monkeypatch.setattr(_blas, "_thread_setter", lambda: None)
    counts = _spy_on_solves(monkeypatch, blas_setter)
    lowest_eigenpairs(build_tfim(12, 0.5), 1)
    assert counts == [2] * (1 + eigensolve.SHIFT_STEPS)


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


def _spy_on_thermal(monkeypatch, setter):
    """Counts seen by the block eigh calls and the W products of a scan."""
    counts = {"eigh": [], "moduli": []}

    def spy(name, func):
        def call(*args):
            counts[name].append(_count(setter))
            return func(*args)

        return call

    monkeypatch.setattr(eigensolve, "eigh", spy("eigh", eigensolve.eigh))
    monkeypatch.setattr(
        thermal, "_squared_moduli", spy("moduli", thermal._squared_moduli)
    )
    return counts


@pytest.mark.parametrize(
    "n, count",
    ((thermal.ONE_THREAD_MAX_SITES, 1), (thermal.ONE_THREAD_MAX_SITES + 1, 2)),
)
def test_thermal_scans_pin_up_to_the_crossover(blas_setter, monkeypatch, n, count):
    counts = _spy_on_thermal(monkeypatch, blas_setter)
    thermal_scan(0.5, n, default_kt_grid(points=3))
    assert counts["eigh"] == [count] * 2 * (n // 2 + 1)
    assert counts["moduli"] and set(counts["moduli"]) == {count}
    assert _count(blas_setter) == 2


def test_callers_count_returns_after_a_thermal_convergence_error(
    blas_setter, monkeypatch
):
    # a block eigh residual within the eigh's own rounding: exit 2 from the CLI
    counts = _spy_on_thermal(monkeypatch, blas_setter)
    with pytest.raises(ConvergenceError, match="rounding of a dense eigh"):
        thermal_scan(1e5, 10, default_kt_grid(points=3))
    assert counts["eigh"] and set(counts["eigh"]) == {1}
    assert _count(blas_setter) == 2


def test_pinned_thermal_scan_keeps_its_bits_at_any_callers_count(blas_setter):
    grid = default_kt_grid()
    n = thermal.ONE_THREAD_MAX_SITES
    want = thermal_scan(0.5, n, grid)
    blas_setter(1)
    try:
        got = thermal_scan(0.5, n, grid)
    finally:
        blas_setter(2)
    assert np.array_equal(np.array(got), np.array(want))


def test_ground_correlation_determinants_run_on_one_thread(blas_setter, monkeypatch):
    counts = []

    def spy(mat):
        counts.append(_count(blas_setter))
        return np.linalg.det(mat)

    monkeypatch.setattr(majorana, "det", spy)
    majorana.ground_correlations(256, 0.5)
    assert counts == [1] * 256
    assert _count(blas_setter) == 2


# _blas's module docstring is the one list of pinned scopes, and _blas the
# one module that loads a library by hand: both are read off the source


def _package_trees():
    """(module name, parsed source) of every module of the package."""
    root = Path(z2memory.__file__).resolve().parent
    for path in sorted(root.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _calls(node, name):
    return any(
        isinstance(sub, ast.Call)
        and (getattr(sub.func, "id", None) == name
             or getattr(sub.func, "attr", None) == name)
        for sub in ast.walk(node)
    )


def test_blas_docstring_names_every_pinned_scope():
    pinning = [
        f"{module}.{node.name}"
        for module, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _calls(node, "one_thread")
    ]
    assert pinning  # the walk found the scopes at all
    missing = [name for name in pinning if name not in _blas.__doc__]
    assert not missing, f"pinned scopes missing from _blas's docstring: {missing}"


def test_only_blas_imports_ctypes():
    importers = set()
    for module, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "ctypes" for name in names):
                importers.add(module)
    assert importers == {"_blas"}
