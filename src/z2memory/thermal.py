"""Thermal states of the chain and their commutator-based coherence matrix.

A mixed state has no variance-covariance route to macroscopic coherence;
the usable diagnostic is the Gram matrix of the commutators [rho, s_a(l)]
under the trace inner product.  Its largest eigenvalue e1 plays the role
the VCM spectrum plays for pure states: it bounds how strongly any
additive operator fails to commute with rho, collapses to zero on the
maximally mixed state, and reduces to twice the real part of the VCM on a
pure state.  W is the VCM's phased Gram matrix of Pauli rows, taken in an
eigenbasis of rho, so a temperature scan works in the energy eigenbasis
of H and never forms rho.

The scan diagonalizes H on the blocks of momentum k and flip parity s
(Sandvik, arXiv:1101.3281), about 2^N/(2N) states each.  A Gibbs state of
H keeps both symmetries, so W splits into three circulant axis blocks, and
their spectra follow in closed form from the site-1 Pauli operators
between blocks: lambda_a(q) sums (p_i - p_j)^2 |A_ij|^2 over the block
pairs of momentum transfer q, nonnegative term by term.  One scatter and
two matrix products per group of block pairs serve every temperature of
the grid: no 2^N eigenvector is formed, no 3N x 3N matrix is assembled and
no eigh runs per temperature.  build_w_matrix stays the general route for
any GibbsState, on the dense spectrum of up to FULL_SPECTRUM_MAX_SITES.

Scans of up to ONE_THREAD_MAX_SITES sites run with numpy's OpenBLAS on one
thread (_blas.one_thread).  There the pool's second thread mostly
busy-waits through the block eigh calls and the W products, doubling the
CPU time for no wall time, and a fresh process can stall on its first
threaded call.  From N = 11 on the pool saves wall time, so larger scans
keep the caller's thread count.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_thread
from .errors import CapabilityError, ContractError, DomainError
from .eigensolve import (
    FullSpectrum,
    _momentum_spectra,
    _MomentumSpectra,
    _momentum_blocks,
    _orbits,
    _scatter,
    full_spectrum,
)
from .macroscopicity import (
    HERMITICITY_TOL, CorrelationKind, CorrelationMatrix, _axis_rows, _phased_gram
)
from .model import TfimHamiltonian, build_tfim, check_chain

TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
COMMUTE_TOL = 1e-8

DEFAULT_KT_MIN = 0.05
DEFAULT_KT_MAX = 2.0
DEFAULT_KT_POINTS = 40
THERMAL_MAX_KT_POINTS = 1000  # each point holds ~0.1 MB at N = 12, ~0.4 MB at 14
THERMAL_MAX_SITES = 14  # 40 points take ~18 s and 0.63 GB at N = 14 on 2 cores
# Scans up to this size run on one OpenBLAS thread: there the pool's second
# thread only busy-waits, and at N = 11 and up it saves wall time
# (BENCH_thermal_one_thread.json, thermal_scan_standalone).
ONE_THREAD_MAX_SITES = 10


@dataclass(frozen=True)
class GibbsState:
    """Thermal equilibrium density matrix of the chain at temperature kT.

    The constructor renormalizes the trace to exactly 1 and records the
    size of the correction; Hermiticity, positivity, and commutation with
    the Hamiltonian rebuilt from (n_sites, lam) are all verified here, so
    a constructed instance is safe to hand to the coherence analysis.  Its
    eigensystem is kept: ascending ``weights``, columns of ``eigenbasis``.
    """

    n_sites: int
    lam: float
    kT: float
    rho: np.ndarray
    trace_correction: float = field(init=False)
    weights: np.ndarray = field(init=False, repr=False)
    eigenbasis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = 1 << self.n_sites
        mat = np.array(self.rho, dtype=np.complex128, copy=True)
        if mat.shape != (dim, dim):
            raise ContractError(f"rho has shape {mat.shape}, expected ({dim}, {dim})")
        tr = complex(np.trace(mat))
        if abs(tr.imag) > TRACE_TOL or not 0.5 < tr.real < 2.0:
            raise ContractError(f"trace {tr!r} is not a normalizable density trace")
        correction = abs(tr.real - 1.0)
        mat /= tr.real
        drift = float(np.abs(mat - mat.conj().T).max())
        if drift > HERMITICITY_TOL:
            raise ContractError(f"rho fails Hermiticity by {drift:.3e}")
        weights, eigenbasis = np.linalg.eigh(mat)
        if weights[0] < EIGENVALUE_FLOOR:
            raise ContractError(f"rho has negative eigenvalue {weights[0]:.3e}")
        h_rho = build_tfim(self.n_sites, self.lam).apply(mat)
        # rho H = (H rho)^dagger for Hermitian factors
        commute = float(np.abs(h_rho - h_rho.conj().T).max())
        if commute > COMMUTE_TOL:
            raise ContractError(f"rho fails to commute with H by {commute:.3e}")
        for arr in (mat, weights, eigenbasis):
            arr.flags.writeable = False
        object.__setattr__(self, "rho", mat)
        object.__setattr__(self, "kT", float(self.kT))
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "trace_correction", correction)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "eigenbasis", eigenbasis)

    def energy(self) -> float:
        """Tr(rho H) for the Hamiltonian this state was built against."""
        h_rho = build_tfim(self.n_sites, self.lam).apply(self.rho)
        return float(np.trace(h_rho).real)


def _check_temperature(kT: float) -> float:
    kT = float(kT)
    if not np.isfinite(kT) or kT <= 0.0:
        raise DomainError(f"temperature must be positive and finite, got {kT!r}")
    return kT


def _boltzmann_weights(energies: np.ndarray, kT: float) -> np.ndarray:
    """exp(-E_i/kT)/Z, relative to the ground energy so nothing overflows."""
    with np.errstate(under="ignore"):
        weights = np.exp(-(energies - energies.min()) / kT)
    return weights / weights.sum()


def _w_matrix(p: np.ndarray, basis: np.ndarray, n: int) -> CorrelationMatrix:
    """W of rho = sum_i p_i |u_i><u_i|, u_i the orthonormal columns of
    ``basis``: Tr([rho, A]^dagger [rho, B]) equals
    sum_ij (p_i - p_j)^2 conj(A_ij) B_ij.  The table holds U^dagger s U
    for the Pauli rows s of macroscopicity._axis_rows, each row taken to
    the eigenbasis in place, then reweighted to G = table * |p_i - p_j|;
    W is the phased Gram matrix of G, as the VCM is of its rows.
    """
    left = basis.conj().T
    table = _axis_rows(basis, n)
    for row in table:
        row[...] = left @ row
    table *= np.abs(p[:, None] - p[None, :])
    gram = _phased_gram(table)
    return CorrelationMatrix(n_sites=n, kind=CorrelationKind.W, entries=gram)


def _gap_weighted_sums(prod: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_ij (p_i - q_j)^2 prod_ij per temperature column of p and q,
    expanded as (prod 1) . p^2 + (prod^T 1) . q^2 - 2 p . (prod q): one
    matrix product, and no table of squared gaps.  Leading axes of prod
    and p are a batch."""
    cross = np.einsum("...ik,...ik->...k", p, prod @ q)
    rows = np.einsum("...i,...ik->...k", prod.sum(axis=-1), p * p)
    cols = np.einsum("...j,...jk->...k", prod.sum(axis=-2), q * q)
    return rows + cols - 2.0 * cross


@functools.lru_cache(maxsize=None)
def _pair_classes(n: int, cross: bool) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """The ordered block pairs k -> k' that the scan computes, grouped by
    source k: (k, targets, counts).

    The pair's summand S is unchanged when source and target swap (A^dagger
    has the moduli of A transposed) and when both momenta change sign (H
    and the three site operators are real, so block -k is the conjugate of
    block k).  So one pair stands for its class of up to four, and
    counts[t, q] is the number of class members with momentum transfer q.
    ``cross`` pairs join flip parity +1 to -1, and swapping also swaps the
    parities, so every class has a member whose source has parity +1.
    """
    target = int(cross)
    classes: dict[int, list] = {}
    for k in range(n):
        for k2 in range(n):
            members = {
                (0, k, target, k2),
                (target, k2, 0, k),
                (0, -k % n, target, -k2 % n),
                (target, -k2 % n, 0, -k % n),
            }
            if min(members) == (0, k, target, k2):
                qs = [(t - s) % n for _, s, _, t in members]
                classes.setdefault(k, []).append((k2, np.bincount(qs, minlength=n)))
    return [
        (k, np.array([k2 for k2, _ in pairs]), np.array([c for _, c in pairs]))
        for k, pairs in classes.items()
    ]


def _squared_moduli(left: np.ndarray, f: np.ndarray, right: np.ndarray) -> np.ndarray:
    """|A_ij|^2 for every A = left[t]^T f[t] right."""
    a = left.transpose(0, 2, 1) @ (f.reshape(-1, f.shape[-1]) @ right).reshape(
        f.shape[0], f.shape[1], -1
    )
    prod = np.square(a.real)
    prod += np.square(a.imag)
    return prod


def _scan_w_spectra(
    n: int, blocks: _MomentumSpectra, weights: np.ndarray
) -> np.ndarray:
    """Eigenvalues of W at every temperature column, shape (3, N, n_kT):
    axis, momentum q, temperature.  ``blocks`` are the eigensystems of the
    momentum and flip-parity blocks (_momentum_spectra), and ``weights``
    their Boltzmann weights, shape (2, N, width, n_kT) like
    blocks.energies, one column per temperature.

    Axis blocks.  sigma_x keeps the flip parity s, and sigma_z and
    -i sigma_y = sigma_x sigma_z flip it, so the x-z and x-y terms of W have
    disjoint support and the y-z terms cancel: W = W_xx + W_yy + W_zz, each
    circulant because rho is translation invariant.

    Closed form.  With A = U'^dagger F U the site-1 operator between blocks
    (k, s) and (k', s'), sigma_a(l) has the same moduli |A_ij| at every site
    and a phase linear in (k - k')(l - 1), so the circulant W_aa has the
    eigenvalues lambda_a(q) = N sum_{k' - k = q} sum_ij (p_i - p_j)^2 |A_ij|^2:
    a sum of squares, nonnegative by construction.  Each F comes from one
    scatter over the 2^N strings, for every target block of a source at
    once, and each summand meets all temperatures in _gap_weighted_sums,
    on weights centred on the maximally mixed 2^-N: that leaves p_i - p_j as
    it is, and the expansion no longer cancels the common part of p at high
    temperature.  Columns of U past a block's dimension are 0, so their
    weights never count.
    """
    orbits = _orbits(n, reflect=False)
    amplitudes = np.array([[b.coef for b in row] for row in _momentum_blocks(n)])
    side = orbits.reps.size
    strings = np.arange(1 << n)
    top = 1 << (n - 1)  # site 1, the most significant bit
    z1 = np.where(strings & top, -1.0, 1.0)
    w = weights - 0.5**n
    spectra = np.zeros((3, n, w.shape[-1]))
    # (source parity, target parity, ((axis, image of b, phase), ...))
    sectors = (
        (0, 0, ((0, strings ^ top, 1.0),)),
        (1, 1, ((0, strings ^ top, 1.0),)),
        (0, 1, ((1, strings ^ top, z1), (2, strings, z1))),
    )
    for i, j, operators in sectors:
        for k, targets, counts in _pair_classes(n, i != j):
            source = amplitudes[i, k]
            reach = amplitudes[j, targets].conj()
            u = blocks.vectors[i, k]
            ut = np.conj(blocks.vectors[j, targets])
            offsets = (np.arange(targets.size) * side * side)[:, None]
            for axis, image, phase in operators:
                values = reach[:, image] * (source * phase)
                index = offsets + orbits.orbit[image] * side + orbits.orbit
                f = _scatter(index.ravel(), values.ravel(), (targets.size, side, side))
                prod = _squared_moduli(ut, f, u)
                sums = _gap_weighted_sums(prod, w[j, targets], w[i, k])
                spectra[axis] += counts.T @ sums
    return n * spectra


def _block_weights(blocks: _MomentumSpectra, grid: np.ndarray) -> np.ndarray:
    """Boltzmann weights of every block state at every temperature of the
    grid, laid out like blocks.energies with one column per temperature,
    and 0 past each block's dimension."""
    valid = np.arange(blocks.energies.shape[-1]) < blocks.dims[..., None]
    energies = blocks.energies[valid]
    weights = np.zeros((*valid.shape, grid.size))
    weights[valid] = np.column_stack([_boltzmann_weights(energies, kT) for kT in grid])
    return weights


def gibbs_from_spectrum(spectrum: FullSpectrum, lam: float, kT: float) -> GibbsState:
    """Thermal state assembled from a precomputed eigendecomposition."""
    kT = _check_temperature(kT)
    weights = _boltzmann_weights(spectrum.eigenvalues, kT)
    rho = (spectrum.basis * weights) @ spectrum.basis.conj().T
    return GibbsState(n_sites=spectrum.n_sites, lam=lam, kT=kT, rho=rho)


def gibbs_state(h: TfimHamiltonian, kT: float) -> GibbsState:
    """Thermal equilibrium state e^(-H/kT)/Z of the chain Hamiltonian."""
    kT = _check_temperature(kT)
    return gibbs_from_spectrum(full_spectrum(h), h.lam, kT)


def build_w_matrix(rho: GibbsState) -> CorrelationMatrix:
    """Gram matrix of the commutators [rho, s_a(l)] in the trace inner
    product, eigen-decomposed descending.

    Entry (a,l),(b,m) equals Tr([rho, s_a(l)] [s_b(m), rho]), computed in
    the eigenbasis of rho that the GibbsState checks already found.
    """
    tr = complex(np.trace(rho.rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ContractError(f"W needs a trace-1 density matrix, trace is {tr!r}")
    return _w_matrix(rho.weights, rho.eigenbasis, rho.n_sites)


def _check_points(points: int) -> None:
    if points > THERMAL_MAX_KT_POINTS:
        raise CapabilityError(
            f"thermal grids stop at {THERMAL_MAX_KT_POINTS} points, got {points}"
        )


def default_kt_grid(
    kt_min: float = DEFAULT_KT_MIN,
    kt_max: float = DEFAULT_KT_MAX,
    points: int = DEFAULT_KT_POINTS,
) -> np.ndarray:
    """Log-spaced temperature grid covering the low-T plateau and the
    decay, of at most THERMAL_MAX_KT_POINTS points."""
    if not 0.0 < kt_min < kt_max:
        raise DomainError("grid needs 0 < kt_min < kt_max")
    if not (isinstance(points, (int, np.integer)) and points >= 2):
        raise DomainError(f"grid needs an integer of at least 2 points, got {points!r}")
    _check_points(points)
    return np.geomspace(kt_min, kt_max, points)


def thermal_scan(lam: float, n: int, kT_grid=None) -> list[tuple[float, float]]:
    """e1 of the commutator Gram matrix across a temperature grid of up to
    THERMAL_MAX_KT_POINTS points, for up to THERMAL_MAX_SITES sites.

    Every point reweights one eigensystem of H per momentum and flip-parity
    block; one pass over the block pairs gives the eigenvalues of W for the
    whole grid, and e1 is the largest (see _scan_w_spectra).  GibbsState's
    checks hold by construction: the weights are nonnegative with sum 1,
    and the checks in _momentum_spectra bound ||[rho, H]|| by twice the
    worst residual.  Up to ONE_THREAD_MAX_SITES sites the whole scan runs
    on one OpenBLAS thread, so its bits do not depend on the caller's
    thread count, and holds _blas's lock for its whole run; larger scans
    run on the caller's pool.
    """
    if kT_grid is None:
        kT_grid = default_kt_grid()
    grid = np.asarray(kT_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("temperature grid must be a nonempty 1-d array")
    _check_points(grid.size)
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise DomainError("temperatures must be positive and finite")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("temperature grid must be strictly ascending")
    n, lam = check_chain(n, lam)
    if n > THERMAL_MAX_SITES:
        raise CapabilityError(
            f"thermal scans stop at {THERMAL_MAX_SITES} sites, got {n}"
        )
    pinned = n <= ONE_THREAD_MAX_SITES
    with one_thread() if pinned else contextlib.nullcontext():
        blocks = _momentum_spectra(build_tfim(n, lam))
        spectra = _scan_w_spectra(n, blocks, _block_weights(blocks, grid))
    return [(float(kT), float(e)) for kT, e in zip(grid, spectra.max(axis=(0, 1)))]
