"""Thermal states of the chain and their commutator-based coherence matrix.

A mixed state has no variance-covariance route to macroscopic coherence;
the usable diagnostic is the Gram matrix of the commutators [rho, s_a(l)]
under the trace inner product.  Its largest eigenvalue e1 plays the role
the VCM spectrum plays for pure states: it bounds how strongly any
additive operator fails to commute with rho, collapses to zero on the
maximally mixed state, and reduces to twice the real part of the VCM on a
pure state.  W is computed in an eigenbasis of rho, so a temperature scan
works in the energy eigenbasis of H and never forms rho.  A Gibbs state of
H also keeps flip parity and translation invariance, so in the eigenbasis
of the two flip-parity sectors its W splits into three real symmetric
circulant axis blocks.  The scan reads the first rows at the offsets
0..N/2 straight from the sector eigenvectors on the 2^(N-1) half-space,
one matrix product per block over every temperature, and reads the
spectrum of W from them in closed form: no 2^N eigenvector is lifted, no
3N x 3N matrix is assembled and no eigh runs per temperature.
build_w_matrix stays the general route for any GibbsState.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .eigensolve import FullSpectrum, _sector_spectra, full_spectrum
from .macroscopicity import PSD_FLOOR, CorrelationKind, CorrelationMatrix
from .model import TfimHamiltonian, build_tfim
from .pauli import PauliAxis, _apply_axis

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
COMMUTE_TOL = 1e-8

DEFAULT_KT_MIN = 0.05
DEFAULT_KT_MAX = 2.0
DEFAULT_KT_POINTS = 40


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
        h_rho = _left_apply(build_tfim(self.n_sites, self.lam), mat)
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
        h_rho = _left_apply(build_tfim(self.n_sites, self.lam), self.rho)
        return float(np.trace(h_rho).real)


def _left_apply(h: TfimHamiltonian, mat: np.ndarray) -> np.ndarray:
    """H @ mat, column by column through the matrix-free Hamiltonian."""
    out = np.empty_like(mat)
    for j in range(mat.shape[1]):
        out[:, j] = h.apply(mat[:, j])
    return out


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
    sum_ij (p_i - p_j)^2 conj(A_ij) B_ij.  The table holds U^dagger s U for
    s = sigma_x, -i sigma_y = sigma_x sigma_z, sigma_z, real whenever U is;
    sigma_y's i returns as a phase on G G^dagger, G = table * |p_i - p_j|,
    the table reweighted in place.
    """
    left = basis.conj().T
    table = np.empty((3 * n, *basis.shape), dtype=basis.dtype)
    for site in range(1, n + 1):
        z = _apply_axis(basis, n, PauliAxis.Z, site)
        row = 3 * (site - 1)
        np.matmul(left, _apply_axis(basis, n, PauliAxis.X, site), out=table[row])
        np.matmul(left, _apply_axis(z, n, PauliAxis.X, site), out=table[row + 1])
        np.matmul(left, z, out=table[row + 2])
    table = table.reshape(3 * n, -1)
    table *= np.abs(p[:, None] - p[None, :]).reshape(-1)
    # for a real table .conj() is the table itself, so G @ G.T on one
    # buffer takes BLAS's symmetric rank-k update
    gram = table.conj() @ table.T
    phase = np.tile([1.0, 1.0j, 1.0], n)
    w = phase.conj()[:, None] * gram * phase
    return CorrelationMatrix(n_sites=n, kind=CorrelationKind.W, entries=w)


def _gap_weighted_sums(prod: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """sum_ij (p_i - q_j)^2 prod_ij per temperature column of p and q,
    expanded as (prod 1) . p^2 + (prod^T 1) . q^2 - 2 p . (prod q): one
    matrix product, and no table of squared gaps."""
    cross = np.einsum("ik,ik->k", p, prod @ q)
    return prod.sum(axis=1) @ (p * p) + prod.sum(axis=0) @ (q * q) - 2.0 * cross


def _scan_w_spectra(
    n: int, vectors: tuple[np.ndarray, ...], weights: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Eigenvalues of W at every temperature column, shape (3, N, n_kT):
    axis, momentum q, temperature.  ``vectors`` are the eigenvectors of the
    flip sectors +1 and -1 on the 2^(N-1) half-space (_sector_spectra), and
    ``weights`` their Boltzmann weights, one column per temperature.  Three
    identities of a Gibbs state give the spectra without forming W.

    Axis blocks.  sigma_x keeps the flip parity and sigma_z, -i sigma_y flip
    it, so in the real sector basis the x-z and x-y terms of W have disjoint
    support and the z-y terms cancel between the +- and -+ blocks:
    W = W_xx + W_yy + W_zz.  rho is translation invariant, so each W_aa is
    circulant, with first row r_a[d] = sum_ij (p_i - p_j)^2 A(2)_ij A(2+d)_ij
    taken from site 2.

    Mirror.  W_aa is real symmetric and circulant, so r_a[d] = r_a[N - d]:
    only the offsets d = 0..N//2 need site products, and the partner sites
    2..2 + N//2 stay within the ring for every N >= 3.

    Sector coordinates.  A sector state is (|b> +- |flipped b>)/sqrt2 over
    b < 2^(N-1).  sigma on sites 2..N keeps that half-space and commutes or
    anticommutes with the flip, so between sector states it acts as
    _apply_axis(., N-1, axis, l-1): each block is a 2^(N-1)-cubed GEMM, and
    no lifted column needs a flip-mirror check.  Each P = A(2) o A(2+d)
    meets all temperatures in _gap_weighted_sums, on weights centred on the
    maximally mixed 2^-N: that leaves p_i - q_j as it is, and the expansion
    no longer cancels the common part of p at high temperature.

    Closed form.  W is the direct sum of the three circulants, so its
    spectrum is lambda_a(q) = sum_d r_a[d] cos(2 pi q d / N), real by
    construction.  The smallest lambda must clear PSD_FLOOR, else
    ContractError.
    """
    up, um = vectors
    wp, wm = (w - 0.5**n for w in weights)
    reach = n // 2
    rows = np.empty((3, reach + 1, wp.shape[1]))
    first = None
    for d in range(reach + 1):
        site = 1 + d  # site 2 + d of the ring, on the N-1 bits of the half-space
        zm = _apply_axis(um, n - 1, PauliAxis.Z, site)
        blocks = (
            up.T @ _apply_axis(up, n - 1, PauliAxis.X, site),
            um.T @ _apply_axis(um, n - 1, PauliAxis.X, site),
            up.T @ _apply_axis(zm, n - 1, PauliAxis.X, site),
            up.T @ zm,
        )
        first = blocks if first is None else first
        xp, xm, y, z = (a1 * ad for a1, ad in zip(first, blocks))
        rows[0, d] = _gap_weighted_sums(xp, wp, wp) + _gap_weighted_sums(xm, wm, wm)
        # xx comes from the ++ and -- blocks, yy and zz from the +- block:
        # the -+ block of sigma_z is its transpose, of -i sigma_y minus it,
        # so it doubles the +- sum
        rows[1, d] = 2.0 * _gap_weighted_sums(y, wp, wm)
        rows[2, d] = 2.0 * _gap_weighted_sums(z, wp, wm)
    offsets = np.arange(n)
    lag = np.minimum(offsets, n - offsets)
    cosines = np.cos(2.0 * np.pi * (np.outer(offsets, offsets) % n) / n)
    spectra = cosines @ rows[:, lag]
    floor = float(spectra.min())
    if floor < PSD_FLOOR:
        raise ContractError(
            f"smallest eigenvalue {floor:.3e} breaks positive semidefiniteness"
        )
    return spectra


def gibbs_from_spectrum(spectrum: FullSpectrum, lam: float, kT: float) -> GibbsState:
    """Thermal state assembled from a precomputed eigendecomposition."""
    kT = _check_temperature(kT)
    weights = _boltzmann_weights(spectrum.eigenvalues, kT)
    rho = (spectrum.basis * weights) @ spectrum.basis.T
    return GibbsState(
        n_sites=spectrum.n_sites, lam=lam, kT=kT, rho=rho.astype(np.complex128)
    )


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


def default_kt_grid(
    kt_min: float = DEFAULT_KT_MIN,
    kt_max: float = DEFAULT_KT_MAX,
    points: int = DEFAULT_KT_POINTS,
) -> np.ndarray:
    """Log-spaced temperature grid covering the low-T plateau and the decay."""
    if not 0.0 < kt_min < kt_max:
        raise DomainError("grid needs 0 < kt_min < kt_max")
    if points < 2:
        raise DomainError("grid needs at least 2 points")
    return np.geomspace(kt_min, kt_max, points)


def thermal_scan(lam: float, n: int, kT_grid=None) -> list[tuple[float, float]]:
    """e1 of the commutator Gram matrix across a temperature grid.

    Every point reweights one eigendecomposition of H per flip sector; one
    matrix product per block gives the circulant rows of W for the whole
    grid, and e1 is the largest of their closed-form eigenvalues (see
    _scan_w_spectra).  GibbsState's checks hold by construction: the
    weights are nonnegative with sum 1, and the checks in _sector_spectra
    bound ||[rho, H]|| by twice the worst residual.
    """
    if kT_grid is None:
        kT_grid = default_kt_grid()
    grid = np.asarray(kT_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("temperature grid must be a nonempty 1-d array")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise DomainError("temperatures must be positive and finite")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("temperature grid must be strictly ascending")
    (_, ep, up), (_, em, um) = _sector_spectra(build_tfim(n, lam))
    energies = np.concatenate([ep, em])
    weights = np.column_stack([_boltzmann_weights(energies, kT) for kT in grid])
    spectra = _scan_w_spectra(n, (up, um), np.split(weights, [ep.size]))
    return [(float(kT), float(e)) for kT, e in zip(grid, spectra.max(axis=(0, 1)))]
