"""Correlation-matrix spectra and the scaling index of additive fluctuations.

For a pure state the variance of any additive operator A = sum_l a(l) is a
Rayleigh quotient of the 3N x 3N matrix of connected pair correlations, so
its largest eigenvalue e1 caps every additive variance at e1*N.  How e1
grows with N is the diagnostic: e1 flat means no additive operator ever
develops a macroscopic fluctuation, e1 ~ N means some operator's variance
reaches order N^2.  This module builds that matrix, extracts e1/e2 and the
maximizing operator, fits scaling exponents, and histograms total
z magnetization.

build_vcm takes any pure state as a 2^N vector and has two routes, picked
by the state.  A translation-invariant state, one whose one-site rotation
is e^(i theta) psi within TRANSLATION_TOL in 2-norm, has a block-circulant
matrix: block (l, m) is the 3 x 3 block G(m - l mod N) of its first block
row.  G(0) comes from the one-site density matrix rho(1), and each G(d)
from the two-site density matrix rho(1, 1+d), one transposed reshape of
psi and one 4 x 4 product, contracted with a fixed table of Pauli pairs
(_pair_density_entries).  Every other state gets the Gram matrix of all
3N vectors s_a(l)|psi> (_axis_rows, _phased_gram), as thermal's W does
in an eigenbasis of rho.  The first route calls no BLAS routine that
OpenBLAS threads (pauli's module docstring says why that matters): its
products have a 4 x 4 output.  The Gram route's 3N-row product over 2^N
columns is threaded.  Both routes' matrices, and W, take one 3N x 3N
eigvalsh in CorrelationMatrix.

The e1 scan needs no 2^N vector and no 2N x 2N eigh: the ground state is
Gaussian in Jordan-Wigner fermions, so majorana.ground_correlations gives
its pair correlations from one FFT over the free-fermion momenta and two
Toeplitz determinants, and its 3 x 3 Fourier blocks, one more FFT, have
closed-form eigenvalues (_ground_spectrum).  That reaches N in the
hundreds.  The e2 scan still reads the matrix of the 2^N ground state,
and the superposed e1 scan and the Mz histograms take their 2^N states
from lowest_eigenpairs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .eigensolve import SCAN_MAX_SITES, lowest_eigenpairs, superposed_state
from .majorana import ground_correlations
from .model import build_tfim, check_sizes
from .pauli import (
    _ROW_PHASE, AdditiveOperator, PauliAxis, StateVector, _apply_axis, _norm,
    _real_if_real, _require_unit_norm, _vdot, mz_diagonal,
)

HERMITICITY_TOL = 1e-10
PSD_FLOOR = -1e-8  # Gram structure: eigenvalues below this are a bug
DEGENERACY_REL_TOL = 1e-10
GAUSSIAN_SCAN_MAX_SITES = 512  # one e1 point takes ~0.2 s at N = 512 on 2 cores
# 2-norm gap allowed between T psi and e^(i theta) psi.  A state within it
# is a distance <= j * TRANSLATION_TOL from its own j-site rotation (times
# a phase), so every entry of the block-circulant matrix lies within
# 6N * TRANSLATION_TOL of its exact value (two-point terms and the two
# means each move by at most twice the distance).
TRANSLATION_TOL = 1e-12
# sigma_x, sigma_y = i sigma_x sigma_z and sigma_z: the row operators of
# _axis_rows times pauli._ROW_PHASE, over the one-site basis (bit 0, bit 1)
_SIGMA = _ROW_PHASE[:, None, None] * np.array(
    [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]
)
_SITE_TABLE = np.einsum("aij,bjk->abik", _SIGMA, _SIGMA)  # s_a s_b on one site
# s_a(1) s_b(1+d) over the two-site basis 2 bit_1 + bit_(1+d)
_PAIR_TABLE = np.einsum("aij,bkl->abikjl", _SIGMA, _SIGMA).reshape(3, 3, 4, 4)


class CorrelationKind(enum.Enum):
    VCM = "vcm"  # pure-state connected pair correlations
    W = "w"  # commutator Gram matrix of a density matrix


class FitModel(enum.Enum):
    POWERLAW = "powerlaw"  # fits log y against log x
    EXPONENTIAL = "exponential"  # fits log y against x


def _check_psd(vals: np.ndarray) -> None:
    """The smallest of the descending eigenvalues ``vals`` of a Gram-like
    matrix clears PSD_FLOOR, else ContractError."""
    if vals[-1] < PSD_FLOOR:
        raise ContractError(
            f"smallest eigenvalue {vals[-1]:.3e} breaks positive semidefiniteness"
        )


@dataclass(frozen=True)
class CorrelationMatrix:
    """3N x 3N Hermitian correlation matrix with its spectrum attached.

    Row 3*(l-1)+a addresses axis a (0:x, 1:y, 2:z) on site l.  The
    entries are checked Hermitian within HERMITICITY_TOL and symmetrized;
    their eigenvalues, from eigvalsh, are stored descending.
    """

    n_sites: int
    kind: CorrelationKind
    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        side = 3 * self.n_sites
        m = np.array(self.entries, dtype=np.complex128, copy=True)
        if m.shape != (side, side):
            raise ContractError(
                f"correlation matrix has shape {m.shape}, expected ({side}, {side})"
            )
        drift = float(np.abs(m - m.conj().T).max())
        if drift > HERMITICITY_TOL:
            raise ContractError(f"matrix fails Hermiticity by {drift:.3e}")
        m = (m + m.conj().T) / 2.0
        vals = np.linalg.eigvalsh(m)[::-1].copy()  # descending
        _check_psd(vals)
        for arr in (m, vals):
            arr.flags.writeable = False
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def e1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def e2(self) -> float:
        return float(self.eigenvalues[1])


def _block_circulant(row: np.ndarray) -> np.ndarray:
    """The 3N x 3N matrix whose block (l, m) is row[(m - l) mod N], from a
    first block row of shape (N, 3, 3)."""
    n = row.shape[0]
    sites = np.arange(n)
    blocks = row[(sites[None, :] - sites[:, None]) % n]  # [l, m, a, b]
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def _axis_rows(amps: np.ndarray, n: int) -> np.ndarray:
    """The kernel rows sigma_x, sigma_x sigma_z = -i sigma_y and sigma_z of
    every site (pauli._apply_axis) applied to the leading 2^N basis index
    of ``amps``, each written in place as row 3*(l-1)+a of one array of
    shape (3N, *amps.shape), real whenever ``amps`` is; s_a(l) is
    _ROW_PHASE[a] times its row."""
    amps = np.ascontiguousarray(amps)
    rows = np.empty((3 * n, *amps.shape), dtype=amps.dtype)
    for l in range(1, n + 1):
        for axis in PauliAxis:
            _apply_axis(amps, n, axis, l, out=rows[3 * (l - 1) + axis])
    return rows


def _phased_gram(rows: np.ndarray) -> np.ndarray:
    """The Gram matrix of Pauli rows (_axis_rows, flattened past the first
    index), sigma_y's i returned as _ROW_PHASE on both sides.  A real R is
    its own .conj(), so R @ R.T on one buffer takes BLAS's syrk."""
    rows = rows.reshape(rows.shape[0], -1)
    phase = np.tile(_ROW_PHASE, rows.shape[0] // 3)
    return phase.conj()[:, None] * (rows.conj() @ rows.T) * phase


def _gram_entries(amps: np.ndarray, n: int) -> np.ndarray:
    """The connected correlations of the N-site amplitudes ``amps`` as a
    Gram matrix of all 3N rows, in real arithmetic for a real array (the
    one build_vcm passes for a state with zero imaginary part)."""
    rows = _axis_rows(amps, n)
    # <s_r psi|psi> is conj(phase_r) times the row's overlap; its real part
    # is the Hermitian single-site expectation
    means = (np.tile(_ROW_PHASE, n).conj() * (rows.conj() @ amps)).real
    return _phased_gram(rows) - np.outer(means, means)


def _translation_phase(amps: np.ndarray) -> complex | float | None:
    """e^(i theta) if the one-site rotation T psi of the amplitudes is
    e^(i theta) psi within TRANSLATION_TOL in 2-norm, else None.  Moving
    site 1 from the top bit to the bottom one maps site l+1 onto site l,
    one transposed copy; the phase is the overlap <psi|T psi>, a float
    for a real array."""
    rotated = amps.reshape(2, -1).T.flatten()
    phase = _vdot(amps, rotated)
    if not np.iscomplexobj(amps):
        phase = phase.real
    rotated -= phase * amps
    if _norm(rotated) <= TRANSLATION_TOL:
        return phase
    return None


def _pair_density_entries(amps: np.ndarray, n: int) -> np.ndarray:
    """The connected correlations of translation-invariant N-site
    amplitudes ``amps`` as the block-circulant expansion of their first
    block row.

    Translation leaves every expectation of the state unchanged, so block
    (l, m) is G(m - l mod N), G(d)[a, b] = <s_a(1) s_b(1+d)> -
    <s_a><s_b>.  G(0) and the means come from rho(1) and _SITE_TABLE; each
    G(d), d = 1..N-1, from rho(1, 1+d) and _PAIR_TABLE: psi reshaped so
    sites 1 and 1+d lead, M of shape (4, 2^(N-2)), and rho = M M^dagger.
    A real array, the one build_vcm passes for a state with zero imaginary
    part, runs in real arithmetic.
    """
    one = amps.reshape(2, -1)
    rho1 = one @ one.conj().T
    means = np.einsum("ij,aji->a", rho1, _SIGMA).real
    rhos = np.empty((n - 1, 4, 4), dtype=amps.dtype)
    for d in range(1, n):
        pair = amps.reshape(2, 1 << (d - 1), 2, -1).transpose(0, 2, 1, 3).reshape(4, -1)
        rhos[d - 1] = pair @ pair.conj().T
    row = np.concatenate((
        np.einsum("ij,abji->ab", rho1, _SITE_TABLE)[None],
        np.einsum("dij,abji->dab", rhos, _PAIR_TABLE),
    ))
    return _block_circulant(row - np.outer(means, means))


def build_vcm(state: StateVector) -> CorrelationMatrix:
    """Connected pair-correlation matrix of a normalized pure state.

    Entry (a,l),(b,m) is <s_a(l) s_b(m)> - <s_a(l)><s_b(m)>, including the
    same-site off-axis terms.  A translation-invariant state
    (_translation_phase) takes its block-circulant matrix from two-site
    density matrices (_pair_density_entries).  Every other state
    gets the Gram matrix of all 3N vectors s_a(l)|psi>, positive
    semidefinite by construction.  Its rows hold sigma_x, -i sigma_y =
    sigma_x sigma_z and sigma_z applied to psi, which stay real when psi
    is: a state with zero imaginary part runs in real arithmetic, its norm
    and translation checks included.  sigma_y's i returns as a phase on
    the products and on the means.  CorrelationMatrix's Hermiticity check
    and PSD floor hold both routes.
    """
    amps = _real_if_real(state.amplitudes)
    _require_unit_norm(amps)
    if _translation_phase(amps) is not None:
        entries = _pair_density_entries(amps, state.n_sites)
    else:
        entries = _gram_entries(amps, state.n_sites)
    return CorrelationMatrix(
        n_sites=state.n_sites, kind=CorrelationKind.VCM, entries=entries
    )


def _ground_spectrum(n_sites: int, lam: float) -> np.ndarray:
    """The 3N eigenvalues of the ground state's correlation matrix,
    descending, from majorana.ground_correlations.

    The ground state is translation invariant, so block (l, m) of the
    matrix depends only on d = m - l mod N, and the spectrum is the union
    of the 3 x 3 blocks V(q) = sum_d V(d) e^(2 pi i q d / N).  Flip parity
    kills every x-y and x-z entry, and a real state every y-z entry
    between different sites, leaving the same-site <s_y s_z> = i<s_x> =
    i m.  With V_aa(d) = V_aa(N - d), each V_aa(q) is a cosine sum, the
    real part of one FFT over d.  x decouples, and y, z form
    [[V_yy, i m], [-i m, V_zz]] with eigenvalues
    (V_yy + V_zz)/2 +- hypot((V_yy - V_zz)/2, m).  The smallest must clear
    PSD_FLOOR, else ContractError.
    """
    m, corr = ground_correlations(n_sites, lam)
    corr[0] -= m * m  # <s_y> and <s_z> vanish by flip parity
    d = np.arange(n_sites)
    blocks = np.fft.fft(corr[:, np.minimum(d, n_sites - d)]).real
    mid = 0.5 * (blocks[1] + blocks[2])
    radius = np.hypot(0.5 * (blocks[1] - blocks[2]), m)
    vals = np.sort(np.concatenate([blocks[0], mid + radius, mid - radius]))[::-1]
    _check_psd(vals)
    return vals


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through transformed scan data.

    xs and ys hold the raw scan points; slope/intercept/r_squared describe
    the straight line fitted after the model's transformation (powerlaw:
    log y vs log x, exponential: log y vs x).
    """

    xs: np.ndarray
    ys: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    model: FitModel

    def __post_init__(self):
        xs = np.array(self.xs, dtype=np.float64, copy=True)
        ys = np.array(self.ys, dtype=np.float64, copy=True)
        if xs.size != ys.size or xs.size < 3:
            raise ContractError("fit needs equally sized arrays of at least 3 points")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ContractError(f"r_squared {self.r_squared!r} outside [0, 1]")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0  # flat data, perfectly reproduced by the horizontal line
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(min(1.0, max(0.0, r2)))


def _fit(points, model: FitModel) -> ScalingFit:
    """The ScalingFit of log y against log x (POWERLAW) or against x
    (EXPONENTIAL) for at least 3 (x, y) points, every logged coordinate
    strictly positive, else DomainError."""
    pts = list(points)
    if len(pts) < 3:
        raise DomainError(f"fit needs at least 3 points, got {len(pts)}")
    xs = np.array([float(p[0]) for p in pts])
    ys = np.array([float(p[1]) for p in pts])
    power = model is FitModel.POWERLAW
    if np.any(ys <= 0.0) or (power and np.any(xs <= 0.0)):
        raise DomainError(f"{model.value} fit needs strictly positive data")
    slope, intercept, r2 = _linear_fit(np.log(xs) if power else xs, np.log(ys))
    return ScalingFit(
        xs=xs, ys=ys, slope=slope, intercept=intercept, r_squared=r2, model=model
    )


def fit_index_p(points) -> ScalingFit:
    """Power-law fit of (N, e1) scan data; the scaling index is
    1 + slope of log e1 against log N."""
    return _fit(points, FitModel.POWERLAW)


def fit_exponential_gap(points) -> ScalingFit:
    """Linear fit of log gap against N; a negative slope means the gap
    closes exponentially with system size."""
    return _fit(points, FitModel.EXPONENTIAL)


def largest_eigenvalue_scan(lams, n_range) -> list[tuple[float, int, float]]:
    """(lam, N, e1) of the ground-state correlation matrix for every field
    and chain length up to GAUSSIAN_SCAN_MAX_SITES, sorted by field, then
    length, from the Gaussian route (_ground_spectrum).  An empty or
    repeated field list is a DomainError."""
    fields = [float(lam) for lam in lams]
    if not fields:
        raise DomainError("the scan needs at least one field value")
    for i, lam in enumerate(fields):
        if lam in fields[:i]:
            raise DomainError(f"the scan names the field value {lam!r} twice")
    sizes = check_sizes(n_range, GAUSSIAN_SCAN_MAX_SITES)
    return sorted(
        (lam, n, float(_ground_spectrum(n, lam)[0])) for lam in fields for n in sizes
    )


def second_eigenvalue_scan(lam: float, n_range) -> list[tuple[int, float]]:
    """e2 of the ground-state correlation matrix per chain length up to
    SCAN_MAX_SITES, from the 2^N ground state."""
    out = []
    for n in check_sizes(n_range, SCAN_MAX_SITES):
        ground = lowest_eigenpairs(build_tfim(n, lam), 1).eigenvectors[0]
        out.append((n, build_vcm(ground).e2))
    return out


def superposed_e1_scan(lam: float, n_range) -> list[tuple[int, float]]:
    """e1 of the one-branch doublet combination (superposed_state) per
    chain length up to SCAN_MAX_SITES."""
    out = []
    for n in check_sizes(n_range, SCAN_MAX_SITES):
        pairs = lowest_eigenpairs(build_tfim(n, lam), 2)
        combo = superposed_state(pairs.eigenvectors[0], pairs.eigenvectors[1])
        out.append((n, build_vcm(combo).e1))
    return out


@dataclass(frozen=True)
class FluctuationOperator(AdditiveOperator):
    """Additive operator maximizing the variance over real coefficient
    tables with fixed weight N.

    ambiguous marks a (near-)degenerate maximum where the direction is
    arbitrary.  capture_ratio is the fraction of e1 the best
    real-coefficient operator reaches: below 1 exactly when the principal
    eigenvector is irreducibly complex.
    """

    ambiguous: bool = False
    capture_ratio: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "ambiguous", bool(self.ambiguous))
        object.__setattr__(self, "capture_ratio", float(self.capture_ratio))

    def axis_fraction(self, axis) -> float:
        """Share of the squared weight carried by one Pauli axis."""
        total = self.weight()
        return float(np.sum(self.coeffs[:, int(axis)] ** 2) / total)


def max_fluctuation_operator(vcm: CorrelationMatrix) -> FluctuationOperator:
    """The variance-maximizing additive operator of a correlation matrix.

    Real coefficient vectors c see only the real part of the matrix
    (c^T V c = c^T Re(V) c), so the optimum is the top eigenvector of
    Re(V), rescaled to weight N.  When the top of the spectrum is
    degenerate (relative gap below DEGENERACY_REL_TOL) the returned
    operator carries ambiguous=True instead of pretending the direction
    is meaningful.
    """
    n = vcm.n_sites
    rvals, rvecs = np.linalg.eigh(vcm.entries.real)
    best = float(rvals[-1])
    direction = rvecs[:, -1]
    pivot = direction[int(np.argmax(np.abs(direction)))]
    if pivot < 0.0:
        direction = -direction  # deterministic sign
    coeffs = direction.reshape(n, 3) * np.sqrt(float(n))

    e1, e2 = vcm.e1, vcm.e2
    scale = max(abs(e1), 1.0)
    ambiguous = (e1 - e2) <= DEGENERACY_REL_TOL * scale
    if rvals.size > 1 and (best - float(rvals[-2])) <= DEGENERACY_REL_TOL * max(
        abs(best), 1.0
    ):
        ambiguous = True
    capture = 1.0 if e1 <= 0.0 else min(1.0, best / e1)
    return FluctuationOperator(
        n_sites=n, coeffs=coeffs, ambiguous=ambiguous, capture_ratio=capture
    )


@dataclass(frozen=True)
class MzDistribution:
    """Probability of each total z magnetization M in {-N, -N+2, ..., N}."""

    n_sites: int
    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        support = np.array(self.support, dtype=np.int64, copy=True)
        probs = np.array(self.probabilities, dtype=np.float64, copy=True)
        n = self.n_sites
        expected = np.arange(-n, n + 1, 2, dtype=np.int64)
        if support.shape != expected.shape or np.any(support != expected):
            raise ContractError("support must be -N..N in steps of 2")
        if probs.shape != support.shape:
            raise ContractError("probability array does not match the support")
        if np.any(probs < -1e-15):
            raise ContractError(f"negative probability {probs.min():.3e}")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ContractError(f"probabilities sum to {total!r}, expected 1")
        probs = np.maximum(probs, 0.0)
        support.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probabilities", probs)

    def probability(self, mz: int) -> float:
        i = (int(mz) + self.n_sites) // 2
        if not 0 <= i < self.support.size or self.support[i] != mz:
            raise DomainError(f"magnetization {mz} not in the support")
        return float(self.probabilities[i])

    def max_asymmetry(self) -> float:
        """Largest |P(M) - P(-M)| over the support."""
        return float(np.abs(self.probabilities - self.probabilities[::-1]).max())


def mz_distribution(state: StateVector) -> MzDistribution:
    """Histogram of the total z magnetization in a normalized state."""
    state.require_normalized()
    n = state.n_sites
    weights = np.abs(state.amplitudes) ** 2
    # basis index with k set bits has magnetization N-2k, bucket k reversed
    buckets = ((mz_diagonal(n) + n) / 2).astype(np.int64)
    probs = np.bincount(buckets, weights=weights, minlength=n + 1)
    return MzDistribution(
        n_sites=n, support=np.arange(-n, n + 1, 2), probabilities=probs
    )


def state_mz_distribution(lam: float, n: int, state: str) -> MzDistribution:
    """Mz histogram of one state of the chain up to SCAN_MAX_SITES: the
    ground state, the other member of the doublet ("excited"), or their
    one-branch combination ("superposed", see superposed_state)."""
    if state not in ("ground", "excited", "superposed"):
        raise DomainError(
            f"state must be ground, excited or superposed, got {state!r}"
        )
    (n,) = check_sizes([n], SCAN_MAX_SITES)
    h = build_tfim(n, lam)
    if state == "ground":
        vec = lowest_eigenpairs(h, 1).eigenvectors[0]
    else:
        pairs = lowest_eigenpairs(h, 2)
        if state == "excited":
            vec = pairs.eigenvectors[1]
        else:
            vec = superposed_state(pairs.eigenvectors[0], pairs.eigenvectors[1])
    return mz_distribution(vec)
