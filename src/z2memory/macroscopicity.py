"""Correlation-matrix spectra and the scaling index of additive fluctuations.

For a pure state the variance of any additive operator A = sum_l a(l) is a
Rayleigh quotient of the 3N x 3N matrix of connected pair correlations, so
its largest eigenvalue e1 caps every additive variance at e1*N.  How e1
grows with N is the diagnostic: e1 flat means no additive operator ever
develops a macroscopic fluctuation, e1 ~ N means some operator's variance
reaches order N^2.  This module builds that matrix, extracts e1/e2 and the
maximizing operator, fits scaling exponents, and histograms total
z magnetization.

The matrix has two routes.  A state whose amplitudes equal their one-site
rotation exactly, as the k=1 ground states do, has a block-circulant
matrix, filled from the site-1 rows against sites 1..N/2+1.  Every other
state gets the Gram matrix of all 3N vectors s_a(l)|psi>.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError
from .eigensolve import SCAN_MAX_SITES, lowest_eigenpairs
from .model import MIN_SITES, build_tfim
from .pauli import AdditiveOperator, PauliAxis, StateVector, _apply_axis, mz_diagonal

HERMITICITY_TOL = 1e-10
PSD_FLOOR = -1e-8  # Gram structure: eigenvalues below this are a bug
DEGENERACY_REL_TOL = 1e-10


class CorrelationKind(enum.Enum):
    VCM = "vcm"  # pure-state connected pair correlations
    W = "w"  # commutator Gram matrix of a density matrix


class FitModel(enum.Enum):
    POWERLAW = "powerlaw"  # fits log y against log x
    EXPONENTIAL = "exponential"  # fits log y against x


@dataclass(frozen=True)
class CorrelationMatrix:
    """3N x 3N Hermitian correlation matrix with its spectrum attached.

    Row 3*(l-1)+a addresses axis a (0:x, 1:y, 2:z) on site l.  Eigenvalues
    are stored descending.
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
        if vals[-1] < PSD_FLOOR:
            raise ContractError(
                f"smallest eigenvalue {vals[-1]:.3e} breaks positive semidefiniteness"
            )
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


def _axis_rows(state: StateVector, sites: int) -> tuple[np.ndarray, np.ndarray]:
    """The state's amplitudes and the rows sigma_x psi, sigma_x sigma_z psi
    and sigma_z psi of sites 1..sites, row 3*(l-1)+a.  A state with zero
    imaginary part gives real arrays."""
    n = state.n_sites
    amps = state.amplitudes
    if not amps.imag.any():
        amps = amps.real
    rows = np.empty((3 * sites, state.dim), dtype=amps.dtype)
    for l in range(1, sites + 1):
        z = _apply_axis(amps, n, PauliAxis.Z, l)
        rows[3 * (l - 1)] = _apply_axis(amps, n, PauliAxis.X, l)
        rows[3 * (l - 1) + 1] = _apply_axis(z, n, PauliAxis.X, l)
        rows[3 * (l - 1) + 2] = z
    return amps, rows


def _gram_entries(state: StateVector) -> np.ndarray:
    """The connected correlations as a Gram matrix of all 3N rows."""
    n = state.n_sites
    amps, rows = _axis_rows(state, n)
    phase = np.tile([1.0, 1.0j, 1.0], n)
    # <s_r psi|psi> is conj(phase_r) times the row's overlap; its real part
    # is the Hermitian single-site expectation
    means = (phase.conj() * (rows.conj() @ amps)).real
    gram = phase.conj()[:, None] * (rows.conj() @ rows.T) * phase
    return gram - np.outer(means, means)


def _circulant_entries(state: StateVector) -> np.ndarray:
    """The connected correlations of a translation-invariant state from the
    site-1 rows against sites 1..N/2+1.

    G(d)[a, b] = <s_a(1) s_b(1+d)> fills every block (l, m) with
    d = (m - l) mod N; offsets past N/2 use G(d) = G(N-d)^T, since
    operators on different sites commute.
    """
    n = state.n_sites
    half = n // 2
    amps, rows = _axis_rows(state, half + 1)
    phase = np.tile([1.0, 1.0j, 1.0], half + 1)
    site1, p1 = rows[:3], phase[:3]
    means = (p1.conj() * (site1.conj() @ amps)).real
    g = p1.conj()[:, None] * (site1.conj() @ rows.T) * phase
    near = g.reshape(3, half + 1, 3).transpose(1, 0, 2)  # near[d] = G(d)
    far = near[n - np.arange(half + 1, n)].transpose(0, 2, 1)
    blocks = np.concatenate((near, far))  # blocks[d] = G(d), d = 0..N-1
    sites = np.arange(n)
    offset = (sites[None, :] - sites[:, None]) % n
    v = blocks[offset].transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)
    means = np.tile(means, n)
    return v - np.outer(means, means)


def build_vcm(state: StateVector) -> CorrelationMatrix:
    """Connected pair-correlation matrix of a normalized pure state.

    Entry (a,l),(b,m) is <s_a(l) s_b(m)> - <s_a(l)><s_b(m)>, including the
    same-site off-axis terms.  The rows hold sigma_x, -i sigma_y =
    sigma_x sigma_z and sigma_z applied to psi, which stay real when psi
    is: a state with zero imaginary part runs in real arithmetic.
    sigma_y's i returns as a phase on the products and on the means.

    Two routes give the same matrix up to summation order.  A state whose
    amplitudes equal their one-site rotation exactly (np.array_equal, no
    tolerance) has a block-circulant matrix: it is filled from the
    products of the site-1 rows with the rows of sites 1..N/2+1.  Every
    other state gets the Gram matrix of all 3N vectors s_a(l)|psi>, which
    is positive semidefinite by construction.  The circulant matrix is
    that Gram matrix only up to rounding, so the Hermiticity check and
    the PSD floor of CorrelationMatrix are what hold it to it.
    """
    state.require_normalized()
    n = state.n_sites
    tensor = state.amplitudes.reshape((2,) * n)
    if np.array_equal(tensor, np.moveaxis(tensor, 0, -1)):
        v = _circulant_entries(state)
    else:
        v = _gram_entries(state)
    return CorrelationMatrix(n_sites=n, kind=CorrelationKind.VCM, entries=v)


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


def _unpack_points(points) -> tuple[np.ndarray, np.ndarray]:
    pts = list(points)
    if len(pts) < 3:
        raise DomainError(f"fit needs at least 3 points, got {len(pts)}")
    xs = np.array([float(p[0]) for p in pts])
    ys = np.array([float(p[1]) for p in pts])
    return xs, ys


def fit_index_p(points) -> ScalingFit:
    """Power-law fit of (N, e1) scan data; the scaling index is
    1 + slope of log e1 against log N."""
    xs, ys = _unpack_points(points)
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("power-law fit needs strictly positive data")
    slope, intercept, r2 = _linear_fit(np.log(xs), np.log(ys))
    return ScalingFit(
        xs=xs, ys=ys, slope=slope, intercept=intercept, r_squared=r2,
        model=FitModel.POWERLAW,
    )


def fit_exponential_gap(points) -> ScalingFit:
    """Linear fit of log gap against N; a negative slope means the gap
    closes exponentially with system size."""
    xs, ys = _unpack_points(points)
    if np.any(ys <= 0.0):
        raise DomainError("exponential fit needs strictly positive gaps")
    slope, intercept, r2 = _linear_fit(xs, np.log(ys))
    return ScalingFit(
        xs=xs, ys=ys, slope=slope, intercept=intercept, r_squared=r2,
        model=FitModel.EXPONENTIAL,
    )


def second_eigenvalue_scan(lam: float, n_range) -> list[tuple[int, float]]:
    """e2 of the ground-state correlation matrix per chain length."""
    sizes = list(n_range)
    if not all(
        isinstance(n, (int, np.integer)) and MIN_SITES <= n <= SCAN_MAX_SITES
        for n in sizes
    ):
        raise DomainError(
            f"chain lengths must be integers in {MIN_SITES}..{SCAN_MAX_SITES},"
            f" got {sizes}"
        )
    out = []
    for n in sizes:
        ground = lowest_eigenpairs(build_tfim(n, lam), 1).eigenvectors[0]
        out.append((int(n), build_vcm(ground).e2))
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
