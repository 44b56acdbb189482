"""Ground state and code doublet of the chain Hamiltonian, by symmetry.

The Hamiltonian commutes with the global spin flip, and the two lowest
states form a doublet whose splitting closes exponentially in N below the
critical field.  A Krylov solver on the full space cannot tell such a pair
apart, so each flip-parity sector is solved on its own: the flip maps basis
index b to its bit complement, hence the half-space of indices below
2^(N-1) parameterizes either sector and the sector vectors are
(|b> +- |flipped b>)/sqrt(2).  The doublet is the pair of sector ground
states, and the ground state lies in the sector that Perron-Frobenius
names.

The ground state alone is unique in its sector, so it is also invariant
under the ring's translations and reflections: it lives in the block of
zero momentum, reflection parity +1 and flip parity s, one symmetric
state per orbit of basis strings under rotation, reflection and
complement (at most 362 states at N=14, against 2^13 in the sector).
Its energy is known in closed form (Lieb, Schultz and Mattis, Ann. Phys.
16, 407 (1961)), so the block is not diagonalized: two shifted solves just
below that energy find the vector, which a gather lifts back to 2^N, and
its Rayleigh quotient must then meet the closed form.  The block's matrix
elements follow Sandvik, arXiv:1101.3281.

The doublet solves one vector per flip sector by Lanczos on the
half-space, fully reorthogonalized by block classical Gram-Schmidt applied
twice, which is as accurate as the modified form (Giraud, Langou and
Rozloznik, Comput. Math. Appl. 50, 1069 (2005)).  One flip table states
the sector rule: the Lanczos matvec runs it as a CSR matrix, and the dense
sector matrices of full spectra read their off-diagonal from it.  scipy is
loaded only by that Krylov solver, so only by doublet solves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, eigh, solve

from .errors import CapabilityError, ContractError, ConvergenceError, DomainError
from .model import TfimHamiltonian, build_tfim
from .pauli import StateVector, mz_diagonal, popcounts

MATVEC_BUDGET = 5000  # Hamiltonian applications allowed per eigenpair
LANCZOS_TOL = 1e-10  # residual target of the doublet's sector solves
RESIDUAL_BOUND = 1e-9  # ceiling on every reported residual
ORTHONORMALITY_TOL = 1e-9
FULL_SPECTRUM_MAX_SITES = 10
SCAN_MAX_SITES = 14
CLOSED_FORM_C = 64  # ground quotients stay within C eps N (1 + |lam|) of E0
SHIFT_REL = 1e-12  # inverse-iteration shift below E0, relative to max(1, |E0|)
SHIFT_STEPS = 2
_EPS = float(np.finfo(float).eps)
_BREAKDOWN_EPS = 1e-13


def _embed(sector_vec: np.ndarray, sign: float) -> np.ndarray:
    """Lift a sector vector to the full space: (|b> + sign|flipped b>)/sqrt2."""
    return np.concatenate([sector_vec, sign * sector_vec[::-1]]) / np.sqrt(2.0)


def _flip_table(n_sites: int, sign: float) -> tuple[np.ndarray, np.ndarray]:
    """The off-diagonal of H/lam on one flip-parity sector, one row per
    half-space index b: columns and values, shape (2^(N-1), N).

    The site-1 flip comes first: it lands on the complement of
    2^(N-1)-1-b, hence value ``sign``.  Then the flips of bits k = 0..N-2,
    which stay in the half-space, value 1.  The columns stay unsorted: a
    CSR matvec sums each row in stored order, and this order fixes the
    rounding of every sector matvec.
    """
    half = 1 << (n_sites - 1)
    b = np.arange(half)
    cols = np.empty((half, n_sites), dtype=np.int32)
    cols[:, 0] = half - 1 - b
    for k in range(n_sites - 1):
        cols[:, k + 1] = b ^ (1 << k)
    vals = np.ones(cols.shape)
    vals[:, 0] = sign
    return cols, vals


class _SectorOperator:
    """Hamiltonian on one flip-parity sector, diag * s + lam * (F @ s) with
    F the flip table as a CSR matrix, and a count of its matvecs."""

    def __init__(self, h: TfimHamiltonian, sign: float) -> None:
        # scipy takes ~0.2 s to import, and only the doublet's Krylov
        # branch uses it
        from scipy.sparse import csr_array

        self.h = h
        self.dim = h.dim // 2
        self.diag = h._diag[: self.dim]
        cols, vals = _flip_table(h.n_sites, sign)
        indptr = np.arange(0, cols.size + 1, h.n_sites, dtype=np.int32)
        self.flips = csr_array(
            (vals.ravel(), cols.ravel(), indptr), shape=(self.dim, self.dim)
        )
        self.count = 0

    def matvec(self, s: np.ndarray) -> np.ndarray:
        self.count += 1
        return self.diag * s + self.h.lam * (self.flips @ s)


def _lowest_ritz_vector(alphas: list[float], betas: list[float]) -> np.ndarray:
    """Eigenvector of the lowest eigenvalue of the symmetric tridiagonal
    matrix with diagonal ``alphas`` and off-diagonal ``betas``.

    Bisection (dstebz) finds the eigenvalue and inverse iteration (dstein)
    its vector: the LAPACK calls scipy's eigh_tridiagonal makes for one
    selected index, without its per-call argument checks, so the vector is
    the same to the bit.  A nonzero LAPACK info raises ConvergenceError.
    """
    from scipy.linalg.lapack import dstebz, dstein

    if not betas:
        return np.ones(1)
    _, vals, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info == 0:
        vecs, info = dstein(alphas, betas, vals[:1], iblock, isplit)
    if info != 0:
        raise ConvergenceError(f"tridiagonal Ritz step failed (LAPACK info {info})")
    return vecs[:, 0]


def _lanczos_smallest(op: _SectorOperator, rng: np.random.Generator) -> np.ndarray:
    """The eigenvector at the bottom of the sector spectrum, to a residual
    below LANCZOS_TOL.  Raises ConvergenceError after MATVEC_BUDGET matrix
    applications.  The Lanczos vectors are the first m rows of ``basis``,
    grown in 16-row blocks; each step is the three-term recurrence, then
    two block Gram-Schmidt passes."""
    best_residual = np.inf
    scale = max(1.0, op.h.n_sites * (1.0 + abs(op.h.lam)))

    while op.count < MATVEC_BUDGET:
        v = rng.standard_normal(op.dim)
        basis = np.empty((16, op.dim))
        basis[0] = v / np.linalg.norm(v)
        m = 1
        alphas: list[float] = []  # the tridiagonal Lanczos matrix
        betas: list[float] = []
        while op.count < MATVEC_BUDGET and len(alphas) < op.dim:
            w = op.matvec(basis[m - 1])
            a = float(basis[m - 1] @ w)
            alphas.append(a)
            w -= a * basis[m - 1]
            if betas:
                w -= betas[-1] * basis[m - 2]
            for _ in range(2):
                w -= basis[:m].T @ (basis[:m] @ w)
            b = float(np.linalg.norm(w))
            s = _lowest_ritz_vector(alphas, betas)  # in the Lanczos basis
            broke_down = b <= _BREAKDOWN_EPS * scale
            estimate = abs(b * s[-1])
            if estimate < 0.5 * LANCZOS_TOL or broke_down:
                x = s @ basis[:m]
                x /= np.linalg.norm(x)
                hx = op.matvec(x)
                residual = float(np.linalg.norm(hx - float(x @ hx) * x))
                best_residual = min(best_residual, residual)
                if residual < LANCZOS_TOL:
                    return x
                if broke_down:
                    break  # invariant subspace missed the target: restart
            betas.append(b)
            if m == len(basis):
                basis = np.concatenate([basis, np.empty((16, op.dim))])
            basis[m] = w / b
            m += 1

    raise ConvergenceError(
        f"sector eigensolve exhausted {MATVEC_BUDGET} matrix applications"
        f" (best residual {best_residual:.3e})",
        best_residual=None if not np.isfinite(best_residual) else best_residual,
    )


def _sector_ground(h: TfimHamiltonian, sign: float) -> tuple[np.ndarray, int]:
    """The lowest eigenvector of one flip-parity sector, lifted to the full
    space, and the sector matvecs it took."""
    sector_tag = 0 if sign > 0 else 1
    lam_bits = int.from_bytes(np.float64(h.lam).tobytes(), "little")
    rng = np.random.default_rng((h.n_sites, sector_tag, 0, lam_bits))
    op = _SectorOperator(h, sign)
    return _embed(_lanczos_smallest(op, rng), sign), op.count


class _SymmetricBlock(NamedTuple):
    """The zero-momentum, reflection-even block of one flip sector.

    ``reps`` are the orbit representatives (smallest string of each orbit)
    that span the block.  Basis string b lifts from block entry ``col[b]``
    with weight ``coef[b]``: the orbit sign over sqrt(orbit size), 0 on
    orbits that the block excludes.  ``flips`` is the block of
    sum_l sigma_x(l), so H restricted to the block is
    diag(H_diag[reps]) + lam * flips.
    """

    reps: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    flips: np.ndarray


@functools.lru_cache(maxsize=None)
def _symmetric_block(n_sites: int, sign: float) -> _SymmetricBlock:
    """The orbit table of the 4N-element group of rotations, reflection and
    complement, the complement with character ``sign``, and the block of the
    transverse field on it, built once per (N, sign).

    Row g of ``images`` holds g(b) for every string b, and odd rows carry
    the complement; a string's representative is its smallest image.  An
    orbit spans a block state unless an element of character -1 fixes its
    strings, which needs sign = -1.  On every other orbit, all elements
    that map b to its representative share one character: the sign of b
    in the block state.  With |i> = sum_b coef[b] |b>, the field block is
    F[j, i] = sqrt(|orbit i|) sum_k coef[r_i ^ 2^k] [col(r_i ^ 2^k) = j].
    """
    dim = 1 << n_sites
    mask = dim - 1
    b = np.arange(dim)
    mirror = np.zeros(dim, dtype=b.dtype)
    for k in range(n_sites):
        mirror |= ((b >> k) & 1) << (n_sites - 1 - k)
    images = np.empty((4 * n_sites, dim), dtype=b.dtype)
    for r in range(n_sites):
        for half, start in enumerate((b, mirror)):
            row = 2 * (half * n_sites + r)
            images[row] = ((start << r) | (start >> (n_sites - r))) & mask
            images[row + 1] = images[row] ^ mask
    which = images.argmin(axis=0)
    rep = images[which, b]
    keep = np.ones(dim, dtype=bool)
    if sign < 0:
        keep = ~(images[1::2] == b).any(axis=0)
    reps = np.flatnonzero((rep == b) & keep)
    col = np.where(keep, np.searchsorted(reps, rep), 0)
    size = np.bincount(col[keep], minlength=reps.size)
    coef = np.where(keep, np.where(which % 2, sign, 1.0) / np.sqrt(size[col]), 0.0)

    targets = reps[:, None] ^ (1 << np.arange(n_sites))
    flips = np.zeros((reps.size, reps.size))
    np.add.at(
        flips,
        (col[targets], np.arange(reps.size)[:, None]),
        np.sqrt(size)[:, None] * coef[targets],
    )
    for arr in (reps, col, coef, flips):
        arr.flags.writeable = False
    return _SymmetricBlock(reps, col, coef, flips)


def free_fermion_ground_energy(n_sites: int, lam: float) -> float:
    """Exact ground energy of the chain, -sum_m f(pi (2m+1)/N) over the
    antiperiodic free-fermion modes, f(k) = sqrt(1 + lam^2 - 2|lam| cos k)
    (Lieb, Schultz and Mattis 1961).  f is evaluated as
    hypot(1 - |lam|, 2 sqrt|lam| sin(k/2)), free of cancellation at
    |lam| = 1, and the positive terms are summed by math.fsum, so the
    result is good to a few ulps."""
    a = abs(float(lam))
    half_k = np.pi * (2 * np.arange(n_sites) + 1) / (2 * n_sites)
    return -math.fsum(np.hypot(1.0 - a, 2.0 * np.sqrt(a) * np.sin(half_k)))


def _symmetric_ground(h: TfimHamiltonian, sign: float, e0: float) -> np.ndarray:
    """The lowest eigenvector of the symmetric block of flip sector
    ``sign``, whose eigenvalue is ``e0``, lifted to the full space.

    Inverse iteration: SHIFT_STEPS solves of (B - sigma) x' = x, with
    sigma = e0 - SHIFT_REL max(1, |e0|) just below the block's lowest
    level.  Each step shrinks every other component against the target's
    by (e0 - sigma) / (E' - sigma).  Every other level of the sector adds
    at least two free-fermion modes, so E' - e0 >= 4 f(pi/N) >= 4 sin(pi/N)
    at any field: O(1), and the factor stays below 2e-11 up to N=14 (worst
    at |lam| = 1).  Two steps thus take the vector to rounding, even in the
    far tails of its Mz distribution.  The shift stays below the block's
    lowest level by a thousand times more than the few-ulp errors of e0
    and of the block's rounding.  The start
    vector has the ground state's signs: 1 per orbit for lam <= 0, where
    Perron-Frobenius makes every block entry positive, and (-1)^popcount
    for lam > 0, its image under prod sigma_z, so its overlap with the
    target is provably nonzero.  A LAPACK failure of a solve raises
    ConvergenceError.
    """
    block = _symmetric_block(h.n_sites, sign)
    mat = h.lam * block.flips
    sigma = e0 - SHIFT_REL * max(1.0, abs(e0))
    mat[np.diag_indices_from(mat)] += h._diag[block.reps] - sigma
    x = np.ones(block.reps.size)
    if h.lam > 0:
        x -= 2.0 * (popcounts(h.n_sites, block.reps) & 1)
    try:
        for _ in range(SHIFT_STEPS):
            x = solve(mat, x)
            x /= np.linalg.norm(x)
    except LinAlgError as exc:
        raise ConvergenceError(f"symmetric block solve failed: {exc}") from exc
    return block.coef * x[block.col]


@dataclass(frozen=True)
class EigenPairs:
    """The k lowest eigenpairs: ascending eigenvalues, orthonormal
    eigenvectors, true residuals, and the flip-parity label of each vector;
    ``matvecs`` counts the Lanczos matvecs of every solved sector (0 for the
    ground state, which no Lanczos solves)."""

    eigenvalues: np.ndarray
    eigenvectors: tuple[StateVector, ...]
    residuals: np.ndarray
    parities: np.ndarray
    matvecs: int = 0

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        res = np.array(self.residuals, dtype=np.float64, copy=True)
        par = np.array(self.parities, dtype=np.float64, copy=True)
        vecs = tuple(self.eigenvectors)
        k = vals.size
        if not (len(vecs) == k and res.size == k and par.size == k):
            raise ContractError("eigenpair fields disagree on the pair count")
        if np.any(np.diff(vals) < 0):
            raise ContractError("eigenvalues must be sorted ascending")
        if np.any(res >= RESIDUAL_BOUND):
            raise ContractError(
                f"residual {res.max():.3e} breaches the {RESIDUAL_BOUND:.0e} bound"
            )
        for i, vi in enumerate(vecs):
            for j in range(i, k):
                g = vi.inner(vecs[j])
                target = 1.0 if i == j else 0.0
                if abs(g - target) > ORTHONORMALITY_TOL:
                    raise ContractError(
                        f"eigenvectors {i},{j} fail orthonormality by {abs(g - target):.3e}"
                    )
        for arr in (vals, res, par):
            arr.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)
        object.__setattr__(self, "residuals", res)
        object.__setattr__(self, "parities", par)

    @property
    def gap(self) -> float:
        if self.eigenvalues.size < 2:
            raise DomainError("gap needs at least two eigenpairs")
        return float(self.eigenvalues[1] - self.eigenvalues[0])


def lowest_eigenpairs(h: TfimHamiltonian, k: int) -> EigenPairs:
    """The ground state (k=1) or the code doublet (k=2) of the chain.

    H commutes with the spin flip, and the two lowest states are the ground
    states of its two parity sectors, so only those are solved.  For k=2
    each sector is solved by Lanczos with full reorthogonalization to a
    residual below LANCZOS_TOL, and the two are ordered by their Rayleigh
    quotients.  For k=1 algebra names the sector: at lam<0 every
    off-diagonal entry is <= 0 and the single-flip graph is connected, so
    Perron-Frobenius gives a unique positive ground state of parity +1;
    conjugating by prod sigma_z maps lam to -lam and multiplies the flip by
    (-1)^N, so at lam>0 the ground parity is (-1)^N.  At lam=0 the doublet
    is degenerate and +1 is taken.  Being unique, the ground state is also
    invariant under every translation and reflection, which commute with H
    and with prod sigma_z, so it is solved on the symmetric block of its
    sector by inverse iteration just below the closed-form energy
    free_fermion_ground_energy, and ``matvecs`` is 0.  Its Rayleigh
    quotient must lie within CLOSED_FORM_C eps N (1 + |lam|) of that
    energy, else ContractError: the iteration found the ground state and
    not another block level.
    """
    if k not in (1, 2):
        raise DomainError(f"k must be 1 (ground state) or 2 (doublet), got {k!r}")

    if k == 2:
        signs = (1.0, -1.0)
    else:
        signs = (-1.0 if h.lam > 0 and h.n_sites % 2 else 1.0,)
    found, matvecs = [], 0
    for sign in signs:
        if k == 1:
            e0 = free_fermion_ground_energy(h.n_sites, h.lam)
            full, count = _symmetric_ground(h, sign, e0), 0
        else:
            full, count = _sector_ground(h, sign)
        matvecs += count
        hv = h.apply(full)
        value = float(full @ hv)
        if k == 1:
            bound = CLOSED_FORM_C * _EPS * h.n_sites * (1.0 + abs(h.lam))
            if not abs(value - e0) <= bound:
                raise ContractError(
                    f"ground quotient {value!r} misses the closed-form energy"
                    f" {e0!r} by more than {bound:.3e}"
                )
        found.append((value, float(np.linalg.norm(hv - value * full)), full, sign))
    found.sort(key=lambda item: item[0])
    values, residuals, vectors, parities = zip(*found)
    return EigenPairs(
        eigenvalues=np.array(values),
        eigenvectors=tuple(StateVector(h.n_sites, v) for v in vectors),
        residuals=np.array(residuals),
        parities=np.array(parities),
        matvecs=matvecs,
    )


def _check_traceless(vals: np.ndarray) -> None:
    """H is traceless: every term is a non-identity Pauli string."""
    total = abs(float(vals.sum()))
    if total > 1e-8 * max(1.0, float(np.abs(vals).sum())):
        raise ContractError(f"spectrum sums to {total:.3e}, expected 0")


@dataclass(frozen=True)
class FullSpectrum:
    """Complete eigendecomposition of the chain Hamiltonian.

    ``basis`` is real orthogonal with eigenvector j in column j (the
    Hamiltonian is real symmetric in the z basis).
    """

    n_sites: int
    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        if vals.size != (1 << self.n_sites):
            raise ContractError("eigenvalue count must be 2^N")
        if np.any(np.diff(vals) < 0):
            raise ContractError("eigenvalues must be sorted ascending")
        _check_traceless(vals)
        basis = np.array(self.basis, dtype=np.float64, copy=True)
        if basis.shape != (vals.size, vals.size):
            raise ContractError("eigenvector basis has the wrong shape")
        vals.flags.writeable = False
        basis.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "basis", basis)


def _sector_matrix(h: TfimHamiltonian, sign: float) -> np.ndarray:
    """Dense H on one flip-parity sector, in the basis _embed lifts, with
    its off-diagonal read from the flip table."""
    cols, vals = _flip_table(h.n_sites, sign)
    mat = np.diag(h._diag[: h.dim // 2])
    mat[np.arange(cols.shape[0])[:, None], cols] += h.lam * vals
    return mat


def _sector_spectra(h: TfimHamiltonian) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(sign, ascending eigenvalues, eigenvectors on the 2^(N-1) half-space)
    of the flip sectors +1 and -1, each by one dense eigh, feasible up to
    FULL_SPECTRUM_MAX_SITES.  Every residual ||H v_i - E_i v_i|| stays below
    RESIDUAL_BOUND, each basis is orthonormal within ORTHONORMALITY_TOL and
    the spectra sum to 0, else ContractError: any state diagonal in these
    bases then commutes with H up to twice the worst residual.
    """
    if h.n_sites > FULL_SPECTRUM_MAX_SITES:
        raise CapabilityError(
            f"full spectra stop at {FULL_SPECTRUM_MAX_SITES} sites, got {h.n_sites}"
        )
    sectors = []
    for sign in (1.0, -1.0):
        mat = _sector_matrix(h, sign)
        vals, vecs = eigh(mat)
        residual = float(np.linalg.norm(mat @ vecs - vecs * vals, axis=0).max())
        if residual >= RESIDUAL_BOUND:
            raise ContractError(
                f"residual {residual:.3e} breaches the {RESIDUAL_BOUND:.0e} bound"
            )
        drift = float(np.abs(vecs.T @ vecs - np.eye(vals.size)).max())
        if drift > ORTHONORMALITY_TOL:
            raise ContractError(f"eigenbasis fails orthonormality by {drift:.3e}")
        sectors.append((sign, vals, vecs))
    _check_traceless(np.concatenate([vals for _, vals, _ in sectors]))
    return sectors


def full_spectrum(h: TfimHamiltonian) -> FullSpectrum:
    """Dense eigendecomposition: the _sector_spectra eigenvectors lifted by
    _embed's rule, so every column has definite parity u . u[::-1] = +-1,
    and merged in ascending order."""
    sectors = _sector_spectra(h)
    vals = np.concatenate([vals for _, vals, _ in sectors])
    order = np.argsort(vals, kind="stable")
    columns = [_embed(vecs, sign) for sign, _, vecs in sectors]
    basis = np.concatenate(columns, axis=1)[:, order]
    return FullSpectrum(n_sites=h.n_sites, eigenvalues=vals[order], basis=basis)


def gap_scan(lam: float, n_min: int, n_max: int) -> list[tuple[int, float]]:
    """Energy gap E1 - E0 for every chain length in [n_min, n_max]."""
    if lam == 0.0:
        raise DomainError("the gap closes exactly at zero field; scan needs lam != 0")
    if not 3 <= n_min <= n_max <= SCAN_MAX_SITES:
        raise DomainError(
            f"scan range must satisfy 3 <= n_min <= n_max <= {SCAN_MAX_SITES},"
            f" got {n_min}..{n_max}"
        )
    out = []
    for n in range(n_min, n_max + 1):
        pairs = lowest_eigenpairs(build_tfim(n, lam), 2)
        gap = pairs.gap
        if gap <= 0.0:
            raise ContractError(f"nonpositive gap {gap!r} at {n} sites")
        out.append((n, gap))
    return out


def _phase_fixed(amps: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the largest-magnitude amplitude is real
    positive."""
    i = int(np.argmax(np.abs(amps)))
    pivot = amps[i]
    return amps * (abs(pivot) / pivot)


def superposed_state(e0: StateVector, e1: StateVector) -> StateVector:
    """Equal-weight combination of two orthonormal states, signed to land on
    the positive-magnetization branch.

    Each input is phase-fixed (largest amplitude made real positive); the
    relative sign then maximizes |<Mz>|, with the positive branch preferred
    on a tie.  For a flip-parity doublet this concentrates the weight on
    one magnetization sign.
    """
    if e0.n_sites != e1.n_sites:
        raise DomainError("states disagree on the site count")
    e0.require_normalized(1e-8)
    e1.require_normalized(1e-8)
    overlap = abs(e0.inner(e1))
    if overlap > 1e-8:
        raise ContractError(f"inputs overlap by {overlap:.3e}, expected orthogonal")

    a0 = _phase_fixed(e0.amplitudes)
    a1 = _phase_fixed(e1.amplitudes)
    mz = mz_diagonal(e0.n_sites)
    diag = 0.5 * (
        float(np.vdot(a0, mz * a0).real) + float(np.vdot(a1, mz * a1).real)
    )
    cross = float(np.vdot(a0, mz * a1).real)
    plus, minus = diag + cross, diag - cross
    scale = max(abs(plus), abs(minus), 1.0)
    if abs(abs(plus) - abs(minus)) <= 1e-8 * scale:
        # the branches tie (typical for a parity doublet): take the one
        # whose mean magnetization is nonnegative
        sign = 1.0 if plus >= minus else -1.0
    elif abs(plus) > abs(minus):
        sign = 1.0
    else:
        sign = -1.0
    sup = (a0 + sign * a1) / np.sqrt(2.0)
    sup /= np.linalg.norm(sup)
    return StateVector(e0.n_sites, sup)


def adiabatic_time_estimate(
    gaps: list[tuple[int, float]],
) -> list[tuple[int, float]]:
    """Operation-time estimate T = 1/gap^2 per chain length."""
    out = []
    for n, gap in gaps:
        gap = float(gap)
        if gap <= 0.0:
            raise DomainError(f"gap must be positive, got {gap!r} at n={n}")
        out.append((int(n), 1.0 / (gap * gap)))
    return out
