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

Each sector ground state is unique in its sector, so it is also
invariant under the ring's translations and reflections: it lives in the
block of zero momentum, reflection parity +1 and flip parity s, one
symmetric state per orbit of basis strings under rotation, reflection and
complement (at most 362 states at N=14, against 2^13 in the sector).
Its energy is known in closed form (Lieb, Schultz and Mattis, Ann. Phys.
16, 407 (1961)), over the antiperiodic free-fermion modes in the ground
state's sector and the periodic ones in its partner's, so the block is
not diagonalized: two shifted solves just below that energy find the
vector, which a gather lifts back to 2^N, and its Rayleigh quotient must
then meet the closed form.  The block's matrix elements follow Sandvik,
arXiv:1101.3281.  Ground state and doublet alike load no scipy.

Thermal scans need every level, and take them from the blocks of momentum
k and flip parity s: one state per orbit of rotations and complement whose
stabilizer the block's character leaves at 1, about 2^N/(2N) states per
block and one eigh each for k = 0..N/2, the rest by complex conjugation.
Both orbit tables come from one pass over their group that keeps the
running minimum image of every string.

The gap alone still comes from the Lanczos route it was recorded with:
one vector per flip sector by Lanczos on the half-space, fully
reorthogonalized by block classical Gram-Schmidt applied twice, which is
as accurate as the modified form (Giraud, Langou and Rozloznik, Comput.
Math. Appl. 50, 1069 (2005)).  One flip table states the sector rule: the
Lanczos matvec runs it as a CSR matrix, and the dense sector matrices of
full spectra read their off-diagonal from it.  scipy is loaded only by that
Krylov solver, so only by gap scans.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, eigh, solve

from .errors import CapabilityError, ContractError, ConvergenceError, DomainError
from .majorana import (
    CLOSED_FORM_C,
    free_fermion_ground_energy,
    free_fermion_partner_energy,
    ground_parity,
)
from .model import TfimHamiltonian, build_tfim, check_sizes
from .pauli import StateVector, mz_diagonal, popcounts

MATVEC_BUDGET = 5000  # Hamiltonian applications allowed per eigenpair
LANCZOS_TOL = 1e-10  # residual target of the doublet's sector solves
RESIDUAL_BOUND = 1e-9  # ceiling on every reported residual
ORTHONORMALITY_TOL = 1e-9
FULL_SPECTRUM_MAX_SITES = 10
SCAN_MAX_SITES = 14
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


def _rounding_floor(h: TfimHamiltonian) -> float:
    """4 eps N (1 + |lam|), the rounding floor of a matvec of H, whose norm
    is at most N (1 + |lam|).  Where it reaches RESIDUAL_BOUND no solve can
    promise a residual below the bound, so ConvergenceError is raised
    before any work."""
    floor = 4.0 * _EPS * max(1.0, h.n_sites * (1.0 + abs(h.lam)))
    if floor >= RESIDUAL_BOUND:
        raise ConvergenceError(
            f"rounding floor {floor:.3e} of the field {h.lam!r} at {h.n_sites}"
            f" sites reaches the {RESIDUAL_BOUND:.0e} residual bound"
        )
    return floor


def _lanczos_smallest(op: _SectorOperator, rng: np.random.Generator) -> np.ndarray:
    """The eigenvector at the bottom of the sector spectrum, to a residual
    below LANCZOS_TOL, or below the rounding floor of a matvec where that
    is the larger (_rounding_floor, which raises where it reaches
    RESIDUAL_BOUND).  Raises ConvergenceError after MATVEC_BUDGET matrix
    applications.  The Lanczos vectors are the first m rows of ``basis``,
    grown in 16-row blocks; each step is the three-term recurrence, then
    two block Gram-Schmidt passes."""
    best_residual = np.inf
    scale = max(1.0, op.h.n_sites * (1.0 + abs(op.h.lam)))
    tol = max(LANCZOS_TOL, _rounding_floor(op.h))

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
            if estimate < 0.5 * tol or broke_down:
                x = s @ basis[:m]
                x /= np.linalg.norm(x)
                hx = op.matvec(x)
                residual = float(np.linalg.norm(hx - float(x @ hx) * x))
                best_residual = min(best_residual, residual)
                if residual < tol:
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
    orbits that the block excludes.  The block of sum_l sigma_x(l) is kept
    as its _field_entries, flat indices ``field_index`` and values
    ``field_values``, and made dense by ``field()``: a dense copy for both
    signs at every N would hold megabytes.  H restricted to the block is
    diag(H_diag[reps]) + lam * field().
    """

    reps: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    field_index: np.ndarray
    field_values: np.ndarray

    def field(self) -> np.ndarray:
        """The dense block of sum_l sigma_x(l), its entries summed in the
        order np.add.at sums them in _field_block, so bit for bit the
        same."""
        dim = self.reps.size
        flat = np.bincount(self.field_index, self.field_values, minlength=dim * dim)
        return flat.reshape(dim, dim)


class _Orbits(NamedTuple):
    """Orbits of the basis strings under a group of rotations, complement
    and, optionally, reflection.

    ``group`` lists the elements (r, m, c): reflect if m, rotate by r
    places, complement if c, with the identity first.  ``rep[b]`` is the
    smallest image of string b and ``elem[b]`` the index of the first
    element that maps b to it.  ``reps`` are the representatives, and
    ``fixed[g, i]`` says whether element g fixes reps[i].
    """

    group: list
    rep: np.ndarray
    elem: np.ndarray
    reps: np.ndarray
    fixed: np.ndarray


def _act(n_sites: int, element: tuple[int, int, int], b: np.ndarray) -> np.ndarray:
    """The image of every string in ``b`` under the element (r, m, c)."""
    r, m, c = element
    mask = (1 << n_sites) - 1
    if m:
        b = sum(((b >> k) & 1) << (n_sites - 1 - k) for k in range(n_sites))
    out = ((b << r) | (b >> (n_sites - r))) & mask
    return out ^ mask if c else out


@functools.lru_cache(maxsize=None)
def _orbits(n_sites: int, reflect: bool) -> _Orbits:
    """The orbit table of the group of rotations, complement and, if
    ``reflect``, reflection, built once per (N, reflect): one pass over the
    group that keeps a running minimum of the images and the element that
    reached it."""
    group = [
        (r, m, c) for m in range(1 + reflect) for r in range(n_sites) for c in (0, 1)
    ]
    mask = (1 << n_sites) - 1
    b = np.arange(1 << n_sites, dtype=np.int32)
    rep = b.copy()
    elem = np.zeros(b.size, dtype=np.int8)
    for g, (r, m, c) in enumerate(group):
        if r == c == 0:  # each reflection class starts from its unrotated image
            start = _act(n_sites, (0, m, 0), b)
        image = ((start << r) | (start >> (n_sites - r))) & mask
        if c:
            image ^= mask
        lower = image < rep
        np.copyto(rep, image, where=lower)
        np.copyto(elem, g, where=lower)
    reps = np.flatnonzero(rep == b)
    fixed = np.array([_act(n_sites, element, reps) == reps for element in group])
    for arr in (rep, elem, reps, fixed):
        arr.flags.writeable = False
    return _Orbits(group, rep, elem, reps, fixed)


def _allowed(orbits: _Orbits, chars: np.ndarray) -> np.ndarray:
    """Whether each orbit spans a state of the block whose characters on
    the group elements are ``chars`` (last axis): whether the character is
    1 on the orbit's stabilizer.  Its sum over the stabilizer is the
    stabilizer's order if so and 0 otherwise."""
    return (chars @ orbits.fixed.astype(float)).real > 0.5


def _field_entries(
    n_sites: int, reps: np.ndarray, col: np.ndarray, coef: np.ndarray, size: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block of sum_l sigma_x(l) on the states |i> = sum_b coef[b] |b>,
    one per representative reps[i], where string b belongs to state col[b]
    and coef vanishes off the block, as rows, columns and values of shape
    (len(reps), N) whose sum is F: F[j, i] = sqrt(size[i])
    sum_k conj(coef[r_i ^ 2^k]) [col(r_i ^ 2^k) = j] (Sandvik,
    arXiv:1101.3281)."""
    targets = reps[:, None] ^ (1 << np.arange(n_sites))
    columns = np.broadcast_to(np.arange(reps.size)[:, None], targets.shape)
    return col[targets], columns, np.sqrt(size)[:, None] * coef[targets].conj()


def _field_block(
    n_sites: int, reps: np.ndarray, col: np.ndarray, coef: np.ndarray, size: np.ndarray
) -> np.ndarray:
    """The dense block of sum_l sigma_x(l) from its _field_entries."""
    rows, columns, values = _field_entries(n_sites, reps, col, coef, size)
    flips = np.zeros((reps.size, reps.size), dtype=coef.dtype)
    np.add.at(flips, (rows, columns), values)
    return flips


@functools.lru_cache(maxsize=None)
def _symmetric_block(n_sites: int, sign: float) -> _SymmetricBlock:
    """The orbit table of the 4N-element group of rotations, reflection and
    complement, the complement with character ``sign``, and the entries of
    the transverse field on it, built once per (N, sign).

    An orbit spans a block state unless an element of character -1 fixes
    its strings, which needs sign = -1.  On every other orbit, all elements
    that map b to its representative share one character: the sign of b in
    the block state.
    """
    orbits = _orbits(n_sites, reflect=True)
    complement = np.array([c for _, _, c in orbits.group])
    keep_orbit = _allowed(orbits, np.where(complement == 1, sign, 1.0))
    keep = keep_orbit[np.searchsorted(orbits.reps, orbits.rep)]
    reps = orbits.reps[keep_orbit]
    col = np.where(keep, np.searchsorted(reps, orbits.rep), 0)
    size = np.bincount(col[keep], minlength=reps.size)
    signs = np.where(complement[orbits.elem] == 1, sign, 1.0)
    coef = np.where(keep, signs / np.sqrt(size[col]), 0.0)
    rows, columns, values = _field_entries(n_sites, reps, col, coef, size)
    index = (rows * reps.size + columns).ravel()
    block = _SymmetricBlock(reps, col, coef, index, values.ravel())
    for arr in block:
        arr.flags.writeable = False
    return block


def _symmetric_ground(h: TfimHamiltonian, sign: float, e0: float) -> np.ndarray:
    """The lowest eigenvector of the symmetric block of flip sector
    ``sign``, whose eigenvalue is the closed-form ``e0``, lifted to the full
    space.

    Inverse iteration: SHIFT_STEPS solves of (B - sigma) x' = x, with
    sigma = e0 - SHIFT_REL max(1, |e0|) just below the block's lowest
    level.  Each step shrinks every other component against the target's
    by (e0 - sigma) / (E' - sigma).  Every other level of the block adds,
    in either sector, at least two free-fermion modes of opposite momenta,
    so E' - e0 >= 4 f(pi/N) >= 4 sin(pi/N) at any field: O(1), and the
    factor stays below 2e-11 up to N=14 (worst at |lam| = 1).  Two steps
    thus take the vector to rounding, even in the far tails of its Mz
    distribution.  The shift stays below the block's lowest level by a
    thousand times more than the few-ulp errors of e0 and of the block's
    rounding.  The start vector has the ground state's signs: 1 per orbit
    for lam <= 0, where Perron-Frobenius makes every block entry positive,
    and (-1)^popcount for lam > 0, its image under prod sigma_z, so its
    overlap with the ground state is provably nonzero.  The partner sector
    has no such sign rule, and there the caller's check of the quotient
    against e0 catches a start vector that misses the target.  A LAPACK
    failure of a solve raises ConvergenceError.
    """
    block = _symmetric_block(h.n_sites, sign)
    mat = block.field()
    mat *= h.lam
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
    ``matvecs`` counts the Lanczos matvecs of every solved sector (0 from
    lowest_eigenpairs, which runs no Lanczos)."""

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


def _quotient_pair(h: TfimHamiltonian, full: np.ndarray, sign: float) -> tuple:
    """(Rayleigh quotient, true residual, vector, flip parity) of a unit
    sector vector lifted to the full space."""
    hv = h.apply(full)
    value = float(full @ hv)
    return value, float(np.linalg.norm(hv - value * full)), full, sign


def _eigenpairs(n_sites: int, found: list, matvecs: int) -> EigenPairs:
    """EigenPairs from _quotient_pair tuples, ascending by quotient."""
    found.sort(key=lambda item: item[0])
    values, residuals, vectors, parities = zip(*found)
    return EigenPairs(
        eigenvalues=np.array(values),
        eigenvectors=tuple(StateVector(n_sites, v) for v in vectors),
        residuals=np.array(residuals),
        parities=np.array(parities),
        matvecs=matvecs,
    )


def lowest_eigenpairs(h: TfimHamiltonian, k: int) -> EigenPairs:
    """The ground state (k=1) or the code doublet (k=2) of the chain.

    H commutes with the spin flip, and the two lowest states are the ground
    states of its two parity sectors, so only those are solved, and the two
    are ordered by their Rayleigh quotients.  For k=1 algebra names the
    sector (ground_parity): at
    lam<0 every off-diagonal entry is <= 0 and the single-flip graph is
    connected, so Perron-Frobenius gives a unique positive ground state of
    parity +1; conjugating by prod sigma_z maps lam to -lam and multiplies
    the flip by (-1)^N, so at lam>0 the ground parity is (-1)^N.  At lam=0
    the doublet is degenerate and +1 is taken.  Being unique in its sector,
    each sector ground state is also invariant under every translation and
    reflection, which commute with H and with prod sigma_z, so it is solved
    on the symmetric block of its sector by inverse iteration just below
    its closed-form energy: free_fermion_ground_energy in the ground
    state's sector, free_fermion_partner_energy in the other.  No Lanczos
    runs and ``matvecs`` is 0.  Each Rayleigh quotient must lie within
    CLOSED_FORM_C eps N (1 + |lam|) of its closed form, else ContractError:
    the iteration found the sector ground state and not another block
    level.  For k=2, a field whose rounding floor reaches RESIDUAL_BOUND
    raises ConvergenceError before any solve (_rounding_floor).
    """
    if k not in (1, 2):
        raise DomainError(f"k must be 1 (ground state) or 2 (doublet), got {k!r}")

    ground_sign = ground_parity(h.n_sites, h.lam)
    if k == 2:
        _rounding_floor(h)
        signs = (1.0, -1.0)
    else:
        signs = (ground_sign,)
    bound = CLOSED_FORM_C * _EPS * h.n_sites * (1.0 + abs(h.lam))
    found = []
    for sign in signs:
        if sign == ground_sign:
            e0 = free_fermion_ground_energy(h.n_sites, h.lam)
        else:
            e0 = free_fermion_partner_energy(h.n_sites, h.lam)
        pair = _quotient_pair(h, _symmetric_ground(h, sign, e0), sign)
        if not abs(pair[0] - e0) <= bound:
            raise ContractError(
                f"sector {sign:+.0f} quotient {pair[0]!r} misses the closed-form"
                f" energy {e0!r} by more than {bound:.3e}"
            )
        found.append(pair)
    return _eigenpairs(h.n_sites, found, 0)


def _lanczos_doublet(h: TfimHamiltonian) -> EigenPairs:
    """The code doublet by Lanczos on each flip sector, with the rounding
    that the benchmark's recorded gap rows carry; only gap_scan calls it.

    Each sector is solved to a residual below LANCZOS_TOL, or the rounding
    floor of a matvec at large fields, and ``matvecs`` counts the sector
    matvecs.  Delete it, with _sector_ground, _lanczos_smallest,
    _SectorOperator and _lowest_ritz_vector, once the benchmark reference
    no longer records Lanczos rounding in its N=14 gap rows and the gap
    moves to the symmetric blocks (ROADMAP.md, open items 3 and 4).
    """
    found, matvecs = [], 0
    for sign in (1.0, -1.0):
        full, count = _sector_ground(h, sign)
        matvecs += count
        found.append(_quotient_pair(h, full, sign))
    return _eigenpairs(h.n_sites, found, matvecs)


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


def _check_eigensystem(mat: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Every residual ||mat v_i - E_i v_i|| below RESIDUAL_BOUND and the
    columns orthonormal within ORTHONORMALITY_TOL, else ContractError."""
    residual = float(np.linalg.norm(mat @ vecs - vecs * vals, axis=0).max())
    if residual >= RESIDUAL_BOUND:
        raise ContractError(
            f"residual {residual:.3e} breaches the {RESIDUAL_BOUND:.0e} bound"
        )
    drift = float(np.abs(vecs.conj().T @ vecs - np.eye(vals.size)).max())
    if drift > ORTHONORMALITY_TOL:
        raise ContractError(f"eigenbasis fails orthonormality by {drift:.3e}")


def _sector_matrix(h: TfimHamiltonian, sign: float) -> np.ndarray:
    """Dense H on one flip-parity sector, in the basis _embed lifts, with
    its off-diagonal read from the flip table."""
    cols, vals = _flip_table(h.n_sites, sign)
    mat = np.diag(h._diag[: h.dim // 2])
    mat[np.arange(cols.shape[0])[:, None], cols] += h.lam * vals
    return mat


def full_spectrum(h: TfimHamiltonian) -> FullSpectrum:
    """Dense eigendecomposition up to FULL_SPECTRUM_MAX_SITES: one eigh per
    flip sector, its eigenvectors lifted by _embed's rule, so every column
    has definite parity u . u[::-1] = +-1, and merged in ascending order.
    Every residual ||H v_i - E_i v_i|| stays below RESIDUAL_BOUND and each
    sector basis is orthonormal within ORTHONORMALITY_TOL, else
    ContractError: any state diagonal in this basis then commutes with H up
    to twice the worst residual.  FullSpectrum checks that the 2^N
    energies sum to 0.
    """
    if h.n_sites > FULL_SPECTRUM_MAX_SITES:
        raise CapabilityError(
            f"full spectra stop at {FULL_SPECTRUM_MAX_SITES} sites, got {h.n_sites}"
        )
    energies, columns = [], []
    for sign in (1.0, -1.0):
        mat = _sector_matrix(h, sign)
        vals, vecs = eigh(mat)
        _check_eigensystem(mat, vals, vecs)
        energies.append(vals)
        columns.append(_embed(vecs, sign))
    vals = np.concatenate(energies)
    order = np.argsort(vals, kind="stable")
    basis = np.concatenate(columns, axis=1)[:, order]
    return FullSpectrum(n_sites=h.n_sites, eigenvalues=vals[order], basis=basis)


def _roots(n_sites: int) -> np.ndarray:
    """e^(-2 pi i m/N) for m = 0..N-1, with root N-m the exact conjugate of
    root m, so the amplitudes of momenta k and -k are exact conjugates."""
    m = np.arange(n_sites)
    angle = 2.0 * np.pi * np.minimum(m, n_sites - m) / n_sites
    return np.cos(angle) - 1j * np.sign(n_sites - 2 * m) * np.sin(angle)


class _MomentumTable(NamedTuple):
    """Orbits of the 2N-element group of rotations and complement, and the
    states they span in the blocks of momentum k and flip parity s.

    String b belongs to the orbit of reps[orbit[b]], which has size[o]
    strings.  Block (k, s) sits at [i, k], i = 0 for s = +1 and 1 for
    s = -1: ``allowed[i, k, o]`` says whether orbit o spans one of its
    states, and ``amplitudes[i, k, b]`` is the amplitude of string b in the
    state of its orbit.
    """

    reps: np.ndarray
    orbit: np.ndarray
    size: np.ndarray
    allowed: np.ndarray
    amplitudes: np.ndarray


@functools.lru_cache(maxsize=None)
def _momentum_table(n_sites: int) -> _MomentumTable:
    """The orbit table of rotations and complement, built once per N.

    String b is T^r_b C^c_b of its representative, the inverse of the
    element that maps it there.  Its amplitude in block (k, s) is
    e^(-2 pi i k r_b/N) s^c_b / sqrt(orbit size), which is well defined, and
    nonzero, only where the block's character e^(2 pi i k r/N) s^c is 1 on
    the orbit's stabilizer.
    """
    orbits = _orbits(n_sites, reflect=False)
    shifts = np.array([r for r, _, _ in orbits.group])
    flips = np.array([c for _, _, c in orbits.group])
    roots = _roots(n_sites)
    signs = np.array([1.0, -1.0])[:, None, None]
    k = np.arange(n_sites)[:, None]
    chars = roots[k * shifts % n_sites].conj() * signs**flips
    allowed = _allowed(orbits, chars)
    orbit = np.searchsorted(orbits.reps, orbits.rep)
    size = np.bincount(orbit)
    shift = -shifts[orbits.elem] % n_sites
    scale = signs ** flips[orbits.elem] / np.sqrt(size[orbit])
    amplitudes = np.where(
        allowed[:, :, orbit], roots[k * shift % n_sites] * scale, 0.0
    )
    table = _MomentumTable(orbits.reps, orbit, size, allowed, amplitudes)
    for arr in table:
        arr.flags.writeable = False
    return table


class _MomentumSpectra(NamedTuple):
    """Eigensystems of the blocks of momentum k and flip parity s.

    Block (k, s) sits at [i, k], i = 0 for s = +1 and 1 for s = -1, with
    dims[i, k] states: its ascending energies[i, k, :dims] and eigenvectors
    vectors[i, k, :, :dims], one row per orbit of _momentum_table.  Rows of
    excluded orbits and everything past dims are 0.
    """

    dims: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray


def _momentum_spectra(h: TfimHamiltonian) -> _MomentumSpectra:
    """The eigensystems of every block of momentum k and flip parity s.

    Each block is H = diag(bonds) + lam F on its orbit states, complex
    Hermitian, and takes one eigh.  H is real, so block -k is the complex
    conjugate of block k: only k = 0..N//2 are diagonalized.  Every residual
    ||H v_i - E_i v_i|| stays below RESIDUAL_BOUND, each basis is
    orthonormal within ORTHONORMALITY_TOL and the 2^N energies sum to 0,
    else ContractError: any state diagonal in these bases then commutes
    with H up to twice the worst residual.
    """
    n = h.n_sites
    table = _momentum_table(n)
    dims = table.allowed.sum(axis=-1)
    width = int(dims.max())
    energies = np.zeros((2, n, width))
    vectors = np.zeros((2, n, table.reps.size, width), dtype=np.complex128)
    for i in range(2):
        for k in range(n // 2 + 1):
            keep = table.allowed[i, k]
            reps = table.reps[keep]
            col = (np.cumsum(keep) - 1)[table.orbit]
            amps = table.amplitudes[i, k]
            mat = h.lam * _field_block(n, reps, col, amps, table.size[keep])
            mat[np.diag_indices_from(mat)] += h._diag[reps]
            vals, vecs = eigh(mat)
            _check_eigensystem(mat, vals, vecs)
            energies[i, k, : reps.size] = vals
            vectors[i, k, keep, : reps.size] = vecs
            if 0 < k < n - k:
                energies[i, n - k] = energies[i, k]
                vectors[i, n - k] = vectors[i, k].conj()
    _check_traceless(energies[np.arange(width) < dims[..., None]])
    return _MomentumSpectra(dims, energies, vectors)


def gap_scan(lam: float, n_min: int, n_max: int) -> list[tuple[int, float]]:
    """Energy gap E1 - E0 for every chain length in [n_min, n_max], up to
    SCAN_MAX_SITES."""
    if lam == 0.0:
        raise DomainError("the gap closes exactly at zero field; scan needs lam != 0")
    out = []
    for n in check_sizes(range(n_min, n_max + 1), SCAN_MAX_SITES):
        gap = _lanczos_doublet(build_tfim(n, lam)).gap
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
