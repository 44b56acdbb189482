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
not diagonalized: one LU of the block shifted just below that energy and
two triangular solves on it (_blas.lu_solver) find the vector, which a
gather lifts back to 2^N, and its Rayleigh quotient must then meet the
closed form.  The block's matrix elements follow Sandvik,
arXiv:1101.3281.

Full spectra and thermal scans take every level from the blocks of
momentum k and flip parity s (_momentum_blocks, over the orbit table of
_orbits): one state per orbit of rotations and complement whose
stabilizer the block's character leaves at 1, about 2^N/(2N) states per
block and one eigh each for k = 0..N/2, the rest by complex conjugation;
a full spectrum lifts each block eigenvector back to 2^N.  Both orbit
tables come from one pass over their group that keeps the running
minimum image of every string, and every block, symmetric or momentum,
is built by one constructor from its characters on the group
(_character_block): its states, their lift to 2^N and its
transverse-field entries, summed by one scatter.

The gap alone still comes from the Lanczos route it was recorded with:
one vector per flip sector by Lanczos on the half-space, fully
reorthogonalized by block classical Gram-Schmidt applied twice, which is
as accurate as the modified form (Giraud, Langou and Rozloznik, Comput.
Math. Appl. 50, 1069 (2005)).  Its basis is one array per restart of
LANCZOS_ROWS rows, above the at most 77 that any field takes up to N=14,
so no step copies it.  The recorded rows were made with scipy: the sector
rule as a CSR flip table and the Ritz step by eigh_tridiagonal.  The
matvec sums each sector row in that table's order, and the Ritz step
runs the same dstebz and dstein from numpy's own LAPACK
(_blas.tridiagonal_lowest), so the rows keep their bits and no module
of the package loads scipy.  The solve runs with OpenBLAS on one thread.
Its sector vectors have 2^(N-1) <= 8192 entries, below the 10000 from
which OpenBLAS threads a dot, so of all its BLAS calls only the final
quotient of a 2^14-entry vector at N=14 rounded differently on the pool.
That quotient is summed as the pool's two-thread dot sums it, the dots
of the two halves added (_recorded_quotient), so the recorded gap bits
hold at any caller's count.  Both energies must meet their closed forms,
and a gap that this contract cannot tell from zero is refused (gap_scan).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, eigh

from ._blas import lu_solver, one_thread, tridiagonal_lowest
from .errors import CapabilityError, ContractError, ConvergenceError, DomainError
from .majorana import (
    _EPS, CLOSED_FORM_C, _unit_phases, check_closed_form, ground_parity,
    sector_energy,
)
from .model import TfimHamiltonian, build_tfim, check_sizes, energy_scale
from .pauli import StateVector, _norm, _vdot, mz_diagonal, popcounts

MATVEC_BUDGET = 5000  # Hamiltonian applications allowed per eigenpair
LANCZOS_TOL = 1e-10  # residual target of the doublet's sector solves
RESIDUAL_BOUND = 1e-9  # ceiling on every reported residual
ORTHONORMALITY_TOL = 1e-9
FULL_SPECTRUM_MAX_SITES = 10
SCAN_MAX_SITES = 14
SHIFT_REL = 1e-12  # inverse-iteration shift below E0, relative to max(1, |E0|)
SHIFT_STEPS = 2
LANCZOS_ROWS = 128  # basis rows allocated per restart (<= 77 used up to N=14)
GATHER_BITS = 4  # sector flips of lower bits are gathered by index
VIEW_MIN_DIM = 2048  # sector size from which higher bits are added by views
EIGH_C = 128  # block eigh residuals stay within C eps N (1 + |lam|)
_BREAKDOWN_EPS = 1e-13


def _embed(sector_vec: np.ndarray, sign: float) -> np.ndarray:
    """Lift a sector vector to the full space: (|b> + sign|flipped b>)/sqrt2."""
    return np.concatenate([sector_vec, sign * sector_vec[::-1]]) / np.sqrt(2.0)


class _SectorOperator:
    """Hamiltonian on one flip-parity sector, diag * s + lam * f(s), and a
    count of its matvecs.

    f(s)[b] sums the flipped amplitudes of half-space index b in one order:
    the site-1 flip first, which lands on the complement of 2^(N-1)-1-b,
    hence sign * s[2^(N-1)-1-b]; then the flips of bits k = 0..N-2, which
    stay in the half-space, s[b ^ 2^k].  This order fixes the rounding of
    every sector matvec, and the recorded gap rows carry it.  Each term is
    an entry times +-1, exact, so only the additions round, in this order.

    The site-1 term and the flips of the low bits are gathered into the
    rows of one table and summed over its first axis, which adds the rows
    in order; each higher bit is added through a reshape view of a copy of
    s, made once.  Bits from GATHER_BITS on take views in sectors of
    VIEW_MIN_DIM entries or more: there a view beats a gather once its runs
    of 2^k entries are long, while in smaller sectors the call per bit
    costs more than gathering every flip.  One gather of every flip at
    every size is simpler but slower where the table outgrows the cache:
    a matvec took 131 us at N=14 and 58 us at N=13, against 96 and 52 us
    split, and doublet_branch's sweep_s rose 4% (2 cores; per-N timings of
    both paths and of other splits in BENCH_gap_no_scipy.json,
    matvec_paths).
    """

    def __init__(self, h: TfimHamiltonian, sign: float) -> None:
        n = h.n_sites
        self.h = h
        self.dim = h.dim // 2
        self.diag = h._diag[: self.dim]
        self.first = np.negative if sign < 0 else np.positive  # sign * s, exactly
        low = GATHER_BITS if self.dim >= VIEW_MIN_DIM else n - 1
        b = np.arange(self.dim)
        self.gathers = np.array([b ^ (1 << k) for k in range(low)])
        self.src, self.acc = np.empty(self.dim), np.empty(self.dim)
        self.terms = np.empty((1 + low, self.dim))
        shapes = [(1 << (n - 2 - k), 2, 1 << k) for k in range(low, n - 1)]
        self.views = [
            (self.acc.reshape(shape), self.src.reshape(shape)[:, ::-1])
            for shape in shapes
        ]
        self.count = 0

    def matvec(self, s: np.ndarray) -> np.ndarray:
        self.count += 1
        src, acc, terms = self.src, self.acc, self.terms
        np.copyto(src, s)
        self.first(src[::-1], out=terms[0])
        src.take(self.gathers, out=terms[1:], mode="clip")
        np.add.reduce(terms, axis=0, out=acc)
        for target, flipped in self.views:
            np.add(target, flipped, out=target)
        acc *= self.h.lam
        out = self.diag * s
        out += acc
        return out


def _rounding_floor(h: TfimHamiltonian) -> float:
    """4 eps N (1 + |lam|), the rounding floor of a matvec of H, whose norm
    is at most N (1 + |lam|).  Where it reaches RESIDUAL_BOUND no solve can
    promise a residual below the bound, so ConvergenceError is raised
    before any work."""
    floor = 4.0 * _EPS * energy_scale(h.n_sites, h.lam)
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
    applications, or where LAPACK fails in the Ritz step.  The Lanczos
    vectors are the first m rows of ``basis``, allocated once per restart
    with LANCZOS_ROWS rows, or op.dim where that is fewer, and doubled only
    past that; each step is the three-term recurrence, then two block
    Gram-Schmidt passes into buffers of the same restart, then the lowest
    Ritz vector of the tridiagonal Lanczos matrix (_blas.tridiagonal_lowest,
    whose workspaces live as long as the basis)."""
    best_residual = np.inf
    scale = energy_scale(op.h.n_sites, op.h.lam)
    tol = max(LANCZOS_TOL, _rounding_floor(op.h))

    while op.count < MATVEC_BUDGET:
        v = rng.standard_normal(op.dim)
        basis = np.empty((min(LANCZOS_ROWS, op.dim), op.dim))
        basis[0] = v / np.linalg.norm(v)
        coefs, proj = np.empty(len(basis)), np.empty(op.dim)
        ritz = tridiagonal_lowest(len(basis))
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
                np.matmul(basis[:m], w, out=coefs[:m])
                np.matmul(basis[:m].T, coefs[:m], out=proj)
                w -= proj
            b = math.sqrt(float(w @ w))  # np.linalg.norm's dot and sqrt
            try:
                s = ritz(alphas, betas)  # in the Lanczos basis
            except LinAlgError as exc:
                raise ConvergenceError(f"tridiagonal Ritz step failed ({exc})") from exc
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
                basis = np.concatenate([basis, np.empty_like(basis)])
                coefs = np.empty(len(basis))
                ritz = tridiagonal_lowest(len(basis))
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


def _scatter(index: np.ndarray, values: np.ndarray, shape: tuple) -> np.ndarray:
    """The array of ``shape`` whose flat entry m sums the values at index m
    in their order, as np.add.at would: one bincount, or one per part for
    complex values."""
    size = math.prod(shape)
    if not np.iscomplexobj(values):
        return np.bincount(index, values, size).reshape(shape)
    out = np.empty(shape, dtype=np.complex128)
    out.real = np.bincount(index, values.real, size).reshape(shape)
    out.imag = np.bincount(index, values.imag, size).reshape(shape)
    return out


class _Block(NamedTuple):
    """A symmetry block: the states |i> = sum_b coef[b] |b>, one per orbit
    representative reps[i] (the smallest string of its orbit).

    Basis string b lifts from block entry ``col[b]`` with weight
    ``coef[b]``, 0 on orbits that the block excludes.  The block of
    sum_l sigma_x(l) is kept as its entries (_character_block), flat
    indices ``field_index`` and values ``field_values``, and made dense by
    ``field()``: a dense copy for every block at every N would hold
    megabytes.
    """

    reps: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    field_index: np.ndarray
    field_values: np.ndarray

    def field(self) -> np.ndarray:
        """The dense block of sum_l sigma_x(l), its entries summed in order
        by _scatter."""
        dim = self.reps.size
        return _scatter(self.field_index, self.field_values, (dim, dim))

    def hamiltonian(self, h: TfimHamiltonian, shift: float = 0.0) -> np.ndarray:
        """H - shift restricted to the block: lam * field() +
        diag(H_diag[reps] - shift)."""
        mat = self.field()
        mat *= h.lam
        mat[np.diag_indices_from(mat)] += h._diag[self.reps] - shift
        return mat


class _Orbits(NamedTuple):
    """Orbits of the basis strings under a group of rotations, complement
    and, optionally, reflection.

    ``group`` lists the elements (r, m, c): reflect if m, rotate by r
    places, complement if c, with the identity first.  String b lies in
    the orbit of reps[orbit[b]], the smallest image of b, and ``elem[b]``
    is the index of the first element that maps b to it.  Orbit o has
    size[o] strings, and ``fixed[g, o]`` says whether element g fixes
    reps[o].
    """

    group: list
    orbit: np.ndarray
    elem: np.ndarray
    reps: np.ndarray
    size: np.ndarray
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
    b = np.arange(1 << n_sites, dtype=np.int32)
    rep = b.copy()
    elem = np.zeros(b.size, dtype=np.int8)
    for g, (r, m, c) in enumerate(group):
        if r == c == 0:  # each reflection class starts from its unrotated image
            start = _act(n_sites, (0, m, 0), b)
        image = _act(n_sites, (r, 0, c), start)
        lower = image < rep
        np.copyto(rep, image, where=lower)
        np.copyto(elem, g, where=lower)
    reps = np.flatnonzero(rep == b)
    orbit = np.searchsorted(reps, rep)
    size = np.bincount(orbit)
    fixed = np.array([_act(n_sites, element, reps) == reps for element in group])
    for arr in (orbit, elem, reps, size, fixed):
        arr.flags.writeable = False
    return _Orbits(group, orbit, elem, reps, size, fixed)


def _character_block(n_sites: int, orbits: _Orbits, chars: np.ndarray) -> _Block:
    """The block whose characters on the elements of ``orbits.group`` are
    ``chars``: one state per orbit on whose stabilizer the character is 1
    (its sum over the stabilizer is then the stabilizer's order, and 0
    otherwise), in which string b has the amplitude
    chars[elem[b]] / sqrt(orbit size), the character of the element that
    maps b to its representative.  Its field entries, one per
    representative and flip, sum to F[j, i] = sqrt(size[i]) sum_k
    conj(coef[r_i ^ 2^k]) [col(r_i ^ 2^k) = j] (Sandvik, arXiv:1101.3281),
    at flat index j len(reps) + i.  Every array is read-only."""
    keep = (chars @ orbits.fixed.astype(float)).real > 0.5
    reps, size = orbits.reps[keep], orbits.size[keep]
    kept = keep[orbits.orbit]
    col = np.where(kept, (np.cumsum(keep) - 1)[orbits.orbit], 0)
    scale = 1.0 / np.sqrt(orbits.size[orbits.orbit])
    coef = np.where(kept, chars[orbits.elem] * scale, 0.0)
    targets = reps[:, None] ^ (1 << np.arange(n_sites))
    index = col[targets] * reps.size + np.arange(reps.size)[:, None]
    values = np.sqrt(size)[:, None] * coef[targets].conj()
    block = _Block(reps, col, coef, index.ravel(), values.ravel())
    for arr in block:
        arr.flags.writeable = False
    return block


@functools.lru_cache(maxsize=None)
def _symmetric_block(n_sites: int, sign: float) -> _Block:
    """The zero-momentum, reflection-even block of flip sector ``sign``,
    built once per (N, sign): the block of the 4N-element group of
    rotations, reflection and complement whose character is ``sign`` on
    the elements that complement and 1 on the rest.  An orbit is excluded
    only where an element of character -1 fixes its strings, which needs
    sign = -1.
    """
    orbits = _orbits(n_sites, reflect=True)
    chars = np.array([sign if c else 1.0 for _, _, c in orbits.group])
    return _character_block(n_sites, orbits, chars)


def _symmetric_ground(h: TfimHamiltonian, sign: float, e0: float) -> np.ndarray:
    """The lowest eigenvector of the symmetric block of flip sector
    ``sign``, whose eigenvalue is the closed-form ``e0``, lifted to the full
    space.

    Inverse iteration: SHIFT_STEPS solves of (B - sigma) x' = x, with sigma
    = e0 - SHIFT_REL max(1, |e0|) just below the block's lowest level, all
    on one LU of B - sigma (_blas.lu_solver factors it once and runs two
    triangular solves per step).  Each step shrinks every other component
    against the target's by (e0 - sigma) / (E' - sigma).  Every other level
    of the block adds, in either sector, at least two free-fermion modes of
    opposite momenta, so E' - e0 >= 4 f(pi/N) >= 4 sin(pi/N) at any field:
    O(1), and the factor stays below 2e-11 up to N=14 (worst at |lam| = 1).
    Two steps thus take the vector to rounding, even in the far tails of its
    Mz distribution.  The shift stays below the block's lowest level by a
    thousand times more than the few-ulp errors of e0 and of the block's
    rounding.  The start vector has the ground state's signs: 1 per orbit
    for lam <= 0, where Perron-Frobenius makes every block entry positive,
    and (-1)^popcount for lam > 0, its image under prod sigma_z, so its
    overlap with the ground state is provably nonzero.  The partner sector
    has no such sign rule, and there the caller's check of the quotient
    against e0 catches a start vector that misses the target.  A LAPACK
    failure, a singular factor included, raises ConvergenceError.

    One dgetrf and SHIFT_STEPS dgetrs give the bits of one
    numpy.linalg.solve (dgesv) per step, with the block factored once
    instead of SHIFT_STEPS times: at 362 states (N=14) the factor and two
    solves took 1.9 ms against 3.7 ms for two solves on one thread, 2
    cores.  Where numpy's BLAS lacks any routine of _blas's LAPACK table,
    each step is one numpy.linalg.solve.  The solves run with OpenBLAS on
    one thread (_blas.one_thread).  It threads an LU from 100 unknowns on,
    so from N=12 (102 to 362 states at N=12..14), and its second thread
    then busy-waits: twice the CPU time for no wall time (a 362-unknown solve
    took 1.6-2.1 ms on one thread and 1.8-2.4 ms on the pool, 2 cores).
    On one thread the vector's bits do not depend on the caller's count.
    """
    block = _symmetric_block(h.n_sites, sign)
    mat = block.hamiltonian(h, e0 - SHIFT_REL * max(1.0, abs(e0)))
    x = np.ones(block.reps.size)
    if h.lam > 0:
        x -= 2.0 * (popcounts(h.n_sites, block.reps) & 1)
    try:
        with one_thread():
            solve = lu_solver(mat)
            for _ in range(SHIFT_STEPS):
                x = solve(x)
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


def _pair(full: np.ndarray, hv: np.ndarray, value: float, sign: float) -> tuple:
    """(Rayleigh quotient, true residual, vector, flip parity) of a unit
    sector vector lifted to the full space, given H v and the quotient."""
    return value, _norm(hv - value * full), full, sign


def _quotient_pair(h: TfimHamiltonian, full: np.ndarray, sign: float) -> tuple:
    """_pair with the quotient summed pairwise by np.sum: near the rounding
    floor a BLAS dot can miss it by enough to push the residual of an exact
    vector past RESIDUAL_BOUND."""
    hv = h.apply(full)
    return _pair(full, hv, float(np.sum(full * hv)), sign)


def _eigenpairs(n_sites: int, found: list, matvecs: int) -> EigenPairs:
    """EigenPairs from _pair tuples, ascending by quotient."""
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
    its closed-form energy, sector_energy.  No Lanczos runs and
    ``matvecs`` is 0.  Each Rayleigh quotient must meet that closed form
    (check_closed_form), else ContractError: the iteration found the
    sector ground state and not another block level.  A field whose
    rounding floor reaches RESIDUAL_BOUND raises ConvergenceError before
    any solve (_rounding_floor).
    """
    if k not in (1, 2):
        raise DomainError(f"k must be 1 (ground state) or 2 (doublet), got {k!r}")

    _rounding_floor(h)
    signs = (1.0, -1.0) if k == 2 else (ground_parity(h.n_sites, h.lam),)
    found = []
    for sign in signs:
        e0 = sector_energy(h.n_sites, h.lam, sign)
        pair = _quotient_pair(h, _symmetric_ground(h, sign, e0), sign)
        check_closed_form(
            f"sector {sign:+.0f} quotient", pair[0], e0, h.n_sites, h.lam
        )
        found.append(pair)
    return _eigenpairs(h.n_sites, found, 0)


def _recorded_quotient(full: np.ndarray, hv: np.ndarray) -> float:
    """full @ hv, rounded as the benchmark's recorded gap rows have it.

    Those rows came from a BLAS dot on the 2-thread pool, and OpenBLAS
    threads a dot above 10000 entries: at N=14 each thread summed one half
    of the 2^14 entries and the two sums were added in order.  That is done
    here on one thread, which gives the pool's bits at any caller's count.
    Shorter dots never ran threaded and stay one dot.
    """
    if full.size == 1 << 14:
        half = full.size // 2
        return float(full[:half] @ hv[:half]) + float(full[half:] @ hv[half:])
    return float(full @ hv)


def _lanczos_doublet(h: TfimHamiltonian) -> EigenPairs:
    """The code doublet by Lanczos on each flip sector, with the rounding
    that the benchmark's recorded gap rows carry; only gap_scan calls it.

    Each sector is solved to a residual below LANCZOS_TOL, or the rounding
    floor of a matvec at large fields, and ``matvecs`` counts the sector
    matvecs.  The solve runs with OpenBLAS on one thread (_blas.one_thread):
    on the pool its Gram-Schmidt products woke the second thread, which
    then busy-waited, for twice the CPU time and no wall time.  The
    sector work on 2^(N-1) entries rounds the same on either count, and
    the N=14 quotient is summed in the pool's two halves
    (_recorded_quotient), so the gap keeps its recorded bits.  Each
    quotient must meet its sector's closed form (check_closed_form), as in
    lowest_eigenpairs, else ContractError.  Delete it, with
    _recorded_quotient, _sector_ground, _lanczos_smallest, _SectorOperator,
    GATHER_BITS, VIEW_MIN_DIM, _embed, _blas.tridiagonal_lowest and the
    dstebz and dstein entries of _blas._lapack, once the benchmark
    reference no longer records Lanczos rounding in its N=14 gap rows and
    the gap moves to the symmetric blocks (ROADMAP.md, open items 1 and 2).
    """
    found, matvecs = [], 0
    with one_thread():
        for sign in (1.0, -1.0):
            full, count = _sector_ground(h, sign)
            matvecs += count
            hv = h.apply(full)
            pair = _pair(full, hv, _recorded_quotient(full, hv), sign)
            check_closed_form(
                f"sector {sign:+.0f} Lanczos quotient", pair[0],
                sector_energy(h.n_sites, h.lam, sign), h.n_sites, h.lam,
            )
            found.append(pair)
    return _eigenpairs(h.n_sites, found, matvecs)


def _check_traceless(vals: np.ndarray) -> None:
    """H is traceless: every term is a non-identity Pauli string."""
    total = abs(float(vals.sum()))
    if total > 1e-8 * max(1.0, float(np.abs(vals).sum())):
        raise ContractError(f"spectrum sums to {total:.3e}, expected 0")


@dataclass(frozen=True)
class FullSpectrum:
    """Complete eigendecomposition of the chain Hamiltonian.

    ``basis`` is complex unitary with eigenvector j in column j.  Each
    column is the lift of one eigenvector of a block of momentum k and flip
    parity s (_momentum_spectra), so it has definite momentum and parity.
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
        basis = np.array(self.basis, dtype=np.complex128, copy=True)
        if basis.shape != (vals.size, vals.size):
            raise ContractError("eigenvector basis has the wrong shape")
        vals.flags.writeable = False
        basis.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "basis", basis)


def _check_eigensystem(
    h: TfimHamiltonian, mat: np.ndarray, vals: np.ndarray, vecs: np.ndarray
) -> None:
    """Every residual ||mat v_i - E_i v_i|| below RESIDUAL_BOUND and the
    columns orthonormal within ORTHONORMALITY_TOL, else ContractError.  A
    residual past the bound but within EIGH_C eps N (1 + |lam|), the
    rounding of a dense eigh of a block of H, raises ConvergenceError
    instead: no eigh can promise the bound at that field."""
    residual = float(np.linalg.norm(mat @ vecs - vecs * vals, axis=0).max())
    if residual >= RESIDUAL_BOUND:
        rounding = EIGH_C * _EPS * energy_scale(h.n_sites, h.lam)
        message = f"residual {residual:.3e} breaches the {RESIDUAL_BOUND:.0e} bound"
        if residual <= rounding:
            raise ConvergenceError(
                f"{message}, within the {rounding:.3e} rounding of a dense eigh"
            )
        raise ContractError(message)
    drift = float(np.abs(vecs.conj().T @ vecs - np.eye(vals.size)).max())
    if drift > ORTHONORMALITY_TOL:
        raise ContractError(f"eigenbasis fails orthonormality by {drift:.3e}")


@functools.lru_cache(maxsize=None)
def _momentum_blocks(n_sites: int) -> tuple[tuple[_Block, ...], ...]:
    """The 2N blocks of momentum k and flip parity s over the orbits of
    rotations and complement (_orbits(N, reflect=False)), built once per N.
    Block (k, s) sits at [i][k], i = 0 for s = +1 and 1 for s = -1.

    Block (k, s) has the character e^(2 pi i k r/N) s^c on the element
    T^r C^c, and string b the character of the element that maps it to
    its representative over sqrt(orbit size) (_character_block).  The roots
    e^(-2 pi i m/N) are reduced in integers (_unit_phases), so root N-m is
    the exact conjugate of root m and the blocks of momenta k and -k have
    exactly conjugate coefs.
    """
    orbits = _orbits(n_sites, reflect=False)
    shifts = np.array([r for r, _, _ in orbits.group])
    flips = np.array([c for _, _, c in orbits.group])
    cos, sin = _unit_phases(n_sites, 2 * np.arange(n_sites))
    roots = cos - 1j * sin
    signs = np.array([1.0, -1.0])[:, None, None]
    k = np.arange(n_sites)[:, None]
    chars = roots[k * shifts % n_sites].conj() * signs**flips
    return tuple(
        tuple(_character_block(n_sites, orbits, c) for c in row) for row in chars
    )


class _MomentumSpectra(NamedTuple):
    """Eigensystems of the blocks of momentum k and flip parity s.

    Block (k, s) sits at [i, k], i = 0 for s = +1 and 1 for s = -1, with
    dims[i, k] states: its ascending energies[i, k, :dims] and eigenvectors
    vectors[i, k, :, :dims], one row per orbit of _orbits(N, reflect=False);
    the block's states sit at the rows orbit[block.reps].  Rows of excluded
    orbits and everything past dims are 0.
    """

    dims: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray


def _momentum_spectra(h: TfimHamiltonian) -> _MomentumSpectra:
    """The eigensystems of every block of momentum k and flip parity s.

    Each block is H = diag(bonds) + lam F on its orbit states
    (_momentum_blocks), complex Hermitian, and takes one eigh.  H is real,
    so block -k is the complex conjugate of block k: only k = 0..N//2 are
    diagonalized.  Every residual ||H v_i - E_i v_i|| stays below
    RESIDUAL_BOUND, each basis is orthonormal within ORTHONORMALITY_TOL and
    the 2^N energies sum to 0, else ContractError: any state diagonal in
    these bases then commutes with H up to twice the worst residual.  A
    field past the rounding floor raises ConvergenceError before any block
    (_rounding_floor), and so does a residual past the bound that the
    eigh's own rounding explains (_check_eigensystem).
    """
    _rounding_floor(h)
    n = h.n_sites
    orbits = _orbits(n, reflect=False)
    blocks = _momentum_blocks(n)
    dims = np.array([[block.reps.size for block in row] for row in blocks])
    width = int(dims.max())
    energies = np.zeros((2, n, width))
    vectors = np.zeros((2, n, orbits.reps.size, width), dtype=np.complex128)
    for i in range(2):
        for k in range(n // 2 + 1):
            block = blocks[i][k]
            dim = block.reps.size
            mat = block.hamiltonian(h)
            vals, vecs = eigh(mat)
            _check_eigensystem(h, mat, vals, vecs)
            energies[i, k, :dim] = vals
            vectors[i, k, orbits.orbit[block.reps], :dim] = vecs
            if 0 < k < n - k:
                energies[i, n - k] = energies[i, k]
                vectors[i, n - k] = vectors[i, k].conj()
    _check_traceless(energies[np.arange(width) < dims[..., None]])
    return _MomentumSpectra(dims, energies, vectors)


def full_spectrum(h: TfimHamiltonian) -> FullSpectrum:
    """Dense eigendecomposition up to FULL_SPECTRUM_MAX_SITES, lifted from
    the blocks of momentum k and flip parity s: block eigenvector v becomes
    sum_b coef[b] v[orbit of b] |b>, and the columns are merged in
    ascending order.  The lift is an isometry that H maps onto itself, so
    the checks of _momentum_spectra carry over: every residual
    ||H v_i - E_i v_i|| below RESIDUAL_BOUND and each block basis
    orthonormal within ORTHONORMALITY_TOL, else ContractError, and any
    state diagonal in this basis then commutes with H up to twice the worst
    residual.  The basis holds 4^N entries, hence the cap.
    """
    if h.n_sites > FULL_SPECTRUM_MAX_SITES:
        raise CapabilityError(
            f"full spectra stop at {FULL_SPECTRUM_MAX_SITES} sites, got {h.n_sites}"
        )
    orbit = _orbits(h.n_sites, reflect=False).orbit
    blocks = _momentum_blocks(h.n_sites)
    spectra = _momentum_spectra(h)
    energies, columns = [], []
    for i, k in np.ndindex(spectra.dims.shape):
        dim = spectra.dims[i, k]
        energies.append(spectra.energies[i, k, :dim])
        lifted = spectra.vectors[i, k][orbit, :dim]
        columns.append(blocks[i][k].coef[:, None] * lifted)
    vals = np.concatenate(energies)
    order = np.argsort(vals, kind="stable")
    basis = np.concatenate(columns, axis=1)[:, order]
    return FullSpectrum(n_sites=h.n_sites, eigenvalues=vals[order], basis=basis)


def gap_scan(lam: float, n_min: int, n_max: int) -> list[tuple[int, float]]:
    """Energy gap E1 - E0 for every chain length in [n_min, n_max], up to
    SCAN_MAX_SITES, from the Lanczos doublet (_lanczos_doublet).

    Each of the two energies must lie within CLOSED_FORM_C eps N (1 + |lam|)
    of its sector's closed form (check_closed_form), else ContractError, so
    the difference can be off by twice that.  A gap at or below
    2 CLOSED_FORM_C eps N (1 + |lam|), the smallest energy difference that
    contract tells from zero, raises ConvergenceError naming N, the gap and
    that bound: two float64 energies cannot resolve it, however exact the
    solve.  Lanczos quotients have missed their closed forms by at most
    10.4 eps N (1 + |lam|) at N = 3..14 on 60 fields, so the refusal is one
    of precision and not of the solve: it stops lam = 1e-3 from N = 5, 0.05
    from N = 10 and 0.1 from N = 12, whose exact gaps are below 4e-13, and
    no gap at |lam| >= 0.2.  lam = 0, where the gap closes exactly, is a
    DomainError.
    """
    if lam == 0.0:
        raise DomainError("the gap closes exactly at zero field; scan needs lam != 0")
    out = []
    for n in check_sizes(range(n_min, n_max + 1), SCAN_MAX_SITES):
        gap = _lanczos_doublet(build_tfim(n, lam)).gap
        bound = 2.0 * CLOSED_FORM_C * _EPS * energy_scale(n, lam)
        if gap <= bound:
            raise ConvergenceError(
                f"gap {gap!r} at {n} sites is not above the resolution"
                f" {bound:.3e} of two energies each within {CLOSED_FORM_C}"
                f" eps N (1 + |lam|) of its closed form"
            )
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
    diag = 0.5 * (_vdot(a0, mz * a0).real + _vdot(a1, mz * a1).real)
    cross = _vdot(a0, mz * a1).real
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
    sup /= _norm(sup)
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
