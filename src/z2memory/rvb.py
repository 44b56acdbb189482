"""Nearest-neighbor valence-bond states on the periodic chain.

Two dimer coverings exist: bonds (1,2)(3,4)... and bonds (2,3)(4,5)...
closed by the wraparound pair.  Their equal superposition is a
rotation-invariant state whose two branches differ in a bilocal staggered
observable by an amount of order N, while every ring-distance >= 2
two-point correlation is checked numerically rather than assumed zero.

Conventions, fixed so every identity below is bit-exact:
  - singlet |i,j> = (|0_i 1_j> - |1_i 0_j>)/sqrt(2), first listed site first;
  - the even covering lists its wraparound pair as (1, N) in that order;
  - overlap of the two coverings: <VB2|VB1> = (-1/2)^(N/2-1), so the
    superposition normalizes by sqrt(2 + 2*(-1/2)^(N/2-1)).

Residue law.  Every one-site mean vanishes (each covering is a total
singlet), and two sites at ring distance d >= 2 sit in different singlets
of either covering, so of <sigma^a_i sigma^a_j> only the cross terms
<VB2|sigma^a_i sigma^a_j|VB1> survive.  The two coverings close into one
loop through all N sites, on which that cross term is (-1)^d times the
overlap s = (-1/2)^(N/2-1).  The connected correlation is therefore
2 (-1)^d s / (2 + 2s) = (-1)^d / (1/s + 1), whose magnitude is
1/(2^(N/2-1) - (-1)^(N/2)) at every distance >= 2: 1/5 at N=6, 1/7 at N=8.

Machinery.  The amplitudes are handled as a real (2,)*N tensor, site l on
axis l-1.  _covering_tensor builds each covering as one outer product of
2x2 singlet factors, one per pair, and moves each pair's two axes onto its
sites.  The ring's two coverings and their superposition are built in one
place, _rvb_tensors, and the iterated swap reads its coverings from there.
A bond's singlet projector works in place on the four slices of its
two axes.  identity_report stays on these real tensors throughout, the
total spin and t_operator_moments included, and each row it reports has
the bits of the StateVector route.  A StateVector appears only at the
public edges: build_vb, build_rvb and the apply functions return one, and
the correlation checks start from build_rvb.  t_operator_moments runs its
bond sum on the real tensor but casts both vectors to complex for its two
dots: numpy sums a complex array pairwise in another order than a real
one, and the real sums move the mean and variance in the last digits and
come no closer to the exact rationals.  The staggered bond sum adds
each bond's singlet amplitude into two slices of one accumulator, and the
iterated swap projects one tensor in place, so no kernel allocates a 2^N
array per bond: at N = 14 such an array is a 256 kB heap block, and a run
of them makes glibc trim and re-grow its heap, paying page faults, on
every call.  Every connected correlation is an entry of the correlation
matrix, so the residue scan reads them from its 3x3 axis blocks.  The
superposition is translation invariant (one-site rotation swaps the two
coverings, phase -1), so build_vcm fills that matrix from two-site density
matrices.  Overlaps and norms of 2^N vectors are pairwise sums
(pauli._vdot).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .macroscopicity import build_vcm
from .pauli import AdditiveOperator, PauliAxis, StateVector, _norm, _vdot

RVB_MIN_SITES = 4
RVB_MAX_SITES = 14
# Largest ring the correlation checks accept.  identity_report runs the
# residue scan only up to it, so `z2mem rvb --n 14` reports its other 9
# checks and exits 0.
CORRELATION_MAX_SITES = 12


@dataclass(frozen=True)
class PairCovering:
    """Perfect matching of the N sites into N/2 disjoint pairs."""

    n_sites: int
    pairs: tuple

    def __post_init__(self):
        n = self.n_sites
        if not isinstance(n, (int, np.integer)) or n < RVB_MIN_SITES or n % 2:
            raise DomainError(f"coverings need an even site count >= {RVB_MIN_SITES}")
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        seen: set[int] = set()
        for i, j in pairs:
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise DomainError(f"invalid pair ({i}, {j}) on {n} sites")
            seen.update((i, j))
        if len(seen) != n or len(pairs) != n // 2:
            raise DomainError("pairs must be disjoint and cover every site")
        object.__setattr__(self, "n_sites", int(n))
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def odd_bonds(cls, n_sites: int) -> "PairCovering":
        """Pairs (1,2), (3,4), ..., (N-1,N)."""
        return cls(n_sites, tuple((l, l + 1) for l in range(1, n_sites, 2)))

    @classmethod
    def even_bonds(cls, n_sites: int) -> "PairCovering":
        """Pairs (2,3), (4,5), ..., (N-2,N-1) plus the wraparound (1,N)."""
        inner = tuple((l, l + 1) for l in range(2, n_sites - 1, 2))
        return cls(n_sites, inner + ((1, n_sites),))


def _covering_tensor(covering: PairCovering) -> np.ndarray:
    """The product of singlets over a pair covering as a real, writable
    (2,)*N tensor, site l on axis l-1: one outer product of a 2x2 singlet
    factor per pair, indexed [bit i, bit j], then one move of each pair's
    two axes onto its sites i and j, whichever is listed first.  A covering
    whose sites already come in order, like the odd one, is not copied."""
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    singlet = np.array([[0.0, inv_sqrt2], [-inv_sqrt2, 0.0]])  # [bit i, bit j]
    amps = functools.reduce(np.multiply.outer, [singlet] * len(covering.pairs))
    sites = [site - 1 for pair in covering.pairs for site in pair]
    return np.ascontiguousarray(np.moveaxis(amps, range(amps.ndim), sites))


def build_vb(covering: PairCovering) -> StateVector:
    """Normalized product of singlets over a pair covering."""
    if not isinstance(covering, PairCovering):
        raise DomainError("build_vb expects a PairCovering")
    return StateVector(covering.n_sites, _covering_tensor(covering).reshape(-1))


def _check_ring(n: int, max_sites: int) -> None:
    """DomainError unless n is an even site count in RVB_MIN_SITES..max_sites."""
    if not isinstance(n, (int, np.integer)) or n % 2:
        raise DomainError(f"site count must be even, got {n!r}")
    if not RVB_MIN_SITES <= n <= max_sites:
        raise DomainError(
            f"site count must lie in {RVB_MIN_SITES}..{max_sites}, got {n}"
        )


def _rvb_tensors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normalized superposition of the two coverings and the odd and
    even coverings themselves, as real (2,)*N tensors."""
    _check_ring(n, RVB_MAX_SITES)
    odd = _covering_tensor(PairCovering.odd_bonds(n))
    even = _covering_tensor(PairCovering.even_bonds(n))
    psi = odd + even
    psi *= 1.0 / np.sqrt(2.0 + 2.0 * (-0.5) ** (n // 2 - 1))
    return psi, odd, even


def build_rvb(n: int) -> StateVector:
    """Equal superposition of the two nearest-neighbor coverings,
    normalized exactly through the covering overlap."""
    return StateVector(n, _rvb_tensors(n)[0].reshape(-1))


def _bond_view(tensor: np.ndarray, n: int, l: int) -> np.ndarray:
    """A (2,)*N tensor with the axes of bond (l, l+1) moved to the front;
    the bond at l = N wraps to (N, 1)."""
    m = 1 if l == n else l + 1
    return np.moveaxis(tensor, (l - 1, m - 1), (0, 1))


def _singlet_amplitude(tensor: np.ndarray, n: int, l: int) -> np.ndarray:
    """(psi[.. 0_l 1_(l+1) ..] - psi[.. 1_l 0_(l+1) ..]) / 2: the projector
    onto the singlet of bond (l, l+1) writes this on the bond's 01 slice
    and its negative on the 10 slice, and zeros elsewhere."""
    view = _bond_view(tensor, n, l)
    return 0.5 * (view[0, 1] - view[1, 0])


def _project_singlet(tensor: np.ndarray, n: int, l: int) -> None:
    """The singlet projector of bond (l, l+1), in place on a (2,)*N tensor."""
    d = _singlet_amplitude(tensor, n, l)
    view = _bond_view(tensor, n, l)
    view[0, 1] = d
    view[1, 0] = -d
    view[0, 0] = 0.0
    view[1, 1] = 0.0


def singlet_projector_apply(state: StateVector, l: int) -> StateVector:
    """Projector onto the singlet of sites (l, l+1) applied to a state;
    the bond at l = N wraps to (N, 1).  Output is unnormalized.  Works on
    the two bond axes of the (2,)*N tensor view."""
    n = state.n_sites
    if not 1 <= l <= n:
        raise DomainError(f"bond site {l} out of range 1..{n}")
    out = state.amplitudes.reshape((2,) * n).copy()
    _project_singlet(out, n, l)
    return StateVector(n, out.reshape(-1))


def _staggered_bond_sum(amps: np.ndarray, n: int) -> np.ndarray:
    """sum_l (-1)^l t(l, l+1) applied to flat amplitudes: each bond's
    singlet amplitude, negated in place on odd bonds, is added to the
    bond's 01 slice of one accumulator and subtracted from its 10 slice.
    IEEE defines x - d as x + (-d), signed zeros included, so the sum has
    the bits of one subtraction and one addition per odd bond."""
    src = amps.reshape((2,) * n)
    acc = np.zeros_like(src)
    for l in range(1, n + 1):
        d = _singlet_amplitude(src, n, l)
        if l % 2:
            np.negative(d, out=d)
        view = _bond_view(acc, n, l)
        view[0, 1] += d
        view[1, 0] -= d
    return acc.reshape(-1)


def t_operator_apply(state: StateVector) -> StateVector:
    """Staggered sum of bond singlet projectors, sum_l (-1)^l t(l, l+1)."""
    n = state.n_sites
    if n % 2:
        raise DomainError("the staggered bond sum needs an even ring")
    return StateVector(n, _staggered_bond_sum(state.amplitudes, n))


def t_operator_moments(n: int) -> tuple[float, float]:
    """Mean and variance of the staggered bond observable in the
    superposed covering state.  The bond sum runs on the real tensor; the
    two vectors are cast to complex for the dots, whose pairwise sums
    then keep the bits of the complex route."""
    psi = _rvb_tensors(n)[0].reshape(-1)
    tpsi = _staggered_bond_sum(psi, n).astype(np.complex128)
    psi = psi.astype(np.complex128)
    mean = _vdot(psi, tpsi).real
    second = _vdot(tpsi, tpsi).real
    return mean, second - mean * mean


def connected_correlation_scan(n: int) -> float:
    """Largest |<s_a(l) s_b(m)> - <s_a(l)><s_b(m)>| over all axis pairs and
    all site pairs at ring distance >= 2 in the superposed covering state,
    read from the 3x3 axis blocks of its correlation matrix."""
    _check_ring(n, CORRELATION_MAX_SITES)
    blocks = build_vcm(build_rvb(n)).entries.reshape(n, 3, n, 3)
    offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    far = np.minimum(offset, n - offset) >= 2
    return float(np.abs(blocks.transpose(0, 2, 1, 3)[far]).max())


def rvb_vcm_check(n: int) -> float:
    """e1 of the correlation matrix of the superposed covering state."""
    _check_ring(n, CORRELATION_MAX_SITES)
    return build_vcm(build_rvb(n)).e1


def iterated_swap_residual(n: int) -> float:
    """Max-abs residual of rebuilding the even covering from the odd one by
    projecting every even bond and rescaling by (-2)^(N/2-1); both
    coverings come from _rvb_tensors, which checks the ring size."""
    current, even = _rvb_tensors(n)[1:]
    for l in range(2, n + 1, 2):
        _project_singlet(current, n, l)
    current *= (-2.0) ** (n // 2 - 1)
    current -= even
    return float(np.abs(current).max())


def identity_report(n: int) -> list[tuple[str, float, str, bool]]:
    """The valence-bond identities on an even ring of n sites, as
    (name, observed, threshold, ok) rows: the norm, the covering overlap,
    one bond projection and its expectation, the staggered mean of the odd
    covering, the staggered moments of the superposition (n >= 8), the
    residue law's far correlations (n <= CORRELATION_MAX_SITES), the total
    spin and the iterated swap."""
    psi, v1, v2 = (t.reshape(-1) for t in _rvb_tensors(n))
    checks: list[tuple[str, float, str, bool]] = []

    def add(name: str, observed: float, threshold: str, ok: bool) -> None:
        checks.append((name, float(observed), threshold, bool(ok)))

    norm_dev = abs(_norm(psi) - 1.0)
    add("norm_deviation", norm_dev, "<=1e-12", norm_dev <= 1e-12)

    overlap_err = abs(_vdot(v2, v1).real - (-0.5) ** (n // 2 - 1))
    add("covering_overlap_error", overlap_err, "<=1e-12", overlap_err <= 1e-12)

    swapped = v1.reshape((2,) * n).copy()
    _project_singlet(swapped, n, 2)
    swapped = swapped.reshape(-1)
    swap_pairs = ((2, 3), (1, 4)) + tuple((l, l + 1) for l in range(5, n, 2))
    target = _covering_tensor(PairCovering(n, swap_pairs)).reshape(-1)
    swap_err = float(np.abs(swapped - (-0.5) * target).max())
    add("swap_coefficient_error", swap_err, "<=1e-12", swap_err <= 1e-12)

    proj = _vdot(v1, swapped).real
    proj_err = abs(proj - 0.25)
    add("bond_projector_expectation_error", proj_err, "<=1e-12", proj_err <= 1e-12)

    t_v1 = _vdot(v1, _staggered_bond_sum(v1, n)).real
    t_v1_err = abs(t_v1 - (-3.0 * n / 8.0))
    add("staggered_mean_error", t_v1_err, "<=1e-10", t_v1_err <= 1e-10)

    mean, variance = t_operator_moments(n)
    if n >= 8:
        add("superposed_staggered_mean", abs(mean), "<0.5", abs(mean) < 0.5)
        ratio = variance / float(n * n)
        add("staggered_variance_over_n_squared", ratio, "[0.10;0.18]",
            0.10 <= ratio <= 0.18)

    if n <= CORRELATION_MAX_SITES:
        cc = connected_correlation_scan(n)
        add("connected_correlation_max", cc, "<1e-12", cc < 1e-12)

    spin_residual = max(
        _norm(AdditiveOperator.total(n, axis)._apply_to(psi))
        for axis in PauliAxis
    )
    add("total_spin_residual", spin_residual, "<=1e-12", spin_residual <= 1e-12)

    iterated = iterated_swap_residual(n)
    add("iterated_swap_residual", iterated, "<=1e-10", iterated <= 1e-10)
    return checks
