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

Machinery.  The amplitudes are handled as a (2,)*N tensor, site l on axis
l-1: build_vb multiplies one 2x2 singlet factor per pair into it, and a
bond's singlet projector works in place on the four slices of its two
axes.  The staggered bond sum adds each bond's singlet amplitude into two
slices of one accumulator, and the iterated swap projects one tensor in
place, so no kernel allocates a 2^N array per bond: at N = 14 such an
array is a 256 kB heap block, and a run of them makes glibc trim and
re-grow its heap, paying page faults, on every call.  Every connected
correlation is an entry of the correlation matrix, so the residue scan
reads them from its 3x3 axis blocks.  The superposition is translation
invariant (one-site rotation swaps the two coverings, phase -1), so
build_vcm fills that matrix from two-site density matrices.  Overlaps
and norms of 2^N vectors are pairwise sums (pauli._vdot).
"""

from __future__ import annotations

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
    (2,)*N tensor, site l on axis l-1: each pair multiplies a 2x2 singlet
    factor into it, and a pair that lists its higher site first takes the
    transposed factor."""
    n = covering.n_sites
    amps = np.ones((2,) * n)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    singlet = np.array([[0.0, inv_sqrt2], [-inv_sqrt2, 0.0]])  # [bit i, bit j]
    for i, j in covering.pairs:
        shape = [1] * n
        shape[i - 1] = shape[j - 1] = 2
        factor = singlet if i < j else singlet.T
        amps *= factor.reshape(shape)
    return amps


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


def build_rvb(n: int) -> StateVector:
    """Equal superposition of the two nearest-neighbor coverings,
    normalized exactly through the covering overlap."""
    _check_ring(n, RVB_MAX_SITES)
    amps = _covering_tensor(PairCovering.odd_bonds(n))
    amps += _covering_tensor(PairCovering.even_bonds(n))
    amps *= 1.0 / np.sqrt(2.0 + 2.0 * (-0.5) ** (n // 2 - 1))
    return StateVector(n, amps.reshape(-1))


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
    """sum_l (-1)^l t(l, l+1) applied to flat amplitudes: each bond adds
    its signed singlet amplitude into two slices of one accumulator."""
    src = amps.reshape((2,) * n)
    acc = np.zeros_like(src)
    for l in range(1, n + 1):
        d = _singlet_amplitude(src, n, l)
        view = _bond_view(acc, n, l)
        if l % 2:
            view[0, 1] -= d
            view[1, 0] += d
        else:
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
    superposed covering state."""
    psi = build_rvb(n).amplitudes
    tpsi = _staggered_bond_sum(psi, n)
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
    projecting every even bond and rescaling by (-2)^(N/2-1)."""
    _check_ring(n, RVB_MAX_SITES)
    current = _covering_tensor(PairCovering.odd_bonds(n))
    for l in range(2, n + 1, 2):
        _project_singlet(current, n, l)
    current *= (-2.0) ** (n // 2 - 1)
    current -= _covering_tensor(PairCovering.even_bonds(n))
    return float(np.abs(current).max())


def identity_report(n: int) -> list[tuple[str, float, str, bool]]:
    """The valence-bond identities on an even ring of n sites, as
    (name, observed, threshold, ok) rows: the norm, the covering overlap,
    one bond projection and its expectation, the staggered mean of the odd
    covering, the staggered moments of the superposition (n >= 8), the
    residue law's far correlations (n <= CORRELATION_MAX_SITES), the total
    spin and the iterated swap."""
    psi = build_rvb(n)
    v1 = build_vb(PairCovering.odd_bonds(n))
    v2 = build_vb(PairCovering.even_bonds(n))
    checks: list[tuple[str, float, str, bool]] = []

    def add(name: str, observed: float, threshold: str, ok: bool) -> None:
        checks.append((name, float(observed), threshold, bool(ok)))

    norm_dev = abs(psi.norm() - 1.0)
    add("norm_deviation", norm_dev, "<=1e-12", norm_dev <= 1e-12)

    overlap_err = abs(complex(v2.inner(v1)).real - (-0.5) ** (n // 2 - 1))
    add("covering_overlap_error", overlap_err, "<=1e-12", overlap_err <= 1e-12)

    swapped = singlet_projector_apply(v1, 2)
    swap_pairs = ((2, 3), (1, 4)) + tuple((l, l + 1) for l in range(5, n, 2))
    swap_target = build_vb(PairCovering(n, swap_pairs))
    swap_err = float(
        np.abs(swapped.amplitudes - (-0.5) * swap_target.amplitudes).max()
    )
    add("swap_coefficient_error", swap_err, "<=1e-12", swap_err <= 1e-12)

    proj = _vdot(v1.amplitudes, swapped.amplitudes).real
    proj_err = abs(proj - 0.25)
    add("bond_projector_expectation_error", proj_err, "<=1e-12", proj_err <= 1e-12)

    t_v1 = _vdot(v1.amplitudes, _staggered_bond_sum(v1.amplitudes, n)).real
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
        _norm(AdditiveOperator.total(n, axis)._apply_to(psi.amplitudes))
        for axis in PauliAxis
    )
    add("total_spin_residual", spin_residual, "<=1e-12", spin_residual <= 1e-12)

    iterated = iterated_swap_residual(n)
    add("iterated_swap_residual", iterated, "<=1e-10", iterated <= 1e-10)
    return checks
