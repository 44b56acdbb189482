"""Periodic transverse-field Ising chain and its stabilizer-code algebra.

H = -sum_l sigma_z(l) sigma_z(l+1) + lam * sum_l sigma_x(l), with site N+1
identified with site 1 and the coupling set to 1 (all energies in units of
the bond coupling).  The bond terms double as the stabilizer generators of
a two-dimensional code space; the global spin flip and a single-site
sigma_z act as the encoded bit flip and phase.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .pauli import PauliAxis, StateVector, _apply_axis, _vdot, popcounts, site_bits

MIN_SITES = 3  # a periodic 2-site ring would double-count its single bond
STABILIZER_MAX_SITES = 12


def _site_z(n_sites: int) -> np.ndarray:
    """sigma_z eigenvalue of every site (rows, site 1 first) in every basis state."""
    return np.array([1.0 - 2.0 * site_bits(n_sites, l) for l in range(1, n_sites + 1)])


@functools.lru_cache(maxsize=None)
def _bond_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of the bond term -sum_l z_l z_{l+1} over all basis states,
    read-only and built once per N: it does not depend on the field.

    Each domain wall, a bit that differs from its cyclic neighbour, turns
    one bond from +1 to -1, so the bond sum is N - 2 * popcount(b XOR
    rot(b)); written as -(N - 2 walls), its zeros keep the sign of the
    negated site-product sum."""
    b = np.arange(1 << n_sites)
    rotated = ((b << 1) | (b >> (n_sites - 1))) & ((1 << n_sites) - 1)
    diag = -(n_sites - 2.0 * popcounts(n_sites, b ^ rotated))
    diag.flags.writeable = False
    return diag


def energy_scale(n_sites: int, lam: float) -> float:
    """N (1 + |lam|), which bounds the norm of H, hence every energy and
    every term of the closed-form ground-energy sum; the rounding bounds of
    the solvers are multiples of eps times this scale."""
    return n_sites * (1.0 + abs(lam))


def check_chain(n_sites: int, lam: float) -> tuple[int, float]:
    """The site count and field of a chain as int and float, or DomainError
    for fewer than MIN_SITES sites or a field that leaves N (1 + |lam|)
    non-finite."""
    if not isinstance(n_sites, (int, np.integer)) or n_sites < MIN_SITES:
        raise DomainError(
            f"the chain needs at least {MIN_SITES} sites, got {n_sites!r}"
        )
    lam = float(lam)
    if not math.isfinite(energy_scale(n_sites, lam)):
        raise DomainError(
            f"the transverse field {lam!r} leaves the energy scale"
            f" N (1 + |lam|) non-finite at {n_sites} sites"
        )
    return int(n_sites), lam


def check_sizes(n_range, max_sites: int) -> list[int]:
    """The chain lengths of a scan, each an integer in MIN_SITES..max_sites,
    else DomainError.  The first bad length stops the check, so a huge
    range is never listed."""
    sizes = []
    for n in n_range:
        if not (isinstance(n, (int, np.integer)) and MIN_SITES <= n <= max_sites):
            raise DomainError(
                f"chain lengths must be integers in {MIN_SITES}..{max_sites},"
                f" got {n!r}"
            )
        sizes.append(int(n))
    if not sizes:
        raise DomainError("the scan needs at least one chain length")
    return sizes


class TfimHamiltonian:
    """Matrix-free action of the chain Hamiltonian.

    Immutable after construction; ``apply`` may be called concurrently on
    distinct vectors.  The action works on raw float or complex arrays so
    the parity-sector eigensolver can stay in real arithmetic.
    """

    __slots__ = ("n_sites", "lam", "_diag")

    def __init__(self, n_sites: int, lam: float) -> None:
        n_sites, lam = check_chain(n_sites, lam)
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "_diag", _bond_diagonal(n_sites))

    def __setattr__(self, name, value):
        raise AttributeError("TfimHamiltonian is immutable")

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """H acting on the leading 2^N basis index of a raw amplitude
        array: a state vector, or every column of a matrix at once."""
        n = self.n_sites
        out = self._diag.reshape(-1, *(1,) * (amps.ndim - 1)) * amps
        if self.lam != 0.0:
            flips = np.zeros_like(amps)
            for site in range(n, 0, -1):
                flips += _apply_axis(amps, n, PauliAxis.X, site)
            out += self.lam * flips
        return out

    def apply_state(self, state: StateVector) -> StateVector:
        """H|state> as a StateVector (generally unnormalized)."""
        if state.n_sites != self.n_sites:
            raise DomainError("state and Hamiltonian disagree on the site count")
        return StateVector(self.n_sites, self.apply(state.amplitudes))

    def __repr__(self) -> str:
        return f"TfimHamiltonian(n_sites={self.n_sites}, lam={self.lam})"


def build_tfim(n_sites: int, lam: float) -> TfimHamiltonian:
    """Hamiltonian of the periodic chain with transverse field ``lam``."""
    return TfimHamiltonian(n_sites, lam)


def global_flip_expectation(state: StateVector) -> float:
    """Expectation of the global spin flip prod_l sigma_x(l).

    The flip maps basis index b to its bit complement, which is an index
    reversal, so the matrix element is an overlap with the reversed vector.
    """
    state.require_normalized()
    val = _vdot(state.amplitudes, state.amplitudes[::-1])
    return float(min(1.0, max(-1.0, val.real)))


@dataclass(frozen=True)
class StabilizerReport:
    """Residuals of the bond-stabilizer algebra on n_sites spins.

    logical_commutation_residuals holds, in order: the largest Frobenius
    norm of a commutator of the global flip with a bond operator, the same
    for the single-site phase operator, and the norm of the anticommutator
    of flip and phase (all three should vanish).
    """

    n_sites: int
    code_dimension: int
    product_identity_residual: float
    logical_commutation_residuals: tuple[float, float, float]

    @property
    def passed(self) -> bool:
        """A two-dimensional code space and every residual below 1e-12."""
        worst = max(self.product_identity_residual, *self.logical_commutation_residuals)
        return self.code_dimension == 2 and worst < 1e-12


def _phase_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of the logical phase, sigma_z on site 1 (bit N-1)."""
    return 1.0 - 2.0 * site_bits(n_sites, 1)


def stabilizer_check(n_sites: int) -> StabilizerReport:
    """Verify the bond-stabilizer algebra by permutation algebra on diagonals.

    Checks that the code space (simultaneous +1 eigenspace of the first
    N-1 bond operators) is two dimensional, that the last bond operator is
    the product of the others, and that the logical flip/phase pair
    commutes with every stabilizer while anticommuting with each other.
    Bonds and phase are diagonal in the z basis, and the flip F reverses
    the basis index, so F diag(d) F = diag(d[::-1]).  Each residual is the
    Frobenius norm of its operator, a vector norm: ||[F, diag(d)]|| =
    ||d - d[::-1]||, ||[P, diag(d)]|| = ||p d - d p||, ||FP + PF|| =
    ||p + p[::-1]|| and ||d_N - prod_l d_l||.
    """
    (n_sites,) = check_sizes([n_sites], STABILIZER_MAX_SITES)
    # bond l joins sites l, l+1
    z = _site_z(n_sites)
    bonds = z * np.roll(z, -1, axis=0)
    phase = _phase_diagonal(n_sites)

    product_residual = float(np.linalg.norm(bonds[-1] - np.prod(bonds[:-1], axis=0)))
    flip_residual = max(float(np.linalg.norm(d - d[::-1])) for d in bonds)
    phase_residual = max(float(np.linalg.norm(phase * d - d * phase)) for d in bonds)
    anti_residual = float(np.linalg.norm(phase + phase[::-1]))

    code_dimension = int(np.sum(np.all(bonds[:-1] == 1.0, axis=0)))

    return StabilizerReport(
        n_sites=n_sites,
        code_dimension=code_dimension,
        product_identity_residual=product_residual,
        logical_commutation_residuals=(flip_residual, phase_residual, anti_residual),
    )


def stabilizer_scan(n_range) -> list[StabilizerReport]:
    """stabilizer_check for every chain length up to STABILIZER_MAX_SITES."""
    return [stabilizer_check(n) for n in check_sizes(n_range, STABILIZER_MAX_SITES)]
