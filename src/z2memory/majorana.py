"""The chain as free Majorana fermions: its closed-form ground energy and the
ground state's spin correlations by Wick's theorem, with no 2^N vector.

Jordan-Wigner (Lieb, Schultz and Mattis, Ann. Phys. 16, 407 (1961)) takes
a_l = (prod_{j<l} sigma_x(j)) sigma_z(l) and
b_l = (prod_{j<l} sigma_x(j)) sigma_y(l), so sigma_x(l) = i a_l b_l and
sigma_z(l) sigma_z(l+1) = i b_l a_{l+1}.  The wrap bond is
sigma_z(N) sigma_z(1) = -P i b_N a_1, with P = prod_l sigma_x(l) the flip
parity.  In the sector P = s the Hamiltonian is therefore quadratic,
H = (i/4) gamma^T A gamma over gamma = (a_1, b_1, ..., a_N, b_N), with A
real antisymmetric and 2N x 2N, and its ground state is Gaussian: one eigh
of the Hermitian iA gives every two-point function <gamma_p gamma_q>, and
Wick's theorem every product of them.

The spin correlations along a ring offset d are Pfaffians of that
covariance.  sigma_x sigma_x takes four Majoranas.  sigma_z sigma_z and
sigma_y sigma_y take the Jordan-Wigner strings between the two sites, and
since <a a> and <b b> vanish for a real Hamiltonian, each Pfaffian is the
d x d determinant of a Toeplitz block (Pfeuty, Ann. Phys. 57, 79 (1970);
Barouch and McCoy, Phys. Rev. A 3, 786 (1971)).

The module imports only numpy, the chain's parameter check and the error
types, so that eigensolve can build on it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError, det, eigh

from .errors import ContractError, ConvergenceError
from .model import check_chain

CLOSED_FORM_C = 64  # ground energies stay within C eps N (1 + |lam|) of E0
_EPS = float(np.finfo(float).eps)


def ground_parity(n_sites: int, lam: float) -> float:
    """Flip parity of the ground state: +1 for lam <= 0 and (-1)^N for
    lam > 0 (Perron-Frobenius; see eigensolve.lowest_eigenpairs)."""
    return -1.0 if lam > 0 and n_sites % 2 else 1.0


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


def _coupling_matrix(n_sites: int, lam: float, sign: float) -> np.ndarray:
    """A of H = (i/4) gamma^T A gamma in flip sector ``sign``, rows and
    columns (a_1, b_1, ..., a_N, b_N)."""
    a = np.zeros((2 * n_sites, 2 * n_sites))
    l = np.arange(n_sites)
    a[2 * l, 2 * l + 1] = 2.0 * lam
    a[2 * l[:-1] + 1, 2 * l[:-1] + 2] = -2.0
    a[-1, 0] = 2.0 * sign
    return a - a.T


def _ground_covariance(n_sites: int, lam: float) -> np.ndarray:
    """The real antisymmetric c with <gamma_p gamma_q> = i c[p, q], p != q,
    in the ground state.

    iA has eigenvalues +-mu in pairs; the ground state fills the N modes
    of negative mu, so with Q the projector onto them, <gamma_p gamma_q> =
    2 Q[q, p] and c = -2 Im Q.  Its energy is -sum|mu|/4.  iA must have
    exactly N negative eigenvalues, and the energy must meet
    free_fermion_ground_energy within CLOSED_FORM_C eps N (1 + |lam|), else
    ContractError: a covariance of the wrong flip parity fills the modes
    of the other sector and misses it.
    """
    mu, vecs = eigh(1j * _coupling_matrix(n_sites, lam, ground_parity(n_sites, lam)))
    negative = int(np.count_nonzero(mu < 0.0))
    if negative != n_sites:
        raise ContractError(
            f"iA has {negative} negative eigenvalues, expected {n_sites}"
        )
    energy = -0.25 * float(np.abs(mu).sum())
    e0 = free_fermion_ground_energy(n_sites, lam)
    bound = CLOSED_FORM_C * _EPS * n_sites * (1.0 + abs(lam))
    if not abs(energy - e0) <= bound:
        raise ContractError(
            f"Gaussian ground energy {energy!r} misses the closed-form energy"
            f" {e0!r} by more than {bound:.3e}"
        )
    filled = vecs[:, :n_sites]
    return -2.0 * (filled @ filled.conj().T).imag


def ground_correlations(n_sites: int, lam: float) -> tuple[float, np.ndarray]:
    """m = <sigma_x(l)> and the same-axis pair correlations of the ground
    state, row a (0:x, 1:y, 2:z), column d: <s_a(1) s_a(1+d)> for
    d = 0..N/2.  The ground state is translation invariant and these
    operators commute, so the offsets past N/2 mirror them.

    With c from _ground_covariance: m = -c[a_1, b_1];
    <s_x s_x>(d) is the Pfaffian of c on (a_1, b_1, a_{1+d}, b_{1+d});
    <s_z s_z>(d) = det(-c[b_1..b_d; a_2..a_{d+1}]) and
    <s_y s_y>(d) = det(c[a_1..a_d; b_2..b_{d+1}]).  A LAPACK failure of
    the eigh or of a determinant raises ConvergenceError.
    """
    n_sites, lam = check_chain(n_sites, lam)
    half = n_sites // 2
    corr = np.ones((3, half + 1))
    try:
        c = _ground_covariance(n_sites, lam)
        for d in range(1, half + 1):
            pair = [0, 1, 2 * d, 2 * d + 1]
            q = c[np.ix_(pair, pair)]
            corr[0, d] = q[0, 1] * q[2, 3] - q[0, 2] * q[1, 3] + q[0, 3] * q[1, 2]
            corr[1, d] = det(c[0 : 2 * d : 2, 3 : 2 * d + 2 : 2])
            corr[2, d] = det(-c[1 : 2 * d : 2, 2 : 2 * d + 1 : 2])
    except LinAlgError as exc:
        raise ConvergenceError(f"Gaussian ground state failed: {exc}") from exc
    return -float(c[0, 1]), corr
