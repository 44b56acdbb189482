"""The chain as free Majorana fermions: the closed-form ground energy of each
flip sector and the ground state's spin correlations by Wick's theorem,
with no 2^N vector.

Jordan-Wigner (Lieb, Schultz and Mattis, Ann. Phys. 16, 407 (1961)) takes
a_l = (prod_{j<l} sigma_x(j)) sigma_z(l) and
b_l = (prod_{j<l} sigma_x(j)) sigma_y(l), so sigma_x(l) = i a_l b_l and
sigma_z(l) sigma_z(l+1) = i b_l a_{l+1}.  The wrap bond is
sigma_z(N) sigma_z(1) = -P i b_N a_1, with P = prod_l sigma_x(l) the flip
parity.  In the sector P = s the Hamiltonian is therefore quadratic in
gamma = (a_1, b_1, ..., a_N, b_N) and translation invariant with a
twisted wrap bond, and its ground state is Gaussian.  Its plane-wave
modes have momenta k = pi(2m+1)/N for s = +1 and k = 2 pi m/N for
s = -1, so every two-point function is a sum over them: <a a> and <b b>
vanish, and c[a_l, b_(l+r)] = g(r), with <gamma_p gamma_q> = i c[p, q],
comes at every offset r from one inverse FFT (Pfeuty, Ann. Phys. 57, 79
(1970)).  No 2N x 2N matrix is built or diagonalized.
Wick's theorem gives every product of these two-point functions.

The spin correlations along a ring offset d are Pfaffians of that
covariance.  sigma_x sigma_x takes four Majoranas.  sigma_z sigma_z and
sigma_y sigma_y take the Jordan-Wigner strings between the two sites, and
since <a a> and <b b> vanish, each Pfaffian is the d x d determinant of a
Toeplitz block of g (Pfeuty 1970; Barouch and McCoy, Phys. Rev. A 3, 786
(1971)).

The module imports only numpy, the one-thread scope of _blas, the chain's
parameter check and the error types, so that eigensolve can build on it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError, det

from ._blas import one_thread
from .errors import ContractError, ConvergenceError
from .model import check_chain

CLOSED_FORM_C = 64  # sector energies stay within C eps N (1 + |lam|) of exact
_EPS = float(np.finfo(float).eps)


def ground_parity(n_sites: int, lam: float) -> float:
    """Flip parity of the ground state: +1 for lam <= 0 and (-1)^N for
    lam > 0 (Perron-Frobenius; see eigensolve.lowest_eigenpairs)."""
    return -1.0 if lam > 0 and n_sites % 2 else 1.0


def sector_energy(n_sites: int, lam: float, sign: float) -> float:
    """Exact ground energy of the flip sector ``sign`` (Lieb, Schultz and
    Mattis 1961), with f(k) = sqrt(1 + lam^2 - 2|lam| cos k): in the
    ground state's sector (ground_parity) -sum_m f(pi (2m+1)/N) over the
    antiperiodic modes, in its doublet partner's -sum_{m=1}^{N-1}
    f(2 pi m/N) - (1 - |lam|) over the periodic ones, whose k=0 mode sits
    at 1 - |lam|, signed.  f is evaluated as hypot(1 - |lam|,
    2 sqrt|lam| sin(k/2)), free of cancellation at |lam| = 1, and the terms
    are summed by math.fsum, so the result is good to a few ulps."""
    a = abs(float(lam))
    odd = int(sign == ground_parity(n_sites, lam))  # k = pi j / N, j odd
    half_k = np.pi * (2 * np.arange(n_sites) + odd) / (2 * n_sites)
    terms = np.hypot(1.0 - a, 2.0 * np.sqrt(a) * np.sin(half_k))
    if not odd:
        terms[0] = 1.0 - a
    return -math.fsum(terms)


def check_closed_form(
    label: str, energy: float, exact: float, n_sites: int, lam: float
) -> None:
    """``energy`` within CLOSED_FORM_C eps N (1 + |lam|) of its closed form
    ``exact`` (sector_energy), else ContractError."""
    bound = CLOSED_FORM_C * _EPS * n_sites * (1.0 + abs(lam))
    if not abs(energy - exact) <= bound:
        raise ContractError(
            f"{label} {energy!r} misses the closed-form energy {exact!r}"
            f" by more than {bound:.3e}"
        )


def _unit_phases(n_sites: int, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of pi j/N for integer j, reduced in integers: j mod 2N
    folded onto an angle in [0, pi], the sine signed by the fold.  So angle
    0 and pi give an exact 0 sine, and j and -j give exact conjugates."""
    j = j % (2 * n_sites)
    angle = np.pi * np.minimum(j, 2 * n_sites - j) / n_sites
    return np.cos(angle), np.sign(n_sites - j) * np.sin(angle)


def _ground_covariance(n_sites: int, lam: float) -> np.ndarray:
    """g(r) = c[a_l, b_(l+r)] of the ground state at r = -N/2..N/2, for
    sites l and l+r in 1..N; <a a> and <b b> vanish.

    In the sector P = s the couplings are translation invariant with a
    twisted wrap bond, so the modes are plane waves of momentum
    k = pi(2m+1)/N for s = +1 and k = 2 pi m/N for s = -1, m = 0..N-1, and
    g(r) = Re[(1/N) sum_k e^(ikr) (lam + e^(ik)) / |lam + e^(ik)|] (Pfeuty
    1970), in the sector ground_parity names.  That is one inverse FFT
    over m, times the half-step twist e^(i pi r/N) for s = +1; the angles
    of the momenta and of the twist are reduced in integers (_unit_phases).
    A zero mode, lam + e^(ik) = 0, is a ContractError: it needs |lam| = 1
    and the wrong parity.  The energy -N(g(-1) + lam g(0)) =
    -sum_k |lam + e^(ik)| must meet sector_energy (check_closed_form): a
    covariance of the wrong flip parity sums the other sector's modes and
    misses it.
    """
    sign = ground_parity(n_sites, lam)
    odd = 1 if sign > 0 else 0  # k = pi (2m + odd) / N
    cos_k, sin_k = _unit_phases(n_sites, 2 * np.arange(n_sites) + odd)
    real = lam + cos_k
    size = np.hypot(real, sin_k)
    if not np.all(size > 0.0):
        raise ContractError(
            f"sector {sign:+.0f} has a zero mode at lambda={lam!r}"
        )
    half = n_sites // 2
    r = np.arange(-half, half + 1)
    sums = np.fft.ifft(real / size + 1j * (sin_k / size))[r % n_sites]
    cos_r, sin_r = _unit_phases(n_sites, odd * r)
    g = cos_r * sums.real - sin_r * sums.imag
    energy = -n_sites * float(g[half - 1] + lam * g[half])
    check_closed_form(
        "Gaussian ground energy", energy, sector_energy(n_sites, lam, sign),
        n_sites, lam,
    )
    return g


def ground_correlations(n_sites: int, lam: float) -> tuple[float, np.ndarray]:
    """m = <sigma_x(l)> and the same-axis pair correlations of the ground
    state, row a (0:x, 1:y, 2:z), column d: <s_a(1) s_a(1+d)> for
    d = 0..N/2.  The ground state is translation invariant and these
    operators commute, so the offsets past N/2 mirror them.

    With g from _ground_covariance at r = -N/2..N/2: m = -g(0);
    <s_x s_x>(d) = g(0)^2 - g(d) g(-d), the Pfaffian on
    (a_1, b_1, a_{1+d}, b_{1+d}); <s_y s_y>(d) = det[g(j+1-i)] and
    <s_z s_z>(d) = det[g(i-j-1)], i, j = 1..d, the leading d x d slices of
    two Toeplitz tables.  The determinants run with OpenBLAS on one thread
    (_blas.one_thread): it threads the LU of a slice from about 144 x 144
    on (N >= 288), and its second thread then mostly doubles the CPU time.
    A LAPACK failure of a determinant raises ConvergenceError.
    """
    n_sites, lam = check_chain(n_sites, lam)
    half = n_sites // 2
    g = _ground_covariance(n_sites, lam)
    corr = np.ones((3, half + 1))
    corr[0, 1:] = g[half] ** 2 - g[half + 1 :] * g[half - 1 :: -1]  # d = 1..N/2
    i = np.arange(half)
    shift = i[None, :] - i[:, None]  # j - i
    y_table = g[half + 1 + shift]
    z_table = g[half - 1 - shift]
    try:
        with one_thread():
            for d in range(1, half + 1):
                corr[1, d] = det(y_table[:d, :d])
                corr[2, d] = det(z_table[:d, :d])
    except LinAlgError as exc:
        raise ConvergenceError(f"Gaussian ground state failed: {exc}") from exc
    return -float(g[half]), corr
