"""Independent brute-force routes used to cross-check the library.

Everything here is built from explicit Kronecker products and dense matrix
algebra, deliberately sharing no code with the package's bit-twiddling
implementations.
"""

import mpmath
import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SX, SY, SZ)
I2 = np.eye(2, dtype=complex)


def kron_chain(n, factors):
    """Dense product operator on n sites: factors[site] on the listed sites,
    identity elsewhere, site 1 the leftmost kron factor."""
    op = np.eye(1, dtype=complex)
    for s in range(1, n + 1):
        op = np.kron(op, factors.get(s, I2))
    return op


def site_op(n, site, axis):
    """Dense sigma_axis(site) on n sites."""
    return kron_chain(n, {site: PAULI[axis]})


def dense_h(n, lam):
    """Periodic chain Hamiltonian assembled from dense Kronecker chains."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for l in range(1, n + 1):
        nxt = 1 if l == n else l + 1
        h -= kron_chain(n, {l: SZ, nxt: SZ})
        h += lam * site_op(n, l, 0)
    return h


def free_fermion_energies(n, lam, dps=40):
    """Ground energies (E0, E1) of the two flip-parity sectors in closed form.

    Under Jordan-Wigner the chain is a free-fermion chain (Lieb, Schultz and
    Mattis, Ann. Phys. 16, 407 (1961)).  With f(k) = sqrt(1 + lam^2 -
    2|lam| cos k), the antiperiodic modes k = pi(2m+1)/N give the ground
    state and the periodic modes k = 2 pi m/N, with the k=0 mode at 1-|lam|,
    give its doublet partner.  Evaluated in mpmath at ``dps`` digits.
    """
    with mpmath.workdps(dps):
        lam = abs(mpmath.mpf(lam))

        def f(k):
            return mpmath.sqrt(1 + lam**2 - 2 * lam * mpmath.cos(k))

        e0 = -mpmath.fsum(f(mpmath.pi * (2 * m + 1) / n) for m in range(n))
        e1 = -mpmath.fsum(f(2 * mpmath.pi * m / n) for m in range(1, n)) - (1 - lam)
        return +e0, +e1


def free_fermion_spectrum(n, lam, dps=40):
    """All 2^N levels of the chain in closed form, ascending, as float64.

    Jordan-Wigner gives two free-fermion sets: the antiperiodic modes
    k = pi(2m+1)/N and the periodic modes k = 2 pi m/N, m = 0..N-1, each
    keeping the states with an even number of occupied modes.  A mode costs
    2 f(k) off k in {0, pi}; the k=0 mode costs 2(1-|lam|), signed, and the
    k=pi mode 2(1+|lam|).  A level is sum_k eps_k (n_k - 1/2), summed in
    mpmath at ``dps`` digits.
    """
    with mpmath.workdps(dps):
        lam = abs(mpmath.mpf(lam))
        levels = []
        # mode k = pi j / N: odd j for the antiperiodic set, even j for the
        # periodic one
        for js in (range(1, 2 * n, 2), range(0, 2 * n, 2)):
            eps = []
            for j in js:
                if j == 0:
                    eps.append(2 * (1 - lam))
                elif j == n:
                    eps.append(2 * (1 + lam))
                else:
                    k = mpmath.pi * j / n
                    eps.append(2 * mpmath.sqrt(1 + lam**2 - 2 * lam * mpmath.cos(k)))
            for occ in range(1 << n):
                if bin(occ).count("1") % 2 == 0:
                    levels.append(
                        mpmath.fsum(
                            e * (((occ >> i) & 1) - mpmath.mpf(1) / 2)
                            for i, e in enumerate(eps)
                        )
                    )
        return np.sort(np.array([float(x) for x in levels]))


def majorana_covariance(n, lam, sign):
    """Ground-state Majorana covariance of the chain's flip sector ``sign``
    by one dense eigh: the real antisymmetric c with <g_p g_q> = i c[p, q],
    p != q, over g = (a_1, b_1, ..., a_N, b_N).

    Under Jordan-Wigner the sector Hamiltonian is H = (i/4) g^T A g with
    sigma_x(l) = i a_l b_l and sigma_z(l) sigma_z(l+1) = i b_l a_(l+1);
    the wrap bond carries -sign.  The Hermitian iA has eigenvalues +-mu in
    pairs, the ground state fills the N modes of negative mu, and with Q
    the projector onto them <g_p g_q> = 2 Q[q, p], so c = -2 Im Q.
    """
    a = np.zeros((2 * n, 2 * n))
    for l in range(n):
        a[2 * l, 2 * l + 1] = 2.0 * lam
        if l + 1 < n:
            a[2 * l + 1, 2 * l + 2] = -2.0
    a[2 * n - 1, 0] = 2.0 * sign
    mu, vecs = np.linalg.eigh(1j * (a - a.T))
    assert np.count_nonzero(mu < 0.0) == n
    filled = vecs[:, :n]
    return -2.0 * (filled @ filled.conj().T).imag


def cosine_blocks(x):
    """sum_d x[a, d] cos(2 pi q d / N) for q = 0..N-1 in float64, from one
    N x N cosine table whose angles are reduced in integers: 2qd mod 2N,
    folded onto [0, N] before the cosine.  These are the Fourier blocks of a
    translation-invariant correlation matrix whose entries x[a, d] are
    symmetric in d <-> N - d."""
    n = x.shape[-1]
    d = np.arange(n)
    j = 2 * np.outer(d, d) % (2 * n)
    return x @ np.cos(np.pi * np.minimum(j, 2 * n - j) / n)


def exact_cosine_blocks(x, dps=40):
    """The sums of cosine_blocks in mpmath at ``dps`` digits, rounded to
    float64 at the end; q and N - q share one sum."""
    n = x.shape[-1]
    with mpmath.workdps(dps):
        cos = [mpmath.cospi(mpmath.mpf(2 * t) / n) for t in range(n)]
        rows = [[mpmath.mpf(v) for v in row] for row in x.tolist()]
        half = np.array([
            [float(mpmath.fdot(row, [cos[q * d % n] for d in range(n)]))
             for q in range(n // 2 + 1)]
            for row in rows
        ])
    return half[:, np.minimum(np.arange(n), n - np.arange(n))]


def vcm_spectrum(blocks, m):
    """The 3N eigenvalues, descending, of a ground-state correlation matrix
    from its Fourier blocks (rows xx, yy, zz) and m = <sigma_x>: the x
    entries alone, and the 2 x 2 blocks [[yy, i m], [-i m, zz]]."""
    mid = 0.5 * (blocks[1] + blocks[2])
    radius = np.hypot(0.5 * (blocks[1] - blocks[2]), m)
    return np.sort(np.concatenate([blocks[0], mid + radius, mid - radius]))[::-1]


def dense_vcm(amps):
    """Connected pair-correlation matrix by explicit operator products."""
    n = int(round(np.log2(amps.size)))
    ops = [site_op(n, l, a) for l in range(1, n + 1) for a in range(3)]
    means = np.array([np.vdot(amps, op @ amps).real for op in ops])
    side = 3 * n
    v = np.empty((side, side), dtype=complex)
    for r in range(side):
        for c in range(side):
            v[r, c] = np.vdot(amps, ops[r] @ (ops[c] @ amps)) - means[r] * means[c]
    return v


def dense_w(rho):
    """Commutator correlation matrix, literal double-commutator traces."""
    n = int(round(np.log2(rho.shape[0])))
    side = 3 * n
    w = np.empty((side, side), dtype=complex)
    ops = [site_op(n, l, a) for l in range(1, n + 1) for a in range(3)]
    for r in range(side):
        left = rho @ ops[r] - ops[r] @ rho
        for c in range(side):
            right = ops[c] @ rho - rho @ ops[c]
            w[r, c] = np.trace(left @ right)
    return w


def brute_vb(n, pairs):
    """Valence-bond product state by enumerating all singlet branch choices."""
    amps = np.zeros(1 << n, dtype=complex)
    npairs = len(pairs)
    base = (1.0 / np.sqrt(2.0)) ** npairs
    for choice in range(1 << npairs):
        idx = 0
        amp = base
        for k, (i, j) in enumerate(pairs):
            if (choice >> k) & 1:
                amp = -amp  # |1_i 0_j> branch carries the minus sign
                idx |= 1 << (n - i)
            else:
                idx |= 1 << (n - j)
        amps[idx] += amp
    return amps


def boltzmann_energy(n, lam, kT):
    """Thermal energy from a direct partition-function sum."""
    vals = np.linalg.eigvalsh(dense_h(n, lam))
    weights = np.exp(-(vals - vals[0]) / kT)
    weights /= weights.sum()
    return float(np.dot(weights, vals))


def random_state(rng, n):
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


def random_product_state(rng, n):
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        spinor = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        amps = np.kron(amps, spinor / np.linalg.norm(spinor))
    return amps


def identity_report_via_states(n):
    """The valence-bond identity rows of rvb.identity_report, computed through
    the package's public StateVector route: every state a complex
    StateVector, every operator its public apply function, every overlap
    StateVector.inner and every norm StateVector.norm."""
    from z2memory import (
        AdditiveOperator,
        PairCovering,
        PauliAxis,
        build_rvb,
        build_vb,
        connected_correlation_scan,
        iterated_swap_residual,
        singlet_projector_apply,
        t_operator_apply,
        t_operator_moments,
    )
    from z2memory.rvb import CORRELATION_MAX_SITES

    psi = build_rvb(n)
    v1 = build_vb(PairCovering.odd_bonds(n))
    v2 = build_vb(PairCovering.even_bonds(n))
    rows = []

    def add(name, observed, threshold, ok):
        rows.append((name, float(observed), threshold, bool(ok)))

    norm_dev = abs(psi.norm() - 1.0)
    add("norm_deviation", norm_dev, "<=1e-12", norm_dev <= 1e-12)
    overlap_err = abs(v2.inner(v1).real - (-0.5) ** (n // 2 - 1))
    add("covering_overlap_error", overlap_err, "<=1e-12", overlap_err <= 1e-12)
    swapped = singlet_projector_apply(v1, 2)
    swap_pairs = ((2, 3), (1, 4)) + tuple((l, l + 1) for l in range(5, n, 2))
    target = build_vb(PairCovering(n, swap_pairs))
    swap_err = float(np.abs(swapped.amplitudes - (-0.5) * target.amplitudes).max())
    add("swap_coefficient_error", swap_err, "<=1e-12", swap_err <= 1e-12)
    proj_err = abs(v1.inner(swapped).real - 0.25)
    add("bond_projector_expectation_error", proj_err, "<=1e-12", proj_err <= 1e-12)
    t_v1_err = abs(v1.inner(t_operator_apply(v1)).real - (-3.0 * n / 8.0))
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
    spin = max(AdditiveOperator.total(n, axis).apply(psi).norm() for axis in PauliAxis)
    add("total_spin_residual", spin, "<=1e-12", spin <= 1e-12)
    iterated = iterated_swap_residual(n)
    add("iterated_swap_residual", iterated, "<=1e-10", iterated <= 1e-10)
    return rows
