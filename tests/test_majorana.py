import numpy as np
import pytest

import oracles
import z2memory.majorana as mj
from z2memory import ContractError, ConvergenceError, DomainError, macroscopicity
from z2memory.cli import main

FIELDS = (0.0, 1e-8, -1e-8, 0.3, 1.0, 1.5, -0.7, 1e3)


def _covariance_from_pairs(n, lam):
    """The full 2N x 2N c over (a_1, b_1, ..., a_N, b_N) from g at every
    r in (-N, N): c[a_l, b_l'] = g(l' - l), c[b_l', a_l] = -g(l' - l).
    _ground_covariance gives r = -N/2..N/2; the sector's momenta make
    g(r + N) = -s g(r) in the sector s of the ground state."""
    half = n // 2
    g = mj._ground_covariance(n, lam)
    r = np.arange(-(n - 1), n)
    fold = (r + half) % n - half  # r - N, r or r + N, inside -N/2..N/2
    wrap = (-mj.ground_parity(n, lam)) ** ((r - fold) // n)
    g = wrap * g[fold + half]
    l = np.arange(n)
    c = np.zeros((2 * n, 2 * n))
    c[0::2, 1::2] = g[l[None, :] - l[:, None] + n - 1]
    return c - c.T


@pytest.mark.parametrize("n", range(3, 15))
def test_covariance_is_a_pure_gaussian_state(n):
    # c is real antisymmetric with c @ c = -1, a pure state, and holds no
    # <a a> or <b b> term by construction
    for lam in FIELDS:
        c = _covariance_from_pairs(n, lam)
        assert np.abs(c @ c + np.eye(2 * n)).max() < 1e-13, lam


@pytest.mark.parametrize("n", range(3, 65))
def test_pair_function_matches_the_coupling_matrix_eigh(n):
    # independent route: the projector onto the negative modes of the
    # 2N x 2N coupling matrix of the ground state's sector, whose real
    # Hamiltonian leaves no <a a> or <b b> term either
    for lam in FIELDS:
        want = oracles.majorana_covariance(n, lam, mj.ground_parity(n, lam))
        assert np.abs(want[0::2, 0::2]).max() < 1e-13, lam
        assert np.abs(want[1::2, 1::2]).max() < 1e-13, lam
        assert np.abs(_covariance_from_pairs(n, lam) - want).max() < 1e-13, lam


@pytest.mark.parametrize("n", range(3, 9))
def test_correlations_match_the_dense_ground_state(n):
    # independent route: the lowest vector of the dense Kronecker
    # Hamiltonian, at fields that split the doublet far above rounding
    for lam in (0.3, 1.0, 1.5, -0.7, 3.0):
        psi = np.linalg.eigh(oracles.dense_h(n, lam))[1][:, 0]
        m, corr = mj.ground_correlations(n, lam)
        sx = oracles.site_op(n, 1, 0)
        assert abs(m - np.vdot(psi, sx @ psi).real) < 1e-13
        for d in range(n // 2 + 1):
            for axis in range(3):
                pair = oracles.site_op(n, 1, axis) @ oracles.site_op(n, 1 + d, axis)
                want = np.vdot(psi, pair @ psi).real
                assert abs(corr[axis, d] - want) < 1e-13, (lam, d, axis)


def test_energy_mismatch_is_a_contract_error(monkeypatch):
    exact = mj.sector_energy
    monkeypatch.setattr(
        mj, "sector_energy", lambda n, lam, sign: exact(n, lam, sign) + 4.0
    )
    with pytest.raises(ContractError, match="closed-form energy"):
        mj.ground_correlations(8, 0.5)


@pytest.mark.parametrize("n, lam", [(8, 0.5), (7, 0.5), (7, -1.5), (12, 1.0)])
def test_wrong_parity_covariance_is_a_contract_error(monkeypatch, n, lam):
    # the other sector's modes sum to its own energy, which misses the
    # ground energy; at |lam| = 1 one of them is a zero mode
    parity = mj.ground_parity
    monkeypatch.setattr(mj, "ground_parity", lambda n, lam: -parity(n, lam))
    with pytest.raises(ContractError, match="closed-form energy|zero mode"):
        mj.ground_correlations(n, lam)


@pytest.mark.parametrize("n, lam", [(12, 1.0), (7, 1.0), (8, -1.0), (7, -1.0)])
def test_zero_mode_is_a_contract_error(monkeypatch, n, lam):
    # lam + e^(ik) = 0 at k = pi for lam = 1 and at k = 0 for lam = -1;
    # only the sector that ground_parity does not name holds that momentum
    mj.ground_correlations(n, lam)
    parity = mj.ground_parity
    monkeypatch.setattr(mj, "ground_parity", lambda n, lam: -parity(n, lam))
    with pytest.raises(ContractError, match="zero mode"):
        mj.ground_correlations(n, lam)


@pytest.mark.parametrize("name", ["det"])
def test_lapack_failure_is_a_convergence_error(monkeypatch, tmp_path, name):
    def failing(mat):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(mj, name, failing)
    with pytest.raises(ConvergenceError, match="did not converge"):
        mj.ground_correlations(8, 0.5)
    out = str(tmp_path / "x.csv")
    assert main(["scan-e1", "--lambdas", "0.5", "--out", out]) == 2


def test_chain_domain():
    for n, lam in ((2, 0.5), (6.0, 0.5), (8, 1e308), (8, float("nan"))):
        with pytest.raises(DomainError):
            mj.ground_correlations(n, lam)


def _fourier_input(n, lam):
    """m and the rows (xx, yy, zz) of connected correlations at offsets
    d = 0..N-1 that macroscopicity._ground_spectrum transforms."""
    m, corr = mj.ground_correlations(n, lam)
    corr[0] -= m * m
    d = np.arange(n)
    return m, corr[:, np.minimum(d, n - d)]


@pytest.mark.parametrize("n", [*range(3, 65), 512])
def test_ground_spectrum_takes_the_cosine_alone_bit_for_bit(n):
    # named for the N x N cosine table the spectrum once matched bit for
    # bit; its FFT now meets that table, the integer-reduced cosine sum of
    # oracles.cosine_blocks, within 1e-14 relative to e1 (1.1e-15 measured
    # at N <= 64, 5.5e-15 at N = 512)
    for lam in FIELDS:
        m, x = _fourier_input(n, lam)
        want = oracles.vcm_spectrum(oracles.cosine_blocks(x), m)
        got = macroscopicity._ground_spectrum(n, lam)
        assert np.abs(got - want).max() <= 1e-14 * want[0], lam


def test_fourier_blocks_are_no_farther_from_exact_than_the_table():
    # against a 40-digit DFT of the same correlations, the worst error of
    # the FFT route over these sizes is no larger than that of the cosine
    # table, though at some odd primes the FFT is a few ulps worse at that
    # size alone (N = 53: 2.8e-14 against 7.1e-15)
    fft_worst = table_worst = 0.0
    for n in (14, 23, 47, 53, 59, 64, 100, 128):
        for lam in FIELDS:
            m, x = _fourier_input(n, lam)
            exact = oracles.vcm_spectrum(oracles.exact_cosine_blocks(x), m)
            got = macroscopicity._ground_spectrum(n, lam)
            table = oracles.vcm_spectrum(oracles.cosine_blocks(x), m)
            fft_worst = max(fft_worst, np.abs(got - exact).max())
            table_worst = max(table_worst, np.abs(table - exact).max())
    assert fft_worst <= table_worst
    assert fft_worst < 1e-13
