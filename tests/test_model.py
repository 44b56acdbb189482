import numpy as np
import pytest

import oracles
import z2memory.model as model
from z2memory import (
    DomainError,
    PauliAxis,
    StateVector,
    apply_pauli,
    basis_state,
    build_tfim,
    ghz_state,
    global_flip_expectation,
    stabilizer_check,
)


def test_constructor_domain():
    with pytest.raises(DomainError):
        build_tfim(2, 0.5)
    with pytest.raises(DomainError):
        build_tfim(4, np.inf)
    with pytest.raises(DomainError):
        build_tfim(4, np.nan)
    for lam in (1e308, -1e308, 6e307):  # N (1 + |lam|) overflows at N=3
        with pytest.raises(DomainError, match="energy scale"):
            build_tfim(3, lam)
    assert build_tfim(3, 5e307).lam == 5e307
    h = build_tfim(3, 0.0)
    assert h.dim == 8


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for n, lam in ((3, 0.0), (4, 0.7), (5, -1.3), (6, 1.0)):
        dense = oracles.dense_h(n, lam)
        h = build_tfim(n, lam)
        psi = oracles.random_state(rng, n)
        assert np.abs(h.apply(psi) - dense @ psi).max() < 1e-13
    # the bond diagonal is a sum of integers, so it must match exactly
    for n in range(3, 11):
        diag = oracles.dense_h(n, 0.0).diagonal().real
        assert np.array_equal(build_tfim(n, 0.0)._diag, diag)


def test_apply_state_wrapper():
    h = build_tfim(3, 0.5)
    out = h.apply_state(basis_state(3))
    assert isinstance(out, StateVector)
    # diagonal part of H on |000> is -N (all bonds aligned)
    assert out.amplitudes[0] == pytest.approx(-3.0)


def test_classical_point_spectrum_n3():
    # lam = 0: energies are -sum of bond alignments; on a 3-ring the
    # multiset is {-3 x2, +1 x6}
    vals = np.linalg.eigvalsh(oracles.dense_h(3, 0.0))
    assert np.abs(vals[:2] - (-3.0)).max() < 1e-12
    assert np.abs(vals[2:] - 1.0).max() < 1e-12
    h = build_tfim(3, 0.0)
    got = np.linalg.eigvalsh(
        np.column_stack([h.apply(col) for col in np.eye(8)])
    )
    assert np.abs(got - vals).max() < 1e-12


def test_field_sign_symmetry():
    # lam -> -lam is a basis change (rotate every spin about z), so the
    # spectrum cannot move
    a = np.linalg.eigvalsh(oracles.dense_h(4, 0.9))
    b = np.linalg.eigvalsh(oracles.dense_h(4, -0.9))
    assert np.abs(a - b).max() < 1e-12


def test_global_flip_expectation():
    assert global_flip_expectation(ghz_state(4)) == pytest.approx(1.0)
    assert global_flip_expectation(basis_state(4)) == pytest.approx(0.0)
    minus = StateVector(
        2, np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
    )
    assert global_flip_expectation(minus) == pytest.approx(-1.0)


def test_stabilizer_check_all_sizes():
    for n in range(3, 13):
        rep = stabilizer_check(n)
        assert rep.n_sites == n
        assert rep.code_dimension == 2
        assert rep.product_identity_residual < 1e-12
        assert max(rep.logical_commutation_residuals) < 1e-12


def test_stabilizer_residuals_match_dense_operators(monkeypatch):
    # spoiled site and phase diagonals make the residuals nonzero; dense
    # matrix products of the same operators must give the same norms
    rng = np.random.default_rng(13)
    n = 5
    z = rng.standard_normal((n, 1 << n))
    p = rng.standard_normal(1 << n)
    monkeypatch.setattr(model, "_site_z", lambda n_sites: z)
    monkeypatch.setattr(model, "_phase_diagonal", lambda n_sites: p)
    rep = stabilizer_check(n)
    bonds = [np.diag(d) for d in z * np.roll(z, -1, axis=0)]
    flip = np.eye(1 << n)[::-1]
    phase = np.diag(p)
    product = np.linalg.multi_dot(bonds[:-1])
    want = (
        np.linalg.norm(bonds[-1] - product),
        max(np.linalg.norm(flip @ b - b @ flip) for b in bonds),
        max(np.linalg.norm(phase @ b - b @ phase) for b in bonds),
        np.linalg.norm(flip @ phase + phase @ flip),
    )
    got = (rep.product_identity_residual, *rep.logical_commutation_residuals)
    assert got == pytest.approx(want, rel=1e-12)
    assert min(got[0], got[1], got[3]) > 1.0


@pytest.mark.parametrize("n", range(3, 15))
def test_bond_diagonal_is_the_site_product_sum(n):
    # the domain-wall count against -sum_l z_l z_{l+1} from the site
    # diagonals, to the bit, signed zeros included
    z = model._site_z(n)
    want = -(z * np.roll(z, -1, axis=0)).sum(axis=0)
    got = model._bond_diagonal(n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_stabilizer_check_range():
    with pytest.raises(DomainError):
        stabilizer_check(2)
    with pytest.raises(DomainError):
        stabilizer_check(13)


def test_stabilizer_phase_is_sigma_z_on_site_1():
    rng = np.random.default_rng(11)
    for n in range(3, 9):
        psi = StateVector(n, oracles.random_state(rng, n))
        want = apply_pauli(psi, PauliAxis.Z, 1).amplitudes
        assert np.array_equal(model._phase_diagonal(n) * psi.amplitudes, want)
