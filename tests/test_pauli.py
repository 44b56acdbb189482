import numpy as np
import pytest

import oracles
from z2memory import (
    AdditiveOperator,
    ContractError,
    DomainError,
    PauliAxis,
    StateVector,
    additive_variance,
    apply_pauli,
    basis_state,
    expectation,
    ghz_state,
    mz_diagonal,
    two_point,
)
from z2memory.pauli import _ROW_PHASE, _apply_axis, _norm, _vdot, popcounts


def test_state_vector_basics():
    s = basis_state(3, 5)
    assert s.dim == 8
    assert s.norm() == 1.0
    assert s.amplitudes[5] == 1.0 + 0.0j
    with pytest.raises(AttributeError):
        s.n_sites = 4
    assert not s.amplitudes.flags.writeable


@pytest.mark.parametrize("n", [1, 5, 13, 14, 15])
def test_pairwise_reductions_match_blas(n):
    rng = np.random.default_rng(n)
    size = 1 << n
    a = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
    b = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
    assert abs(_vdot(a, b) - np.vdot(a, b)) <= 1e-14 * size
    assert abs(_vdot(a.real, b.real) - np.vdot(a.real, b.real)) <= 1e-14 * size
    assert abs(_vdot(a.real, b) - np.vdot(a.real, b)) <= 1e-14 * size
    assert abs(_norm(a) - np.linalg.norm(a)) <= 1e-14 * size
    assert abs(_norm(a[::2]) - np.linalg.norm(a[::2])) <= 1e-14 * size
    assert isinstance(_vdot(a.real, b.real), complex)


def test_state_vector_accepts_single_site():
    s = StateVector(1, [1.0, 0.0])
    assert s.dim == 2


def test_state_vector_rejects_garbage():
    with pytest.raises(DomainError):
        StateVector(0, [1.0])
    with pytest.raises(ContractError):
        StateVector(2, [1.0, 0.0, 0.0])  # wrong length
    with pytest.raises(ContractError):
        StateVector(1, [np.nan, 0.0])


def test_norm_contract_and_normalized():
    s = StateVector(2, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(ContractError):
        s.require_normalized()
    n = s.normalized()
    assert abs(n.norm() - 1.0) < 1e-15


def test_inner_is_left_conjugated():
    a = StateVector(1, [1.0, 0.0])
    b = StateVector(1, [1j, 0.0])
    assert a.inner(b) == pytest.approx(1j)
    assert b.inner(a) == pytest.approx(-1j)


def test_ghz_state():
    g = ghz_state(4)
    assert g.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert g.amplitudes[15] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(g.amplitudes) == 2
    with pytest.raises(DomainError):
        ghz_state(1)


def test_popcounts_and_mz():
    assert list(popcounts(2)) == [0, 1, 1, 2]
    assert list(mz_diagonal(2)) == [2.0, 0.0, 0.0, -2.0]


def test_apply_pauli_matches_kron_oracle():
    # site_op has one unit entry per row, so the dense product is exact
    rng = np.random.default_rng(11)
    for n in range(1, 7):
        psi = oracles.random_state(rng, n)
        state = StateVector(n, psi)
        vector = rng.standard_normal(1 << n)
        matrix = rng.standard_normal((1 << n, 3))
        complex_matrix = matrix + 1j * rng.standard_normal((1 << n, 3))
        for site in range(1, n + 1):
            for axis in PauliAxis:
                op = oracles.site_op(n, site, int(axis))
                got = apply_pauli(state, axis, site).amplitudes
                assert np.array_equal(got, op @ psi)
                # the kernel writes sigma_x, sigma_x sigma_z = -i sigma_y or
                # sigma_z, a real operator
                row = (op * np.conj(_ROW_PHASE[axis])).real
                for amps in (vector, matrix, complex_matrix):
                    out = np.empty_like(amps)
                    assert _apply_axis(amps, n, axis, site, out=out) is out
                    assert np.array_equal(out, row @ amps)


def test_apply_pauli_site_range():
    s = basis_state(3)
    with pytest.raises(DomainError):
        apply_pauli(s, PauliAxis.X, 0)
    with pytest.raises(DomainError):
        apply_pauli(s, PauliAxis.X, 4)


def test_single_site_truth_table():
    up = StateVector(1, [1.0, 0.0])
    assert list(apply_pauli(up, PauliAxis.X, 1).amplitudes) == [0.0, 1.0]
    assert list(apply_pauli(up, PauliAxis.Y, 1).amplitudes) == [0.0, 1j]
    assert list(apply_pauli(up, PauliAxis.Z, 1).amplitudes) == [1.0, 0.0]


def test_expectation_matches_oracle_and_clamps():
    rng = np.random.default_rng(7)
    n = 4
    psi = oracles.random_state(rng, n)
    state = StateVector(n, psi)
    for site in (1, 3):
        for axis in PauliAxis:
            want = np.vdot(psi, oracles.site_op(n, site, int(axis)) @ psi).real
            assert expectation(state, axis, site) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ContractError):
        expectation(StateVector(2, [2.0, 0, 0, 0]), PauliAxis.Z, 1)


def test_two_point_matches_oracle():
    rng = np.random.default_rng(13)
    n = 5
    psi = oracles.random_state(rng, n)
    state = StateVector(n, psi)
    for (aa, sa, ab, sb) in ((0, 1, 2, 4), (1, 2, 1, 2), (2, 5, 0, 1)):
        op = oracles.site_op(n, sa, aa) @ oracles.site_op(n, sb, ab)
        want = complex(np.vdot(psi, op @ psi))
        assert abs(two_point(state, aa, sa, ab, sb) - want) < 1e-12


def test_additive_operator_validation():
    with pytest.raises(ContractError):
        AdditiveOperator(2, np.array([[1j, 0, 0], [0, 0, 0]]))
    with pytest.raises(ContractError):
        AdditiveOperator(2, np.ones((3, 3)))
    with pytest.raises(DomainError):
        AdditiveOperator(2, np.zeros((2, 3))).normalized()


def test_additive_operator_apply_matches_oracle():
    rng = np.random.default_rng(3)
    n = 4
    psi = oracles.random_state(rng, n)
    coeffs = rng.standard_normal((n, 3))
    op = AdditiveOperator(n, coeffs)
    dense = sum(
        coeffs[l - 1, a] * oracles.site_op(n, l, a)
        for l in range(1, n + 1)
        for a in range(3)
    )
    got = op.apply(StateVector(n, psi)).amplitudes
    assert np.abs(got - dense @ psi).max() < 1e-13


def test_total_and_staggered_weights():
    t = AdditiveOperator.total(5, PauliAxis.Z)
    assert t.weight() == 5.0
    s = AdditiveOperator.staggered(5, PauliAxis.X)
    assert list(s.coeffs[:, 0]) == [-1.0, 1.0, -1.0, 1.0, -1.0]
    norm = AdditiveOperator(3, np.full((3, 3), 0.5)).normalized()
    assert norm.weight() == pytest.approx(3.0, abs=1e-14)


def test_additive_variance_ghz_is_n_squared():
    for n in (3, 6):
        g = ghz_state(n)
        var = additive_variance(g, AdditiveOperator.total(n, PauliAxis.Z))
        assert var == pytest.approx(float(n * n), rel=1e-12)


def test_additive_variance_matches_oracle():
    rng = np.random.default_rng(21)
    n = 4
    psi = oracles.random_state(rng, n)
    coeffs = rng.standard_normal((n, 3))
    dense = sum(
        coeffs[l - 1, a] * oracles.site_op(n, l, a)
        for l in range(1, n + 1)
        for a in range(3)
    )
    mean = np.vdot(psi, dense @ psi).real
    want = np.vdot(psi, dense @ (dense @ psi)).real - mean**2
    got = additive_variance(StateVector(n, psi), AdditiveOperator(n, coeffs))
    assert got == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize("n", range(3, 11))
def test_real_apply_has_the_bits_of_the_complex_route(n):
    # float and complex input run one loop of real arithmetic; the cast's
    # zero imaginary part only adds zero terms, so every bit agrees
    rng = np.random.default_rng(100 + n)
    for zero_axis in (None, *PauliAxis):
        coeffs = rng.standard_normal((n, 3))
        coeffs[rng.random((n, 3)) < 0.25] = 0.0
        if zero_axis is not None:
            coeffs[:, int(zero_axis)] = 0.0
        op = AdditiveOperator(n, coeffs)
        amps = rng.standard_normal(1 << n)
        got = op._apply_to(amps)
        assert got.dtype == np.complex128
        assert np.array_equal(got, op._apply_to(amps.astype(np.complex128)))


def test_real_apply_of_total_spin_on_the_ring_keeps_its_bits():
    from z2memory import build_rvb

    amps = build_rvb(14).amplitudes
    for axis in PauliAxis:
        op = AdditiveOperator.total(14, axis)
        assert np.array_equal(op._apply_to(amps.real.copy()), op._apply_to(amps))


def test_additive_variance_of_a_real_state_runs_the_real_route(monkeypatch):
    rng = np.random.default_rng(29)
    n = 6
    amps = rng.standard_normal(1 << n)
    state = StateVector(n, amps / np.linalg.norm(amps))
    op = AdditiveOperator(n, rng.standard_normal((n, 3)))
    # the complex route, as additive_variance ran it on every state before
    phi = op._apply_to(state.amplitudes)
    mean = _vdot(state.amplitudes, phi).real
    want = _vdot(phi, phi).real - mean * mean
    seen = []
    apply_to = AdditiveOperator._apply_to

    def spy(self, arr):
        seen.append(arr.dtype)
        return apply_to(self, arr)

    monkeypatch.setattr(AdditiveOperator, "_apply_to", spy)
    assert additive_variance(state, op) == want
    complex_state = StateVector(n, state.amplitudes * 1j)
    additive_variance(complex_state, op)
    assert seen == [np.float64, np.complex128]
