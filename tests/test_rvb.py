import numpy as np
import pytest

import oracles
from z2memory import (
    DomainError,
    PairCovering,
    PauliAxis,
    StateVector,
    build_rvb,
    build_vb,
    build_vcm,
    connected_correlation_scan,
    expectation,
    fit_index_p,
    identity_report,
    iterated_swap_residual,
    mz_diagonal,
    rvb_vcm_check,
    singlet_projector_apply,
    t_operator_apply,
    t_operator_moments,
    two_point,
)


def test_pair_covering_validation():
    with pytest.raises(DomainError):
        PairCovering(5, ((1, 2), (3, 4)))
    with pytest.raises(DomainError):
        PairCovering(4, ((1, 2), (2, 3)))  # site reused
    with pytest.raises(DomainError):
        PairCovering(4, ((1, 2),))  # site 3, 4 uncovered
    with pytest.raises(DomainError):
        PairCovering(4, ((1, 2), (3, 5)))  # out of range


def test_standard_coverings():
    assert PairCovering.odd_bonds(6).pairs == ((1, 2), (3, 4), (5, 6))
    assert PairCovering.even_bonds(6).pairs == ((2, 3), (4, 5), (1, 6))


def test_build_vb_matches_brute_force():
    for n in (4, 6, 8):
        for cov in (PairCovering.odd_bonds(n), PairCovering.even_bonds(n)):
            got = build_vb(cov).amplitudes
            want = oracles.brute_vb(n, cov.pairs)
            assert np.abs(got - want).max() < 1e-14
    scrambled = PairCovering(6, ((1, 4), (6, 2), (3, 5)))
    got = build_vb(scrambled).amplitudes
    assert np.abs(got - oracles.brute_vb(6, scrambled.pairs)).max() < 1e-14


def test_singlet_orientation_antisymmetry():
    a = build_vb(PairCovering(4, ((1, 2), (3, 4))))
    b = build_vb(PairCovering(4, ((2, 1), (3, 4))))
    assert np.abs(a.amplitudes + b.amplitudes).max() < 1e-15


def test_vb_states_are_total_spin_singlets():
    from z2memory import AdditiveOperator

    for n in (4, 6):
        v = build_vb(PairCovering.odd_bonds(n))
        for axis in PauliAxis:
            total = AdditiveOperator.total(n, axis)
            assert np.abs(total.apply(v).amplitudes).max() < 1e-14


def test_dimer_overlap_follows_halving_law():
    for n in (4, 6, 8, 10, 12, 14):
        v1 = build_vb(PairCovering.odd_bonds(n))
        v2 = build_vb(PairCovering.even_bonds(n))
        want = (-0.5) ** (n // 2 - 1)
        assert v2.inner(v1) == pytest.approx(want, abs=1e-12)


def test_build_rvb_domain_and_norm():
    with pytest.raises(DomainError):
        build_rvb(5)
    with pytest.raises(DomainError):
        build_rvb(2)
    with pytest.raises(DomainError):
        build_rvb(16)
    for n in (4, 8, 12):
        psi = build_rvb(n)
        assert abs(psi.norm() - 1.0) < 1e-12
        mz = mz_diagonal(n)
        assert abs((np.abs(psi.amplitudes) ** 2) @ mz) < 1e-12


def test_rvb_overlap_with_each_dimer_branch():
    n = 8
    psi = build_rvb(n)
    v1 = build_vb(PairCovering.odd_bonds(n))
    s = (-0.5) ** (n // 2 - 1)
    want = (1.0 + s) / np.sqrt(2.0 + 2.0 * s)
    assert v1.inner(psi) == pytest.approx(want, abs=1e-12)


def test_singlet_projector_is_idempotent_projector():
    rng = np.random.default_rng(23)
    n = 6
    state = StateVector(n, oracles.random_state(rng, n))
    once = singlet_projector_apply(state, 2)
    twice = singlet_projector_apply(once, 2)
    assert np.abs(twice.amplitudes - once.amplitudes).max() < 1e-12
    with pytest.raises(DomainError):
        singlet_projector_apply(state, 0)
    with pytest.raises(DomainError):
        singlet_projector_apply(state, 7)


@pytest.mark.parametrize("n", range(4, 9))
def test_singlet_projector_matches_dense_oracle(n):
    # (I - XX - YY - ZZ)/4 on every bond, the wrap bond (N, 1) included
    rng = np.random.default_rng(100 + n)
    amps = oracles.random_state(rng, n)
    state = StateVector(n, amps)
    for l in range(1, n + 1):
        m = 1 if l == n else l + 1
        dense = np.eye(1 << n, dtype=complex)
        for axis in range(3):
            dense -= oracles.site_op(n, l, axis) @ oracles.site_op(n, m, axis)
        want = (dense / 4.0) @ amps
        got = singlet_projector_apply(state, l).amplitudes
        assert np.abs(got - want).max() < 1e-14


def test_singlet_projector_fixes_its_own_bond():
    # each branch state contains the (1, N) wrap singlet, so the wrap
    # projector leaves it untouched
    n = 8
    v2 = build_vb(PairCovering.even_bonds(n))
    held = singlet_projector_apply(v2, n)
    assert np.abs(held.amplitudes - v2.amplitudes).max() < 1e-14
    v1 = build_vb(PairCovering.odd_bonds(n))
    assert v1.inner(singlet_projector_apply(v1, 1)) == pytest.approx(1.0, abs=1e-14)


def test_bond_projector_expectation_on_opposite_covering():
    # a projector across two different singlets of the other covering
    n = 8
    v1 = build_vb(PairCovering.odd_bonds(n))
    assert v1.inner(singlet_projector_apply(v1, 2)) == pytest.approx(0.25, abs=1e-14)


def test_staggered_swap_sum_moments():
    # frozen exact rationals; the variance stays a finite fraction of N^2
    frozen = {4: 3.0, 6: 27.0 / 5.0, 8: 72.0 / 7.0, 10: 495.0 / 34.0, 12: 675.0 / 31.0}
    for n, want in frozen.items():
        mean, var = t_operator_moments(n)
        assert abs(mean) < 1e-10
        assert var == pytest.approx(want, rel=1e-10)
        assert var / (n * n) > 0.1


def test_vb1_swap_sum_moments_explicit():
    # first and second moments of the staggered swap sum on one branch
    n = 8
    v1 = build_vb(PairCovering.odd_bonds(n))
    t_v1 = t_operator_apply(v1)
    mean = v1.inner(t_v1).real
    second = t_v1.inner(t_v1).real
    assert mean == pytest.approx(-3.0 * n / 8.0, abs=1e-12)
    assert second == pytest.approx(9.0 * n * n / 64.0 + 3.0 * n / 32.0, rel=1e-12)


def test_superposition_mean_is_subextensive():
    for n in (8, 10):
        psi = build_rvb(n)
        t_psi = t_operator_apply(psi)
        mean = psi.inner(t_psi).real
        assert abs(mean) < 0.5  # branch means +-3N/8 cancel
        _, var = t_operator_moments(n)
        assert 0.10 <= var / (n * n) <= 0.18


def test_connected_correlations_do_not_vanish():
    # regression: ring geometry leaves an exact residue at every distance
    assert connected_correlation_scan(8) == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert connected_correlation_scan(12) == pytest.approx(1.0 / 31.0, rel=1e-12)
    with pytest.raises(DomainError):
        connected_correlation_scan(7)
    with pytest.raises(DomainError):
        connected_correlation_scan(14)


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_connected_residue_law(n):
    # every site pair at ring distance >= 2 carries the same residue,
    # 1/(2^(N/2-1) - (-1)^(N/2)), set by the covering overlap (-1/2)^(N/2-1)
    want = 1.0 / (2 ** (n // 2 - 1) - (-1) ** (n // 2))
    psi = build_rvb(n)
    for l in range(1, n + 1):
        for m in range(l + 2, n + 1):
            if n - (m - l) < 2:
                continue
            got = max(
                abs(two_point(psi, a, l, b, m) - expectation(psi, a, l) * expectation(psi, b, m))
                for a in PauliAxis
                for b in PauliAxis
            )
            assert got == pytest.approx(want, rel=1e-12)
    assert connected_correlation_scan(n) == pytest.approx(want, rel=1e-12)


def test_nearest_neighbour_correlation_is_large():
    n = 8
    psi = build_rvb(n)
    zz = two_point(psi, PauliAxis.Z, 1, PauliAxis.Z, 2).real
    z1 = expectation(psi, PauliAxis.Z, 1)
    z2 = expectation(psi, PauliAxis.Z, 2)
    assert abs(zz - z1 * z2) > 0.1


def test_rvb_vcm_stays_order_one():
    points = [(n, rvb_vcm_check(n)) for n in (8, 10, 12)]
    for _, e1 in points:
        assert 1.5 < e1 < 3.0
    assert abs(fit_index_p(points).slope) < 0.6


def test_iterated_swap_reproduces_other_branch():
    for n in (4, 6, 8, 10, 12):
        assert iterated_swap_residual(n) < 1e-10


def test_ring_sizes_share_one_rule():
    for fn, cap in (
        (build_rvb, 14),
        (iterated_swap_residual, 14),
        (connected_correlation_scan, 12),
        (rvb_vcm_check, 12),
        (identity_report, 14),
    ):
        for n in (2, 5, 8.0, cap + 2):
            with pytest.raises(DomainError, match="site count must"):
                fn(n)


def test_identity_report_rows():
    rows = identity_report(8)
    assert [name for name, *_ in rows] == [
        "norm_deviation",
        "covering_overlap_error",
        "swap_coefficient_error",
        "bond_projector_expectation_error",
        "staggered_mean_error",
        "superposed_staggered_mean",
        "staggered_variance_over_n_squared",
        "connected_correlation_max",
        "total_spin_residual",
        "iterated_swap_residual",
    ]
    failed = [name for name, _, _, ok in rows if not ok]
    assert failed == ["connected_correlation_max"]  # the residue law, 1/7
    by_name = {name: (value, threshold) for name, value, threshold, _ in rows}
    cc = connected_correlation_scan(8)
    assert by_name["connected_correlation_max"] == (cc, "<1e-12")
    assert by_name["iterated_swap_residual"] == (iterated_swap_residual(8), "<=1e-10")
    # the moments need n >= 8 and the residue scan n <= 12
    assert len(identity_report(6)) == 8
    assert [name for name, *_ in identity_report(12)][7] == "connected_correlation_max"
    names14 = [name for name, *_ in identity_report(14)]
    assert "connected_correlation_max" not in names14 and len(names14) == 9
    assert all(ok for *_, ok in identity_report(14))
