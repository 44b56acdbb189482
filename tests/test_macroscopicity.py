import numpy as np
import pytest

import oracles
from z2memory import (
    AdditiveOperator,
    ContractError,
    CorrelationKind,
    CorrelationMatrix,
    DomainError,
    FitModel,
    PauliAxis,
    StateVector,
    additive_variance,
    basis_state,
    build_rvb,
    build_tfim,
    build_vcm,
    fit_exponential_gap,
    fit_index_p,
    full_spectrum,
    gap_scan,
    ghz_state,
    largest_eigenvalue_scan,
    max_fluctuation_operator,
    mz_distribution,
    second_eigenvalue_scan,
    state_mz_distribution,
    superposed_e1_scan,
    superposed_state,
)
from z2memory import macroscopicity

E1_N8_HALF = 7.5266204262250023
E2_N8_HALF = 1.1325559901550457


def test_vcm_matches_dense_oracle_random_states():
    rng = np.random.default_rng(31)
    for n in (4, 5):
        psi = oracles.random_state(rng, n)
        got = build_vcm(StateVector(n, psi))
        want = oracles.dense_vcm(psi)
        assert np.abs(got.entries - want).max() < 1e-10


GROUND_FIELDS = (0.0, 1e-8, 0.3, 0.5, 1.0, 1.5, -0.7)


def test_vcm_matches_dense_oracle_on_ground_state(solve_cache):
    for n in range(3, 9):
        for lam in GROUND_FIELDS:
            ground = solve_cache(n, lam, k=1).eigenvectors[0]
            got = build_vcm(ground)
            want = oracles.dense_vcm(ground.amplitudes)
            assert np.abs(got.entries - want).max() < 1e-12, (n, lam)
            assert got.kind is CorrelationKind.VCM


@pytest.mark.parametrize("n", range(3, 15))
def test_circulant_route_matches_gram_route(n, solve_cache):
    # the Gaussian ground state's spectrum, read per momentum from the
    # block-circulant matrix, against the Gram matrix of the 2^N ground
    # state
    for lam in (*GROUND_FIELDS, -20.0):
        got = macroscopicity._ground_spectrum(n, lam)
        want = build_vcm(solve_cache(n, lam, k=1).eigenvectors[0]).eigenvalues
        assert abs(got[0] - want[0]) <= 1e-13 * abs(want[0]), lam
        assert abs(got[1] - want[1]) <= 1e-13 * abs(want[1]), lam
        assert np.abs(got - want).max() <= 1e-12, lam


def _translation_states(n, solve_cache):
    """The translation-invariant states of the paper at N sites: the ground
    state, the superposed doublet, the valence-bond ring (even N) and a
    complex k != 0 column of the full spectrum (N <= 10)."""
    states = {
        "ground": solve_cache(n, 0.5, k=1).eigenvectors[0],
        "superposed": superposed_state(*solve_cache(n, 0.5, k=2).eigenvectors),
    }
    if n % 2 == 0:
        states["rvb"] = build_rvb(n)
    if n <= 10:
        basis = full_spectrum(build_tfim(n, 0.7)).basis
        for column in basis.T:
            phase = macroscopicity._translation_phase(column)
            if phase is not None and abs(phase.imag) > 0.1:
                states["momentum"] = StateVector(n, column)
                break
    return states


@pytest.mark.parametrize("n", range(4, 10))
def test_translation_route_matches_dense_oracle(n, solve_cache):
    states = _translation_states(n, solve_cache)
    assert set(states) >= {"ground", "superposed", "momentum"}
    for name, state in states.items():
        phase = macroscopicity._translation_phase(state.amplitudes)
        assert abs(abs(phase) - 1.0) < 1e-12, name
        if name == "rvb":
            assert abs(phase + 1.0) < 1e-12  # rotation swaps the coverings
        want = oracles.dense_vcm(state.amplitudes)
        got = build_vcm(state)
        assert np.abs(got.entries - want).max() < 1e-12, name
        assert np.abs(got.eigenvalues - np.linalg.eigvalsh(want)[::-1]).max() < 1e-12


@pytest.mark.parametrize("n", range(10, 15))
def test_translation_route_matches_gram_route(n, solve_cache):
    # the states build_vcm meets at full size take the translation route:
    # the ground state, the doublet superposition and the ring
    for name, state in _translation_states(n, solve_cache).items():
        assert macroscopicity._translation_phase(state.amplitudes) is not None, name
        amps = macroscopicity._real_if_real(state.amplitudes)
        got = macroscopicity._pair_density_entries(amps, n)
        want = macroscopicity._gram_entries(amps, n)
        assert np.abs(got - want).max() <= 1e-13, name
        got = build_vcm(state).eigenvalues
        want = CorrelationMatrix(n, CorrelationKind.VCM, want).eigenvalues
        assert np.abs(got - want).max() <= 1e-12, name


def test_route_follows_translation_invariance(solve_cache, monkeypatch):
    ground = solve_cache(8, 0.5, k=1).eigenvectors[0]
    moved = ground.amplitudes.copy()
    moved[3] += 1e-9
    moved = StateVector(8, moved).normalized()
    assert macroscopicity._translation_phase(moved.amplitudes) is None
    amps = macroscopicity._real_if_real(moved.amplitudes)  # as build_vcm passes it
    want = macroscopicity._gram_entries(amps, 8)

    def refuse(amps, n):
        raise AssertionError("route taken")

    monkeypatch.setattr(macroscopicity, "_pair_density_entries", refuse)
    assert np.array_equal(build_vcm(moved).entries, (want + want.conj().T) / 2.0)
    with pytest.raises(AssertionError, match="route taken"):
        build_vcm(ground)


def test_translation_route_is_accurate_at_its_tolerance(solve_cache):
    # a state admitted with a rotation gap just below TRANSLATION_TOL: its
    # block-circulant matrix stays within 6N times the gap of the Gram one
    n = 10
    ground = solve_cache(n, 0.5, k=1).eigenvectors[0].amplitudes
    rng = np.random.default_rng(47)
    noise = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)

    def perturbed(size):
        return StateVector(n, ground + size * noise / np.linalg.norm(noise)).normalized()

    def gap(state):
        amps = state.amplitudes
        rotated = amps.reshape(2, -1).T.reshape(-1)
        return np.linalg.norm(rotated - np.vdot(amps, rotated) * amps)

    size = 0.9 * macroscopicity.TRANSLATION_TOL * 1e-6 / gap(perturbed(1e-6))
    state = perturbed(size)
    assert 0.5 * macroscopicity.TRANSLATION_TOL < gap(state) <= macroscopicity.TRANSLATION_TOL
    assert macroscopicity._translation_phase(state.amplitudes) is not None
    want = macroscopicity._gram_entries(state.amplitudes, n)
    want = (want + want.conj().T) / 2.0
    got = build_vcm(state)
    bound = 6 * n * macroscopicity.TRANSLATION_TOL
    assert np.abs(got.entries - want).max() <= bound
    assert np.abs(got.eigenvalues - np.linalg.eigvalsh(want)[::-1]).max() <= bound
    outside = perturbed(3.0 * size)
    assert macroscopicity._translation_phase(outside.amplitudes) is None


def test_ground_spectrum_matches_dense_oracle():
    # independent route: the Kronecker-product matrix of the lowest vector
    # of the dense Hamiltonian, at fields that split the doublet far above
    # rounding
    for n in range(3, 9):
        for lam in (0.3, 1.0, 1.5, -0.7, 3.0):
            ground = np.linalg.eigh(oracles.dense_h(n, lam))[1][:, 0]
            want = np.linalg.eigvalsh(oracles.dense_vcm(ground))[::-1]
            got = macroscopicity._ground_spectrum(n, lam)
            assert np.abs(got - want).max() < 1e-12, (n, lam)


def test_ground_spectrum_psd_floor_is_enforced(monkeypatch):
    lowest = macroscopicity._ground_spectrum(8, 0.5)[-1]
    monkeypatch.setattr(macroscopicity, "PSD_FLOOR", lowest + 1e-9)
    with pytest.raises(ContractError, match="positive semidefiniteness"):
        largest_eigenvalue_scan([0.5], [8])


@pytest.mark.parametrize("lam, p", [(0.5, 2.0), (1.0, 1.75), (1.5, 1.0)])
def test_index_p_at_large_n(lam, p):
    # e1 ~ N^(p-1): the ordered phase's m0^2 N, the critical
    # <s_z s_z>(r) ~ r^(-1/4) and the disordered phase's O(1)
    points = [(n, e1) for _, n, e1 in largest_eigenvalue_scan([lam], (64, 128, 256))]
    assert abs(1.0 + fit_index_p(points).slope - p) < 0.01


# The large-N laws of e1 hold on any route to the spectrum (Pfeuty, Ann.
# Phys. 57, 79 (1970)); the N=512 points stay out to keep these fast.
LAW_SIZES = (32, 64, 128, 256)


def _e1(lam, sizes=LAW_SIZES):
    return np.array([e1 for _, _, e1 in largest_eigenvalue_scan([lam], sizes)])


def test_ordered_e1_exceeds_n_m0_squared_by_a_constant():
    # |lam| < 1: the spontaneous magnetization is (1 - lam^2)^(1/8), so
    # e1 - N (1 - lam^2)^(1/4) tends to a constant, with an O(1/N)
    # correction that halves at each doubling
    lam = 0.5
    excess = _e1(lam) - np.array(LAW_SIZES) * (1.0 - lam**2) ** 0.25
    assert np.abs(excess - [0.07986, 0.07869, 0.07812, 0.07783]).max() < 1e-5
    steps = np.diff(excess)
    assert np.abs(steps[1:] / steps[:-1] - 0.5).max() < 0.05


def test_critical_e1_local_index_is_seven_quarters():
    # lam = 1: <s_z s_z>(r) ~ r^(-1/4), so the local index
    # 1 + log2(e1(2N)/e1(N)) tends to 2 - eta = 7/4
    e1 = _e1(1.0)
    assert np.abs(1.0 + np.log2(e1[1:] / e1[:-1]) - 1.75).max() < 2e-3


def test_disordered_e1_converges_exponentially():
    # |lam| > 1: every correlation decays exponentially, and e1 holds 13
    # digits from N=128 on
    assert np.abs(_e1(1.5, (128, 256)) - 2.8951096056218).max() < 1e-13


def test_scan_rejects_an_empty_or_repeated_field_list():
    with pytest.raises(DomainError, match="at least one field value"):
        largest_eigenvalue_scan([], [8])
    for lams in ([0.5, 0.5], [0.5, 1.5, 5e-1]):
        with pytest.raises(DomainError, match="field value 0.5 twice"):
            largest_eigenvalue_scan(lams, [8])


def test_vcm_matches_dense_oracle_on_product_states():
    # product states carry <sigma_y> of order one, so a wrong phase on the
    # means would show
    rng = np.random.default_rng(37)
    for n in (3, 4, 5):
        for _ in range(3):
            psi = oracles.random_product_state(rng, n)
            got = build_vcm(StateVector(n, psi))
            assert np.abs(got.entries - oracles.dense_vcm(psi)).max() < 1e-12


@pytest.mark.parametrize("n", range(3, 15))
def test_vcm_of_a_real_state_is_phase_invariant(n, solve_cache):
    # a state with zero imaginary part runs in real arithmetic, its
    # phase-rotated copy in complex arithmetic, on the same physics
    for lam in (0.5, 1.0):
        psi = solve_cache(n, lam, k=1).eigenvectors[0]
        rotated = StateVector(n, np.exp(0.7j) * psi.amplitudes)
        diff = np.abs(build_vcm(psi).entries - build_vcm(rotated).entries).max()
        assert diff < 4 * np.finfo(float).eps * n


def test_vcm_requires_normalized_state():
    with pytest.raises(ContractError):
        build_vcm(StateVector(2, [1.0, 1.0, 0.0, 0.0]))


def test_product_state_block_structure():
    # |0000>: every site contributes the same 3x3 single-site block
    v = build_vcm(basis_state(4))
    block = v.entries[0:3, 0:3]
    want = np.array([[1, 1j, 0], [-1j, 1, 0], [0, 0, 0]], dtype=complex)
    assert np.abs(block - want).max() < 1e-12
    assert v.e1 == pytest.approx(2.0, abs=1e-12)
    assert v.e2 == pytest.approx(2.0, abs=1e-12)


def test_ghz_reaches_extensive_eigenvalue():
    for n in (3, 6, 9):
        v = build_vcm(ghz_state(n))
        assert v.e1 >= n - 1e-9
        assert v.e2 < 2.0


def test_frozen_tfim_eigenvalues(solve_cache):
    pairs = solve_cache(8, 0.5, k=1)
    v = build_vcm(pairs.eigenvectors[0])
    assert v.e1 == pytest.approx(E1_N8_HALF, rel=1e-9)
    assert v.e2 == pytest.approx(E2_N8_HALF, rel=1e-9)


def test_correlation_matrix_contract():
    bad = np.zeros((6, 6), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ContractError):
        CorrelationMatrix(2, CorrelationKind.VCM, bad)
    with pytest.raises(ContractError):
        CorrelationMatrix(2, CorrelationKind.VCM, -np.eye(6, dtype=complex))
    with pytest.raises(ContractError):
        CorrelationMatrix(2, CorrelationKind.VCM, np.zeros((5, 5), dtype=complex))


def test_fit_index_p_exact_lines():
    flat = fit_index_p([(n, 2.0) for n in (4, 6, 8, 10)])
    assert flat.slope == pytest.approx(0.0, abs=1e-12)
    assert flat.r_squared == pytest.approx(1.0, abs=1e-12)
    assert flat.model is FitModel.POWERLAW
    linear = fit_index_p([(n, 0.7 * n) for n in (4, 6, 8, 10)])
    assert linear.slope == pytest.approx(1.0, abs=1e-12)
    assert np.exp(linear.intercept) == pytest.approx(0.7, rel=1e-12)


def test_fit_input_validation():
    with pytest.raises(DomainError):
        fit_index_p([(4, 1.0), (6, 2.0)])
    with pytest.raises(DomainError):
        fit_index_p([(4, 1.0), (6, -2.0), (8, 3.0)])
    with pytest.raises(DomainError):
        fit_exponential_gap([(4, 0.0), (6, 1.0), (8, 1.0)])
    # the power law logs x too; the exponential fit logs y alone
    with pytest.raises(DomainError, match="powerlaw fit"):
        fit_index_p([(0, 1.0), (6, 2.0), (8, 3.0)])
    halving = fit_exponential_gap([(-1, 1.0), (0, 0.5), (1, 0.25)])
    assert halving.slope == pytest.approx(-np.log(2.0), abs=1e-12)


def test_fit_exponential_gap_exact_decay():
    pts = [(n, np.exp(-1.0 * n)) for n in (4, 6, 8, 10)]
    fit = fit_exponential_gap(pts)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.model is FitModel.EXPONENTIAL


def test_gapped_phase_gaps_are_not_exponential():
    # lam = 1.5 sits in the polarized phase: the gap saturates, so an
    # exponential-decay model explains little of the variance
    decaying = fit_exponential_gap(gap_scan(0.5, 4, 10))
    saturating = fit_exponential_gap(gap_scan(1.5, 4, 10))
    assert decaying.r_squared > 0.98
    assert abs(saturating.slope) < 0.05
    assert saturating.slope > decaying.slope


def test_second_eigenvalue_stays_order_one():
    points = second_eigenvalue_scan(0.5, (6, 8, 10))
    for _, e2 in points:
        assert 1.0 < e2 < 1.2
    fit = fit_index_p(points)
    assert abs(fit.slope) < 0.3
    for sizes in ([15], [2], [6, 15], [6.7], []):
        with pytest.raises(DomainError):
            second_eigenvalue_scan(0.5, sizes)


def test_max_fluctuation_operator_ghz():
    n = 6
    v = build_vcm(ghz_state(n))
    op = max_fluctuation_operator(v)
    assert not op.ambiguous
    assert op.capture_ratio == pytest.approx(1.0, abs=1e-9)
    assert op.axis_fraction(PauliAxis.Z) > 0.999
    assert op.weight() == pytest.approx(float(n), abs=1e-9)
    var = additive_variance(ghz_state(n), op)
    assert var == pytest.approx(v.e1 * n, rel=1e-6)


def test_max_fluctuation_operator_tfim(solve_cache):
    n = 8
    pairs = solve_cache(n, 0.5, k=1)
    v = build_vcm(pairs.eigenvectors[0])
    op = max_fluctuation_operator(v)
    assert op.axis_fraction(PauliAxis.Z) > 0.95
    var = additive_variance(pairs.eigenvectors[0], op)
    # the variance the operator actually attains never exceeds the bound
    assert var <= v.e1 * n + 1e-6
    assert op.capture_ratio > 0.99
    assert var == pytest.approx(op.capture_ratio * v.e1 * n, rel=1e-6)


def test_max_fluctuation_operator_flags_degeneracy():
    op = max_fluctuation_operator(build_vcm(basis_state(4)))
    assert op.ambiguous
    assert op.capture_ratio == pytest.approx(0.5, abs=1e-9)


def test_variance_bound_random_operators(solve_cache):
    rng = np.random.default_rng(41)
    pairs = solve_cache(6, 0.5, k=1)
    state = pairs.eigenvectors[0]
    v = build_vcm(state)
    bound = v.e1 * 6 + 1e-6
    for _ in range(50):
        coeffs = rng.standard_normal((6, 3))
        op = AdditiveOperator(6, coeffs).normalized()
        assert additive_variance(state, op) <= bound


def test_mz_distribution_ghz():
    d = mz_distribution(ghz_state(4))
    assert d.probability(4) == pytest.approx(0.5, abs=1e-12)
    assert d.probability(-4) == pytest.approx(0.5, abs=1e-12)
    assert d.probability(0) == pytest.approx(0.0, abs=1e-15)
    assert d.max_asymmetry() < 1e-15
    assert list(d.support) == [-4, -2, 0, 2, 4]


def test_mz_distribution_parity_eigenstate_is_symmetric(solve_cache):
    pairs = solve_cache(8, 0.5, k=1)
    d = mz_distribution(pairs.eigenvectors[0])
    assert d.max_asymmetry() < 1e-10
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_mz_distribution_rejects_bad_probabilities():
    from z2memory.macroscopicity import MzDistribution

    with pytest.raises(ContractError):
        MzDistribution(2, np.array([-2, 0, 2]), np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ContractError):
        MzDistribution(2, np.array([-2, 0, 1]), np.array([0.4, 0.2, 0.4]))


def test_superposed_e1_scan_is_the_doublet_combination(solve_cache):
    got = superposed_e1_scan(0.5, (6, 8))
    for n, e1 in got:
        pairs = solve_cache(n, 0.5, k=2)
        want = build_vcm(superposed_state(*pairs.eigenvectors)).e1
        assert e1 == want
        assert e1 < 3.0  # one branch: no extensive eigenvalue
    assert [n for n, _ in got] == [6, 8]
    for sizes in ([15], [2], [6, 15], [6.7], []):
        with pytest.raises(DomainError):
            superposed_e1_scan(0.5, sizes)


def test_state_mz_distribution_picks_its_state(solve_cache):
    ground = solve_cache(7, 0.5, k=1).eigenvectors[0]
    doublet = solve_cache(7, 0.5, k=2).eigenvectors
    for state, vec in (
        ("ground", ground),
        ("excited", doublet[1]),
        ("superposed", superposed_state(*doublet)),
    ):
        got = state_mz_distribution(0.5, 7, state)
        assert np.array_equal(got.probabilities, mz_distribution(vec).probabilities)
    for n, state in ((15, "ground"), (2, "ground"), (7.0, "ground"), (7, "warm")):
        with pytest.raises(DomainError):
            state_mz_distribution(0.5, n, state)


def test_real_and_complex_copies_make_one_translation_decision(solve_cache, monkeypatch):
    # build_vcm checks a real-valued state on its real view, where the
    # phase is a float; the decision is the one the complex copy makes
    rng = np.random.default_rng(53)
    lopsided = rng.standard_normal(1 << 10)
    states = {
        "ground": (solve_cache(10, 0.5, k=1).eigenvectors[0], 1.0),
        "rvb": (build_rvb(10), -1.0),
        "none": (StateVector(10, lopsided / np.linalg.norm(lopsided)), None),
    }
    routes = []
    for route in ("_pair_density_entries", "_gram_entries"):
        def spy(amps, n, route=route, original=getattr(macroscopicity, route)):
            routes.append(route)
            return original(amps, n)

        monkeypatch.setattr(macroscopicity, route, spy)
    for name, (state, want) in states.items():
        amps = state.amplitudes
        assert not amps.imag.any(), name
        from_complex = macroscopicity._translation_phase(amps)
        from_real = macroscopicity._translation_phase(amps.real.copy())
        if want is None:
            assert from_complex is None and from_real is None
        else:
            assert isinstance(from_real, float), name
            assert abs(from_real - want) < 1e-12 and abs(from_complex - want) < 1e-12
        routes.clear()
        build_vcm(state)
        want_route = "_gram_entries" if want is None else "_pair_density_entries"
        assert routes == [want_route], name
