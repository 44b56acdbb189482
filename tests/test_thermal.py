import functools
import itertools

import numpy as np
import pytest

import oracles
from z2memory import (
    CapabilityError,
    ContractError,
    CorrelationKind,
    DomainError,
    build_tfim,
    build_vcm,
    build_w_matrix,
    default_kt_grid,
    full_spectrum,
    gibbs_from_spectrum,
    gibbs_state,
    lowest_eigenpairs,
    thermal_scan,
)
from z2memory import eigensolve, thermal
from z2memory.thermal import GibbsState


def test_temperature_domain():
    h = build_tfim(4, 0.5)
    with pytest.raises(DomainError):
        gibbs_state(h, 0.0)
    with pytest.raises(DomainError):
        gibbs_state(h, -0.3)
    with pytest.raises(DomainError):
        gibbs_state(h, np.inf)


def test_size_cap_comes_from_full_spectrum():
    with pytest.raises(CapabilityError):
        gibbs_state(build_tfim(11, 0.5), 1.0)


def test_gibbs_state_invariants():
    g = gibbs_state(build_tfim(5, 0.7), 0.4)
    assert abs(np.trace(g.rho) - 1.0) < 1e-14
    assert np.abs(g.rho - g.rho.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(g.rho).min() > -1e-12
    assert g.trace_correction < 1e-10


@pytest.mark.parametrize("lam", [0.4895, 1.5, -0.7, 30.0])
@pytest.mark.parametrize("n", [3, 8, 9])
def test_block_weights_have_the_bits_of_one_temperature_at_a_time(n, lam):
    blocks = eigensolve._momentum_spectra(build_tfim(n, lam))
    grid = default_kt_grid()
    weights = thermal._block_weights(blocks, grid)
    valid = np.arange(blocks.energies.shape[-1]) < blocks.dims[..., None]
    for j, kT in enumerate(grid):
        column = weights[..., j]
        want = thermal._boltzmann_weights(blocks.energies[valid], kT)
        assert np.array_equal(column[valid], want)
        assert not column[~valid].any()


def test_energy_matches_boltzmann_oracle():
    for n, lam, kT in ((4, 0.7, 0.3), (6, 1.0, 1.0), (8, 0.5, 0.5)):
        g = gibbs_state(build_tfim(n, lam), kT)
        want = oracles.boltzmann_energy(n, lam, kT)
        assert g.energy() == pytest.approx(want, abs=1e-10)


def test_high_temperature_limit_is_maximally_mixed():
    n = 6
    g = gibbs_state(build_tfim(n, 1.0), 1e6)
    assert np.abs(g.rho - np.eye(2**n) / 2**n).max() < 1e-5


def test_low_temperature_limit_is_ground_projector():
    # gapped point, so kT = 1e-4 is far below the gap
    n, lam = 6, 1.5
    g = gibbs_state(build_tfim(n, lam), 1e-4)
    ground = lowest_eigenpairs(build_tfim(n, lam), 1).eigenvectors[0].amplitudes
    fidelity = np.vdot(ground, g.rho @ ground).real
    assert fidelity > 1.0 - 1e-6


def test_constructor_rejects_wrong_trace():
    g = gibbs_state(build_tfim(4, 0.5), 0.5)
    with pytest.raises(ContractError):
        GibbsState(4, 0.5, 0.5, 3.0 * g.rho)


def test_constructor_rejects_noncommuting_matrix():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((16, 16))
    rho = m @ m.T
    rho /= np.trace(rho)
    with pytest.raises(ContractError):
        GibbsState(4, 0.5, 0.5, rho.astype(complex))


def test_trace_correction_is_recorded():
    g = gibbs_state(build_tfim(4, 0.5), 0.5)
    scaled = GibbsState(4, 0.5, 0.5, g.rho * (1.0 + 1e-7))
    assert scaled.trace_correction == pytest.approx(1e-7, rel=1e-3)
    assert abs(np.trace(scaled.rho) - 1.0) < 1e-14


def test_w_matrix_matches_dense_oracle():
    g = gibbs_state(build_tfim(4, 0.7), 0.3)
    got = build_w_matrix(g)
    want = oracles.dense_w(g.rho)
    assert np.abs(got.entries - want).max() < 1e-12
    assert got.kind is CorrelationKind.W


def test_w_matrix_pure_state_equals_twice_real_vcm(solve_cache):
    n, lam = 6, 0.5
    pairs = solve_cache(n, lam, k=1)
    ground = pairs.eigenvectors[0]
    v = build_vcm(ground)
    rho = np.outer(ground.amplitudes, ground.amplitudes.conj())
    w = build_w_matrix(GibbsState(n, lam, 1e-9, rho))
    assert np.abs(w.entries - 2.0 * v.entries.real).max() < 1e-8


def test_w_matrix_vanishes_on_maximally_mixed():
    n = 5
    g = gibbs_state(build_tfim(n, 0.5), 1e9)
    w = build_w_matrix(g)
    assert w.e1 < 1e-10


def test_w_matrix_of_non_translation_invariant_commuting_state():
    # an unequal mixture inside a degenerate level commutes with H but
    # breaks translation invariance; its complex eigenbasis is not H's
    n, lam, t = 4, 0.7, 0.3
    spectrum = full_spectrum(build_tfim(n, lam))
    vals = spectrum.eigenvalues
    level = next(i for i in range(vals.size - 1) if vals[i + 1] - vals[i] < 1e-10)
    u, v = spectrum.basis[:, level], spectrum.basis[:, level + 1]
    a = np.cos(t) * u + 1j * np.sin(t) * v
    b = np.sin(t) * u - 1j * np.cos(t) * v
    rho = 0.7 * np.outer(a, a.conj()) + 0.3 * np.outer(b, b.conj())
    rho = 0.5 * rho + 0.5 * np.eye(1 << n) / (1 << n)
    g = GibbsState(n, lam, 1.0, rho)
    got = build_w_matrix(g).entries
    want = oracles.dense_w(g.rho)
    assert np.abs(want - np.roll(np.roll(want, 3, 0), 3, 1)).max() > 1e-3
    assert np.abs(got - want).max() < 1e-12


def _block_scan(n, lam, grid):
    # the scan's kernel on its own inputs: the momentum and flip-parity
    # block eigensystems and their Boltzmann weights
    blocks = eigensolve._momentum_spectra(build_tfim(n, lam))
    return thermal._scan_w_spectra(n, blocks, thermal._block_weights(blocks, grid))


_COLD = default_kt_grid(0.05, 2.0, 12)
_HOT = np.array([1e2, 1e4])
_SCAN_CASES = [
    pytest.param(n, lam, _COLD, 1e-12, id=f"n{n}-lam{lam}")
    for n in range(3, 7)
    for lam in (0.0, -0.7, 0.5, 1.5)
    if (n, lam) != (6, 0.5)
] + [
    pytest.param(6, 0.5, _COLD, 1e-12, id="6"),
    pytest.param(7, 0.5, _COLD, 1e-12, id="7"),
    pytest.param(8, 0.5, _COLD, 1e-12, id="8"),
] + [
    # at high temperature every weight is near 2^-N: only the centred
    # expansion of the squared gaps keeps these digits
    pytest.param(n, lam, _HOT, 1e-10, id=f"hot-n{n}-lam{lam}")
    for n in (6, 8)
    for lam in (0.5, -1.3)
]


@pytest.mark.parametrize("n, lam, grid, rtol", _SCAN_CASES)
def test_thermal_scan_matches_per_point_route(n, lam, grid, rtol):
    # N=3 has two orbits, and blocks of one and two states
    spectrum = full_spectrum(build_tfim(n, lam))
    spectra = _block_scan(n, lam, grid)
    assert spectra.shape == (3, n, grid.size)
    rows = thermal_scan(lam, n, grid)
    assert [kt for kt, _ in rows] == list(grid)
    for col, (kt, e1) in enumerate(rows):
        want = np.linalg.eigvalsh(
            build_w_matrix(gibbs_from_spectrum(spectrum, lam, kt)).entries
        )
        assert abs(e1 - want[-1]) <= rtol * want[-1]
        got = np.sort(spectra[:, :, col], axis=None)
        assert np.abs(got - want).max() <= rtol * want[-1]


@pytest.mark.parametrize("n", range(4, 9))
def test_gibbs_w_is_axis_diagonal_and_circulant(n):
    # the two facts the scan's circulant route rests on, checked on the
    # general route: no cross-axis terms, translation-invariant axis blocks
    for lam, kt in ((0.5, 0.3), (-0.7, 1.0), (1.5, 0.1), (0.0, 0.5)):
        w = build_w_matrix(gibbs_state(build_tfim(n, lam), kt)).entries
        w = w.reshape(n, 3, n, 3)
        for a in range(3):
            for b in range(3):
                block = w[:, a, :, b]
                if a != b:
                    assert np.abs(block).max() < 1e-14
                else:
                    shifted = np.roll(block, (1, 1), axis=(0, 1))
                    assert np.abs(block - shifted).max() < 1e-14


def test_scan_spectra_are_nonnegative_for_any_weights():
    # each eigenvalue is a sum of squares, so no choice of weights, Gibbs
    # or not, drives it below rounding; column 0 is a pure state on one
    # block state, the rest random
    rng = np.random.default_rng(7)
    for n, lam in itertools.product(range(3, 10), (0.0, 0.7, -1.3)):
        blocks = eigensolve._momentum_spectra(build_tfim(n, lam))
        weights = rng.random((*blocks.energies.shape, 5))
        weights[..., 0] = 0.0
        weights[1, 1, 0, 0] = 1.0
        spectra = thermal._scan_w_spectra(n, blocks, weights)
        assert spectra.min() >= -1e-14 * spectra.max()
        assert (spectra[..., 1:].min(axis=(0, 1)) > 0.0).all()


def test_gibbs_state_keeps_its_eigensystem():
    g = gibbs_state(build_tfim(5, 0.7), 0.4)
    u = g.eigenbasis
    assert np.abs(u.conj().T @ u - np.eye(32)).max() < 1e-12
    assert np.abs((u * g.weights) @ u.conj().T - g.rho).max() < 1e-14
    assert g.weights.min() > -1e-12


def test_default_kt_grid():
    grid = default_kt_grid()
    assert grid.size == 40
    assert grid[0] == pytest.approx(0.05)
    assert grid[-1] == pytest.approx(2.0)
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(DomainError):
        default_kt_grid(0.0, 1.0)
    with pytest.raises(DomainError):
        default_kt_grid(2.0, 1.0)
    for points in (1, 2.5, 3.0, "3", None):
        with pytest.raises(DomainError, match="integer of at least 2 points"):
            default_kt_grid(0.1, 1.0, points)
    assert default_kt_grid(0.1, 1.0, np.int64(3)).size == 3


def test_thermal_scan_monotone_and_limits():
    n, lam = 6, 0.5
    rows = thermal_scan(lam, n, default_kt_grid(0.05, 2.0, 12))
    kts = [kt for kt, _ in rows]
    e1s = [e1 for _, e1 in rows]
    assert kts == sorted(kts)
    for lo, hi in zip(e1s[1:], e1s):
        assert lo <= hi + 1e-6  # coherence only decays as kT rises
    # the low-T end of the scan approaches the pure-state value 2*e1(VCM)
    spectrum = full_spectrum(build_tfim(n, lam))
    cold = build_w_matrix(gibbs_from_spectrum(spectrum, lam, 1e-4)).e1
    ground = lowest_eigenpairs(build_tfim(n, lam), 1).eigenvectors[0]
    pure = 2.0 * np.linalg.eigvalsh(build_vcm(ground).entries.real).max()
    assert abs(cold - pure) / pure < 1e-3


def test_thermal_scan_grid_validation():
    with pytest.raises(DomainError):
        thermal_scan(0.5, 5, np.array([0.2, 0.1]))
    with pytest.raises(DomainError):
        thermal_scan(0.5, 5, np.array([-0.1, 0.2]))
    with pytest.raises(DomainError):
        thermal_scan(0.5, 5, np.array([]))
    with pytest.raises(CapabilityError):
        thermal_scan(0.5, thermal.THERMAL_MAX_SITES + 1, np.array([0.5]))
    # the cap is checked before any 2^N array: N = 40 would need 8 TiB
    with pytest.raises(CapabilityError):
        thermal_scan(0.5, 40)


def test_kt_point_cap(monkeypatch):
    cap = thermal.THERMAL_MAX_KT_POINTS
    assert len(thermal_scan(0.5, 3, default_kt_grid(points=cap))) == cap
    grid = np.geomspace(0.05, 2.0, cap + 1)

    def failing(*args, **kwargs):
        raise AssertionError("the point cap is checked before any allocation")

    monkeypatch.setattr(thermal, "_momentum_spectra", failing)
    monkeypatch.setattr(np, "geomspace", failing)
    with pytest.raises(CapabilityError, match=f"{cap} points"):
        default_kt_grid(points=cap + 1)
    with pytest.raises(CapabilityError, match=f"{cap} points"):
        thermal_scan(0.5, 3, grid)


@pytest.mark.parametrize("n", range(3, 15))
def test_pair_classes_count_every_ordered_block_pair_once(n):
    # N ordered pairs (k, k + q) per transfer q within a parity, and 2N
    # between the parities, counting both directions
    for cross, per_q in ((False, n), (True, 2 * n)):
        classes = thermal._pair_classes(n, cross)
        total = sum(counts.sum(axis=0) for _, _, counts in classes)
        assert (total == per_q).all()
        for k, targets, counts in classes:
            assert k <= n // 2
            assert ((counts.sum(axis=1) >= 1) & (counts.sum(axis=1) <= 4)).all()


def _block_energies(blocks):
    valid = np.arange(blocks.energies.shape[-1]) < blocks.dims[..., None]
    return np.sort(blocks.energies[valid])


@pytest.mark.parametrize("n", range(3, 15))
def test_block_dimensions_sum_to_the_space(n):
    blocks = eigensolve._momentum_blocks(n)
    dims = np.array([[block.reps.size for block in row] for row in blocks])
    assert dims.sum() == 1 << n
    assert dims.min() >= 1
    # block -k is the conjugate of block k
    assert (dims == np.roll(dims[:, ::-1], 1, axis=1)).all()


@pytest.mark.parametrize("n", range(3, 13))
def test_block_spectra_match_full_spectrum(n):
    # all 2^N levels against the 40-digit free-fermion oracle: full_spectrum
    # lifts these same blocks, so it is no independent check
    for lam in (0.0, -0.7, 0.5, 1.5, -1.3):
        got = _block_energies(eigensolve._momentum_spectra(build_tfim(n, lam)))
        want = oracles.free_fermion_spectrum(n, lam)
        assert np.abs(got - want).max() < 1e-12


def test_block_energies_must_sum_to_zero():
    # a constant shift of the bond diagonal keeps every block residual and
    # basis intact, and only the trace check sees it
    h = build_tfim(4, 0.5)
    object.__setattr__(h, "_diag", h._diag + 1e-6)
    with pytest.raises(ContractError, match="sums to"):
        eigensolve._momentum_spectra(h)


_EDGE_GRID = np.array([0.02, 100.0, 200.0, 400.0])


@functools.lru_cache(maxsize=None)
def _edge_scan(n, lam):
    return _block_scan(n, lam, _EDGE_GRID)


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("lam", [1.5, 3.0])
def test_cold_scan_is_twice_the_ground_state_vcm(n, lam):
    # in the disordered phase the doublet is split by O(1), so at
    # kT = 0.02 rho is the ground projector to e^-50, and W = 2 Re VCM
    ground = lowest_eigenpairs(build_tfim(n, lam), 1).eigenvectors[0]
    want = 2.0 * np.linalg.eigvalsh(build_vcm(ground).entries.real).max()
    e1 = _edge_scan(n, lam)[:, :, 0].max()
    assert abs(e1 - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("lam", [1.5, 3.0])
def test_hot_scan_is_flat_in_momentum(n, lam):
    # p_i - p_j -> -(E_i - E_j)/(kT 2^N), so W -> Tr([H,A]^dagger [H,B])/
    # (kT^2 4^N): diagonal and flat in q, with 8 on x, 4(2 + lam^2) on y and
    # 4 lam^2 on z over kT^2 2^N; the next order is O(|H|/kT) relative
    kts = _EDGE_GRID[1:]
    spectra = _edge_scan(n, lam)[:, :, 1:]
    limits = np.array([8.0, 4.0 * (2.0 + lam**2), 4.0 * lam**2])
    want = limits[:, None, None] / (kts**2 * 2.0**n)
    assert (np.abs(spectra / want - 1.0) <= 2.0 * (1.0 + abs(lam)) / kts).all()
