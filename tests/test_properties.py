"""Property tests over randomly drawn chains, states and temperatures."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

import oracles
from z2memory import (
    AdditiveOperator,
    StateVector,
    additive_variance,
    build_tfim,
    build_vcm,
    build_w_matrix,
    full_spectrum,
    gibbs_from_spectrum,
    lowest_eigenpairs,
    thermal_scan,
)
from z2memory.eigensolve import _momentum_spectra
from z2memory.thermal import _block_weights, _scan_w_spectra


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 6),
    lam=st.floats(-2.0, 2.0),
    kt=st.floats(0.05, 5.0),
)
def test_thermal_scan_matches_per_point_route_and_is_psd(n, lam, kt):
    h = build_tfim(n, lam)
    blocks = _momentum_spectra(h)
    spectra = _scan_w_spectra(n, blocks, _block_weights(blocks, np.array([kt])))
    got = np.sort(spectra, axis=None)
    want = build_w_matrix(gibbs_from_spectrum(full_spectrum(h), lam, kt))
    [(_, e1)] = thermal_scan(lam, n, np.array([kt]))
    assert abs(e1 - want.e1) <= 1e-10 * want.e1
    assert np.abs(got[::-1] - want.eigenvalues).max() <= 1e-10 * want.e1
    assert got[0] >= -1e-12 * want.e1


def _random_state(n, seed):
    return StateVector(n, oracles.random_state(np.random.default_rng(seed), n))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
def test_random_state_vcm_is_psd(n, seed):
    # a Gram matrix of the centred vectors (s_a(l) - <s_a(l)>)|psi>, whose
    # entries are at most 1: its lowest eigenvalue sits within 1e-12 of >= 0
    assert build_vcm(_random_state(n, seed)).eigenvalues[-1] >= -1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=21, max_size=21),
)
def test_no_additive_variance_exceeds_e1_times_n(n, seed, coeffs):
    # Var(A) = c^T V c <= e1 |c|^2 = e1 N at weight N; the variance comes
    # from A|psi> directly, and 1e-12 N^2 covers rounding at ||A||^2 <= 3N^2
    c = np.array(coeffs[: 3 * n]).reshape(n, 3)
    assume(np.sum(c**2) > 1e-6)
    state = _random_state(n, seed)
    op = AdditiveOperator(n, c).normalized()
    assert additive_variance(state, op) <= build_vcm(state).e1 * n + 1e-12 * n * n


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(4, 10), lam=st.floats(-2.0, 2.0))
def test_ground_state_vcm_is_translation_invariant(n, lam):
    # the solved ground vector is unique in its flip sector, so it is a
    # translation eigenstate; its residual is below 1e-10 and the sector gap
    # above it exceeds 0.1 here, so entries are good to 1e-8
    ground = lowest_eigenpairs(build_tfim(n, lam), 1).eigenvectors[0]
    v = build_vcm(ground).entries.reshape(n, 3, n, 3)
    shifted = np.roll(v, (1, 1), axis=(0, 2))
    assert np.abs(shifted - v).max() < 1e-8
