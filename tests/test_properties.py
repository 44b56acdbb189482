"""Property tests over randomly drawn chains and temperatures."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from z2memory import (
    build_tfim,
    build_w_matrix,
    full_spectrum,
    gibbs_from_spectrum,
    thermal_scan,
)
from z2memory.thermal import _boltzmann_weights, _scan_w_matrices


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(3, 6),
    lam=st.floats(-2.0, 2.0),
    kt=st.floats(0.05, 5.0),
)
def test_thermal_scan_matches_per_point_route_and_is_psd(n, lam, kt):
    spectrum = full_spectrum(build_tfim(n, lam))
    weights = _boltzmann_weights(spectrum.eigenvalues, kt)[:, None]
    w = _scan_w_matrices(spectrum, weights)[0]
    want = build_w_matrix(gibbs_from_spectrum(spectrum, lam, kt))
    [(_, e1)] = thermal_scan(lam, n, np.array([kt]))
    assert abs(e1 - want.e1) <= 1e-10 * want.e1
    assert np.abs(w.entries - want.entries).max() <= 1e-10 * want.e1
    assert w.eigenvalues[-1] >= -1e-12 * want.e1
