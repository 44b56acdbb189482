"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each test prints exactly one [criterion NN] PASS/FAIL line with the
measured numbers, then asserts.  A FAIL line therefore always reaches the
log before pytest reports the failure.
"""

import time

import numpy as np
import pytest

import oracles
from z2memory import (
    AdditiveOperator,
    PairCovering,
    StateVector,
    build_rvb,
    build_tfim,
    build_vb,
    build_vcm,
    build_w_matrix,
    additive_variance,
    basis_state,
    connected_correlation_scan,
    default_kt_grid,
    fit_exponential_gap,
    fit_index_p,
    full_spectrum,
    gap_scan,
    gibbs_from_spectrum,
    iterated_swap_residual,
    lowest_eigenpairs,
    mz_distribution,
    rvb_vcm_check,
    second_eigenvalue_scan,
    singlet_projector_apply,
    stabilizer_check,
    superposed_state,
    t_operator_apply,
    t_operator_moments,
    thermal_scan,
)

SIZES = range(6, 14)


def _report(num: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_macroscopic_index_by_field(solve_cache):
    # growth index p of the largest correlation eigenvalue, e1 ~ N^(p-1):
    # near-classical at lam=0.5, order one deep in the polarized phase
    t0 = time.perf_counter()
    e1 = {}
    for lam in (0.5, 1.0, 1.5):
        for n in SIZES:
            pairs = solve_cache(n, lam, k=1)
            e1[lam, n] = build_vcm(pairs.eigenvectors[0]).e1
    p = {
        lam: 1.0 + fit_index_p([(n, e1[lam, n]) for n in SIZES]).slope
        for lam in (0.5, 1.0, 1.5)
    }
    ordered = all(
        e1[0.5, n] > e1[1.0, n] > e1[1.5, n] for n in SIZES
    )
    elapsed = time.perf_counter() - t0
    ok = (
        1.8 <= p[0.5] <= 2.0
        and 1.0 <= p[1.5] <= 1.3
        and ordered
        and elapsed < 120.0
    )
    ok = _report(
        "01",
        ok,
        f"index p: {p[0.5]:.4f} (lam=0.5, want [1.8,2.0]), "
        f"{p[1.0]:.4f} (lam=1.0), {p[1.5]:.4f} (lam=1.5, want [1.0,1.3]); "
        f"e1 strictly decreasing in lam at all {len(list(SIZES))} sizes; "
        f"{elapsed:.1f}s (cap 120s)",
    )
    assert ok


# Probabilities of the symmetric magnetization distribution at 13 sites,
# lam = 0.5, frozen from an independent high-precision run.
P13_FROZEN = {
    13: 0.40150663962124339,
    11: 0.084308043135194799,
    9: 0.012307666217244625,
    7: 0.0016244647863370328,
    5: 0.0002143764132769944,
    3: 3.1354491906552863e-05,
    1: 7.4553347967211334e-06,
}


def test_criterion_02_ground_state_magnetization_distribution(solve_cache):
    t0 = time.perf_counter()
    pairs = solve_cache(13, 0.5, k=2)
    dist = mz_distribution(pairs.eigenvectors[0])
    asym = dist.max_asymmetry()
    order = np.argsort(dist.probabilities)[::-1]
    top_two = [int(abs(m)) for m in dist.support[order[:2]]]
    worst = max(
        abs(dist.probability(s * m) - p)
        for m, p in P13_FROZEN.items()
        for s in (1, -1)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        asym < 1e-10
        and min(top_two) >= 9
        and worst < 1e-10
        and elapsed < 30.0
    )
    ok = _report(
        "02",
        ok,
        f"13 sites: asymmetry={asym:.2e} (<1e-10), dominant peaks at "
        f"|mz|={sorted(top_two, reverse=True)} (>=9), all 14 probabilities "
        f"within {worst:.2e} of frozen values (<1e-10), {elapsed:.1f}s (cap 30s)",
    )
    assert ok


def test_criterion_03_second_eigenvalue_stays_bounded():
    points = second_eigenvalue_scan(0.5, SIZES)
    slope = fit_index_p(points).slope
    in_band = all(1.0 < e2 < 1.3 for _, e2 in points)
    ok = _report(
        "03",
        slope < 0.3 and in_band,
        f"second correlation eigenvalue over N=6..13: slope={slope:.4f} "
        f"(<0.3), values in (1.0, 1.3): {in_band}",
    )
    assert ok


def test_criterion_04_gap_closure_and_adiabatic_cost():
    from z2memory import adiabatic_time_estimate

    gaps = gap_scan(0.5, 4, 13)
    fit = fit_exponential_gap(gaps)
    times = [t for _, t in adiabatic_time_estimate(gaps)]
    monotone = all(b > a for a, b in zip(times, times[1:]))
    ok = (
        fit.slope < -0.3
        and fit.r_squared > 0.98
        and monotone
    )
    ok = _report(
        "04",
        ok,
        f"gap decay over N=4..13 at lam=0.5: slope={fit.slope:.6f} (< -0.3), "
        f"r_squared={fit.r_squared:.5f} (>0.98); operation-time estimate "
        f"strictly increasing: {monotone}",
    )
    assert ok


def test_criterion_05_superposition_is_not_macroscopic(solve_cache):
    points = []
    for n in SIZES:
        pairs = solve_cache(n, 0.5, k=2)
        cat = superposed_state(pairs.eigenvectors[0], pairs.eigenvectors[1])
        points.append((n, build_vcm(cat).e1))
    slope = abs(fit_index_p(points).slope)
    biggest = max(e1 for _, e1 in points)
    ok = _report(
        "05",
        slope < 0.2 and biggest < 3.0,
        f"recombined doublet branch: e1 slope magnitude {slope:.4f} (<0.2), "
        f"max e1={biggest:.4f} stays order one",
    )
    assert ok


def test_criterion_06_thermal_coherence_decay():
    n, lam = 8, 0.5
    rows = thermal_scan(lam, n, default_kt_grid())
    e1s = [e1 for _, e1 in rows]
    monotone = all(b <= a + 1e-6 for a, b in zip(e1s, e1s[1:]))
    # pure-state identity, checked where the temperature really is far
    # below the 1.456e-3 doublet splitting; the default grid starts at
    # kT=0.05, which sits far above it, so the plateau there is the mixed
    # thermal value by design
    spectrum = full_spectrum(build_tfim(n, lam))
    cold = build_w_matrix(gibbs_from_spectrum(spectrum, lam, 1e-4)).e1
    ground = lowest_eigenpairs(build_tfim(n, lam), 1).eigenvectors[0]
    pure = 2.0 * float(
        np.linalg.eigvalsh(build_vcm(ground).entries.real).max()
    )
    rel = abs(cold - pure) / pure
    ok = monotone and rel < 1e-3
    ok = _report(
        "06",
        ok,
        f"8 sites: coherence e1 nonincreasing over the 40-point grid "
        f"kT=0.05..2.0 ({e1s[0]:.4f} down to {e1s[-1]:.4f}): {monotone}; "
        f"pure-state limit reproduced at kT=1e-4 to {rel:.2e} relative "
        f"(<1e-3, value {cold:.6f} vs {pure:.6f}); the grid's lowest point "
        f"kT=0.05 lies above the doublet splitting, hence its mixed value",
    )
    assert ok


def test_criterion_07a_dimer_superposition_identities():
    overlap_err = 0.0
    for n in (4, 6, 8, 10, 12):
        v1 = build_vb(PairCovering.odd_bonds(n))
        v2 = build_vb(PairCovering.even_bonds(n))
        want = (-0.5) ** (n // 2 - 1)
        overlap_err = max(overlap_err, abs(v2.inner(v1).real - want))
    v1 = build_vb(PairCovering.odd_bonds(8))
    proj_err = abs(v1.inner(singlet_projector_apply(v1, 2)).real - 0.25)
    mean_err = abs(v1.inner(t_operator_apply(v1)).real - (-3.0))
    swap_err = max(iterated_swap_residual(n) for n in (4, 6, 8, 10, 12))
    var_ok, mean_ok = True, True
    for n in (8, 10, 12):
        mean, var = t_operator_moments(n)
        var_ok = var_ok and 0.10 <= var / (n * n) <= 0.18
        mean_ok = mean_ok and abs(mean) < 0.5
    ok = (
        overlap_err < 1e-12
        and proj_err < 1e-12
        and mean_err < 1e-10
        and swap_err < 1e-10
        and var_ok
        and mean_ok
    )
    ok = _report(
        "07a",
        ok,
        f"covering overlap law to {overlap_err:.2e} (<1e-12, N=4..12); bond "
        f"projector expectation 1/4 to {proj_err:.2e}; staggered bond sum "
        f"mean -3N/8 to {mean_err:.2e}; iterated swap rebuilds the other "
        f"covering to {swap_err:.2e} (<1e-10); superposition mean "
        f"subextensive and variance/N^2 in [0.10, 0.18] for N=8..12: "
        f"{mean_ok and var_ok}",
    )
    assert ok


def test_criterion_07b_connected_correlations_do_not_vanish():
    c8 = connected_correlation_scan(8)
    c12 = connected_correlation_scan(12)
    ok = c8 < 1e-12 and c12 < 1e-12
    ok = _report(
        "07b",
        ok,
        f"claimed vanishing beyond nearest neighbours, measured max "
        f"connected correlation {c8:.6e} at N=8 and {c12:.6e} at N=12 "
        f"(threshold 1e-12); the ring superposition keeps an exact "
        f"1/(2^(N/2-1)-(-1)^(N/2)) residue at every distance >= 2, so the "
        f"claim fails as stated",
    )
    assert ok


def test_criterion_08_stabilizer_code_integrity():
    worst = 0.0
    dims_ok = True
    for n in range(3, 11):
        rep = stabilizer_check(n)
        dims_ok = dims_ok and rep.code_dimension == 2
        worst = max(
            worst,
            rep.product_identity_residual,
            *rep.logical_commutation_residuals,
        )
    ok = dims_ok and worst < 1e-12
    ok = _report(
        "08",
        ok,
        f"N=3..10: protected space dimension 2 at every size: {dims_ok}; "
        f"worst product/commutation residual {worst:.2e} (<1e-12)",
    )
    assert ok


def test_criterion_09_eigensolver_matches_dense_route():
    worst = 0.0
    for n in range(3, 11):
        for lam in (0.3, 0.5, 1.0, 1.5):
            want = np.linalg.eigvalsh(oracles.dense_h(n, lam))[:2]
            got = lowest_eigenpairs(build_tfim(n, lam), 2).eigenvalues
            worst = max(worst, float(np.abs(got - want).max()))
    ok = worst < 1e-9
    ok = _report(
        "09",
        ok,
        f"two lowest levels vs independent dense diagonalization, N=3..10 "
        f"x lam in (0.3, 0.5, 1.0, 1.5): worst |dE|={worst:.2e} (<1e-9)",
    )
    assert ok


def test_criterion_10_correlation_matrices_are_positive_and_binding(solve_cache):
    rng = np.random.default_rng(2026)
    floor = np.inf
    for _ in range(50):
        v = build_vcm(StateVector(6, oracles.random_state(rng, 6)))
        floor = min(floor, float(v.eigenvalues[-1]))
    w_floor = np.inf
    for n in (4, 5):
        spectrum = full_spectrum(build_tfim(n, 0.8))
        for _ in range(5):
            kt = float(10.0 ** rng.uniform(-2, 2))
            w = build_w_matrix(gibbs_from_spectrum(spectrum, 0.8, kt))
            w_floor = min(w_floor, float(w.eigenvalues[-1]))
    pairs = solve_cache(8, 0.5, k=1)
    state = pairs.eigenvectors[0]
    bound = build_vcm(state).e1 * 8 + 1e-6
    excess = 0.0
    for _ in range(200):
        op = AdditiveOperator(8, rng.standard_normal((8, 3))).normalized()
        excess = max(excess, additive_variance(state, op) - bound)
    product_e1 = build_vcm(basis_state(6)).e1
    ok = (
        floor > -1e-8
        and w_floor > -1e-8
        and excess <= 0.0
        and product_e1 <= 2.0 + 1e-10
    )
    ok = _report(
        "10",
        ok,
        f"50 random-state correlation matrices: min eigenvalue {floor:.2e} "
        f"(> -1e-8); 10 thermal matrices: min {w_floor:.2e}; 200 random "
        f"unit-weight operators never exceed the variance bound "
        f"(max excess {excess:.2e}); product state e1={product_e1:.6f} <= 2",
    )
    assert ok
