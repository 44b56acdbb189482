import numpy as np
import pytest

import oracles
import z2memory.eigensolve as es
import z2memory.majorana as mj
from z2memory import (
    CapabilityError,
    ContractError,
    ConvergenceError,
    DomainError,
    EigenPairs,
    StateVector,
    adiabatic_time_estimate,
    basis_state,
    build_tfim,
    full_spectrum,
    gap_scan,
    ghz_state,
    lowest_eigenpairs,
    mz_diagonal,
    superposed_state,
)

# Anchor values computed once from the dense spectrum and frozen here.
E0_N8_HALF = -8.5090822351402782
E1_N8_HALF = -8.5076263876395029
GAP_N8_HALF = 0.0014558475007753202

# Eigenvalues against the exact free-fermion energies are held to
# FREE_FERMION_C * eps * N * (1 + |lam|) in absolute terms: the rounding
# scale of a Rayleigh quotient of H, whose norm is at most N (1 + |lam|).
# The constant was fixed before the first comparison, not fitted to it.
FREE_FERMION_C = 16

# The sector matvec is held to SECTOR_MATVEC_C * eps * N * (1 + |lam|) * |s|
# in absolute terms: each output entry sums the diagonal and N flipped
# entries, the same scale as above.  Fixed before the first comparison.
SECTOR_MATVEC_C = 4


def test_input_validation():
    h = build_tfim(6, 0.5)
    with pytest.raises(DomainError):
        lowest_eigenpairs(h, 0)
    with pytest.raises(DomainError):
        lowest_eigenpairs(h, 3)
    with pytest.raises(DomainError):
        lowest_eigenpairs(h, 5)


def test_frozen_anchor_n8(solve_cache):
    pairs = solve_cache(8, 0.5, k=2)
    assert pairs.eigenvalues[0] == pytest.approx(E0_N8_HALF, abs=1e-9)
    assert pairs.eigenvalues[1] == pytest.approx(E1_N8_HALF, abs=1e-9)
    assert pairs.gap == pytest.approx(GAP_N8_HALF, abs=1e-9)
    assert pairs.parities[0] == 1.0
    assert pairs.parities[1] == -1.0
    assert max(pairs.residuals) < es.RESIDUAL_BOUND


def test_matches_dense_diagonalization():
    # independent route: brute-force eigh of the kron-built matrix
    for n in (3, 4, 5, 6):
        for lam in (0.3, 1.0):
            want = np.linalg.eigvalsh(oracles.dense_h(n, lam))[:2]
            got = lowest_eigenpairs(build_tfim(n, lam), 2).eigenvalues
            assert np.abs(got - want).max() < 1e-9


def test_eigenvectors_have_true_small_residuals():
    n, lam = 7, 0.8
    dense = oracles.dense_h(n, lam)
    pairs = lowest_eigenpairs(build_tfim(n, lam), 2)
    for val, vec in zip(pairs.eigenvalues, pairs.eigenvectors):
        r = np.linalg.norm(dense @ vec.amplitudes - val * vec.amplitudes)
        assert r < 1e-9 * max(1.0, abs(val))


def test_vectors_are_flip_parity_eigenstates():
    pairs = lowest_eigenpairs(build_tfim(8, 0.5), 2)
    for vec, par in zip(pairs.eigenvectors, pairs.parities):
        amps = vec.amplitudes
        assert np.abs(amps[::-1] - par * amps).max() < 1e-8


def test_orthonormality_across_sectors():
    pairs = lowest_eigenpairs(build_tfim(9, 1.2), 2)
    vecs = np.column_stack([v.amplitudes for v in pairs.eigenvectors])
    gram = vecs.conj().T @ vecs
    assert np.abs(gram - np.eye(2)).max() < 1e-9


# the fields of the doublet tests below
DOUBLET_FIELDS = (0.3, 0.5, 1.0, 1.5, 3.0, -0.7, -1.5, 1e-3, 1e-8)


@pytest.mark.parametrize("n", range(3, 15))
def test_doublet_matches_free_fermion_energies(n, solve_cache):
    # independent route: the closed-form sector ground energies, exact to
    # 40 digits, so the two lowest states are the sector ground states
    for lam in DOUBLET_FIELDS:
        want = np.array([float(e) for e in oracles.free_fermion_energies(n, lam)])
        got = solve_cache(n, lam, k=2)
        tol = FREE_FERMION_C * np.finfo(float).eps * n * (1.0 + abs(lam))
        assert np.abs(got.eigenvalues - want).max() < tol, lam
        assert got.matvecs == 0


# the fields of the Perron-Frobenius parity test below
GROUND_FIELDS = (-1.5, -0.7, -1e-3, 0.0, 1e-8, 1e-3, 0.5, 1.0, 3.0)


@pytest.mark.parametrize("n", range(3, 15))
def test_ground_energy_matches_free_fermion_energy(n, solve_cache):
    # independent route: the closed-form ground energy, exact to 40 digits
    for lam in GROUND_FIELDS:
        want = float(min(oracles.free_fermion_energies(n, lam)))
        got = solve_cache(n, lam, k=1)
        tol = FREE_FERMION_C * np.finfo(float).eps * n * (1.0 + abs(lam))
        assert abs(got.eigenvalues[0] - want) < tol
        assert got.matvecs == 0


@pytest.mark.parametrize("n", range(3, 15))
def test_ground_state_is_translation_and_reflection_even(n, solve_cache):
    # the symmetries act on the (2,)*N tensor axes, site 1 first, sharing
    # no code with the orbit table; the ground state and both doublet
    # vectors are each the ground state of their flip sector
    for lam in GROUND_FIELDS:
        states = []
        for k in (1, 2):
            solved = solve_cache(n, lam, k=k)
            states += zip(solved.eigenvectors, solved.parities)
        for vec, parity in states:
            amps = vec.amplitudes
            tensor = amps.reshape((2,) * n)
            images = {
                "translation": (np.moveaxis(tensor, 0, -1).ravel(), 1.0),
                "reflection": (tensor.transpose(tuple(range(n))[::-1]).ravel(), 1.0),
                "flip": (tensor[(slice(None, None, -1),) * n].ravel(), parity),
            }
            for name, (image, eigenvalue) in images.items():
                assert np.abs(image - eigenvalue * amps).max() < 1e-14, (name, lam)


@pytest.mark.parametrize("n", range(3, 9))
def test_symmetric_block_spectrum_lies_in_the_dense_spectrum(n):
    # every block eigenvalue, not only the lowest, must be a level of the
    # Kronecker-built H: this tests the whole field table of both signs
    for lam in (0.0, 0.3, -0.7, 1.0, 1.6):
        levels = np.linalg.eigvalsh(oracles.dense_h(n, lam))
        h = build_tfim(n, lam)
        for sign in (1.0, -1.0):
            block = es._symmetric_block(n, sign)
            mat = np.diag(h._diag[block.reps]) + lam * block.field()
            for value in np.linalg.eigvalsh(mat):
                assert np.abs(levels - value).min() < 1e-12


def _add_at_field(n, block, size):
    # the dense field block by np.add.at, entry by entry from the block's
    # states: F[col(r_i ^ 2^k), i] += sqrt(size[i]) conj(coef[r_i ^ 2^k])
    targets = block.reps[:, None] ^ (1 << np.arange(n))
    columns = np.arange(block.reps.size)[:, None]
    values = np.sqrt(size)[:, None] * block.coef[targets].conj()
    flips = np.zeros((block.reps.size,) * 2, dtype=block.coef.dtype)
    np.add.at(flips, (block.col[targets], columns), values)
    return flips


@pytest.mark.parametrize("n", range(3, 15))
def test_block_field_is_the_scatter_bit_for_bit(n):
    # the cached entries, summed by bincount (two for complex values),
    # against np.add.at: the symmetric blocks of both signs and every
    # momentum block (k, s), k > N/2 included
    for sign in (1.0, -1.0):
        block = es._symmetric_block(n, sign)
        size = np.bincount(block.col[block.coef != 0], minlength=block.reps.size)
        assert np.array_equal(block.field(), _add_at_field(n, block, size))
    orbits, blocks = es._orbits(n, reflect=False), es._momentum_blocks(n)
    for i in range(2):
        for k in range(n):
            block = blocks[i][k]
            size = orbits.size[orbits.orbit[block.reps]]
            want = _add_at_field(n, block, size)
            got = block.field()
            assert np.array_equal(got.real, want.real), (i, k)
            assert np.array_equal(got.imag, want.imag), (i, k)


@pytest.mark.parametrize("n", range(3, 15))
def test_momentum_blocks_of_opposite_momenta_are_exact_conjugates(n):
    # _momentum_spectra and full_spectrum take block -k as the conjugate
    # of block k
    blocks = es._momentum_blocks(n)
    for i in range(2):
        for k in range(1, n):
            got, want = blocks[i][n - k].coef, blocks[i][k].coef
            assert np.array_equal(got.real, want.real), (i, k)
            assert np.array_equal(got.imag, -want.imag), (i, k)
            assert np.array_equal(blocks[i][n - k].reps, blocks[i][k].reps)


@pytest.mark.parametrize("n", range(3, 15))
def test_orbit_tables_map_every_string_to_its_representative(n):
    # both groups: elem[b] maps b to reps[orbit[b]], the smallest image of
    # b over the whole group, and the orbits partition the 2^N strings
    b = np.arange(1 << n)
    for reflect in (False, True):
        orbits = es._orbits(n, reflect)
        assert len(orbits.group) == 2 * n * (1 + reflect)
        smallest = np.min([es._act(n, g, b) for g in orbits.group], axis=0)
        assert np.array_equal(orbits.reps[orbits.orbit], smallest)
        for g, element in enumerate(orbits.group):
            mine = orbits.elem == g
            image = es._act(n, element, b[mine])
            assert np.array_equal(image, orbits.reps[orbits.orbit[mine]]), element
        assert orbits.size.sum() == 1 << n
        assert np.array_equal(orbits.size, np.bincount(orbits.orbit))
        assert np.array_equal(orbits.reps, np.flatnonzero(smallest == b))


def test_symmetric_block_dimensions():
    # orbit counts of rotation, reflection and complement that admit the
    # trivial character (sign +1) or the complement-odd one (sign -1)
    dims = {(12, 1.0): 122, (12, -1.0): 102, (13, 1.0): 190, (13, -1.0): 190,
            (14, 1.0): 362, (14, -1.0): 325}
    for (n, sign), dim in dims.items():
        assert es._symmetric_block(n, sign).reps.size == dim


def test_block_lapack_failure_is_a_convergence_error(monkeypatch):
    def failing(mat):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(es, "lu_solver", failing)
    with pytest.raises(ConvergenceError, match="Singular matrix"):
        lowest_eigenpairs(build_tfim(8, 0.5), 1)


# the fields of the closed-form and shifted-solve tests below
CLOSED_FORM_FIELDS = (0.0, 1e-8, -1e-8, 0.3, 0.5, 1.0, 1.5, -1.7, 5.0)


@pytest.mark.parametrize("n", range(3, 15))
def test_closed_form_ground_energy_matches_the_oracle(n):
    # sector_energy in the sector of the ground state, over the
    # antiperiodic modes
    for lam in CLOSED_FORM_FIELDS:
        want = float(oracles.free_fermion_energies(n, lam)[0])
        got = es.sector_energy(n, lam, es.ground_parity(n, lam))
        assert abs(got - want) <= 1e-14 * abs(want), lam


@pytest.mark.parametrize("n", range(3, 15))
def test_closed_form_partner_energy_matches_the_oracle(n):
    # sector_energy in the other flip sector, over the periodic modes
    eps = np.finfo(float).eps
    for lam in (*CLOSED_FORM_FIELDS, -20.0):
        want = float(oracles.free_fermion_energies(n, lam)[1])
        got = es.sector_energy(n, lam, -es.ground_parity(n, lam))
        assert abs(got - want) <= 4.0 * eps * abs(want), lam


@pytest.mark.parametrize("n", range(3, 15))
def test_shifted_solve_is_the_block_eigh_vector(n, solve_cache):
    # independent route: the lowest vector of a full eigh of the same
    # block, lifted by the same gather
    for lam in (*CLOSED_FORM_FIELDS, -20.0):
        ground = solve_cache(n, lam, k=1)
        block = es._symmetric_block(n, ground.parities[0])
        mat = np.diag(build_tfim(n, lam)._diag[block.reps]) + lam * block.field()
        want = block.coef * np.linalg.eigh(mat)[1][block.col, 0]
        got = ground.eigenvectors[0].amplitudes.real
        assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-12
        assert ground.residuals[0] <= 1e-12


def test_ground_path_runs_no_full_eigh(monkeypatch):
    def failing(mat):
        raise AssertionError("the ground state must not diagonalize a block")

    monkeypatch.setattr(es, "eigh", failing)
    ground = lowest_eigenpairs(build_tfim(14, 1.0), 1)
    assert ground.residuals[0] < 1e-12


def test_closed_form_mismatch_is_a_contract_error(monkeypatch):
    # an energy 4 too high, and enough steps to settle, take the iteration
    # to an excited block level that passes every other contract
    exact = es.sector_energy
    monkeypatch.setattr(
        es, "sector_energy", lambda n, lam, sign: exact(n, lam, sign) + 4.0
    )
    monkeypatch.setattr(es, "SHIFT_STEPS", 40)
    h = build_tfim(8, 0.5)
    with pytest.raises(ContractError, match="closed-form energy"):
        lowest_eigenpairs(h, 1)
    monkeypatch.setattr(mj, "CLOSED_FORM_C", np.inf)
    excited = lowest_eigenpairs(h, 1)
    assert excited.eigenvalues[0] > exact(8, 0.5, 1.0) + 3.0
    assert excited.residuals[0] < 1e-12


def test_partner_closed_form_mismatch_is_a_contract_error(monkeypatch):
    # the same forcing on the doublet partner's sector: its shifted solves
    # settle on an excited block level, and only the quotient contract
    # tells; the ground state's sector is untouched
    exact = es.sector_energy
    monkeypatch.setattr(
        es, "sector_energy",
        lambda n, lam, sign: exact(n, lam, sign) + 4.0 * (sign < 0),
    )
    monkeypatch.setattr(es, "SHIFT_STEPS", 40)
    h = build_tfim(8, 0.5)
    with pytest.raises(ContractError, match="sector -1 quotient"):
        lowest_eigenpairs(h, 2)
    lowest_eigenpairs(h, 1)
    monkeypatch.setattr(mj, "CLOSED_FORM_C", np.inf)
    wrong = lowest_eigenpairs(h, 2)
    assert wrong.parities.tolist() == [1.0, -1.0]
    assert wrong.eigenvalues[1] > exact(8, 0.5, -1.0) + 3.0
    assert wrong.residuals.max() < 1e-12


@pytest.mark.parametrize("n", range(3, 15))
def test_ground_state_has_perron_frobenius_parity(n, solve_cache):
    # lam < 0: every off-diagonal entry of H is <= 0 on a connected
    # single-flip graph, so the ground state is positive and flip-even;
    # prod sigma_z maps lam to -lam and multiplies the flip by (-1)^N
    gauge = (-1.0) ** np.array([bin(b).count("1") for b in range(1 << n)])
    for lam in GROUND_FIELDS:
        parity = (-1.0) ** n if lam > 0 else 1.0
        ground = solve_cache(n, lam, k=1)
        amps = ground.eigenvectors[0].amplitudes
        assert ground.parities[0] == parity
        assert np.abs(amps[::-1] - parity * amps).max() < 1e-12
        # the block solves and the Lanczos route reach the same sector
        # ground states, the ground state's and its partner's
        lanczos = es._lanczos_doublet(build_tfim(n, lam))
        doublet = solve_cache(n, lam, k=2)
        tol = FREE_FERMION_C * np.finfo(float).eps * n * (1.0 + abs(lam))
        for value, vec, sign in zip(
            doublet.eigenvalues, doublet.eigenvectors, doublet.parities
        ):
            i = list(lanczos.parities).index(sign)
            assert abs(lanczos.eigenvalues[i] - value) < tol
            assert abs(lanczos.eigenvectors[i].inner(vec)) >= 1 - 1e-12
            if sign == parity:
                assert np.array_equal(vec.amplitudes, amps)
        if abs(lam) >= 0.5:
            # a one-signed eigenvector of the (gauged) Perron-Frobenius
            # matrix is its ground state
            signed = (gauge * amps.real if lam > 0 else amps.real) * np.sign(amps[0].real)
            assert signed.min() > 0.0


@pytest.mark.parametrize("n", (12, 13, 14))
def test_lanczos_basis_grown_past_its_rows_keeps_the_bits(monkeypatch, n):
    # no field reaches the growth branch up to N=14 (at most 77 rows of
    # LANCZOS_ROWS), so it is forced here: the rows and every product on
    # them are the same after each doubling copy
    h = build_tfim(n, 0.5)
    want = es._lanczos_doublet(h)
    monkeypatch.setattr(es, "LANCZOS_ROWS", 3)
    got = es._lanczos_doublet(h)
    assert got.matvecs == want.matvecs > 2 * 3
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    for vg, vw in zip(got.eigenvectors, want.eigenvectors):
        assert vg.amplitudes.tobytes() == vw.amplitudes.tobytes()


def test_exact_degeneracy_at_zero_field():
    # lam = 0, N = 4: the two fully aligned states give a two-fold
    # degenerate ground level at -N, one state in each flip sector
    pairs = lowest_eigenpairs(build_tfim(4, 0.0), 2)
    assert pairs.eigenvalues[0] == pytest.approx(-4.0, abs=1e-10)
    assert pairs.eigenvalues[1] == pytest.approx(-4.0, abs=1e-10)
    assert sorted(pairs.parities) == [-1.0, 1.0]


def test_repeat_runs_are_deterministic():
    # N=14 has sector dimension 8192, where BLAS runs threaded; the
    # benchmark's N=14 gap rows need the Lanczos solve to repeat bit for
    # bit, and its doublet rows the block solves
    for n in (8, 14):
        for route in (es._lanczos_doublet, lambda h: lowest_eigenpairs(h, 2)):
            a = route(build_tfim(n, 0.5))
            b = route(build_tfim(n, 0.5))
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            for va, vb in zip(a.eigenvectors, b.eigenvectors):
                assert np.array_equal(va.amplitudes, vb.amplitudes)


@pytest.mark.parametrize("n", range(3, 13))
def test_sector_operator_matches_sector_matrix_and_full_space(n):
    # the dense sector matrix, built here from the sector rule, and H
    # applied in the full space to the lifted vector, then projected back
    # onto the sector: neither shares code with the flip table
    rng = np.random.default_rng(n)
    half = 1 << (n - 1)
    for lam in (0.0, 1e-8, 0.5, -0.7, 1.5):
        h = build_tfim(n, lam)
        for sign in (1.0, -1.0):
            s = rng.standard_normal(half)
            got = es._SectorOperator(h, sign).matvec(s)
            y = h.apply(es._embed(s, sign))
            projected = (y[:half] + sign * y[half:][::-1]) / np.sqrt(2.0)
            tol = SECTOR_MATVEC_C * np.finfo(float).eps * n * (1.0 + abs(lam))
            tol *= np.linalg.norm(s)
            b = np.arange(half)
            mat = np.diag(h._diag[:half])
            mat[b, half - 1 - b] += sign * lam  # the site-1 flip
            for k in range(n - 1):
                mat[b, b ^ (1 << k)] += lam
            assert np.abs(got - mat @ s).max() < tol
            assert np.abs(got - projected).max() < tol


@pytest.mark.parametrize("n", range(3, 15))
def test_sector_operator_is_the_reshape_flip_loop_bit_for_bit(n):
    # the reshape-flip loop as the reference: the site-1 flip reads sign
    # times the reversed vector, then one reshape flip per bit k = 0..N-2,
    # summed in that order, which the CSR rows must keep
    rng = np.random.default_rng(100 + n)
    half = 1 << (n - 1)
    for lam in (0.0, 1e-8, 0.5, -0.7, 1.5):
        h = build_tfim(n, lam)
        for sign in (1.0, -1.0):
            s = rng.standard_normal(half)
            flips = sign * s[::-1]
            for k in range(n - 1):
                flips += s.reshape(1 << (n - 2 - k), 2, 1 << k)[:, ::-1, :].reshape(half)
            want = h._diag[:half] * s + lam * flips
            assert np.array_equal(es._SectorOperator(h, sign).matvec(s), want)


def test_lowest_ritz_vector_is_eigh_tridiagonal_bit_for_bit():
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(23)
    for m in range(1, 81):
        alphas = list(m * rng.standard_normal(m))
        betas = list(np.abs(rng.standard_normal(m - 1)))
        _, vecs = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        assert np.array_equal(es._lowest_ritz_vector(alphas, betas), vecs[:, 0])


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_failure_in_the_ritz_step_is_a_convergence_error(monkeypatch, routine):
    import scipy.linalg.lapack as lapack

    real = getattr(lapack, routine)

    def failing(*args):
        *out, _ = real(*args)
        return (*out, 1)

    monkeypatch.setattr(lapack, routine, failing)
    with pytest.raises(ConvergenceError, match="LAPACK info 1"):
        es._lanczos_doublet(build_tfim(8, 0.5))


def test_matvec_count_is_reported_and_repeats():
    for n in range(3, 10):
        for k in (1, 2):
            # shifted solves on the symmetric blocks, no Lanczos
            assert lowest_eigenpairs(build_tfim(n, 0.5), k).matvecs == 0
        a = es._lanczos_doublet(build_tfim(n, 0.5))
        b = es._lanczos_doublet(build_tfim(n, 0.5))
        assert a.matvecs == b.matvecs > 0


@pytest.mark.parametrize("n, lam", [(8, 1e5), (12, -3e4)])
def test_doublet_converges_at_large_fields(n, lam):
    # the Lanczos target rises to the rounding floor 4 eps N (1 + |lam|),
    # which an absolute 1e-10 sits below at these fields; the gap of
    # either route then meets the closed-form sector energies within
    # that floor
    h = build_tfim(n, lam)
    e0, e1 = (float(e) for e in oracles.free_fermion_energies(n, lam))
    floor = 4.0 * np.finfo(float).eps * n * (1.0 + abs(lam))
    lanczos = es._lanczos_doublet(h)
    assert abs(lanczos.gap - (e1 - e0)) <= floor
    assert lanczos.matvecs < 500
    assert abs(lowest_eigenpairs(h, 2).gap - (e1 - e0)) <= floor


def test_doublet_beyond_the_residual_bound_is_a_convergence_error(monkeypatch):
    # where the rounding floor reaches RESIDUAL_BOUND no solve can return a
    # pair that keeps the EigenPairs contract, so both doublet routes raise
    # before their first matvec or block solve
    def forbidden(*args):
        raise AssertionError("solved past the rounding floor")

    monkeypatch.setattr(es._SectorOperator, "matvec", forbidden)
    monkeypatch.setattr(es, "lu_solver", forbidden)
    h = build_tfim(8, 1e7)
    with pytest.raises(ConvergenceError, match="rounding floor"):
        es._lanczos_doublet(h)
    with pytest.raises(ConvergenceError, match="rounding floor"):
        lowest_eigenpairs(h, 2)


def test_eigenpairs_contract_rejects_bad_order():
    v0 = basis_state(3, 0)
    v1 = basis_state(3, 1)
    with pytest.raises(ContractError):
        EigenPairs(
            eigenvalues=np.array([1.0, 0.0]),
            eigenvectors=(v0, v1),
            residuals=np.array([0.0, 0.0]),
            parities=np.array([1.0, 1.0]),
        )


def test_eigenpairs_contract_rejects_large_residual():
    with pytest.raises(ContractError):
        EigenPairs(
            eigenvalues=np.array([0.0]),
            eigenvectors=(basis_state(3, 0),),
            residuals=np.array([1e-3]),
            parities=np.array([1.0]),
        )


def test_eigenpairs_contract_rejects_nonorthogonal():
    v = basis_state(3, 0)
    with pytest.raises(ContractError):
        EigenPairs(
            eigenvalues=np.array([0.0, 1.0]),
            eigenvectors=(v, v),
            residuals=np.array([0.0, 0.0]),
            parities=np.array([1.0, 1.0]),
        )


def test_gap_property_needs_two_levels():
    pairs = lowest_eigenpairs(build_tfim(6, 0.5), 1)
    with pytest.raises(DomainError):
        pairs.gap


def test_convergence_error_on_tiny_budget(monkeypatch):
    monkeypatch.setattr(es, "MATVEC_BUDGET", 3)
    with pytest.raises(ConvergenceError) as exc:
        es._lanczos_doublet(build_tfim(8, 0.5))
    best = exc.value.best_residual
    assert best is None or best >= 0.0


def test_full_spectrum_small_chain():
    h = build_tfim(5, 0.7)
    solved = full_spectrum(h)
    want = np.linalg.eigvalsh(oracles.dense_h(5, 0.7))
    assert np.abs(solved.eigenvalues - want).max() < 1e-9
    assert abs(solved.eigenvalues.sum()) < 1e-8  # traceless Hamiltonian
    # reconstruction residual on random probes
    rng = np.random.default_rng(17)
    for _ in range(3):
        x = oracles.random_state(rng, 5)
        rebuilt = solved.basis @ (solved.eigenvalues * (solved.basis.conj().T @ x))
        assert np.linalg.norm(h.apply(x) - rebuilt) < 1e-8


@pytest.mark.parametrize("n", range(3, 11))
def test_full_spectrum_matches_free_fermion_levels(n):
    for lam in (0.0, 1e-8, 0.3, -0.7, 1.0, 1.6, -2.2):
        got = full_spectrum(build_tfim(n, lam)).eigenvalues
        want = oracles.free_fermion_spectrum(n, lam)
        tol = FREE_FERMION_C * np.finfo(float).eps * n * (1.0 + abs(lam))
        assert np.abs(got - want).max() < tol


@pytest.mark.parametrize("n", range(3, 9))
def test_full_spectrum_columns_have_flip_parity(n):
    # each column is a block eigenvector lifted to 2^N: the flip (index
    # reversal) maps it to +-1 times itself, and a rotation of the ring by
    # one site to a unit phase times itself
    for lam in (0.0, -0.7, 0.5, 1.5):
        solved = full_spectrum(build_tfim(n, lam))
        u = solved.basis
        assert np.abs(u.conj().T @ u - np.eye(1 << n)).max() < 1e-12
        parity = np.einsum("ij,ij->j", u.conj(), u[::-1])
        assert np.abs(parity - np.sign(parity.real)).max() < 1e-12
        assert np.count_nonzero(parity.real > 0) == 1 << (n - 1)
        rotated = np.moveaxis(u.reshape((2,) * n + (-1,)), 0, n - 1).reshape(u.shape)
        phase = np.einsum("ij,ij->j", u.conj(), rotated)
        assert np.abs(np.abs(phase) - 1.0).max() < 1e-12
        assert np.abs(rotated - phase * u).max() < 1e-12
        want = np.linalg.eigvalsh(oracles.dense_h(n, lam))
        assert np.abs(solved.eigenvalues - want).max() < 1e-12


def _rotated(vals, vecs):
    # a small rotation mixing the lowest and highest eigenvectors: still
    # orthonormal, but no longer eigenvectors
    c, s = np.cos(1e-6), np.sin(1e-6)
    first, last = vecs[:, 0].copy(), vecs[:, -1].copy()
    vecs[:, 0], vecs[:, -1] = c * first - s * last, s * first + c * last
    return vals, vecs


def _stretched(vals, vecs):
    # still eigenvectors, but no longer normalized
    vecs[:, 0] *= 1.0 + 1e-6
    return vals, vecs


@pytest.mark.parametrize(
    "spoil, message", [(_rotated, "residual"), (_stretched, "orthonormality")]
)
def test_full_spectrum_checks_residuals_and_orthonormality(monkeypatch, spoil, message):
    h = build_tfim(5, 0.5)
    full_spectrum(h)
    monkeypatch.setattr(es, "eigh", lambda mat: spoil(*np.linalg.eigh(mat)))
    with pytest.raises(ContractError, match=message):
        full_spectrum(h)


@pytest.mark.parametrize(
    "shift, error", [(5e-9, ConvergenceError), (1e-7, ContractError)]
)
def test_block_residual_within_eigh_rounding_is_a_convergence_error(
    monkeypatch, shift, error
):
    # at N=6, lam=1e5 the floor 4 eps N (1 + |lam|) is 5.3e-10 and a dense
    # eigh's rounding EIGH_C eps N (1 + |lam|) is 1.7e-8: energies shifted
    # by 5e-9 breach the bound within that rounding, by 1e-7 beyond it
    h = build_tfim(6, 1e5)
    full_spectrum(h)

    def shifted(mat):
        vals, vecs = np.linalg.eigh(mat)
        return vals + shift, vecs

    monkeypatch.setattr(es, "eigh", shifted)
    with pytest.raises(error, match="breaches the 1e-09 bound"):
        full_spectrum(h)


def test_full_spectrum_size_cap():
    with pytest.raises(CapabilityError):
        full_spectrum(build_tfim(11, 0.5))


def test_gap_scan_values_and_domain():
    frozen = {
        4: 0.035490432639925906,
        5: 0.015402451454491484,
        6: 0.006892444970205247,
    }
    for n, gap in gap_scan(0.5, 4, 6):
        assert gap == pytest.approx(frozen[n], abs=1e-9)
    with pytest.raises(DomainError):
        gap_scan(0.0, 4, 6)
    with pytest.raises(DomainError):
        gap_scan(0.5, 2, 6)
    with pytest.raises(DomainError):
        gap_scan(0.5, 6, 15)
    with pytest.raises(DomainError):
        gap_scan(0.5, 8, 6)


def test_gap_scan_keeps_the_lanczos_route():
    # the benchmark reference records the Lanczos rounding of the gap, so
    # gap_scan must return the Lanczos doublet's gap bit for bit
    for n in (8, 11, 14):
        want = es._lanczos_doublet(build_tfim(n, 0.5)).gap
        assert gap_scan(0.5, n, n) == [(n, want)]


def test_adiabatic_time_estimate():
    out = adiabatic_time_estimate([(4, 0.5), (5, 0.1)])
    assert out[0] == (4, pytest.approx(4.0))
    assert out[1] == (5, pytest.approx(100.0))
    with pytest.raises(DomainError):
        adiabatic_time_estimate([(4, 0.0)])
    with pytest.raises(DomainError):
        adiabatic_time_estimate([(4, -1.0)])


def test_superposed_state_on_ghz_doublet():
    # (|00..0> + |11..1>)/sqrt2 and its partner recombine into a single
    # classical-looking branch
    n = 5
    plus = ghz_state(n)
    minus = StateVector(
        n,
        (basis_state(n, 0).amplitudes - basis_state(n, 2**n - 1).amplitudes)
        / np.sqrt(2),
    )
    cat = superposed_state(plus, minus)
    assert abs(abs(cat.amplitudes[0]) - 1.0) < 1e-12
    assert np.abs(cat.amplitudes[1:]).max() < 1e-12


def test_superposed_state_picks_positive_branch(solve_cache):
    pairs = solve_cache(8, 0.5, k=2)
    s = superposed_state(pairs.eigenvectors[0], pairs.eigenvectors[1])
    mz = mz_diagonal(8)
    probs = np.abs(s.amplitudes) ** 2
    mean = float(probs @ mz)
    assert mean == pytest.approx(7.71744692598982, abs=1e-8)
    assert probs[mz > 0].sum() > 0.999


def test_superposed_state_input_contracts():
    a = basis_state(3, 0)
    with pytest.raises(ContractError):
        superposed_state(a, a)  # not orthogonal
    with pytest.raises(DomainError):
        superposed_state(a, basis_state(4, 0))
    with pytest.raises(ContractError):
        superposed_state(StateVector(3, np.full(8, 0.5)), a)
