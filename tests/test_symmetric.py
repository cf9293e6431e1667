import itertools
import math

import numpy as np
import pytest

from definetti.linalg import Operator, PureState, partial_trace_last, trace_norm
from definetti.symmetric import (
    SymmetricState,
    dicke_state,
    ghz_state,
    random_symmetric_pure,
    sym_dim,
    symmetrizer,
    type_codes,
    type_table,
)
from oracles import dicke_isometry, permutation_operator


def _digit_counts(n, d):
    """(d**n, d) per-string digit counts, one basis string at a time."""
    return np.array(
        [[digits.count(c) for c in range(d)] for digits in itertools.product(range(d), repeat=n)]
    )


def _dense_isometry(n, d):
    """The Dicke isometry from per-string digit counts, sorted types and a dict lookup."""
    counts = _digit_counts(n, d)
    occs = sorted(set(map(tuple, counts.tolist())))
    col_index = {occ: i for i, occ in enumerate(occs)}
    col_of = np.array([col_index[tuple(row)] for row in counts.tolist()])
    matrix = np.zeros((d**n, len(occs)), dtype=np.complex128)
    matrix[np.arange(d**n), col_of] = 1.0 / np.sqrt(np.bincount(col_of)[col_of])
    return occs, counts, matrix


def _dense_random_symmetric_pure(n, d, seed):
    """Gaussian Dicke coefficients mapped through the dense isometry."""
    occs, _, matrix = _dense_isometry(n, d)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
    coeff /= np.linalg.norm(coeff)
    return matrix @ coeff


def _dense_dicke_state(n, d, occ):
    """Equal amplitudes on the strings whose digit counts equal occ."""
    mask = (_digit_counts(n, d) == np.array(occ)).all(axis=1)
    amps = np.zeros(d**n, dtype=np.complex128)
    amps[mask] = 1.0 / math.sqrt(int(mask.sum()))
    return amps


_TYPE_GRID = [(n, d) for d in (2, 3, 4) for n in range(1, 7)]


def test_sym_dim_values():
    assert sym_dim(2, 2) == 3
    assert sym_dim(0, 5) == 1
    assert sym_dim(2, 3) == 6
    assert sym_dim(8, 2) == 9
    assert sym_dim(4, 4) == 35
    with pytest.raises(ValueError):
        sym_dim(-1, 2)
    with pytest.raises(ValueError):
        sym_dim(2, 0)


def test_sym_dim_polynomial_growth():
    # the subspace dimension is polynomial in n: C(n+d-1, n) <= (n+1)^(d-1)
    for d in range(2, 6):
        for n in range(0, 21):
            assert sym_dim(n, d) <= (n + 1) ** (d - 1)


def test_occupations_order():
    occs = list(map(tuple, type_table(2, 3)[0].tolist()))
    assert occs == [(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)]
    assert occs == sorted(occs)
    for n, d in [(3, 2), (4, 3), (2, 4)]:
        occs = list(map(tuple, type_table(n, d)[0].tolist()))
        assert len(occs) == sym_dim(n, d)
        assert all(sum(o) == n and len(o) == d for o in occs)


def test_dicke_state_values():
    np.testing.assert_allclose(dicke_state(2, 2, (2, 0)).pure().amplitudes, [1, 0, 0, 0])
    np.testing.assert_allclose(
        dicke_state(2, 2, (1, 1)).pure().amplitudes, np.array([0, 1, 1, 0]) / np.sqrt(2)
    )
    w = dicke_state(3, 2, (2, 1)).pure().amplitudes
    expect = np.zeros(8)
    expect[[1, 2, 4]] = 1 / np.sqrt(3)  # 001, 010, 100
    np.testing.assert_allclose(w, expect)


def test_dicke_state_invalid_occupation():
    with pytest.raises(ValueError):
        dicke_state(2, 2, (1, 0))
    with pytest.raises(ValueError):
        dicke_state(2, 2, (3, -1))
    with pytest.raises(ValueError):
        dicke_state(2, 2, (1, 1, 0))


def test_dicke_states_orthonormal():
    for n, d in [(3, 2), (2, 3), (4, 2)]:
        states = [dicke_state(n, d, occ).pure() for occ in type_table(n, d)[0]]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expect = 1.0 if i == j else 0.0
                assert abs(a.overlap(b) - expect) < 1e-12


def test_dicke_isometry_structure():
    v = dicke_isometry(2, 2)
    assert v.shape[1] == 3
    assert tuple(map(tuple, type_table(2, 2)[0].tolist())) == ((0, 2), (1, 1), (2, 0))
    np.testing.assert_allclose(v[:, 1], np.array([0, 1, 1, 0]) / np.sqrt(2))  # type (1, 1)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_isometry_matches_dicke_states():
    v = dicke_isometry(3, 3)
    for t, occ in enumerate(type_table(3, 3)[0]):
        np.testing.assert_allclose(v[:, t], dicke_state(3, 3, occ).pure().amplitudes, atol=1e-13)


def test_isometry_identities_small_grid():
    for n, d in [(1, 2), (2, 2), (4, 2), (6, 2), (2, 3), (4, 3), (3, 4)]:
        v = dicke_isometry(n, d)
        np.testing.assert_allclose(
            v.conj().T @ v, np.eye(sym_dim(n, d)), atol=1e-12, err_msg=f"n={n} d={d}"
        )
        proj = v @ v.conj().T
        np.testing.assert_allclose(proj, symmetrizer(n, d).entries, atol=1e-12)


def test_symmetrizer_one_site_is_identity():
    np.testing.assert_allclose(symmetrizer(1, 3).entries, np.eye(3), atol=1e-14)


def test_symmetrizer_two_qubits():
    swap = permutation_operator(2, 2, (1, 0))
    expect = (np.eye(4) + swap.entries) / 2
    np.testing.assert_allclose(symmetrizer(2, 2).entries, expect, atol=1e-12)


def test_symmetrizer_idempotent_with_correct_rank():
    for d in (2, 3):
        for n in range(1, 7 if d == 2 else 6):
            proj = symmetrizer(n, d)
            assert proj.is_hermitian(1e-12)
            defect = np.abs((proj @ proj - proj).entries).max()
            assert defect < 1e-10, f"n={n} d={d}"
            assert abs(proj.trace().real - sym_dim(n, d)) < 1e-9


def test_symmetrizer_commutes_with_transpositions():
    for d in (2, 3):
        for n in range(2, 7 if d == 2 else 6):
            proj = symmetrizer(n, d)
            for i in range(n - 1):
                perm = list(range(n))
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
                p = permutation_operator(n, d, perm)
                comm = p @ proj - proj @ p
                assert np.abs(comm.entries).max() < 1e-10, f"n={n} d={d} swap={i}"
                # transposition-invariant subspace: P acts as identity on it
                fixed = p @ proj - proj
                assert np.abs(fixed.entries).max() < 1e-10


def test_permutation_operator_values():
    swap = permutation_operator(2, 2, (1, 0))
    psi = PureState(2, 2, [0, 1, 0, 0])  # |01>
    np.testing.assert_allclose(swap.entries @ psi.amplitudes, [0, 0, 1, 0])  # |10>
    with pytest.raises(ValueError):
        permutation_operator(2, 2, (0, 0))


def test_permutation_operator_composition():
    rng = np.random.default_rng(9)
    n, d = 4, 2
    for _ in range(10):
        p1 = tuple(rng.permutation(n))
        p2 = tuple(rng.permutation(n))
        composed = tuple(p2[p1[i]] for i in range(n))
        lhs = permutation_operator(n, d, p2) @ permutation_operator(n, d, p1)
        rhs = permutation_operator(n, d, composed)
        np.testing.assert_allclose(lhs.entries, rhs.entries, atol=1e-13)


def test_random_symmetric_pure_lives_in_subspace():
    for n, d, seed in [(4, 2, 0), (8, 2, 1), (3, 3, 2)]:
        psi = random_symmetric_pure(n, d, seed).pure()
        proj = symmetrizer(n, d)
        residual = proj.entries @ psi.amplitudes - psi.amplitudes
        assert np.linalg.norm(residual) < 1e-12


def test_random_symmetric_pure_deterministic():
    a = random_symmetric_pure(4, 2, 7)
    b = random_symmetric_pure(4, 2, 7)
    c = random_symmetric_pure(4, 2, 8)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    assert np.abs(a.coefficients - c.coefficients).max() > 1e-3


def test_random_symmetric_pure_moments():
    # uniform on the subspace sphere: each Dicke weight has mean 1/sym_dim
    n, d, trials = 2, 2, 10000
    dicke = dicke_state(n, d, (1, 1)).pure().amplitudes
    samples = np.empty(trials)
    for seed in range(trials):
        psi = random_symmetric_pure(n, d, seed)
        samples[seed] = abs(np.vdot(dicke, psi.pure().amplitudes)) ** 2
    c = sym_dim(n, d)
    # |<D|psi>|^2 is Beta(1, c-1): mean 1/c, var (c-1)/(c^2 (c+1))
    sigma = math.sqrt((c - 1) / (c**2 * (c + 1)) / trials)
    assert abs(samples.mean() - 1 / c) < 3 * sigma


def test_ghz_values():
    np.testing.assert_allclose(ghz_state(2, 2).pure().amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))
    g = ghz_state(2, 3).pure()
    expect = np.zeros(9)
    expect[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(g.amplitudes, expect)


def test_ghz_is_symmetric():
    for n, d in [(3, 2), (4, 2), (2, 3)]:
        g = ghz_state(n, d).pure()
        proj = symmetrizer(n, d)
        assert np.linalg.norm(proj.entries @ g.amplitudes - g.amplitudes) < 1e-12


def test_ghz_partial_trace_is_classical_mixture():
    g = ghz_state(4, 2).pure()
    reduced = partial_trace_last(g.projector(), 2)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    np.testing.assert_allclose(reduced.entries, expect, atol=1e-14)


def test_dicke_states_span_fixed_points_of_symmetrizer():
    n, d = 3, 2
    proj = symmetrizer(n, d)
    for occ in type_table(n, d)[0]:
        psi = dicke_state(n, d, occ).pure()
        np.testing.assert_allclose(proj.entries @ psi.amplitudes, psi.amplitudes, atol=1e-12)


def test_type_codes_match_digit_counts():
    for n, d in _TYPE_GRID:
        types, code = type_codes(n, d)
        counts = _digit_counts(n, d)
        assert len(types) == sym_dim(n, d), f"n={n} d={d}"
        assert list(map(tuple, types.tolist())) == sorted(set(map(tuple, counts.tolist())))
        np.testing.assert_array_equal(types[code], counts, err_msg=f"n={n} d={d}")
        table, mult = type_table(n, d)
        np.testing.assert_array_equal(table, types, err_msg=f"n={n} d={d}")
        np.testing.assert_array_equal(mult, np.bincount(code), err_msg=f"n={n} d={d}")


def test_dicke_isometry_matches_dense_construction():
    for n, d in _TYPE_GRID:
        occs, _, matrix = _dense_isometry(n, d)
        iso = dicke_isometry(n, d)
        assert list(map(tuple, type_table(n, d)[0].tolist())) == occs
        np.testing.assert_array_equal(iso.view(np.float64), matrix.view(np.float64))


def test_state_builders_bitwise_match_dense_oracles():
    for n, d in _TYPE_GRID:
        for seed in (0, 1, 7, 12):
            new = random_symmetric_pure(n, d, seed).pure().amplitudes
            old = _dense_random_symmetric_pure(n, d, seed)
            assert np.array_equal(new.view(np.float64), old.view(np.float64)), (n, d, seed)
        for occ in _dense_isometry(n, d)[0]:
            new = dicke_state(n, d, occ).pure().amplitudes
            old = _dense_dicke_state(n, d, occ)
            assert np.array_equal(new.view(np.float64), old.view(np.float64)), (n, d, occ)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_from_dense_recovers_the_coefficients(d):
    for sites in (1, 2, 4):
        for state in (random_symmetric_pure(sites, d, seed=sites), ghz_state(sites, d)):
            got = SymmetricState.from_dense(state.pure())
            assert (got.site_dim, got.sites) == (d, sites)
            np.testing.assert_allclose(got.coefficients, state.coefficients, rtol=0, atol=1e-14)
            # a density operator fixes its top eigenvector up to a global phase
            got = SymmetricState.from_dense(state.pure().projector()).coefficients
            overlap = np.vdot(got, state.coefficients)
            aligned = got * overlap / abs(overlap)
            np.testing.assert_allclose(aligned, state.coefficients, rtol=0, atol=1e-14)


def test_from_dense_rejects_invalid_states():
    ghz = ghz_state(2, 2).pure()
    antisym = PureState(2, 2, np.array([0, 1, -1, 0]) / np.sqrt(2))
    skewed = ghz.projector().entries.copy()
    skewed[0, 1] += 0.1
    bad = [
        (antisym, "symmetric"),
        (antisym.projector(), "symmetric"),
        (Operator(2, 2, skewed), "hermitian"),
        (Operator(2, 2, 2 * ghz.projector().entries), "unit trace"),
        (Operator(2, 2, np.diag([1.5, 0, 0, -0.5])), "PSD"),
        (Operator(2, 2, np.eye(4) / 4), "pure"),
        (Operator(2, 0, [[1.0]]), "sites"),  # a scalar, not a state
    ]
    for rho, match in bad:
        with pytest.raises(ValueError, match=match):
            SymmetricState.from_dense(rho)
    # a symmetric state with a small antisymmetric admixture: the defect is
    # beta sqrt(beta^2 + 4 (1 - beta^2)) for admixture amplitude beta
    for beta, ok in ((1e-11, True), (1e-9, False)):
        mixed = PureState(2, 2, math.sqrt(1 - beta**2) * ghz.amplitudes + beta * antisym.amplitudes)
        for rho in (mixed, mixed.projector()):
            if ok:
                SymmetricState.from_dense(rho)
            else:
                with pytest.raises(ValueError, match="symmetric"):
                    SymmetricState.from_dense(rho)
