import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

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
    type_rank,
    type_table,
)
from oracles import dicke_isometry, permutation_operator, type_table_reference

SRC = Path(__file__).resolve().parents[1] / "src"


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
    coeff /= np.sqrt(np.sum(coeff.real**2 + coeff.imag**2))  # linalg._norm's pairwise sum
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


def test_dicke_state_refuses_non_integer_counts():
    # a count of 2.5 must not be truncated into the type (1, 2)
    for occ in ((1, 2.5), (1.0, 2), ("1", 2)):
        with pytest.raises(ValueError, match="type of total 3 in integers"):
            dicke_state(3, 2, occ)
    assert np.array_equal(dicke_state(3, 2, np.array([1, 2])).coefficients, [0, 1, 0, 0])


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
            assert proj.is_hermitian()
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


def test_type_table_matches_sorted_tuple_reference():
    # the bar positions give the reference's types, dtype, flags and multiplicity bytes,
    # from n = 0 up to the largest d=2 size whose multiplicities fit a float
    grid = [(n, d) for d, top in ((1, 30), (2, 60), (3, 30), (4, 16), (5, 10), (6, 8))
            for n in range(top)]
    for n, d in grid + [(1029, 2), (200, 3)]:
        for new, old in zip(type_table(n, d), type_table_reference(n, d)):
            assert (new.dtype, new.shape, new.strides) == (old.dtype, old.shape, old.strides)
            assert not new.flags.writeable and not old.flags.writeable, (n, d)
            assert new.tobytes() == old.tobytes(), (n, d)


def test_type_table_multiplicities_match_factorial_formula():
    # each float is n! / prod_i t_i! in integers, rounded once: bit for bit the same
    for n, d in [(n, d) for d in range(1, 6) for n in range(41)] + [(200, 3)]:
        types, mult = type_table(n, d)
        factorials = [math.factorial(i) for i in range(n + 1)]
        exact = [factorials[n] // math.prod(factorials[c] for c in row) for row in types.tolist()]
        assert mult.tobytes() == np.array(exact, dtype=np.float64).tobytes(), (n, d)


def test_type_table_at_the_d3_site_limit_stays_below_75_mb():
    # 652 sites, the largest d=3 run: the exact products are made into floats 4096 rows at a
    # time, where all of them at once peaked at 94 MB. As in tests/test_ci_runs.py, a launcher
    # reads the peak RSS of its own child, which does not carry the test session's peak
    launcher = (
        "import resource, subprocess, sys\n"
        "subprocess.check_call([sys.executable, '-c', "
        "'from definetti.symmetric import type_table; type_table(652, 3)'])\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", launcher], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 75, proc.stdout


def test_type_rank_numbers_the_type_table():
    for d in range(1, 6):
        for n in range(13):
            np.testing.assert_array_equal(
                type_rank(type_table(n, d)[0], n), np.arange(sym_dim(n, d)), err_msg=f"n={n} d={d}"
            )


def test_type_rank_matches_unique_inverse_over_joint_types():
    # np.unique runs on a mixed-radix code of each type, which orders types as the rows
    # compare; d=5 stops at n, k <= 8 because its n=k=12 joint table alone has 3.3M types
    for d, top in ((2, 12), (3, 12), (4, 12), (5, 8)):
        for n in range(top + 1):
            for k in range(top + 1):
                joint = type_table(n, d)[0][:, None, :] + type_table(k, d)[0][None, :, :]
                code = joint @ (n + k + 1) ** np.arange(d - 1, -1, -1)
                inverse = np.unique(code, return_inverse=True)[1].reshape(code.shape)
                np.testing.assert_array_equal(type_rank(joint, n + k), inverse, f"{n} {k} {d}")


def test_type_codes_leave_the_type_table_cache_alone():
    # the types of each site count are built outside the cache, which they would fill
    type_codes.cache_clear()
    type_table.cache_clear()
    type_codes(12, 2)
    type_codes(5, 3)
    assert type_table.cache_info().currsize == 0


def test_type_codes_match_digit_counts():
    for n, d in _TYPE_GRID:
        types, mult = type_table(n, d)
        code = type_codes(n, d)
        counts = _digit_counts(n, d)
        assert len(types) == sym_dim(n, d), f"n={n} d={d}"
        assert list(map(tuple, types.tolist())) == sorted(set(map(tuple, counts.tolist())))
        np.testing.assert_array_equal(types[code], counts, err_msg=f"n={n} d={d}")
        np.testing.assert_array_equal(mult, np.bincount(code), err_msg=f"n={n} d={d}")
        assert not code.flags.writeable, f"n={n} d={d}"


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


def test_random_symmetric_pure_is_the_same_state_at_one_and_two_blas_threads():
    # `random-sym:S` names one state: BLAS nrm2 splits its 80601-entry dot across threads and
    # changes the last bits of the normalization, where the pairwise sum of linalg._norm does not
    script = (
        "import sys\n"
        "from definetti.symmetric import random_symmetric_pure\n"
        "sys.stdout.write(random_symmetric_pure(400, 3, 7).coefficients.tobytes().hex())\n"
    )
    hexes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        hexes.append(proc.stdout)
    assert len(hexes[0]) == 2 * 16 * sym_dim(400, 3)
    assert hexes[0] == hexes[1]


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
