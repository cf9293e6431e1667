import math

import numpy as np
import pytest
from scipy import stats

from definetti.certifier import tail_function_grid
from definetti.hamming import threshold_projectors, weight_family
from definetti.linalg import Operator, PureState, kron_power
from oracles import (
    hamming_distance,
    min_eigenvalue,
    permutation_operator,
    random_state,
    tail_function,
    tensor,
)


def test_weight_family_qubit_reference_zero():
    zero = PureState(2, 1, [1, 0])
    fam = weight_family(zero, 2)
    assert fam.n == 2
    assert len(fam.projectors) == 3
    q1 = np.zeros((4, 4))
    q1[1, 1] = q1[2, 2] = 1  # |01><01| + |10><10|
    np.testing.assert_allclose(fam.projectors[1].entries, q1, atol=1e-14)
    np.testing.assert_allclose(fam.projectors[0].entries, np.diag([1.0, 0, 0, 0]), atol=1e-14)
    np.testing.assert_allclose(fam.projectors[2].entries, np.diag([0, 0, 0, 1.0]), atol=1e-14)


def test_weight_family_single_site():
    rng = np.random.default_rng(0)
    psi = random_state(rng, 3)
    fam = weight_family(psi, 1)
    np.testing.assert_allclose(fam.projectors[0].entries, psi.projector().entries, atol=1e-14)
    np.testing.assert_allclose(
        (fam.projectors[0] + fam.projectors[1]).entries, np.eye(3), atol=1e-14
    )


def test_weight_family_validation():
    with pytest.raises(ValueError):
        weight_family(PureState(2, 1, [1, 0]), 0)
    with pytest.raises(ValueError):
        weight_family(PureState(2, 2, [1, 0, 0, 0]), 2)


def test_weight_family_invariants():
    # hermitian idempotent, mutually orthogonal, complete, with
    # rank C(n, i) (d-1)^i
    rng = np.random.default_rng(1)
    for d, n_max in [(2, 6), (3, 5)]:
        psi = random_state(rng, d)
        for n in range(1, n_max + 1):
            fam = weight_family(psi, n)
            total = Operator.zero(d, n)
            for i, q in enumerate(fam.projectors):
                assert q.is_hermitian(1e-10)
                assert np.abs((q @ q - q).entries).max() < 1e-10, f"d={d} n={n} i={i}"
                rank = math.comb(n, i) * (d - 1) ** i
                assert abs(q.trace().real - rank) < 1e-8
                total = total + q
            np.testing.assert_allclose(total.entries, np.eye(d**n), atol=1e-10)
            # PSD pair: trace(Q_i Q_j) = 0 forces Q_i Q_j = 0
            for i in range(n + 1):
                for j in range(i + 1, n + 1):
                    overlap = np.einsum(
                        "ij,ji->", fam.projectors[i].entries, fam.projectors[j].entries
                    ).real
                    assert abs(overlap) < 1e-10


def test_weight_family_orthogonality_dense_small():
    rng = np.random.default_rng(2)
    for d, n in [(2, 3), (3, 2)]:
        psi = random_state(rng, d)
        fam = weight_family(psi, n)
        for i in range(n + 1):
            for j in range(n + 1):
                if i == j:
                    continue
                prod = fam.projectors[i] @ fam.projectors[j]
                assert np.abs(prod.entries).max() < 1e-12


def test_threshold_projectors():
    zero = PureState(2, 1, [1, 0])
    fam = weight_family(zero, 2)
    below, above = threshold_projectors(fam, 1)
    np.testing.assert_allclose(below.entries, fam.projectors[0].entries, atol=1e-14)
    np.testing.assert_allclose(
        above.entries, (fam.projectors[1] + fam.projectors[2]).entries, atol=1e-14
    )
    below0, above0 = threshold_projectors(fam, 0)
    np.testing.assert_allclose(below0.entries, np.zeros((4, 4)))
    np.testing.assert_allclose(above0.entries, np.eye(4))
    below_all, above_all = threshold_projectors(fam, 3)
    np.testing.assert_allclose(below_all.entries, np.eye(4), atol=1e-13)
    np.testing.assert_allclose(above_all.entries, np.zeros((4, 4)), atol=1e-13)
    with pytest.raises(ValueError):
        threshold_projectors(fam, 4)
    with pytest.raises(ValueError):
        threshold_projectors(fam, -1)


def test_hamming_distance_reference_power():
    rng = np.random.default_rng(3)
    psi = random_state(rng, 2)
    tau = psi.tensor_power(3).projector()
    assert hamming_distance(tau, psi) == 0


def test_hamming_distance_single_flip():
    zero = PureState(2, 1, [1, 0])
    one = PureState(2, 1, [0, 1])
    flipped = tensor(tensor(zero.projector(), one.projector()), zero.projector())
    assert hamming_distance(flipped, zero) == 1


def test_hamming_distance_projected_weight():
    # project a random state onto exact weight w: distance must equal w
    rng = np.random.default_rng(4)
    psi = random_state(rng, 2)
    fam = weight_family(psi, 4)
    for w in range(5):
        raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        vec = fam.projectors[w].entries @ raw
        vec /= np.linalg.norm(vec)
        tau = PureState(2, 4, vec).projector()
        assert hamming_distance(tau, psi) == w


def test_hamming_distance_validation():
    zero = PureState(2, 1, [1, 0])
    not_normalized = Operator(2, 2, np.eye(4))
    with pytest.raises(ValueError):
        hamming_distance(not_normalized, zero)
    not_psd = Operator(2, 1, [[1.5, 0], [0, -0.5]])
    with pytest.raises(ValueError):
        hamming_distance(not_psd, zero)
    with pytest.raises(ValueError):
        hamming_distance(zero.projector(), PureState(3, 1, [1, 0, 0]))


def test_low_weight_span_reachable_by_local_changes():
    # states built from psi^(x)n by modifying at most r sites stay inside
    # the span of weights <= r: the complementary projector annihilates them
    rng = np.random.default_rng(5)
    for trial in range(50):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        r = int(rng.integers(0, n + 1))
        psi = random_state(rng, d)
        base = kron_power(psi.amplitudes, n)
        if r > 0:
            g = rng.standard_normal((d**r, d**r)) + 1j * rng.standard_normal((d**r, d**r))
            unitary, _ = np.linalg.qr(g)
            full = np.kron(unitary, np.eye(d ** (n - r)))
            sites = tuple(rng.permutation(n))
            shuffle = permutation_operator(n, d, sites).entries
            full = shuffle.conj().T @ full @ shuffle
            base = full @ base
        state = PureState(d, n, base / np.linalg.norm(base))
        fam = weight_family(psi, n)
        _, above = threshold_projectors(fam, r + 1)
        leak = state.amplitudes.conj() @ above.entries @ state.amplitudes
        assert abs(leak) < 1e-10, f"trial={trial} d={d} n={n} r={r}"
        assert hamming_distance(state.projector(), psi) <= r


def test_trace_identity_against_tail():
    # trace(P_{>=r} |theta^n><theta^n|) = tail(n, r, |<theta|psi>|^2)
    rng = np.random.default_rng(6)
    for d in (2, 3):
        for n in (1, 3, 5):
            theta = random_state(rng, d)
            psi = random_state(rng, d)
            fam = weight_family(psi, n)
            power = theta.tensor_power(n).projector()
            x = abs(psi.overlap(theta)) ** 2
            for r in range(n + 2):
                _, above = threshold_projectors(fam, r)
                lhs = np.einsum("ij,ji->", above.entries, power.entries).real
                assert abs(lhs - tail_function(n, r, x)) < 1e-10


def test_tail_function_values():
    assert tail_function(5, 0, 0.3) == 1.0
    assert tail_function(2, 1, 0.5) == pytest.approx(0.75)
    assert tail_function(2, 3, 0.5) == 0.0
    assert tail_function(4, 1, 1.0) == 0.0
    assert tail_function(4, 4, 0.0) == 1.0
    assert tail_function(1, 1, 0.25) == pytest.approx(0.75)


def test_tail_function_validation():
    with pytest.raises(ValueError):
        tail_function(3, 5, 0.5)
    with pytest.raises(ValueError):
        tail_function(3, -1, 0.5)
    with pytest.raises(ValueError):
        tail_function(3, 1, 1.5)
    with pytest.raises(ValueError):
        tail_function(-1, 0, 0.5)


def test_tail_function_against_binomial_oracle():
    # independent route: the tail is P(Binomial(n, 1-x) >= r)
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        r = int(rng.integers(0, n + 2))
        x = float(rng.uniform())
        expect = stats.binom.sf(r - 1, n, 1 - x)
        assert tail_function(n, r, x) == pytest.approx(expect, abs=1e-12)


def test_tail_function_monotonicity():
    xs = np.linspace(0, 1, 101)
    for n in (3, 8, 20):
        values = np.stack([tail_function_grid(n, r, xs) for r in range(n + 2)])
        assert (np.diff(values, axis=0) <= 1e-14).all()  # decreasing in r
        assert (np.diff(values[1:-1], axis=1) <= 1e-12).all()  # decreasing in x for 1<=r<=n


def test_tail_grid_matches_scalar():
    xs = np.linspace(0, 1, 57)
    for n, r in [(5, 2), (12, 7), (30, 1), (30, 31), (7, 0)]:
        grid = tail_function_grid(n, r, xs)
        scalar = np.array([tail_function(n, r, float(x)) for x in xs])
        np.testing.assert_allclose(grid, scalar, atol=1e-13)


def test_weight_masses_sum_to_trace():
    rng = np.random.default_rng(8)
    psi = random_state(rng, 2)
    fam = weight_family(psi, 3)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = Operator(2, 3, g @ g.conj().T)
    masses = np.array([np.einsum("ij,ji->", q.entries, rho.entries).real for q in fam.projectors])
    assert (masses >= -1e-10).all()
    assert abs(masses.sum() - rho.trace().real) < 1e-9


def test_threshold_complement_is_psd():
    rng = np.random.default_rng(9)
    psi = random_state(rng, 2)
    fam = weight_family(psi, 4)
    for r in range(6):
        below, above = threshold_projectors(fam, r)
        assert min_eigenvalue(below) >= -1e-12
        assert min_eigenvalue(above) >= -1e-12
