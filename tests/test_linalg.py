import numpy as np
import pytest

from definetti.linalg import (
    DimensionError,
    Operator,
    PureState,
    partial_trace_last,
    sandwich_bra_last,
    trace_norm,
)
from oracles import min_eigenvalue, random_state, tensor


def random_psd(rng, d, m, unit_trace=False):
    side = d**m
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    mat = g @ g.conj().T
    if unit_trace:
        mat = mat / np.trace(mat).real
    return Operator(d, m, mat)


def bell_state():
    return PureState(2, 2, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_pure_state_validation():
    PureState(2, 1, [1, 0])
    with pytest.raises(ValueError):
        PureState(2, 1, [1, 1])  # not normalized
    with pytest.raises(DimensionError):
        PureState(2, 2, [1, 0])  # wrong length
    with pytest.raises(ValueError):
        PureState(1, 1, [1])
    with pytest.raises(ValueError):
        PureState(2, 0, [1])
    with pytest.raises(ValueError):
        PureState.normalized(2, 1, [0, 0])


def test_pure_state_norm_check_holds_at_large_length():
    # C(22, 11) equal amplitudes on 22 qubits, the size of a d=2 n+k=22 Dicke state;
    # BLAS nrm2 reads its norm as 1 - 1.1e-12, outside NORM_ATOL
    count = 705432
    amps = np.zeros(2**22)
    amps[:count] = 1 / np.sqrt(count)
    PureState(2, 22, amps)
    with pytest.raises(ValueError):
        PureState(2, 22, amps * (1 + 2e-12))


def test_pure_state_is_immutable():
    psi = PureState(2, 1, [1, 0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_operator_validation():
    Operator(2, 1, np.eye(2))
    Operator(2, 0, [[2.0]])  # zero sites allowed
    with pytest.raises(DimensionError):
        Operator(2, 2, np.eye(2))
    with pytest.raises(DimensionError):
        Operator(2, 1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Operator(2, -1, np.eye(1))


def test_operator_predicates():
    herm = Operator(2, 1, [[1, 1j], [-1j, 1]])
    assert herm.is_hermitian()
    assert herm.is_psd()
    assert not herm.is_trace_one()
    assert Operator(2, 1, [[0.5, 0], [0, 0.5]]).is_trace_one()
    assert not Operator(2, 1, [[0, 1], [0, 0]]).is_hermitian()
    assert not Operator(2, 1, [[1, 0], [0, -1]]).is_psd()


def test_operator_arithmetic():
    a = Operator(2, 1, [[1, 0], [0, 2]])
    b = Operator(2, 1, [[0, 1], [1, 0]])
    np.testing.assert_allclose((a + b).entries, [[1, 1], [1, 2]])
    np.testing.assert_allclose((a - b).entries, [[1, -1], [-1, 2]])
    np.testing.assert_allclose((2 * a).entries, [[2, 0], [0, 4]])
    np.testing.assert_allclose((a @ b).entries, [[0, 1], [2, 0]])
    with pytest.raises(DimensionError):
        a + Operator(2, 2, np.eye(4))


def test_tensor_diagonal():
    a = Operator(2, 1, np.diag([1.0, 2.0]))
    b = Operator(2, 1, np.diag([3.0, 4.0]))
    np.testing.assert_allclose(tensor(a, b).entries, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_tensor_identity_and_ordering():
    eye = Operator(2, 1, np.eye(2))
    x = Operator(2, 1, [[0, 1], [1, 0]])
    left = tensor(x, eye)
    # site 1 is most significant: X on site 1 swaps the two 2x2 blocks
    expect = np.zeros((4, 4))
    expect[0, 2] = expect[1, 3] = expect[2, 0] = expect[3, 1] = 1
    np.testing.assert_allclose(left.entries, expect)
    assert left.sites == 2


def test_tensor_site_dim_mismatch():
    with pytest.raises(DimensionError):
        tensor(Operator(2, 1, np.eye(2)), Operator(3, 1, np.eye(3)))


def test_partial_trace_bell():
    rho = bell_state().projector()
    reduced = partial_trace_last(rho, 1)
    np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_ghz3():
    ghz = PureState(2, 3, np.array([1, 0, 0, 0, 0, 0, 0, 1]) / np.sqrt(2))
    reduced = partial_trace_last(ghz.projector(), 1)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    np.testing.assert_allclose(reduced.entries, expect, atol=1e-14)


def test_partial_trace_product_factorizes():
    rng = np.random.default_rng(11)
    a = random_psd(rng, 2, 1, unit_trace=True)
    b = random_psd(rng, 2, 2, unit_trace=True)
    reduced = partial_trace_last(tensor(a, b), 2)
    np.testing.assert_allclose(reduced.entries, a.entries, atol=1e-12)


def test_partial_trace_edges_and_errors():
    rho = bell_state().projector()
    assert partial_trace_last(rho, 0) is rho
    assert partial_trace_last(rho, 2).sites == 0
    np.testing.assert_allclose(partial_trace_last(rho, 2).entries, [[1.0]], atol=1e-14)
    with pytest.raises(DimensionError):
        partial_trace_last(rho, 3)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    for m, k in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        rho = random_psd(rng, 2, m)
        reduced = partial_trace_last(rho, k)
        assert abs(reduced.trace() - rho.trace()) < 1e-12 * abs(rho.trace())


def test_trace_norm_values():
    assert trace_norm(Operator(2, 1, np.diag([1.0, -1.0]))) == pytest.approx(2.0)
    assert trace_norm(Operator(2, 1, np.zeros((2, 2)))) == 0.0
    zero = PureState(2, 1, [1, 0]).projector()
    plus = PureState(2, 1, np.array([1, 1]) / np.sqrt(2)).projector()
    assert trace_norm(zero - plus) == pytest.approx(np.sqrt(2), abs=1e-12)


def test_trace_norm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        trace_norm(Operator(2, 1, [[0, 1], [0, 0]]))


def test_trace_norm_triangle_inequality():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = random_psd(rng, 2, 2)
        b = random_psd(rng, 2, 2)
        diff = a - b
        assert trace_norm(diff) <= trace_norm(a) + trace_norm(b) + 1e-10
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_min_eigenvalue():
    assert min_eigenvalue(Operator(2, 1, np.eye(2))) == pytest.approx(1.0)
    assert min_eigenvalue(Operator(2, 1, np.diag([2.0, -0.5]))) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        min_eigenvalue(Operator(2, 1, [[0, 1], [0, 0]]))


def test_sandwich_bell_example():
    rho = bell_state().projector()
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = random_state(rng, 2, 1)
        out = sandwich_bra_last(rho, psi, 1)
        v = psi.amplitudes.conj() / np.sqrt(2)
        np.testing.assert_allclose(out.entries, np.outer(v, v.conj()), atol=1e-13)


def test_sandwich_full_contraction_gives_expectation():
    rng = np.random.default_rng(7)
    rho = random_psd(rng, 2, 2, unit_trace=True)
    psi = random_state(rng, 2, 1)
    out = sandwich_bra_last(rho, psi, 2)
    phi = np.kron(psi.amplitudes, psi.amplitudes)
    expect = phi.conj() @ rho.entries @ phi
    assert out.sites == 0
    np.testing.assert_allclose(out.entries[0, 0], expect, atol=1e-13)


def test_sandwich_preserves_psd_and_shrinks_trace():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(2, 4))
        k = int(rng.integers(1, m))
        rho = random_psd(rng, 2, m, unit_trace=True)
        psi = random_state(rng, 2, 1)
        out = sandwich_bra_last(rho, psi, k)
        assert out.sites == m - k
        assert min_eigenvalue(out) >= -1e-10
        assert out.trace().real <= rho.trace().real + 1e-10


def test_sandwich_errors():
    rho = bell_state().projector()
    with pytest.raises(DimensionError):
        sandwich_bra_last(rho, PureState(3, 1, [1, 0, 0]), 1)
    with pytest.raises(DimensionError):
        sandwich_bra_last(rho, bell_state(), 1)  # two-site psi
    with pytest.raises(DimensionError):
        sandwich_bra_last(rho, PureState(2, 1, [1, 0]), 3)


def test_tensor_power_and_overlap():
    psi = PureState(2, 1, [0, 1])
    cubed = psi.tensor_power(3)
    assert cubed.sites == 3
    expect = np.zeros(8)
    expect[7] = 1
    np.testing.assert_allclose(cubed.amplitudes, expect)
    assert psi.overlap(PureState(2, 1, [1, 0])) == 0
    assert abs(psi.overlap(psi) - 1) < 1e-14
