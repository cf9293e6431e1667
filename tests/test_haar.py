from decimal import Decimal, localcontext

import numpy as np
import pytest

from definetti.haar import (
    QuadratureRule,
    _gauss_legendre,
    exact_qubit_rule,
    integrate,
    integration_error_estimate,
    monte_carlo_rule,
)
from definetti.linalg import Operator, PureState, kron_power
from definetti.symmetric import sym_dim, symmetrizer
from oracles import dicke_isometry, pure_power_moment, random_state


def tensor_power_projector(node, s):
    v = kron_power(node.amplitudes, s)
    return Operator(node.site_dim, s, np.outer(v, v.conj()))


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(d=2, node_matrix=np.eye(2), weights=[0.5, 0.6], kind="exact")
    with pytest.raises(ValueError):
        QuadratureRule(d=2, node_matrix=np.eye(2), weights=[1.5, -0.5], kind="exact")
    with pytest.raises(ValueError):
        QuadratureRule(d=2, node_matrix=2 * np.eye(2), weights=[0.5, 0.5], kind="exact")
    with pytest.raises(ValueError):
        QuadratureRule(d=2, node_matrix=np.eye(2), weights=[0.5, 0.5], kind="bogus")


def test_exact_rule_basic_shape():
    rule = exact_qubit_rule(3)
    assert rule.node_count == 4 * 8
    assert rule.weights.min() >= 0
    assert abs(rule.weights.sum() - 1) < 1e-14
    assert rule.kind == "exact"
    assert rule.exact_degree == 3
    with pytest.raises(ValueError):
        exact_qubit_rule(-1)


def loop_qubit_rule(t):
    """exact_qubit_rule's nodes and weights built one (polar, azimuth) pair at a time."""
    u, gauss_w = _gauss_legendre(t + 1)
    n_phi = 2 * t + 2
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    upper = np.sqrt((1 + u) / 2)
    lower = np.sqrt((1 - u) / 2)
    nodes = np.empty(((t + 1) * n_phi, 2), dtype=np.complex128)
    weights = np.empty((t + 1) * n_phi)
    pos = 0
    for i in range(t + 1):
        for j in range(n_phi):
            nodes[pos, 0] = upper[i]
            nodes[pos, 1] = np.exp(1j * phi[j]) * lower[i]
            weights[pos] = gauss_w[i] / 2 / n_phi
            pos += 1
    return nodes, weights


@pytest.mark.parametrize("t", range(25))
def test_exact_rule_matches_loop_oracle(t):
    rule = exact_qubit_rule(t)
    nodes, weights = loop_qubit_rule(t)
    assert rule.node_matrix.tobytes() == nodes.tobytes()
    assert rule.weights.tobytes() == weights.tobytes()


def legendre_reference(points):
    """Gauss-Legendre nodes and weights in 40-digit decimals: Newton steps on P_points."""

    def legendre_pair(x):
        # (P_{points-1}(x), P_points(x)) by the three-term recurrence
        low, high = Decimal(1), x
        for j in range(1, points):
            low, high = high, ((2 * j + 1) * x * high - j * low) / (j + 1)
        return (Decimal(1), x) if points == 1 else (low, high)

    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for guess in _gauss_legendre(points)[0]:
            x = Decimal(float(guess))
            for _ in range(6):
                low, high = legendre_pair(x)
                x -= high / (points * (x * high - low) / (x * x - 1))
            low, high = legendre_pair(x)
            slope = points * (x * high - low) / (x * x - 1)
            out.append((x, 2 / ((1 - x * x) * slope * slope)))
    return out


@pytest.mark.parametrize("t", range(41))
def test_gauss_legendre_matches_leggauss_and_a_40_digit_reference(t):
    u, w = _gauss_legendre(t + 1)
    ref_u, ref_w = np.polynomial.legendre.leggauss(t + 1)
    np.testing.assert_allclose(u, ref_u, rtol=0, atol=1e-15)
    # leggauss's smallest weights drift up to 1.2e-12 relative from the true ones at t = 40,
    # so against it the weights are compared relative to the largest weight
    np.testing.assert_allclose(w, ref_w, rtol=0, atol=1e-13 * ref_w.max())
    for node, weight, (x, exact) in zip(u, w, legendre_reference(t + 1)):
        assert abs(Decimal(float(node)) - x) <= Decimal("1e-15")
        assert abs(Decimal(float(weight)) - exact) <= Decimal("1e-13") * exact


@pytest.mark.parametrize("t", [*range(25), 80, 160, 200])
def test_gauss_legendre_integrates_even_monomials(t):
    # sum_i w_i u_i^j / 2 = integral of u^j over [-1, 1] / 2 = 1/(j+1) for even j <= 2t+1
    u, w = _gauss_legendre(t + 1)
    for j in range(0, 2 * t + 2, 2):
        assert abs(float(w @ u**j) / 2 - 1 / (j + 1)) <= 1e-13, j


def test_exact_rule_first_moment():
    rule = exact_qubit_rule(1)
    moment = integrate(rule, lambda node: node.projector())
    np.testing.assert_allclose(moment.entries, np.eye(2) / 2, atol=1e-14)


def test_exact_rule_reproduces_symmetric_projector():
    # degree-t rule integrates |theta><theta|^(x)s to the symmetric projector
    # over sym_dim for every s <= t
    for t in range(1, 7):
        rule = exact_qubit_rule(t)
        for s in range(1, t + 1):
            moment = integrate(rule, lambda node: tensor_power_projector(node, s))
            expect = symmetrizer(s, 2).entries / sym_dim(s, 2)
            err = np.abs(moment.entries - expect).max()
            assert err < 1e-11, f"t={t} s={s}: {err:.2e}"


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_exact_rule_is_exact_through_degree_2t_plus_1(t):
    # t+1 Gauss-Legendre points cover polar degree 2t+1 and 2t+2 azimuths cover
    # frequencies up to 2t+1, so the degree-t rule is exact one degree past 2t
    rule = exact_qubit_rule(t)
    for s, exact in ((2 * t + 1, True), (2 * t + 2, False)):
        moment = sym_dim(s, 2) * pure_power_moment(rule, s).entries
        err = np.abs(moment - symmetrizer(s, 2).entries).max()
        assert (err <= 1e-14) if exact else (err > 1e-3), f"t={t} s={s}: {err:.2e}"


def test_exact_rule_large_degrees_full_space():
    for s, t in [(7, 7), (8, 8), (10, 10), (9, 12)]:
        moment = pure_power_moment(exact_qubit_rule(t), s)
        expect = symmetrizer(s, 2).entries / sym_dim(s, 2)
        err = np.abs(moment.entries - expect).max()
        assert err < 1e-11, f"t={t} s={s}: {err:.2e}"


def test_exact_rule_degree_twelve_top_power():
    # s = t = 12 at full size (4096^2) is checked through the Dicke basis to
    # stay within desk memory: with t_j the node tensor power, a_j = V^dag t_j
    # and e_j = t_j - V a_j, the max entry of (sum_j w_j t_j t_j^dag - P/c)
    # is at most ||sum_j w_j a_j a_j^dag - I/c||_2 + 2 max||e_j|| + max||e_j||^2.
    s = t = 12
    rule = exact_qubit_rule(t)
    v = dicke_isometry(s, 2)
    dim = sym_dim(s, 2)
    gram = np.zeros((dim, dim), dtype=np.complex128)
    residual = 0.0
    for j in range(rule.node_count):
        t_j = kron_power(rule.node_matrix[j], s)
        a_j = v.conj().T @ t_j
        residual = max(residual, float(np.linalg.norm(t_j - v @ a_j)))
        gram += rule.weights[j] * np.outer(a_j, a_j.conj())
    coeff_err = float(np.linalg.norm(gram - np.eye(dim) / dim, 2))
    assert coeff_err + 2 * residual + residual**2 < 1e-11


def test_exact_rule_scalar_moments():
    # int |<0|theta>|^(2k) = 1/(k+1) for qubits
    zero = PureState(2, 1, [1, 0])
    rule = exact_qubit_rule(4)
    value = integrate(rule, lambda node: abs(zero.overlap(node)) ** 8)
    assert value == pytest.approx(1 / 5, abs=1e-13)
    value = integrate(rule, lambda node: abs(zero.overlap(node)) ** 2)
    assert value == pytest.approx(1 / 2, abs=1e-13)


def test_monte_carlo_rule_shape_and_determinism():
    rule = monte_carlo_rule(3, 500, seed=42)
    assert rule.node_count == 500
    assert abs(rule.weights.sum() - 1) < 1e-14
    np.testing.assert_allclose(np.linalg.norm(rule.node_matrix, axis=1), 1.0, atol=1e-12)
    again = monte_carlo_rule(3, 500, seed=42)
    np.testing.assert_array_equal(rule.node_matrix, again.node_matrix)
    other = monte_carlo_rule(3, 500, seed=43)
    assert np.abs(rule.node_matrix - other.node_matrix).max() > 1e-3
    with pytest.raises(ValueError):
        monte_carlo_rule(1, 10)
    with pytest.raises(ValueError):
        monte_carlo_rule(2, 0)


def test_monte_carlo_convergence_rate():
    # per-entry std of |theta><theta| entries is below 0.45 for qubits, so
    # the max entrywise error of the first moment should sit inside 3 sigma
    # bands that shrink like 1/sqrt(samples)
    errors = {}
    for samples in (1000, 100000):
        rule = monte_carlo_rule(2, samples, seed=5)
        moment = pure_power_moment(rule, 1)
        errors[samples] = np.abs(moment.entries - np.eye(2) / 2).max()
        assert errors[samples] < 3 * 0.45 / np.sqrt(samples)
    assert errors[100000] < errors[1000]


def test_monte_carlo_higher_dimensions():
    rule = monte_carlo_rule(4, 20000, seed=11)
    moment = pure_power_moment(rule, 1)
    assert np.abs(moment.entries - np.eye(4) / 4).max() < 0.01


def test_integrate_constant_and_fixed_order():
    rule = monte_carlo_rule(2, 100, seed=1)
    assert integrate(rule, lambda node: 1.0) == pytest.approx(1.0, abs=1e-14)
    first = integrate(rule, lambda node: abs(node.amplitudes[0]) ** 2)
    second = integrate(rule, lambda node: abs(node.amplitudes[0]) ** 2)
    assert first == second  # bitwise, fixed accumulation order


def test_integrate_rejects_mixed_spaces():
    rule = exact_qubit_rule(1)
    counter = {"i": 0}

    def bad(node):
        counter["i"] += 1
        return Operator.identity(2, 1 if counter["i"] == 1 else 2)

    with pytest.raises(ValueError):
        integrate(rule, bad)


def test_pure_power_moment_matches_integrate():
    rule = monte_carlo_rule(2, 50, seed=3)
    via_loop = integrate(rule, lambda node: tensor_power_projector(node, 2))
    via_gram = pure_power_moment(rule, 2)
    np.testing.assert_allclose(via_gram.entries, via_loop.entries, atol=1e-13)
    with pytest.raises(ValueError):
        pure_power_moment(rule, 0)


def test_error_estimate_exact_polynomial_is_zero():
    rule = exact_qubit_rule(4)
    zero = PureState(2, 1, [1, 0])
    est = integration_error_estimate(rule, lambda node: abs(zero.overlap(node)) ** 4)
    assert est <= 1e-12
    est = integration_error_estimate(exact_qubit_rule(2), lambda node: node.projector())
    assert est <= 1e-12


def test_error_estimate_exact_non_polynomial():
    # |theta_0| is not a polynomial in the projector entries; the degree
    # escalation discrepancy should track the actual rule error
    rule = exact_qubit_rule(2)
    f = lambda node: abs(node.amplitudes[0])
    est = integration_error_estimate(rule, f)
    actual = abs(integrate(rule, f) - 2 / 3)  # int_0^1 sqrt(x) dx
    assert est > 1e-8
    assert 0.3 * actual <= est <= 3 * actual


def test_error_estimate_monte_carlo():
    rule = monte_carlo_rule(2, 10000, seed=7)
    assert integration_error_estimate(rule, lambda node: 0.25) == 0.0
    est = integration_error_estimate(rule, lambda node: abs(node.amplitudes[0]) ** 2)
    expect = np.sqrt(1 / 12 / 10000)  # overlap is uniform on [0, 1]
    assert 0.8 * expect < est < 1.2 * expect
    single = monte_carlo_rule(2, 1, seed=0)
    assert integration_error_estimate(single, lambda node: abs(node.amplitudes[0])) == 0.0


def test_error_estimate_monte_carlo_operator_valued():
    rule = monte_carlo_rule(2, 5000, seed=9)
    est = integration_error_estimate(rule, lambda node: node.projector())
    # diagonal entries are uniform on [0, 1]: entrywise std sqrt(1/12)
    expect = np.sqrt(1 / 12 / 5000)
    assert 0.7 * expect < est < 1.5 * expect


def test_haar_state_reproducibility():
    a = random_state(np.random.default_rng(4), 3)
    b = random_state(np.random.default_rng(4), 3)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert a.sites == 1 and a.site_dim == 3


def test_describe():
    assert "degree=3" in exact_qubit_rule(3).describe()
    assert "samples=10" in monte_carlo_rule(2, 10, seed=5).describe()
