"""The certifier's batched node pass against the dense per-node oracle.

`verify` keeps rho as Dicke coefficients and evaluates every quadrature node
in one batched pass on vectors of length sym_dim(n, d). Here each per-node
quantity, mapped into the d^n space through the Dicke isometry, and then the
whole report, is rebuilt from dense operators one node at a time:
`sandwich_bra_last` conditions the dense rho, and `weight_family` /
`threshold_projectors` truncate it. The reference error estimate is the same
as `verify`'s: the nuclear-norm discrepancy against the rule
DEGREE_ESCALATION degrees higher for exact rules, the standard error of the
per-node values for Monte Carlo.

The frame kernel (a phase and d-1 real rotations, applied in type
coordinates) is checked against dense d x d frames applied site by site to
d^n vectors, and its truncation against the same truncation in the frame
of a Householder reflection per node.

The node pass splits into a threshold-independent half, which `verify`
keeps for the last (state, split, rule) it saw, and the per-r truncation.
The reuse across r is checked against `verify` on fresh copies of the inputs.
"""

import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from definetti import certifier
from definetti.certifier import (
    DEFAULT_FALLBACK_TOL,
    Instance,
    _condition,
    _Conditioned,
    _coupling,
    _givens_angles,
    _node_pass,
    _rotate,
    _rotation_phases,
    _standard_error,
    _truncate,
    verify,
)
from definetti.haar import DEGREE_ESCALATION, exact_qubit_rule, monte_carlo_rule, standard_error
from definetti.hamming import threshold_projectors, weight_family
from definetti.linalg import (
    Operator,
    partial_trace_last,
    power_rows,
    sandwich_bra_last,
    trace_norm,
)
from definetti.symmetric import (
    SymmetricState,
    dicke_isometry,
    random_symmetric_pure,
    sym_dim,
    type_table,
)

# (d, n, k); every r in 0..n is checked for each
GRID = [(2, 1, 1), (2, 3, 2), (2, 2, 4), (2, 4, 4), (3, 2, 2), (3, 1, 2), (3, 3, 3), (4, 1, 1)]
TOL = 1e-12


def rules(d, n, k):
    out = [monte_carlo_rule(d, 30, seed=10 * n + k)]
    if d == 2:
        out.append(exact_qubit_rule(n + k))
    return out


def instances(d, n, k):
    state = random_symmetric_pure(n + k, d, seed=100 * d + 10 * n + k)
    return [Instance(d=d, n=n, k=k, r=r, rho=state) for r in range(n + 1)]


def dense_terms(inst, rule, fallback_tol):
    """Per node: (trace(rho_psi), kept mass, escaped mass, tau_psi, fallback)."""
    rho = inst.rho.pure().projector()
    terms = []
    for node in rule.nodes:
        conditioned = sandwich_bra_last(rho, node, inst.k)
        below, above = threshold_projectors(weight_family(node, inst.n), inst.r)
        sigma = below @ conditioned @ below
        kept = sigma.trace().real
        escaped = np.einsum("ij,ji->", above.entries, conditioned.entries).real
        fallback = kept <= fallback_tol
        tau = node.tensor_power(inst.n).projector() if fallback else (1.0 / kept) * sigma
        terms.append((conditioned.trace().real, kept, escaped, tau, fallback))
    return terms


def dense_approximant(inst, rule, terms):
    """Per-node integrand values sym_dim(k,d) trace(rho_psi) tau_psi and their average."""
    scale = sym_dim(inst.k, inst.d)
    values = np.stack([scale * weight * tau.entries for weight, _, _, tau, _ in terms])
    return values, np.tensordot(rule.weights, values, axes=1)


def dense_report(inst, rule, fallback_tol):
    """(lhs, lhs_err, chain_bound, fallback count) of `verify`, from dense operators."""
    terms = dense_terms(inst, rule, fallback_tol)
    values, approx = dense_approximant(inst, rule, terms)
    reduced = partial_trace_last(inst.rho.pure().projector(), inst.k)
    lhs = trace_norm(reduced - Operator(inst.d, inst.n, approx))
    if rule.kind == "exact":
        escalated = exact_qubit_rule(rule.exact_degree + DEGREE_ESCALATION)
        _, again = dense_approximant(inst, escalated, dense_terms(inst, escalated, fallback_tol))
        err = float(np.linalg.svd(approx - again, compute_uv=False).sum())
    else:
        err = standard_error(values)
    escaped = float(rule.weights @ np.array([term[2] for term in terms]))
    chain = 3.0 * sym_dim(inst.k, inst.d) * math.sqrt(escaped)
    return lhs, err, chain, sum(term[4] for term in terms)


# 0.0 pins the boundary: a kept mass equal to fallback_tol (0 at r = 0) falls back
@pytest.mark.parametrize("fallback_tol", [DEFAULT_FALLBACK_TOL, 0.0, 1.0])
@pytest.mark.parametrize("d,n,k", GRID)
def test_node_pass_matches_dense_oracle(d, n, k, fallback_tol):
    for rule in rules(d, n, k):
        for inst in instances(d, n, k):
            nodes = _node_pass(inst, rule.node_matrix, fallback_tol)
            taus = dicke_isometry(n, d).matrix @ nodes.tau
            for j, term in enumerate(dense_terms(inst, rule, fallback_tol)):
                weight, kept, escaped, tau, fallback = term
                where = f"{rule.describe()} r={inst.r} node {j}"
                assert nodes.density[j] == pytest.approx(sym_dim(k, d) * weight, abs=TOL), where
                assert nodes.kept[j] == pytest.approx(kept, abs=TOL), where
                assert nodes.escaped[j] == pytest.approx(escaped, abs=TOL), where
                assert bool(nodes.fallback[j]) == fallback, where
                row = taus[:, j]
                np.testing.assert_allclose(
                    np.outer(row, row.conj()), tau.entries, rtol=0, atol=TOL, err_msg=where
                )
            if fallback_tol == 1.0:
                assert nodes.fallback.all()


@pytest.mark.parametrize("fallback_tol", [DEFAULT_FALLBACK_TOL, 1.0])
@pytest.mark.parametrize("d,n,k", GRID)
def test_verify_matches_dense_reference(d, n, k, fallback_tol):
    for rule in rules(d, n, k):
        for inst in instances(d, n, k):
            report = verify(inst, rule, fallback_tol=fallback_tol)
            lhs, err, chain, fallback = dense_report(inst, rule, fallback_tol)
            where = f"{rule.describe()} r={inst.r}"
            assert report.lhs == pytest.approx(lhs, abs=TOL), where
            assert report.lhs_integration_error == pytest.approx(err, abs=TOL), where
            assert report.chain_bound == pytest.approx(chain, abs=TOL), where
            assert report.fallback_node_count == fallback, where


def householder_frames(nodes):
    """(d, d, count): a Householder reflection H per node, H psi along e_0 and H = H^-1."""
    v = np.array(nodes, dtype=np.complex128)
    v[:, 0] += np.exp(1j * np.angle(nodes[:, 0]))
    scale = 2 / np.sum(np.abs(v) ** 2, axis=1)
    return np.eye(nodes.shape[1])[:, :, None] - scale * v.T[:, None, :] * v.T.conj()[None, :, :]


def rotate_sites(frames, columns, n):
    """Column j of d^n columns mapped by frames[:, :, j] on each of its n sites."""
    d, count = frames.shape[1:]
    for site in range(n):
        before = columns.reshape(d**site, d, -1, count)
        columns = np.empty_like(before)
        for a in range(d):
            np.multiply(frames[a, 0], before[:, 0], out=columns[:, a])
            for b in range(1, d):
                columns[:, a] += frames[a, b] * before[:, b]
    return columns.reshape(d**n, count)


def givens_frames(nodes):
    """(d, d, count): the dense frame U = R_1 ... R_{d-1} D of each node.

    D = diag(exp(-i arg psi)) and R_j = exp(theta_j (|j-1><j| - |j><j-1|)).
    """
    count, d = nodes.shape
    angles = _givens_angles(nodes)
    frames = np.empty((d, d, count), dtype=np.complex128)
    for j, psi in enumerate(nodes):
        frame = np.diag(np.exp(-1j * np.angle(psi)))
        for level in range(d - 1, 0, -1):
            rotation = np.eye(d)
            cos, sin = math.cos(angles[level - 1, j]), math.sin(angles[level - 1, j])
            rotation[level - 1 : level + 1, level - 1 : level + 1] = [[cos, sin], [-sin, cos]]
            frame = rotation @ frame
        frames[:, :, j] = frame
    return frames


def site_phases(n, nodes):
    """D^(x)n per node in Dicke coordinates: prod_i exp(-i arg psi_i)^t_i."""
    return np.exp(-1j * (type_table(n, nodes.shape[1])[0] @ np.angle(nodes).T))


def deviation_weights(n, d):
    """Number of nonzero digits of each basis string of n sites."""
    return (np.array(list(itertools.product(range(d), repeat=n))).reshape(d**n, n) != 0).sum(axis=1)


# named after `rotate_sites` and the batched matmul it was first checked against
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, 7])
def test_rotate_sites_matches_batched_matmul(d, n, count):
    rng = np.random.default_rng(100 * d + 10 * n + count)
    nodes = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    if count > 1:
        nodes[1, 0] = 0  # no weight on level 0
        nodes[-1] = np.eye(d)[-1]  # the last level alone
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    dim = sym_dim(n, d)
    columns = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    iso = dicke_isometry(n, d).matrix
    tol = 1e-13 * np.abs(columns).max()

    frames = givens_frames(nodes)
    frame_of_node = np.einsum("abj,jb->aj", frames, nodes)
    np.testing.assert_allclose(frame_of_node, np.eye(d)[:, [0] * count], rtol=0, atol=1e-15)
    turns, phases = _rotation_phases(n, d, _givens_angles(nodes)), site_phases(n, nodes)
    forward = _rotate(n, d, turns, phases * columns)
    dense = rotate_sites(frames, iso @ columns, n)
    np.testing.assert_allclose(iso @ forward, dense, rtol=0, atol=tol)
    back = phases.conj() * _rotate(n, d, turns, forward, inverse=True)
    np.testing.assert_allclose(back, columns, rtol=0, atol=tol)

    householder = householder_frames(nodes)
    reflected = rotate_sites(householder, iso @ columns, n)
    weight = deviation_weights(n, d)
    cond = _Conditioned(np.ones(count), turns, phases, forward)
    for r in range(n + 1):
        below = weight < r
        kept = np.sum(np.abs(reflected[below]) ** 2, axis=0)
        escaped = np.sum(np.abs(reflected[~below]) ** 2, axis=0)
        got = _truncate(SimpleNamespace(d=d, n=n, r=r), cond, 0.0)
        np.testing.assert_allclose(got.kept, kept, rtol=1e-13, atol=tol**2)
        np.testing.assert_allclose(got.escaped, escaped, rtol=1e-13, atol=tol**2)
        assert got.fallback.tolist() == (kept <= 0).tolist()
        if r == 0:
            expected = power_rows(nodes, n).T
        else:
            expected = rotate_sites(householder, reflected * below[:, None], n) / np.sqrt(kept)
        np.testing.assert_allclose(iso @ got.tau, expected, rtol=0, atol=1e-13, err_msg=f"r={r}")


@pytest.mark.parametrize("d,n", [(2, 1), (2, 20), (2, 80), (2, 200), (3, 2), (3, 12), (3, 30)])
def test_frame_power_is_unitary_and_maps_psi_power_to_last_type(d, n):
    rng = np.random.default_rng(1000 * d + n)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    types, mult = type_table(n, d)
    nodes = np.repeat(psi[None, :], len(mult), axis=0)
    # column c is the frame's symmetric power applied to Dicke basis vector c
    turns = _rotation_phases(n, d, _givens_angles(nodes))
    frame = _rotate(n, d, turns, site_phases(n, nodes) * np.eye(len(mult)))
    np.testing.assert_allclose(frame.conj().T @ frame, np.eye(len(mult)), rtol=0, atol=1e-13)
    power = np.sqrt(mult) * np.prod(psi**types, axis=1)  # psi^(x)n in Dicke coordinates
    np.testing.assert_allclose(frame @ power, np.eye(len(mult))[-1], rtol=0, atol=1e-13)


def test_pass_at_forty_sites_reads_only_dicke_coefficients():
    # 2^80 amplitudes cannot be held, so the pass must work from the sym_dim(80, 2) coefficients
    rng = np.random.default_rng(40)
    coefficients = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    coefficients /= np.linalg.norm(coefficients)
    rule = exact_qubit_rule(80)
    inst = Instance(d=2, n=40, k=40, r=0, rho=SymmetricState(2, 80, coefficients))
    cond = _condition(inst, _coupling(inst), rule.node_matrix)
    assert float(rule.weights @ cond.density) == pytest.approx(1.0, abs=1e-12)
    for r in (0, 1, 20, 40):
        nodes = _truncate(SimpleNamespace(d=2, n=40, r=r), cond, DEFAULT_FALLBACK_TOL)
        np.testing.assert_allclose(
            nodes.kept + nodes.escaped, cond.density / sym_dim(40, 2), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(np.linalg.norm(nodes.tau, axis=0), 1.0, rtol=0, atol=1e-12)
        assert nodes.fallback.all() == (r == 0)


def fresh(obj):
    """A new object equal to `obj`; its arrays are copied by validation."""
    return dataclasses.replace(obj)


@pytest.mark.parametrize("d,n,k", [(2, 4, 3), (3, 2, 2)])
def test_sweep_reuse_matches_fresh_inputs(d, n, k, monkeypatch):
    state = random_symmetric_pure(n + k, d, seed=5)
    prepares = []
    prepare = certifier._prepare

    def counting_prepare(*args):
        prepares.append(args)
        return prepare(*args)

    monkeypatch.setattr(certifier, "_prepare", counting_prepare)
    for rule in rules(d, n, k):
        expected = [
            verify(Instance(d=d, n=n, k=k, r=r, rho=fresh(state)), fresh(rule))
            for r in range(n + 1)
        ]
        prepares.clear()
        for r in range(n + 1):
            report = verify(Instance(d=d, n=n, k=k, r=r, rho=state), rule)
            assert report == expected[r], f"{rule.describe()} r={r}"
        assert len(prepares) == 1, rule.describe()


def test_reuse_misses_on_new_split_state_or_rule():
    state = random_symmetric_pure(4, 2, seed=1)
    other = random_symmetric_pure(4, 2, seed=2)
    exact, mc = exact_qubit_rule(4), monte_carlo_rule(2, 40, seed=3)
    calls = [
        (state, 3, 1, exact),
        (state, 2, 2, exact),  # same state object, another split
        (other, 2, 2, exact),
        (state, 2, 2, exact),
        (state, 2, 2, mc),
        (other, 2, 2, mc),
        (state, 2, 2, exact),
        (SymmetricState.from_dense(state.pure().projector()), 2, 2, exact),  # a new object
        (SymmetricState.from_dense(state.pure().projector()), 2, 2, exact),
    ]
    expected = [
        verify(Instance(d=2, n=n, k=k, r=1, rho=fresh(rho)), fresh(rule))
        for rho, n, k, rule in calls
    ]
    for (rho, n, k, rule), want in zip(calls, expected):
        assert verify(Instance(d=2, n=n, k=k, r=1, rho=rho), rule) == want, (n, k, rule.describe())


def stacked_values(inst, nodes):
    """The per-node values density_j |tau_j><tau_j| on the d^n space, stacked on axis 0."""
    taus = dicke_isometry(inst.n, inst.d).matrix @ nodes.tau
    return np.einsum("j,aj,bj->jab", nodes.density, taus, taus.conj())


@pytest.mark.parametrize("block_nodes", [None, 7])
def test_blocked_standard_error_matches_full_stack(block_nodes, monkeypatch):
    inst = instances(3, 2, 2)[1]
    dim = sym_dim(inst.n, inst.d)
    if block_nodes is not None:
        monkeypatch.setattr(certifier, "_BLOCK_ENTRIES", block_nodes * dim**2)
    nodes = _node_pass(inst, monte_carlo_rule(3, 30, seed=4).node_matrix, DEFAULT_FALLBACK_TOL)
    assert 30 % max(1, certifier._BLOCK_ENTRIES // dim**2) != 0
    expected = standard_error(stacked_values(inst, nodes))
    assert _standard_error(inst, nodes) == pytest.approx(expected, rel=1e-12)
    single = _node_pass(inst, monte_carlo_rule(3, 1, seed=4).node_matrix, DEFAULT_FALLBACK_TOL)
    assert _standard_error(inst, single) == 0.0
