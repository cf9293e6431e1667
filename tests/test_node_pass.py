"""The certifier's batched node pass against the dense per-node oracle.

`verify` keeps rho as a state vector and evaluates every quadrature node in
one batched pass. Here each per-node quantity, and then the whole report, is
rebuilt from dense operators one node at a time: `sandwich_bra_last`
conditions the dense rho, and `weight_family` / `threshold_projectors`
truncate it. The reference error estimate is the same as `verify`'s: the
nuclear-norm discrepancy against the rule DEGREE_ESCALATION degrees higher
for exact rules, the standard error of the per-node values for Monte Carlo.

The node pass splits into a threshold-independent half, which `verify`
keeps for the last (state, split, rule) it saw, and the per-r truncation.
The reuse across r is checked against `verify` on fresh copies of the inputs.
"""

import dataclasses
import math

import numpy as np
import pytest

from definetti import certifier
from definetti.certifier import (
    DEFAULT_FALLBACK_TOL,
    Instance,
    _node_pass,
    _rotate_sites,
    _standard_error,
    verify,
)
from definetti.haar import DEGREE_ESCALATION, exact_qubit_rule, monte_carlo_rule, standard_error
from definetti.hamming import threshold_projectors, weight_family
from definetti.linalg import Operator, partial_trace_last, sandwich_bra_last, trace_norm
from definetti.symmetric import random_symmetric_pure, sym_dim

# (d, n, k); every r in 0..n is checked for each
GRID = [(2, 1, 1), (2, 3, 2), (2, 2, 4), (2, 4, 4), (3, 2, 2)]
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
    rho = inst.rho.projector()
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
    reduced = partial_trace_last(inst.rho.projector(), inst.k)
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
            for j, term in enumerate(dense_terms(inst, rule, fallback_tol)):
                weight, kept, escaped, tau, fallback = term
                where = f"{rule.describe()} r={inst.r} node {j}"
                assert nodes.density[j] == pytest.approx(sym_dim(k, d) * weight, abs=TOL), where
                assert nodes.kept[j] == pytest.approx(kept, abs=TOL), where
                assert nodes.escaped[j] == pytest.approx(escaped, abs=TOL), where
                assert bool(nodes.fallback[j]) == fallback, where
                row = nodes.tau[:, j]
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


def batched_matmul_rotation(frames, rows, n):
    """Rotation oracle: row j mapped by frames[j] on each site, one (d, d) matmul per block."""
    count, d = frames.shape[:2]
    for site in range(n):
        rows = np.matmul(frames[:, None], rows.reshape(count, d**site, d, d ** (n - site - 1)))
    return rows.reshape(count, d**n)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, 7])
def test_rotate_sites_matches_batched_matmul(d, n, count):
    rng = np.random.default_rng(100 * d + 10 * n + count)
    frames = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    rows = rng.standard_normal((count, d**n)) + 1j * rng.standard_normal((count, d**n))
    expected = batched_matmul_rotation(frames, rows, n)
    got = _rotate_sites(np.ascontiguousarray(frames.transpose(1, 2, 0)), rows.T.copy(), n)
    np.testing.assert_allclose(got.T, expected, rtol=0, atol=1e-13 * np.abs(expected).max())


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
        (state.projector(), 2, 2, exact),  # each Operator instance gets its own vector
        (state.projector(), 2, 2, exact),
    ]

    def fresh_rho(rho):
        return rho if isinstance(rho, Operator) else fresh(rho)

    expected = [
        verify(Instance(d=2, n=n, k=k, r=1, rho=fresh_rho(rho)), fresh(rule))
        for rho, n, k, rule in calls
    ]
    for (rho, n, k, rule), want in zip(calls, expected):
        assert verify(Instance(d=2, n=n, k=k, r=1, rho=rho), rule) == want, (n, k, rule.describe())


def stacked_values(nodes):
    """The per-node values density_j |tau_j><tau_j| stacked on axis 0."""
    return np.einsum("j,aj,bj->jab", nodes.density, nodes.tau, nodes.tau.conj())


@pytest.mark.parametrize("block_nodes", [None, 7])
def test_blocked_standard_error_matches_full_stack(block_nodes, monkeypatch):
    inst = instances(3, 2, 2)[1]
    dim = inst.d**inst.n
    if block_nodes is not None:
        monkeypatch.setattr(certifier, "_BLOCK_ENTRIES", block_nodes * dim**2)
    nodes = _node_pass(inst, monte_carlo_rule(3, 30, seed=4).node_matrix, DEFAULT_FALLBACK_TOL)
    assert 30 % max(1, certifier._BLOCK_ENTRIES // dim**2) != 0
    assert _standard_error(nodes) == pytest.approx(standard_error(stacked_values(nodes)), rel=1e-12)
    single = _node_pass(inst, monte_carlo_rule(3, 1, seed=4).node_matrix, DEFAULT_FALLBACK_TOL)
    assert _standard_error(single) == 0.0
