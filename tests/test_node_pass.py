"""The certifier's batched node pass against the dense per-node oracle.

`verify` keeps rho as Dicke coefficients and evaluates every quadrature node
in one batched pass on vectors of length sym_dim(n, d). Here each per-node
quantity, mapped into the d^n space through the Dicke isometry, and then the
whole report, is rebuilt from dense operators one node at a time:
`sandwich_bra_last` conditions the dense rho, and `weight_family` /
`threshold_projectors` truncate it. The reference `lhs_err` is the rule's
post-selection defect delta = ||Tr_k rho - sym_dim(k,d) sum_j w_j rho_psi_j||_1,
from `partial_trace_last` and the dense conditioned states. Each node obeys
||rho_psi - trace(rho_psi) tau_psi||_1 = 2 sqrt(trace(rho_psi) e_psi), so every
report has lhs <= delta + 2 sym_dim(k,d) sum_j w_j sqrt(trace(rho_psi_j) e_j);
both are checked here.

`verify` takes delta from the post-selection Gram c_{k,d} sum_j w_j |phi_j><phi_j|,
summed from the same phi_j = C b(psi_j) that it conditions. The approximant of the
keep-all threshold r = n+1, which keeps every row, is its differential reference.

The frame kernel (a phase and d-1 real rotations, applied in type
coordinates) is checked against dense d x d frames applied site by site to
d^n vectors, and its truncation, keep-all included, against the same
truncation in the frame of a Householder reflection per node. For Dicke
states the pass is checked against one node per azimuth ring at n = k = 40,
where no dense operator fits.

The node pass splits into a threshold-independent half, which `verify`
computes once per block of nodes, and the per-r truncation. A call with
several thresholds is checked against one-threshold calls on fresh copies of the inputs,
and `verify` is checked to hold no reference to its inputs once it returns.
`verify` walks the nodes in blocks of `_NODE_BLOCK`: its reports must not
depend on the block size beyond roundoff, nor each node's truncation at all,
and neither its peak memory nor that of the rule-level views, which read the
same pass, may grow with the node count.
"""

import dataclasses
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from definetti import certifier
from definetti.certifier import (
    Instance,
    _bra_powers,
    _condition,
    _Conditioned,
    _coupling,
    _frame,
    _generator_eigenbasis,
    _rotate,
    _rotation_blocks,
    _truncate,
    verify,
)
from definetti.cli import parse_rule_spec, parse_state_spec
from definetti.haar import QuadratureRule, exact_qubit_rule, monte_carlo_rule
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
    dicke_state,
    random_symmetric_pure,
    sym_dim,
    type_table,
)
from oracles import (
    approximant,
    dense_pure,
    dicke_isometry,
    from_dense,
    node_pass,
    nu_weight_normalization,
)

# (d, n, k); every r in 0..n is checked for each
GRID = [(2, 1, 1), (2, 3, 2), (2, 2, 4), (2, 4, 4), (3, 2, 2), (3, 1, 2), (3, 3, 3), (4, 1, 1)]
TOL = 1e-12


def rules(d, n, k):
    out = [monte_carlo_rule(d, 30, seed=10 * n + k)]
    if d == 2:
        out.append(exact_qubit_rule(n + k))
    return out


# (d, n, k) outside GRID, with rules of more than _NODE_BLOCK nodes, so that verify adds
# up several blocks, the last one partial
BLOCKED = {
    (3, 2, 1): lambda: [monte_carlo_rule(3, 1100, seed=21)],
    (2, 2, 2): lambda: [exact_qubit_rule(16)],
}


def instance(d, n, k):
    return Instance(d=d, n=n, k=k, rho=random_symmetric_pure(n + k, d, seed=100 * d + 10 * n + k))


def dense_terms(inst, rule, r):
    """Per node at threshold r: (trace(rho_psi), kept mass, escaped mass, tau_psi, fallback).

    A node falls back where its kept mass is at most `certifier._FALLBACK_FRACTION` of its trace.
    """
    rho = dense_pure(inst.rho).projector()
    terms = []
    for node in rule.nodes:
        conditioned = sandwich_bra_last(rho, node, inst.k)
        below, above = threshold_projectors(weight_family(node, inst.n), r)
        sigma = below @ conditioned @ below
        kept = sigma.trace().real
        escaped = np.einsum("ij,ji->", above.entries, conditioned.entries).real
        fallback = kept <= certifier._FALLBACK_FRACTION * (kept + escaped)
        tau = node.tensor_power(inst.n).projector() if fallback else (1.0 / kept) * sigma
        terms.append((conditioned.trace().real, kept, escaped, tau, fallback))
    return terms


def dense_defect(inst, rule):
    """delta = ||Tr_k rho - sym_dim(k,d) sum_j w_j rho_psi_j||_1, from dense operators."""
    rho = dense_pure(inst.rho).projector()
    conditioned = sum(
        weight * sandwich_bra_last(rho, node, inst.k).entries
        for weight, node in zip(rule.weights, rule.nodes)
    )
    reduced = partial_trace_last(rho, inst.k)
    return trace_norm(reduced - Operator(inst.d, inst.n, sym_dim(inst.k, inst.d) * conditioned))


def dense_report(inst, rule, r):
    """(lhs, lhs_err, chain_bound, fallback count) of `verify` at r, from dense operators."""
    terms = dense_terms(inst, rule, r)
    approx = sym_dim(inst.k, inst.d) * sum(
        w * weight * tau.entries for w, (weight, _, _, tau, _) in zip(rule.weights, terms)
    )
    reduced = partial_trace_last(dense_pure(inst.rho).projector(), inst.k)
    lhs = trace_norm(reduced - Operator(inst.d, inst.n, approx))
    err = dense_defect(inst, rule)
    escaped = float(rule.weights @ np.array([term[2] for term in terms]))
    chain = 3.0 * sym_dim(inst.k, inst.d) * math.sqrt(escaped)
    return lhs, err, chain, sum(term[4] for term in terms)


# 0.0 pins the boundary: a kept mass of exactly 0 (at r = 0) falls back; 5/9 is the largest
# fraction that keeps the theorem, and at 1.0 every node falls back
@pytest.mark.parametrize("fraction", [certifier._FALLBACK_FRACTION, 0.0, 5 / 9, 1.0])
@pytest.mark.parametrize("d,n,k", GRID)
def test_node_pass_matches_dense_oracle(d, n, k, fraction, monkeypatch):
    monkeypatch.setattr(certifier, "_FALLBACK_FRACTION", fraction)
    inst = instance(d, n, k)
    for rule in rules(d, n, k):
        for r in range(n + 1):
            nodes = node_pass(inst, rule.node_matrix, r)
            taus = dicke_isometry(n, d) @ nodes.tau
            for j, term in enumerate(dense_terms(inst, rule, r)):
                weight, kept, escaped, tau, fallback = term
                where = f"{rule.describe()} r={r} node {j}"
                assert nodes.density[j] == pytest.approx(sym_dim(k, d) * weight, abs=TOL), where
                assert nodes.kept[j] == pytest.approx(kept, abs=TOL), where
                assert nodes.escaped[j] == pytest.approx(escaped, abs=TOL), where
                assert bool(nodes.fallback[j]) == fallback, where
                row = taus[:, j]
                np.testing.assert_allclose(
                    np.outer(row, row.conj()), tau.entries, rtol=0, atol=TOL, err_msg=where
                )
            if fraction == 1.0:
                assert nodes.fallback.all()


@pytest.mark.parametrize("fraction", [certifier._FALLBACK_FRACTION, 5 / 9, 1.0])
@pytest.mark.parametrize("d,n,k", GRID + list(BLOCKED))
def test_verify_matches_dense_reference(d, n, k, fraction, monkeypatch):
    monkeypatch.setattr(certifier, "_FALLBACK_FRACTION", fraction)
    blocked, inst = (d, n, k) in BLOCKED, instance(d, n, k)
    for rule in BLOCKED[d, n, k]() if blocked else rules(d, n, k):
        assert not blocked or rule.node_count % certifier._NODE_BLOCK > 0, rule.describe()
        assert not blocked or rule.node_count > certifier._NODE_BLOCK, rule.describe()
        for r, report in enumerate(verify(inst, rule, range(n + 1))):
            lhs, err, chain, fallback = dense_report(inst, rule, r)
            where = f"{rule.describe()} r={r}"
            assert report.lhs == pytest.approx(lhs, abs=TOL), where
            assert report.lhs_err == pytest.approx(err, abs=TOL), where
            assert report.chain_bound == pytest.approx(chain, abs=TOL), where
            assert report.fallback_nodes == fallback, where


@pytest.mark.parametrize("d,n,k", GRID)
def test_node_distance_is_twice_root_of_escaped_times_trace(d, n, k):
    # rho_psi - a tau_psi has rank two, with eigenvalues +-sqrt(e a), for every node
    # that keeps its truncation (a = trace(rho_psi), e = its escaped mass)
    inst = instance(d, n, k)
    rho = dense_pure(inst.rho).projector()
    for rule in rules(d, n, k):
        for r in range(n + 1):
            nodes = node_pass(inst, rule.node_matrix, r)
            trace = nodes.density / sym_dim(k, d)
            for j, term in enumerate(dense_terms(inst, rule, r)):
                if term[4]:
                    continue
                conditioned = sandwich_bra_last(rho, rule.node(j), k)
                distance = trace_norm(conditioned - trace[j] * term[3])
                expected = 2 * math.sqrt(nodes.escaped[j] * trace[j])
                where = f"{rule.describe()} r={r} node {j}"
                assert distance == pytest.approx(expected, rel=0, abs=TOL), where


@pytest.mark.parametrize("fraction", [certifier._FALLBACK_FRACTION, 0.0, 5 / 9, 1.0])
@pytest.mark.parametrize("d,n,k", GRID)
def test_lhs_within_defect_and_gentle_sum(d, n, k, fraction, monkeypatch):
    # the per-node identity summed: a node that keeps its truncation costs 2 sqrt(e a), and a
    # fallback node at most 2a <= 3 sqrt(e a), as e >= (1 - fraction) a and fraction <= 5/9;
    # past 5/9 (at 1.0 every node falls back) only the 2a form is left
    monkeypatch.setattr(certifier, "_FALLBACK_FRACTION", fraction)
    inst = instance(d, n, k)
    for rule in rules(d, n, k):
        for r, report in enumerate(verify(inst, rule, range(n + 1))):
            nodes = node_pass(inst, rule.node_matrix, r)
            trace = nodes.density / sym_dim(k, d)
            root = np.sqrt(nodes.escaped * trace)
            fallback_cost = 3 * root if fraction <= 5 / 9 else 2 * trace
            cost = np.where(nodes.fallback, fallback_cost, 2 * root)
            gentle = sym_dim(k, d) * float(rule.weights @ cost)
            where = f"{rule.describe()} r={r}"
            if fraction <= 5 / 9:
                assert gentle <= report.chain_bound, where
            assert report.lhs <= report.lhs_err + gentle + TOL, where


@pytest.mark.parametrize("rule", [exact_qubit_rule(4), monte_carlo_rule(2, 20, seed=1)])
def test_verify_conditions_once(monkeypatch, rule):
    # one block: conditioned once and truncated once per threshold, none for delta
    calls = {"_condition": 0, "_truncate": 0}

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)

        return call

    for name, kernel in (("_condition", _condition), ("_truncate", _truncate)):
        monkeypatch.setattr(certifier, name, counted(name, kernel))
    inst = Instance(d=2, n=2, k=2, rho=random_symmetric_pure(4, 2, seed=3))
    assert len(verify(inst, rule, range(3))) == 3
    assert calls == {"_condition": 1, "_truncate": 3}


@pytest.mark.parametrize(
    "d,n,k,rule", [(2, 6, 6, "exact:6"), (2, 40, 40, "exact:40"), (3, 2, 2, "mc:4000:7")]
)
@pytest.mark.parametrize("state", ["random-sym:7", "ghz"])
def test_post_selection_gram_matches_the_keep_all_threshold(d, n, k, rule, state):
    # the keep-all threshold r = n+1 keeps every row, so tau = phi / |phi| and its approximant
    # is the post-selection Gram that _prepare sums from phi directly
    inst = Instance(d=d, n=n, k=k, rho=parse_state_spec(state, d, n + k)[0])
    rule = parse_rule_spec(rule, d, n + k)
    got = certifier._prepare(inst, rule, ()).post_selection
    want = certifier._prepare(inst, rule, (n + 1,)).grams[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "d,n,k,rule",
    [(2, 3, 2, "exact:3"), (2, 6, 6, "exact:6"), (2, 4, 3, "mc:300:2"), (3, 2, 2, "mc:400:5"),
     (3, 3, 2, "mc:400:6")],
)
def test_lhs_at_threshold_zero_equals_lhs_at_one(d, n, k, rule):
    # at r = 0 every node falls back to psi^(x)n, and at r = 1 the one kept row is the frame's
    # image of psi^(x)n: both give tau_j = psi_j^(x)n up to a phase, so the same Gram
    rule = parse_rule_spec(rule, d, n + k)
    inst = Instance(d=d, n=n, k=k, rho=random_symmetric_pure(n + k, d, seed=n + k))
    zero, one = verify(inst, rule, (0, 1))
    assert one.lhs == pytest.approx(zero.lhs, rel=0, abs=1e-14), rule.describe()


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


def givens_angles(nodes):
    """(d-1, count): R_j turns (|psi_{j-1}|, |(psi_j, ..., psi_{d-1})|) onto level j-1 by theta_j."""
    moduli = np.abs(nodes)
    tails = np.sqrt(np.cumsum(moduli[:, ::-1] ** 2, axis=1)[:, ::-1])
    return np.arctan2(tails[:, 1:], moduli[:, :-1]).T


def givens_frames(nodes):
    """(d, d, count): the dense frame U = R_1 ... R_{d-1} D of each node.

    D = diag(exp(-i arg psi)) and R_j = exp(theta_j (|j-1><j| - |j><j-1|)).
    """
    count, d = nodes.shape
    angles = givens_angles(nodes)
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


def conditioned(turns, unphase, rotated):
    """A `_Conditioned` of unit density for columns already in the frame."""
    return _Conditioned(np.ones(rotated.shape[1]), turns, unphase, rotated, np.abs(rotated) ** 2)


def deviation_weights(n, d):
    """Number of nonzero digits of each basis string of n sites."""
    return (np.array(list(itertools.product(range(d), repeat=n))).reshape(d**n, n) != 0).sum(axis=1)


# named after `rotate_sites` and the batched matmul it was first checked against
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("count", [1, 7])
def test_rotate_sites_matches_batched_matmul(d, n, count, monkeypatch):
    rng = np.random.default_rng(100 * d + 10 * n + count)
    nodes = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    if count > 1:
        nodes[1, 0] = 0  # no weight on level 0
        nodes[-1] = np.eye(d)[-1]  # the last level alone
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    dim = sym_dim(n, d)
    columns = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
    iso = dicke_isometry(n, d)
    tol = 1e-13 * np.abs(columns).max()

    frames = givens_frames(nodes)
    frame_of_node = np.einsum("abj,jb->aj", frames, nodes)
    np.testing.assert_allclose(frame_of_node, np.eye(d)[:, [0] * count], rtol=0, atol=1e-15)
    turns, unphase = _frame(n, nodes)
    forward = _rotate(n, d, turns, unphase.conj() * columns)
    dense = rotate_sites(frames, iso @ columns, n)
    np.testing.assert_allclose(iso @ forward, dense, rtol=0, atol=tol)
    back = unphase * _rotate(n, d, turns, forward, inverse=True)
    np.testing.assert_allclose(back, columns, rtol=0, atol=tol)

    householder = householder_frames(nodes)
    reflected = rotate_sites(householder, iso @ columns, n)
    weight = deviation_weights(n, d)
    cond = conditioned(turns, unphase, forward)
    monkeypatch.setattr(certifier, "_FALLBACK_FRACTION", 0.0)  # only a kept mass of 0 falls back
    for r in range(n + 2):  # r = n + 1 is the keep-all threshold: tau = phi / |phi|
        below = weight < r
        kept = np.sum(np.abs(reflected[below]) ** 2, axis=0)
        escaped = np.sum(np.abs(reflected[~below]) ** 2, axis=0)
        got = _truncate(n, d, r, cond)
        np.testing.assert_allclose(got.kept, kept, rtol=1e-13, atol=tol**2)
        np.testing.assert_allclose(got.escaped, escaped, rtol=1e-13, atol=tol**2)
        assert got.fallback.tolist() == (kept <= 0).tolist()
        if r == 0:
            expected = power_rows(nodes, n).T
        else:
            expected = rotate_sites(householder, reflected * below[:, None], n) / np.sqrt(kept)
        np.testing.assert_allclose(iso @ got.tau, expected, rtol=0, atol=1e-13, err_msg=f"r={r}")
    # keep-all: the whole mass is kept, nothing escapes or falls back, and tau = phi / |phi|
    mass = np.sum(np.abs(columns) ** 2, axis=0)
    np.testing.assert_allclose(got.kept, mass, rtol=1e-13)
    assert not got.escaped.any() and not got.fallback.any()
    np.testing.assert_allclose(got.tau, columns / np.sqrt(mass), rtol=0, atol=1e-13)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 20), (2, 80), (2, 200), (3, 2), (3, 12), (3, 30)])
def test_frame_power_is_unitary_and_maps_psi_power_to_last_type(d, n):
    rng = np.random.default_rng(1000 * d + n)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    types, mult = type_table(n, d)
    nodes = np.repeat(psi[None, :], len(mult), axis=0)
    # column c is the frame's symmetric power applied to Dicke basis vector c
    turns, unphase = _frame(n, nodes)
    frame = _rotate(n, d, turns, unphase.conj() * np.eye(len(mult)))
    np.testing.assert_allclose(frame.conj().T @ frame, np.eye(len(mult)), rtol=0, atol=1e-13)
    power = np.sqrt(mult) * np.prod(psi**types, axis=1)  # psi^(x)n in Dicke coordinates
    np.testing.assert_allclose(frame @ power, np.eye(len(mult))[-1], rtol=0, atol=1e-13)


@pytest.mark.parametrize("m", [1, 2, 3, 10, 41, 80])
def test_generator_eigenbasis_has_spectrum_two_a_minus_m(m):
    coupling = np.sqrt((np.arange(m) + 1.0) * (m - np.arange(m)))
    generator = np.diag(1j * coupling, 1) - np.diag(1j * coupling, -1)  # i K_m
    basis, adjoint = _generator_eigenbasis(m)
    np.testing.assert_array_equal(adjoint, basis.conj().T)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(m + 1), rtol=0, atol=1e-13)
    rotated = basis.conj().T @ generator @ basis
    spectrum = 2.0 * np.arange(m + 1) - m
    np.testing.assert_allclose(np.diag(rotated).real, spectrum, rtol=0, atol=1e-13)
    # what is off the diagonal is eigh's residual, a few eps times the norm m of i K_m
    np.testing.assert_allclose(rotated, np.diag(spectrum), rtol=0, atol=4e-15 * m)


def test_rotation_blocks_take_one_eigenbasis_per_m(monkeypatch):
    # every level's block of m types shares W_m: (n, d) = (6, 3) needs 6 eigh calls, not 12
    sizes, eigh = [], np.linalg.eigh

    def counted(matrix):
        sizes.append(len(matrix))
        return eigh(matrix)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    first, second = certifier._rotation_blocks.__wrapped__(6, 3)  # past the cache
    assert sorted(sizes) == [2, 3, 4, 5, 6, 7]
    assert [block.rows.shape[1] for block in first] == [block.rows.shape[1] for block in second]
    for a, b in zip(first, second):
        assert a.basis is b.basis and a.adjoint is b.adjoint


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("top", [0, 1, 2, 8, 100])
def test_powers_are_repeated_products(d, top):
    # the frame's table of units and the monomials' table of node entries, |entry| <= 1
    rng = np.random.default_rng(10 * d + top)
    nodes = rng.standard_normal((512, d)) + 1j * rng.standard_normal((512, d))
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    for values in (nodes.T, nodes.T / np.abs(nodes.T)):
        powers = certifier._powers(values, top)
        assert powers.shape == (top + 1, d, 512) and powers.dtype == np.complex128
        assert (powers[0] == 1).all()
        if top:
            np.testing.assert_array_equal(powers[1], values)
        for p in range(2, top + 1):
            exact = values**p
            assert (np.abs(powers[p] - exact) <= 1e-15 * p * np.abs(exact)).all(), p


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_frame_tables_match_angle_exponentials(d, n):
    rng = np.random.default_rng(10 * d + n)
    nodes = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
    nodes[1, 0] = 0  # a zero entry
    nodes[2, 1:] = 0  # every entry after level 0 zero
    nodes[-1] = np.eye(d)[-1]  # e_{d-1}
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    turns, unphase = _frame(n, nodes)
    assert turns.shape == (2 * n + 1, d - 1, len(nodes))
    angles = givens_angles(nodes)  # (d-1, count)
    powers = np.arange(-n, n + 1)[:, None, None]  # row n + p holds w_j^p = exp(-i p theta_j)
    np.testing.assert_allclose(turns, np.exp(-1j * powers * angles), rtol=0, atol=1e-12)
    np.testing.assert_allclose(unphase.conj(), site_phases(n, nodes), rtol=0, atol=1e-12)


def test_rotation_blocks_hold_the_rows_a_sort_finds():
    # the rows of a block share the spectators and m = t_{j-1} + t_j, with t_j = 0..m along the
    # block; sorting by (m, spectators, t_j) finds the same blocks, in the same order for d <= 3
    for d in range(2, 6):
        for n in range(9):
            types = type_table(n, d)[0]
            for j, blocks in enumerate(_rotation_blocks(n, d), start=1):
                total = types[:, j - 1] + types[:, j]
                spectators = np.delete(types, [j - 1, j], axis=1)
                order = np.lexsort((types[:, j], *spectators.T, total))
                sorted_blocks = [order[total[order] == m].reshape(-1, m + 1) for m in range(1, n + 1)]
                sorted_blocks = [rows for rows in sorted_blocks if rows.size]
                assert [len(block.rows[0]) for block in blocks] == [
                    len(rows[0]) for rows in sorted_blocks
                ], (d, n, j)
                for block, rows in zip(blocks, sorted_blocks):
                    if d <= 3:
                        np.testing.assert_array_equal(block.rows, rows, f"d={d} n={n} j={j}")
                    assert sorted(map(tuple, block.rows.tolist())) == sorted(map(tuple, rows.tolist()))


def test_pass_at_forty_sites_reads_only_dicke_coefficients():
    # 2^80 amplitudes cannot be held, so the pass must work from the sym_dim(80, 2) coefficients
    rng = np.random.default_rng(40)
    coefficients = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    coefficients /= np.linalg.norm(coefficients)
    rule = exact_qubit_rule(80)
    inst = Instance(d=2, n=40, k=40, rho=SymmetricState(2, 80, coefficients))
    phi = _coupling(inst) @ _bra_powers(rule.node_matrix, inst.k)
    cond = _condition(inst, phi, rule.node_matrix)
    assert float(rule.weights @ cond.density) == pytest.approx(1.0, abs=1e-12)
    for r in (0, 1, 20, 40, 41):
        nodes = _truncate(40, 2, r, cond)
        np.testing.assert_allclose(
            nodes.kept + nodes.escaped, cond.density / sym_dim(40, 2), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(np.linalg.norm(nodes.tau, axis=0), 1.0, rtol=0, atol=1e-12)
        assert nodes.fallback.all() == (r == 0)
    # keep-all (r = 41): the whole mass is kept, nothing escapes or falls back, tau = phi / |phi|
    np.testing.assert_allclose(nodes.kept, cond.density / sym_dim(40, 2), rtol=1e-13)
    assert not nodes.escaped.any() and not nodes.fallback.any()
    np.testing.assert_allclose(nodes.tau, phi / np.linalg.norm(phi, axis=0), rtol=0, atol=1e-12)


def hypergeometric(n, k, ones):
    """p_s = C(n,s) C(k,ones-s) / C(n+k,ones) per type of n qubits, s its level-1 count.

    The diagonal of Tr_k of the Dicke state with `ones` sites on level 1.
    """
    total = math.comb(n + k, ones)
    return np.array(
        [
            math.comb(n, s) * math.comb(k, ones - s) / total if s <= ones else 0.0
            for s in type_table(n, 2)[0][:, 1].tolist()
        ]
    )


# (n = k, ones, rtol, lhs floor). Measured spread of verify's lhs against one node per ring:
# at most 1.0e-11 relative at n=10 (r=10, lhs 6.0e-6); at n=40, 1.0e-12 at r=15 (lhs 1.1e-5)
# and 9.8e-10 at r=20 (lhs 7.2e-8). Both lhs are roundoff below the floor.
DICKE = [(10, 7, 1e-10, 0.0), (40, 33, 1e-8, 5e-8)]


@pytest.mark.parametrize("n,ones,rtol,floor", DICKE, ids=["n10", "n40"])
def test_dicke_state_needs_one_node_per_ring(n, ones, rtol, floor):
    # a Dicke state is invariant under the phase D^(x)(n+k), so the 2n+2 nodes of one azimuth
    # ring of exact:n give conditioned and truncated states that differ only by D^(x)n, and the
    # equispaced azimuths cancel every off-diagonal frequency: each ring sums to a diagonal
    # matrix, and lhs = sum_s |p_s - A_ss| from the first node of each ring
    rule = exact_qubit_rule(n)
    inst = Instance(d=2, n=n, k=n, rho=dicke_state(2 * n, 2, (2 * n - ones, ones)))
    grams = certifier._prepare(inst, rule, tuple(range(n + 2))).grams  # with keep-all n+1
    off_diagonal = grams.copy()
    off_diagonal[:, range(n + 1), range(n + 1)] = 0
    assert np.abs(off_diagonal).max() <= 2e-16  # measured: 5.8e-17
    ring = 2 * n + 2
    firsts, ring_weights = rule.node_matrix[::ring], rule.weights.reshape(-1, ring).sum(axis=1)
    reduced = hypergeometric(n, n, ones)
    compared = 0
    for r, report in enumerate(verify(inst, rule, range(n + 1))):
        node = node_pass(inst, firsts, r)
        diagonal = (np.abs(node.tau) ** 2 * node.density) @ ring_weights
        lhs = float(np.abs(reduced - diagonal).sum())
        if lhs >= floor:
            assert report.lhs == pytest.approx(lhs, rel=rtol, abs=0), f"n={n} r={r}"
            compared += 1
    assert compared > n // 2


def fresh(obj):
    """A new object equal to `obj`; its arrays are copied by validation."""
    return dataclasses.replace(obj)


def counting_prepares(monkeypatch):
    """Count the calls of certifier._prepare from here on."""
    calls = []
    prepare = certifier._prepare

    def counting(*args):
        calls.append(args)
        return prepare(*args)

    monkeypatch.setattr(certifier, "_prepare", counting)
    return calls


# named after the memo that the one call per sweep replaced; it checks the one pass per sweep
@pytest.mark.parametrize("d,n,k", [(2, 4, 3), (3, 2, 2)])
def test_sweep_reuse_matches_fresh_inputs(d, n, k, monkeypatch):
    state = random_symmetric_pure(n + k, d, seed=5)
    prepares = counting_prepares(monkeypatch)
    for rule in rules(d, n, k):
        prepares.clear()
        expected = [
            verify(Instance(d=d, n=n, k=k, rho=fresh(state)), fresh(rule), (r,))[0]
            for r in range(n + 1)
        ]
        assert len(prepares) == n + 1, rule.describe()  # single calls share nothing
        prepares.clear()
        inst = Instance(d=d, n=n, k=k, rho=state)
        reports = verify(inst, rule, range(n + 1))
        assert len(prepares) == 1, rule.describe()
        assert reports == tuple(expected), rule.describe()
        backwards = verify(inst, rule, [n, 0, n, 1])
        assert backwards == (expected[n], expected[0], expected[n], expected[1]), rule.describe()


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
        (from_dense(dense_pure(state).projector()), 2, 2, exact),  # a new object
        (from_dense(dense_pure(state).projector()), 2, 2, exact),
    ]
    expected = [
        tuple(
            verify(Instance(d=2, n=n, k=k, rho=fresh(rho)), fresh(rule), (r,))[0]
            for r in range(n + 1)
        )
        for rho, n, k, rule in calls
    ]
    for (rho, n, k, rule), want in zip(calls, expected):
        inst = Instance(d=2, n=n, k=k, rho=rho)
        assert verify(inst, rule, range(n + 1)) == want, (n, k, rule.describe())
        assert verify(inst, rule, (1,)) == want[1:2], (n, k, rule.describe())


def test_verify_keeps_no_reference_to_its_inputs():
    state = random_symmetric_pure(6, 2, seed=4)
    rule = monte_carlo_rule(2, 40, seed=4)
    inst = Instance(d=2, n=3, k=3, rho=state)
    refs = [weakref.ref(obj) for obj in (state, rule, inst)]
    verify(inst, rule, (1,))
    verify(inst, exact_qubit_rule(6), (1,))
    del state, rule, inst
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# named after the Monte Carlo standard error that delta replaced as lhs_err
@pytest.mark.parametrize("d", [3, 2])
def test_blocked_standard_error_matches_full_stack(d):
    for grid_d, n, k in GRID:
        if grid_d != d:
            continue
        inst = instance(d, n, k)
        for rule in rules(d, n, k):
            defect = verify(inst, rule, (1,))[0].lhs_err
            if rule.kind == "exact":
                # exact through degree n + k >= k: sym_dim(k,d) sum_j w_j b b^dag = I
                assert defect <= 1e-13, (n, k)
            else:
                assert defect > 0, (n, k)
                assert defect == pytest.approx(dense_defect(inst, rule), rel=1e-12), (n, k)
    inst = instance(d, 2, 2)
    single = monte_carlo_rule(d, 1, seed=4)
    defect = verify(inst, single, (1,))[0].lhs_err
    assert defect > 0
    assert defect == pytest.approx(dense_defect(inst, single), rel=1e-12)
    # 30 copies of one node average to that node, so delta is the same
    repeated = QuadratureRule(
        d=d,
        node_matrix=np.repeat(single.node_matrix, 30, axis=0),
        weights=np.full(30, 1 / 30),
        kind="monte_carlo",
        seed=4,
    )
    (report,) = verify(inst, repeated, (1,))
    assert report.lhs_err == pytest.approx(defect, rel=1e-12)


@pytest.mark.parametrize("fraction", [certifier._FALLBACK_FRACTION, 0.05])
@pytest.mark.parametrize(
    "d,n,k,rule",
    [(3, 2, 2, ("mc", 37)), (2, 4, 3, ("exact", 7))],
    ids=["mc-37", "exact-7"],
)
def test_streamed_verify_matches_one_block(d, n, k, rule, fraction, monkeypatch):
    # the block size only changes the order in which the sums over nodes are added up
    kind, size = rule
    rule = monte_carlo_rule(d, size, seed=6) if kind == "mc" else exact_qubit_rule(size)
    count = rule.node_count
    inst = Instance(d=d, n=n, k=k, rho=random_symmetric_pure(n + k, d, seed=8))
    monkeypatch.setattr(certifier, "_FALLBACK_FRACTION", fraction)
    monkeypatch.setattr(certifier, "_NODE_BLOCK", count)
    whole = verify(inst, rule, range(n + 1))
    fallbacks = {report.fallback_nodes for report in whole}
    assert count % 7 and count in fallbacks  # a partial last block; every node falls back at r=0
    if fraction == 0.05:
        assert fallbacks - {0, count}  # some row keeps part of its nodes
    for block in (1, 7, count - 1, count, count + 5):
        monkeypatch.setattr(certifier, "_NODE_BLOCK", block)
        streamed = verify(inst, rule, range(n + 1))
        for r, (got, want) in enumerate(zip(streamed, whole)):
            where = f"{rule.describe()} block={block} r={r}"
            for field in ("lhs", "lhs_err", "chain_bound"):
                expected = pytest.approx(getattr(want, field), rel=1e-12, abs=1e-15)
                assert getattr(got, field) == expected, (where, field)
            assert got.fallback_nodes == want.fallback_nodes, where
            assert got.status == want.status, where


@pytest.mark.parametrize(
    "d,n,k,rule_spec", [(2, 40, 40, "exact:40"), (3, 10, 2, "mc:600:1")], ids=["qubit", "qutrit"]
)
def test_truncation_is_bit_identical_in_any_block(d, n, k, rule_spec):
    # a node's tau, masses and fallback flag must not depend on the nodes beside it. A block's
    # tau here is 328 KiB (qubit) or 528 KiB (qutrit) at _NODE_BLOCK nodes, past the 256 KiB from
    # which numpy may elide a temporary operand and so reorder a complex product; 8 nodes never are
    inst = Instance(d=d, n=n, k=k, rho=parse_state_spec("random-sym:1", d, n + k)[0])
    nodes = parse_rule_spec(rule_spec, d, n + k).node_matrix[: certifier._NODE_BLOCK]
    assert 16 * sym_dim(n, d) * len(nodes) > 256 * 1024
    coupling = _coupling(inst)

    def conditioned(block):
        parts = np.split(nodes, range(block, len(nodes), block))
        return [_condition(inst, coupling @ _bra_powers(part, k), part) for part in parts]

    (whole,), pieces = conditioned(len(nodes)), conditioned(8)
    for r in range(n + 2):
        got, want = [_truncate(n, d, r, cond) for cond in pieces], _truncate(n, d, r, whole)
        for field, axis in (("tau", 1), ("kept", 0), ("escaped", 0), ("fallback", 0)):
            joined = np.concatenate([getattr(node, field) for node in got], axis=axis)
            assert joined.tobytes() == getattr(want, field).tobytes(), (r, field)


def peak_bytes(call):
    """The largest traced allocation total while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "view",
    [
        lambda inst, rule: verify(inst, rule, range(inst.n + 1)),
        lambda inst, rule: certifier.chain_bound(inst, rule, 0),
        lambda inst, rule: approximant(inst, rule, 0),
        nu_weight_normalization,
    ],
    ids=["verify", "chain_bound", "approximant", "nu_weight_normalization"],
)
def test_verify_memory_does_not_grow_with_the_node_count(view):
    # the nodes are walked in fixed blocks, by verify and by the rule-level views alike, so ten
    # times the nodes must not mean ten times the memory; the rules are built first, as their
    # node tables are inputs
    inst = Instance(d=3, n=2, k=2, rho=random_symmetric_pure(4, 3, seed=9))
    small, large = monte_carlo_rule(3, 4000, seed=9), monte_carlo_rule(3, 40000, seed=9)
    view(inst, small)  # fills the type and rotation-block caches outside the trace
    small_peak = peak_bytes(lambda: view(inst, small))
    large_peak = peak_bytes(lambda: view(inst, large))
    assert large_peak <= 1.5 * small_peak, (small_peak, large_peak)


def test_verify_peak_stays_near_the_memory_floor():
    # one Givens power table per level, and one block's conditioned arrays and one truncation
    # at a time: at d=3, n=k=20 under mc:1000:1 the traced peak is 1.77 times memory_floor,
    # against 2.70 when every block of types gathered its own phase copies and two blocks'
    # arrays, and two truncations, overlapped
    inst = Instance(d=3, n=20, k=20, rho=random_symmetric_pure(40, 3, seed=1))
    rule = monte_carlo_rule(3, 1000, seed=1)
    thresholds = range(0, 21, 5)
    floor = certifier.memory_floor(3, 20, 20, len(thresholds), rule.node_count)
    peak = peak_bytes(lambda: verify(inst, rule, thresholds))
    assert peak <= 2.5 * floor, (peak, floor)


def test_bra_powers_peak_is_near_its_output():
    # the monomials multiply in one level at a time, so no (sym_dim, d, nodes) table is held:
    # 512 d=3 nodes at k=60 return 15.5 MB and peak near 2.1 times that
    nodes = monte_carlo_rule(3, certifier._NODE_BLOCK, seed=3).node_matrix
    type_table(60, 3)  # cached outside the trace
    out = []
    peak = peak_bytes(lambda: out.append(_bra_powers(nodes, 60)))
    assert peak <= 2.5 * out[0].nbytes, (peak, out[0].nbytes)
