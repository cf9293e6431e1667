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

The frame kernel (a phase and d-1 real rotations, applied in type
coordinates) is checked against dense d x d frames applied site by site to
d^n vectors, and its truncation against the same truncation in the frame
of a Householder reflection per node.

The node pass splits into a threshold-independent half, which `verify`
computes once per block of nodes, and the per-r truncation. A call with
`thresholds=` is checked against single calls on fresh copies of the inputs,
and `verify` is checked to hold no reference to its inputs once it returns.
`verify` walks the nodes in blocks of `_NODE_BLOCK`: its reports must not
depend on the block size beyond roundoff, and neither its peak memory nor
that of the rule-level views, which read the same pass, may grow with the
node count.
"""

import dataclasses
import gc
import itertools
import math
import tracemalloc
import weakref
from types import SimpleNamespace

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
    random_symmetric_pure,
    sym_dim,
    type_table,
)
from oracles import approximant, dicke_isometry, node_pass, nu_weight_normalization

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


def instances(d, n, k):
    state = random_symmetric_pure(n + k, d, seed=100 * d + 10 * n + k)
    return [Instance(d=d, n=n, k=k, r=r, rho=state) for r in range(n + 1)]


def dense_terms(inst, rule):
    """Per node: (trace(rho_psi), kept mass, escaped mass, tau_psi, fallback).

    A node falls back where its kept mass is at most `certifier._FALLBACK_FRACTION` of its trace.
    """
    rho = inst.rho.pure().projector()
    terms = []
    for node in rule.nodes:
        conditioned = sandwich_bra_last(rho, node, inst.k)
        below, above = threshold_projectors(weight_family(node, inst.n), inst.r)
        sigma = below @ conditioned @ below
        kept = sigma.trace().real
        escaped = np.einsum("ij,ji->", above.entries, conditioned.entries).real
        fallback = kept <= certifier._FALLBACK_FRACTION * (kept + escaped)
        tau = node.tensor_power(inst.n).projector() if fallback else (1.0 / kept) * sigma
        terms.append((conditioned.trace().real, kept, escaped, tau, fallback))
    return terms


def dense_defect(inst, rule):
    """delta = ||Tr_k rho - sym_dim(k,d) sum_j w_j rho_psi_j||_1, from dense operators."""
    rho = inst.rho.pure().projector()
    conditioned = sum(
        weight * sandwich_bra_last(rho, node, inst.k).entries
        for weight, node in zip(rule.weights, rule.nodes)
    )
    reduced = partial_trace_last(rho, inst.k)
    return trace_norm(reduced - Operator(inst.d, inst.n, sym_dim(inst.k, inst.d) * conditioned))


def dense_report(inst, rule):
    """(lhs, lhs_err, chain_bound, fallback count) of `verify`, from dense operators."""
    terms = dense_terms(inst, rule)
    approx = sym_dim(inst.k, inst.d) * sum(
        w * weight * tau.entries for w, (weight, _, _, tau, _) in zip(rule.weights, terms)
    )
    reduced = partial_trace_last(inst.rho.pure().projector(), inst.k)
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
    for rule in rules(d, n, k):
        for inst in instances(d, n, k):
            nodes = node_pass(inst, rule.node_matrix)
            taus = dicke_isometry(n, d) @ nodes.tau
            for j, term in enumerate(dense_terms(inst, rule)):
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
            if fraction == 1.0:
                assert nodes.fallback.all()


@pytest.mark.parametrize("fraction", [certifier._FALLBACK_FRACTION, 5 / 9, 1.0])
@pytest.mark.parametrize("d,n,k", GRID + list(BLOCKED))
def test_verify_matches_dense_reference(d, n, k, fraction, monkeypatch):
    monkeypatch.setattr(certifier, "_FALLBACK_FRACTION", fraction)
    blocked = (d, n, k) in BLOCKED
    for rule in BLOCKED[d, n, k]() if blocked else rules(d, n, k):
        assert not blocked or rule.node_count % certifier._NODE_BLOCK > 0, rule.describe()
        assert not blocked or rule.node_count > certifier._NODE_BLOCK, rule.describe()
        for inst in instances(d, n, k):
            report = verify(inst, rule)
            lhs, err, chain, fallback = dense_report(inst, rule)
            where = f"{rule.describe()} r={inst.r}"
            assert report.lhs == pytest.approx(lhs, abs=TOL), where
            assert report.lhs_integration_error == pytest.approx(err, abs=TOL), where
            assert report.chain_bound == pytest.approx(chain, abs=TOL), where
            assert report.fallback_node_count == fallback, where


@pytest.mark.parametrize("d,n,k", GRID)
def test_node_distance_is_twice_root_of_escaped_times_trace(d, n, k):
    # rho_psi - a tau_psi has rank two, with eigenvalues +-sqrt(e a), for every node
    # that keeps its truncation (a = trace(rho_psi), e = its escaped mass)
    for rule in rules(d, n, k):
        for inst in instances(d, n, k):
            rho = inst.rho.pure().projector()
            nodes = node_pass(inst, rule.node_matrix)
            trace = nodes.density / sym_dim(k, d)
            for j, term in enumerate(dense_terms(inst, rule)):
                if term[4]:
                    continue
                conditioned = sandwich_bra_last(rho, rule.node(j), k)
                distance = trace_norm(conditioned - trace[j] * term[3])
                expected = 2 * math.sqrt(nodes.escaped[j] * trace[j])
                where = f"{rule.describe()} r={inst.r} node {j}"
                assert distance == pytest.approx(expected, rel=0, abs=TOL), where


@pytest.mark.parametrize("fraction", [certifier._FALLBACK_FRACTION, 0.0, 5 / 9, 1.0])
@pytest.mark.parametrize("d,n,k", GRID)
def test_lhs_within_defect_and_gentle_sum(d, n, k, fraction, monkeypatch):
    # the per-node identity summed: a node that keeps its truncation costs 2 sqrt(e a), and a
    # fallback node at most 2a <= 3 sqrt(e a), as e >= (1 - fraction) a and fraction <= 5/9;
    # past 5/9 (at 1.0 every node falls back) only the 2a form is left
    monkeypatch.setattr(certifier, "_FALLBACK_FRACTION", fraction)
    for rule in rules(d, n, k):
        for inst in instances(d, n, k):
            report = verify(inst, rule)
            nodes = node_pass(inst, rule.node_matrix)
            trace = nodes.density / sym_dim(k, d)
            root = np.sqrt(nodes.escaped * trace)
            fallback_cost = 3 * root if fraction <= 5 / 9 else 2 * trace
            cost = np.where(nodes.fallback, fallback_cost, 2 * root)
            gentle = sym_dim(k, d) * float(rule.weights @ cost)
            where = f"{rule.describe()} r={inst.r}"
            if fraction <= 5 / 9:
                assert gentle <= report.chain_bound, where
            assert report.lhs <= report.lhs_integration_error + gentle + TOL, where


@pytest.mark.parametrize("rule", [exact_qubit_rule(4), monte_carlo_rule(2, 20, seed=1)])
def test_verify_conditions_once(monkeypatch, rule):
    calls = []

    def counted(*args):
        calls.append(args)
        return _condition(*args)

    monkeypatch.setattr(certifier, "_condition", counted)
    inst = Instance(d=2, n=2, k=2, r=1, rho=random_symmetric_pure(4, 2, seed=3))
    assert len(verify(inst, rule, thresholds=range(3))) == 3
    assert len(calls) == 1


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
    for r in range(n + 1):
        below = weight < r
        kept = np.sum(np.abs(reflected[below]) ** 2, axis=0)
        escaped = np.sum(np.abs(reflected[~below]) ** 2, axis=0)
        got = _truncate(SimpleNamespace(d=d, n=n, r=r), cond)
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
    angles = givens_angles(nodes)
    for j, blocks in enumerate(_rotation_blocks(n, d), start=1):
        for block, phase in zip(blocks, turns[j - 1]):
            m = block.rows.shape[1] - 1
            spectrum = 2.0 * np.arange(m + 1) - m
            expected = np.exp(-1j * spectrum[:, None] * angles[j - 1])
            np.testing.assert_allclose(phase, expected, rtol=0, atol=1e-12, err_msg=f"j={j} m={m}")
    np.testing.assert_allclose(unphase.conj(), site_phases(n, nodes), rtol=0, atol=1e-12)


def test_pass_at_forty_sites_reads_only_dicke_coefficients():
    # 2^80 amplitudes cannot be held, so the pass must work from the sym_dim(80, 2) coefficients
    rng = np.random.default_rng(40)
    coefficients = rng.standard_normal(81) + 1j * rng.standard_normal(81)
    coefficients /= np.linalg.norm(coefficients)
    rule = exact_qubit_rule(80)
    inst = Instance(d=2, n=40, k=40, r=0, rho=SymmetricState(2, 80, coefficients))
    phi = _coupling(inst) @ _bra_powers(rule.node_matrix, inst.k)
    cond = _condition(inst, phi, rule.node_matrix)
    assert float(rule.weights @ cond.density) == pytest.approx(1.0, abs=1e-12)
    for r in (0, 1, 20, 40):
        nodes = _truncate(SimpleNamespace(d=2, n=40, r=r), cond)
        np.testing.assert_allclose(
            nodes.kept + nodes.escaped, cond.density / sym_dim(40, 2), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(np.linalg.norm(nodes.tau, axis=0), 1.0, rtol=0, atol=1e-12)
        assert nodes.fallback.all() == (r == 0)


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


# named after the memo that the thresholds= call replaced; it checks the one pass per sweep
@pytest.mark.parametrize("d,n,k", [(2, 4, 3), (3, 2, 2)])
def test_sweep_reuse_matches_fresh_inputs(d, n, k, monkeypatch):
    state = random_symmetric_pure(n + k, d, seed=5)
    prepares = counting_prepares(monkeypatch)
    for rule in rules(d, n, k):
        prepares.clear()
        expected = [
            verify(Instance(d=d, n=n, k=k, r=r, rho=fresh(state)), fresh(rule))
            for r in range(n + 1)
        ]
        assert len(prepares) == n + 1, rule.describe()  # single calls share nothing
        prepares.clear()
        # inst.r is not among the thresholds: with thresholds=, only they count
        inst = Instance(d=d, n=n, k=k, r=n, rho=state)
        reports = verify(inst, rule, thresholds=range(n + 1))
        assert len(prepares) == 1, rule.describe()
        assert reports == tuple(expected), rule.describe()
        backwards = verify(inst, rule, thresholds=[n, 0, n, 1])
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
        (SymmetricState.from_dense(state.pure().projector()), 2, 2, exact),  # a new object
        (SymmetricState.from_dense(state.pure().projector()), 2, 2, exact),
    ]
    expected = [
        tuple(
            verify(Instance(d=2, n=n, k=k, r=r, rho=fresh(rho)), fresh(rule))
            for r in range(n + 1)
        )
        for rho, n, k, rule in calls
    ]
    for (rho, n, k, rule), want in zip(calls, expected):
        inst = Instance(d=2, n=n, k=k, r=1, rho=rho)
        assert verify(inst, rule, thresholds=range(n + 1)) == want, (n, k, rule.describe())
        assert verify(inst, rule) == want[1], (n, k, rule.describe())


def test_verify_keeps_no_reference_to_its_inputs():
    state = random_symmetric_pure(6, 2, seed=4)
    rule = monte_carlo_rule(2, 40, seed=4)
    inst = Instance(d=2, n=3, k=3, r=1, rho=state)
    refs = [weakref.ref(obj) for obj in (state, rule, inst)]
    verify(inst, rule)
    verify(inst, exact_qubit_rule(6))
    del state, rule, inst
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


# named after the Monte Carlo standard error that delta replaced as lhs_err
@pytest.mark.parametrize("d", [3, 2])
def test_blocked_standard_error_matches_full_stack(d):
    for grid_d, n, k in GRID:
        if grid_d != d:
            continue
        inst = instances(d, n, k)[1]
        for rule in rules(d, n, k):
            defect = verify(inst, rule).lhs_integration_error
            if rule.kind == "exact":
                # exact through degree n + k >= k: sym_dim(k,d) sum_j w_j b b^dag = I
                assert defect <= 1e-13, (n, k)
            else:
                assert defect > 0, (n, k)
                assert defect == pytest.approx(dense_defect(inst, rule), rel=1e-12), (n, k)
    inst = instances(d, 2, 2)[1]
    single = monte_carlo_rule(d, 1, seed=4)
    defect = verify(inst, single).lhs_integration_error
    assert defect > 0
    assert defect == pytest.approx(dense_defect(inst, single), rel=1e-12)
    # 30 copies of one node average to that node, so delta is the same
    repeated = QuadratureRule(
        d=d,
        node_matrix=np.repeat(single.node_matrix, 30, axis=0),
        weights=np.full(30, 1 / 30),
        kind="monte_carlo",
        samples=30,
        seed=4,
    )
    assert verify(inst, repeated).lhs_integration_error == pytest.approx(defect, rel=1e-12)


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
    inst = Instance(d=d, n=n, k=k, r=0, rho=random_symmetric_pure(n + k, d, seed=8))
    monkeypatch.setattr(certifier, "_FALLBACK_FRACTION", fraction)
    monkeypatch.setattr(certifier, "_NODE_BLOCK", count)
    whole = verify(inst, rule, thresholds=range(n + 1))
    fallbacks = {report.fallback_node_count for report in whole}
    assert count % 7 and count in fallbacks  # a partial last block; every node falls back at r=0
    if fraction == 0.05:
        assert fallbacks - {0, count}  # some row keeps part of its nodes
    for block in (1, 7, count - 1, count, count + 5):
        monkeypatch.setattr(certifier, "_NODE_BLOCK", block)
        streamed = verify(inst, rule, thresholds=range(n + 1))
        for r, (got, want) in enumerate(zip(streamed, whole)):
            where = f"{rule.describe()} block={block} r={r}"
            for field in ("lhs", "lhs_integration_error", "chain_bound"):
                expected = pytest.approx(getattr(want, field), rel=1e-12, abs=1e-15)
                assert getattr(got, field) == expected, (where, field)
            assert got.fallback_node_count == want.fallback_node_count, where
            assert got.status == want.status, where


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
        lambda inst, rule: verify(inst, rule, thresholds=range(inst.n + 1)),
        certifier.chain_bound,
        approximant,
        nu_weight_normalization,
    ],
    ids=["verify", "chain_bound", "approximant", "nu_weight_normalization"],
)
def test_verify_memory_does_not_grow_with_the_node_count(view):
    # the nodes are walked in fixed blocks, by verify and by the rule-level views alike, so ten
    # times the nodes must not mean ten times the memory; the rules are built first, as their
    # node tables are inputs
    inst = Instance(d=3, n=2, k=2, r=0, rho=random_symmetric_pure(4, 3, seed=9))
    small, large = monte_carlo_rule(3, 4000, seed=9), monte_carlo_rule(3, 40000, seed=9)
    view(inst, small)  # fills the type and rotation-block caches outside the trace
    small_peak = peak_bytes(lambda: view(inst, small))
    large_peak = peak_bytes(lambda: view(inst, large))
    assert large_peak <= 1.5 * small_peak, (small_peak, large_peak)


def test_bra_powers_peak_is_near_its_output():
    # the monomials multiply in one level at a time, so no (sym_dim, d, nodes) table is held:
    # 512 d=3 nodes at k=60 return 15.5 MB and peak near 2.1 times that
    nodes = monte_carlo_rule(3, certifier._NODE_BLOCK, seed=3).node_matrix
    type_table(60, 3)  # cached outside the trace
    out = []
    peak = peak_bytes(lambda: out.append(_bra_powers(nodes, 60)))
    assert peak <= 2.5 * out[0].nbytes, (peak, out[0].nbytes)
