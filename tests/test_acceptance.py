"""Acceptance gate: eight desk-scale certifications of the bound chain.

Each test prints one pass/fail line (visible with ``pytest -s``) and asserts
it. The end-to-end certification run is shared between the last two checks.
"""

import math

import numpy as np

from definetti.certifier import (
    PASS,
    Instance,
    check_chernoff_claim,
    check_exponent_sandwich,
    check_gentle,
    verify,
)
from definetti.haar import exact_qubit_rule, monte_carlo_rule
from definetti.hamming import weight_family
from definetti.linalg import Operator, PureState
from definetti.symmetric import (
    SymmetricState,
    dicke_state,
    ghz_state,
    random_symmetric_pure,
    sym_dim,
    symmetrizer,
)
from oracles import (
    check_operator_inequality,
    hamming_distance,
    pure_power_moment,
    random_state,
    tail_function,
    tau_psi,
)

_END_TO_END_CACHE = {}


def _report(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_post_selection_identity():
    # scaled moment of |theta><theta|^n rebuilds the symmetric projector
    worst_exact = 0.0
    for n in range(1, 7):
        moment = pure_power_moment(exact_qubit_rule(n), n).entries
        target = symmetrizer(n, 2).entries
        worst_exact = max(worst_exact, float(np.max(np.abs(sym_dim(n, 2) * moment - target))))
    assert worst_exact <= 1e-11

    rule = monte_carlo_rule(3, 100000, seed=0)
    moment = pure_power_moment(rule, 2).entries
    target = symmetrizer(2, 3).entries
    mc_error = float(np.max(np.abs(sym_dim(2, 3) * moment - target)))
    assert mc_error <= 5e-3

    _report(
        "post-selection identity",
        worst_exact <= 1e-11 and mc_error <= 5e-3,
        f"exact d=2 n<=6 max error {worst_exact:.3e} <= 1e-11, "
        f"mc d=3 n=2 max error {mc_error:.3e} <= 5e-3",
    )


def test_tail_identity():
    # escaped-weight trace of a tensor power matches the binomial tail
    cells = [(d, n) for d in (2, 3) for n in range(1, 7)]
    rng = np.random.default_rng(0)
    worst = 0.0
    for index in range(100):
        d, n = cells[index % len(cells)]
        theta = random_state(rng, d)
        psi = random_state(rng, d)
        overlap = abs(theta.overlap(psi)) ** 2
        family = weight_family(psi, n)
        vec = theta.tensor_power(n).amplitudes
        masses = np.array(
            [float(np.real(vec.conj() @ (proj.entries @ vec))) for proj in family.projectors]
        )
        above = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])
        for r in range(n + 2):
            worst = max(worst, abs(above[r] - tail_function(n, r, overlap)))
    _report(
        "tail identity",
        worst <= 1e-10,
        f"100 pairs, d in {{2,3}}, n <= 6, all r: max deviation {worst:.3e} <= 1e-10",
    )


def test_tail_decay_claim():
    # tail stays below exp(-r/3) left of the divergence threshold
    min_slack = math.inf
    divergence_ok = True
    for n in range(1, 51):
        for r in range(1, n + 1):
            try:
                min_slack = min(min_slack, check_chernoff_claim(n, r))
            except ArithmeticError:
                divergence_ok = False
    _report(
        "tail decay claim",
        divergence_ok and min_slack >= -1e-12,
        f"n <= 50, all r: min tail slack {min_slack:.3e} >= -1e-12, "
        f"divergence bound {'holds' if divergence_ok else 'fails'}",
    )


def test_gentle_measurement():
    dims = (2, 3, 4, 8, 16)
    rng = np.random.default_rng(0)
    min_slack = math.inf
    for index in range(200):
        side = dims[index % len(dims)]
        g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
        h = h + h.conj().T
        eigs, vecs = np.linalg.eigh(h)
        eigs = (eigs - eigs.min()) / (eigs.max() - eigs.min())
        effect = (vecs * eigs) @ vecs.conj().T
        lhs, rhs = check_gentle(Operator(side, 1, rho), Operator(side, 1, effect))
        min_slack = min(min_slack, rhs - lhs)
    _report(
        "gentle measurement",
        min_slack >= -1e-10,
        f"200 pairs, dim <= 16: min slack {min_slack:.6g} >= -1e-10",
    )


def test_operator_upper_bound():
    # conditioned state sits below the scaled averaged-overlap operator
    cells = [(n, k) for n in range(1, 5) for k in range(1, 5)]
    rng = np.random.default_rng(0)
    min_slack = math.inf
    for seed in range(20):
        n, k = cells[seed % len(cells)]
        state = random_symmetric_pure(n + k, 2, seed)
        inst = Instance(d=2, n=n, k=k, r=0, rho=SymmetricState.from_dense(state.pure().projector()))
        psi = random_state(rng, 2)
        min_slack = min(min_slack, check_operator_inequality(inst, psi, exact_qubit_rule(n + k)))
    _report(
        "operator upper bound",
        min_slack >= -1e-9,
        f"20 pairs, n,k <= 4: min eigenvalue slack {min_slack:.3e} >= -1e-9",
    )


def _end_to_end():
    """Shared d=2, n=k=4 certification sweep over eight states and r=0..4."""
    if _END_TO_END_CACHE:
        return _END_TO_END_CACHE
    rule = exact_qubit_rule(8)
    base = PureState(2, 1, [1.0, 0.0])
    states = {
        "product": base.tensor_power(8),
        "ghz": ghz_state(8, 2).pure(),
        "dicke:4,4": dicke_state(8, 2, (4, 4)).pure(),
    }
    for seed in range(1, 6):
        states[f"random-sym:{seed}"] = random_symmetric_pure(8, 2, seed).pure()

    reports = {}
    support = {"fallback": 0, "kept": 0, "worst_fallback": -1, "worst_kept": -1, "ok": True}
    for name, state in states.items():
        rho = SymmetricState.from_dense(state.projector())
        for r in range(5):
            inst = Instance(d=2, n=4, k=4, r=r, rho=rho)
            reports[(name, r)] = verify(inst, rule)
            for j in range(rule.node_count):
                node = rule.node(j)
                _, tau, used_fallback = tau_psi(inst, node)
                distance = hamming_distance(tau, node, 1e-10)
                if used_fallback:
                    support["fallback"] += 1
                    support["worst_fallback"] = max(support["worst_fallback"], distance - r)
                    support["ok"] &= distance <= r
                else:
                    support["kept"] += 1
                    support["worst_kept"] = max(support["worst_kept"], distance - (r - 1))
                    support["ok"] &= distance <= r - 1
    _END_TO_END_CACHE["reports"] = reports
    _END_TO_END_CACHE["support"] = support
    return _END_TO_END_CACHE


def test_end_to_end_certification():
    reports = _end_to_end()["reports"]
    all_pass = all(report.status == PASS for report in reports.values())
    chain_ok = all(
        report.lhs - report.lhs_integration_error <= report.chain_bound + 1e-9
        and report.chain_bound <= report.explicit_bound + 1e-9
        for report in reports.values()
    )

    bell_state = SymmetricState.from_dense(ghz_state(2, 2).pure().projector())
    bell = verify(Instance(d=2, n=1, k=1, r=1, rho=bell_state), exact_qubit_rule(6))
    anchor_ok = (
        bell.lhs <= 1e-8
        and abs(bell.chain_bound - math.sqrt(6)) <= 1e-9
        and abs(bell.explicit_bound - 6 * math.sqrt(3) * math.exp(-1 / 6)) <= 1e-9
    )

    passed = sum(report.status == PASS for report in reports.values())
    _report(
        "end-to-end certification",
        all_pass and chain_ok and anchor_ok,
        f"{passed}/{len(reports)} instances PASS, bound chain ordered, "
        f"closed-form anchor within 1e-9",
    )


def test_exponent_sandwich():
    pairs = [(n, k) for n in range(1, 51) for k in range(1, 51)]
    ok = check_exponent_sandwich(pairs)
    _report("exponent sandwich", ok, "exact arithmetic, all n,k <= 50")


def test_truncated_state_support():
    support = _end_to_end()["support"]
    _report(
        "truncated state support",
        support["ok"],
        f"{support['kept']} kept nodes within r-1 (max excess {support['worst_kept']}), "
        f"{support['fallback']} fallback nodes within r (max excess {support['worst_fallback']})",
    )
