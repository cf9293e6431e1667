"""`verify` against the 50-digit references of `tests/reference.py`.

The Dicke reference builds its Gauss-Legendre nodes in mpmath, so it checks
the rule and the node pass together; the whole-row reference takes the rule's
float nodes, so it checks the node pass alone. Until `verify` carries a
computed roundoff bound, its lhs and delta must lie within LHS_ATOL of the
reference on every row, and its chain bound within CHAIN_RTOL. Measured
|float - reference| per row is logged in CHANGES.md: lhs at most 1.6e-15 at
n=k=12 and 1.2e-15 at n=k=40, where float lhs is roundoff from about r=32 on;
on the whole rows at n=k <= 6, lhs at most 9.3e-16, delta 9.5e-16 and the
chain bound 2.0e-15 relative.

The float Gauss-Legendre rule of `haar` is pinned against the mpmath one:
its weights are off by 1.26e-14, 6.29e-14 and 9.12e-14 relative at 13, 41
and 101 points, and its nodes by at most 4.3e-16, which item 3's roundoff
bound of ROADMAP.md has to cover.
"""

import math

import mpmath
import numpy as np
import pytest

from definetti.certifier import Instance, verify
from definetti.cli import parse_state_spec
from definetti.haar import _gauss_legendre, exact_qubit_rule
from reference import DIGITS, dicke_lhs, gauss_legendre, qubit_rows

LHS_ATOL = 1e-14
CHAIN_RTOL = 1e-12


@pytest.mark.parametrize("points", [13, 41])
def test_gauss_legendre_reference_is_exact_through_its_degree(points):
    with mpmath.workdps(DIGITS):
        nodes, weights = gauss_legendre(points)
        assert all(a < b for a, b in zip(nodes, nodes[1:]))  # points distinct roots
        tol = mpmath.mpf(10) ** (5 - DIGITS)
        assert all(abs(mpmath.legendre(points, x)) <= tol for x in nodes)
        # the integral of x^e over [-1, 1] for every degree e <= 2 points - 1
        for e in range(2 * points):
            moment = mpmath.fdot(weights, (x**e for x in nodes))
            assert abs(moment - (1 + (-1) ** e) / mpmath.mpf(e + 1)) <= tol, e
    seeds = np.polynomial.legendre.leggauss(points)[0]
    np.testing.assert_allclose([float(x) for x in nodes], seeds, rtol=0, atol=1e-14)


@pytest.mark.parametrize("points", [13, 41, 101])
def test_float_gauss_legendre_roundoff_is_pinned(points):
    float_nodes, float_weights = _gauss_legendre(points)
    with mpmath.workdps(DIGITS):
        nodes, weights = gauss_legendre(points)
        node_err = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(float_nodes, nodes))
        weight_err = max(abs(mpmath.mpf(float(a)) - b) / b for a, b in zip(float_weights, weights))
    assert node_err <= 1e-15, node_err
    assert weight_err <= 2e-13, weight_err


@pytest.mark.parametrize(
    "n,spec,thresholds",
    [(12, "dicke:17,7", range(13)), (40, "dicke:47,33", (20, 30, 36, 40))],
    ids=["n12", "n40"],
)
def test_dicke_lhs_matches_fifty_digit_reference(n, spec, thresholds):
    state, _ = parse_state_spec(spec, 2, 2 * n)
    ones = int(spec.split(",")[1])
    reports = verify(Instance(d=2, n=n, k=n, rho=state), exact_qubit_rule(n), thresholds)
    for r, report, expected in zip(thresholds, reports, dicke_lhs(n, n, ones, n, thresholds)):
        assert abs(report.lhs - float(expected)) <= LHS_ATOL, (r, report.lhs, expected)


WHOLE_ROWS = [
    (n, spec) for n in (2, 3, 4, 6) for spec in ("random-sym:3", "ghz", f"dicke:{n + 1},{n - 1}")
]


@pytest.mark.parametrize("n,spec", WHOLE_ROWS)
def test_whole_rows_match_fifty_digit_reference(n, spec):
    state, _ = parse_state_spec(spec, 2, 2 * n)
    rule, thresholds = exact_qubit_rule(n), range(n + 1)
    reports = verify(Instance(d=2, n=n, k=n, rho=state), rule, thresholds)
    lhs, delta, escaped = qubit_rows(state, n, rule, thresholds)
    for r, report, expected, mass in zip(thresholds, reports, lhs, escaped):
        assert abs(report.lhs - float(expected)) <= LHS_ATOL, (r, report.lhs, expected)
        assert abs(report.lhs_err - float(delta)) <= LHS_ATOL, (r, delta)
        chain = 3 * (n + 1) * math.sqrt(mass)  # sym_dim(k, 2) = k + 1
        assert abs(report.chain_bound - chain) <= CHAIN_RTOL * chain, (r, report.chain_bound, chain)
