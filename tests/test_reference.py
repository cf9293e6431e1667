"""`verify` against the 50-digit Dicke reference of `tests/reference.py`.

The reference builds its Gauss-Legendre nodes in mpmath, so it checks the
rule and the node pass together. Until `verify` carries a computed roundoff
bound, its lhs must lie within LHS_ATOL of the reference on every row.
Measured |float - reference| per row is logged in CHANGES.md: at most
1.6e-15 at n=k=12 and 1.2e-15 at n=k=40, where float lhs is roundoff from
about r=32 on.
"""

import mpmath
import numpy as np
import pytest

from definetti.certifier import Instance, verify
from definetti.cli import parse_state_spec
from definetti.haar import exact_qubit_rule
from reference import DIGITS, dicke_lhs, gauss_legendre

LHS_ATOL = 1e-14


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


@pytest.mark.parametrize(
    "n,spec,thresholds",
    [(12, "dicke:17,7", range(13)), (40, "dicke:47,33", (20, 30, 36, 40))],
    ids=["n12", "n40"],
)
def test_dicke_lhs_matches_fifty_digit_reference(n, spec, thresholds):
    state, _ = parse_state_spec(spec, 2, 2 * n)
    ones = int(spec.split(",")[1])
    reports = verify(Instance(d=2, n=n, k=n, r=0, rho=state), exact_qubit_rule(n), thresholds)
    for r, report, expected in zip(thresholds, reports, dicke_lhs(n, n, ones, n, thresholds)):
        assert abs(report.lhs - float(expected)) <= LHS_ATOL, (r, report.lhs, expected)
