"""50-digit references for `verify`, computed from the definitions in mpmath.

`dicke_lhs` covers a qubit Dicke state under `exact_qubit_rule(t)`. The state
is invariant under the phase D^(x)(n+k), so the 2t+2 nodes of one azimuth
ring give conditioned and truncated states that differ only by D^(x)n, and
the equispaced azimuths cancel every off-diagonal frequency up to 2t+1 >= n.
Each ring then adds a diagonal matrix to the approximant, read off the ring's
node at azimuth 0, and the trace norm is a sum over that diagonal.

Only the fallback fraction is read from `certifier`: the nodes come from
`mp.findroot`, the frame of a node from polynomial expansion, and Tr_k rho
from binomials.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from definetti.certifier import _FALLBACK_FRACTION

DIGITS = 50


def gauss_legendre(points: int) -> tuple[list, list]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and their weights, at the working precision.

    Each root of P_points is polished by `mp.findroot` from numpy's node, which
    lies within roundoff of it; the weight is 2 / ((1 - x^2) P'(x)^2).
    """
    seeds = np.polynomial.legendre.leggauss(points)[0]
    nodes = [mpmath.findroot(lambda x: mpmath.legendre(points, x), mpmath.mpf(s)) for s in seeds]
    if not all(b - a > mpmath.mpf(10) ** (-DIGITS // 2) for a, b in zip(nodes, nodes[1:])):
        raise ArithmeticError(f"findroot found fewer than {points} distinct roots")
    weights = []
    for x in nodes:
        slope = points * (x * mpmath.legendre(points, x) - mpmath.legendre(points - 1, x))
        weights.append(2 * (1 - x * x) / slope**2)  # P' = slope / (x^2 - 1)
    return nodes, weights


def _weight_basis(n: int, alpha, beta) -> list[list]:
    """Row i: the unit Dicke coefficients of Sym^n(psi^(x)(n-i) (x) psi_perp^(x)i).

    psi = (alpha, beta) is real and psi_perp = (-beta, alpha), so row i spans the
    deviation weight i in the frame of psi. The symmetric state of the polynomial
    (psi.x)^(n-i) (psi_perp.x)^i has [x0^(n-s) x1^s] / sqrt(C(n, s)) as its
    coefficient on the Dicke state with s sites on level 1.
    """
    alphas, betas = [alpha**p for p in range(n + 1)], [beta**p for p in range(n + 1)]
    rows = []
    for i in range(n + 1):
        # by the degree in x1: (alpha x0 + beta x1)^(n-i) and (-beta x0 + alpha x1)^i
        head = [math.comb(n - i, j) * alphas[n - i - j] * betas[j] for j in range(n - i + 1)]
        tail = [(-1) ** (i - j) * math.comb(i, j) * betas[i - j] * alphas[j] for j in range(i + 1)]
        row = [
            mpmath.fdot((head[j], tail[s - j]) for j in range(max(0, s - i), min(s, n - i) + 1))
            / mpmath.sqrt(math.comb(n, s))
            for s in range(n + 1)
        ]
        norm = mpmath.sqrt(mpmath.fsum(c * c for c in row))
        rows.append([c / norm for c in row])
    return rows


def dicke_lhs(n: int, k: int, ones: int, t: int, thresholds) -> list:
    """lhs of `verify` per threshold r in 0..n, for dicke:(n+k-ones),ones under exact:t.

    lhs = sum_s |p_s - A_ss|, s the kept sites on level 1, with
    p_s = C(n,s) C(k,ones-s) / C(n+k,ones) and A = sym_dim(k,2) sum_j w_j trace(rho_j) tau_j.
    """
    if n > 2 * t + 1:
        raise ValueError(f"the azimuths of exact:{t} do not cancel frequencies up to n={n}")
    thresholds = tuple(thresholds)
    with mpmath.workdps(DIGITS):
        total = math.comb(n + k, ones)
        # the Dicke state splits as sum_s sqrt(p_s) |D_n,s> |D_k,ones-s>
        split = [
            math.comb(n, s) * math.comb(k, ones - s) if 0 <= ones - s <= k else 0
            for s in range(n + 1)
        ]
        reduced = [mpmath.mpf(p) / total for p in split]
        diagonals = [[mpmath.mpf(0)] * (n + 1) for _ in thresholds]
        for u, weight in zip(*gauss_legendre(t + 1)):
            alpha, beta = mpmath.sqrt((1 + u) / 2), mpmath.sqrt((1 - u) / 2)
            # phi_s = (<D_n,s| (x) <psi|^(x)k) rho-vector with u = ones - s sites of k on level 1,
            # <psi|^(x)k |D_k,u> = sqrt(C(k,u)) alpha^(k-u) beta^u; rho_psi = |phi><phi|
            phi = [
                mpmath.sqrt(p * math.comb(k, u)) * alpha ** (k - u) * beta**u if p else p
                for p, u in zip(reduced, range(ones, ones - n - 1, -1))
            ]
            basis = _weight_basis(n, alpha, beta)
            amplitudes = [mpmath.fdot(row, phi) for row in basis]
            trace = mpmath.fsum(c * c for c in amplitudes)
            for diagonal, r in zip(diagonals, thresholds):
                kept = mpmath.fsum(c * c for c in amplitudes[:r])
                if kept <= _FALLBACK_FRACTION * trace:
                    tau = basis[0]  # psi^(x)n
                else:
                    scale = 1 / mpmath.sqrt(kept)
                    tau = [
                        scale * mpmath.fdot(amplitudes[:r], (row[s] for row in basis))
                        for s in range(n + 1)
                    ]
                for s in range(n + 1):
                    diagonal[s] += weight / 2 * (k + 1) * trace * tau[s] ** 2
        return [mpmath.fsum(abs(p - a) for p, a in zip(reduced, diag)) for diag in diagonals]
