"""50-digit references for `verify`, computed from the definitions in mpmath.

`qubit_rows` covers any qubit `SymmetricState` under any rule, node by node.
It takes the rule's float nodes and weights exactly, so it checks the node
pass and not the rule. Tr_k rho comes from binomials, the frame of a node
from polynomial expansion, and trace norms from `mp.eighe`.

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

    psi = (alpha, beta) and psi_perp = (-conj(beta), conj(alpha)), so row i spans
    the deviation weight i in the frame of psi. The symmetric state of the
    polynomial (psi.x)^(n-i) (psi_perp.x)^i has [x0^(n-s) x1^s] / sqrt(C(n, s)) as
    its coefficient on the Dicke state with s sites on level 1.
    """
    perp = (-mpmath.conj(beta), mpmath.conj(alpha))
    alphas, betas = [alpha**p for p in range(n + 1)], [beta**p for p in range(n + 1)]
    perps = [[x**p for p in range(n + 1)] for x in perp]
    rows = []
    for i in range(n + 1):
        # by the degree in x1: (alpha x0 + beta x1)^(n-i) and (psi_perp.x)^i
        head = [math.comb(n - i, j) * alphas[n - i - j] * betas[j] for j in range(n - i + 1)]
        tail = [math.comb(i, j) * perps[0][i - j] * perps[1][j] for j in range(i + 1)]
        row = [
            mpmath.fdot((head[j], tail[s - j]) for j in range(max(0, s - i), min(s, n - i) + 1))
            / mpmath.sqrt(math.comb(n, s))
            for s in range(n + 1)
        ]
        norm = mpmath.sqrt(mpmath.fsum(abs(c) ** 2 for c in row))
        rows.append([c / norm for c in row])
    return rows


def _gram(vectors, size: int):
    """sum_v |v><v| over `vectors` of `size` entries, as an mpmath matrix."""
    out = mpmath.matrix(size)
    for s in range(size):
        for t in range(size):
            out[s, t] = mpmath.fdot((v[s] for v in vectors), (mpmath.conj(v[t]) for v in vectors))
    return out


def qubit_rows(state, n: int, rule, thresholds) -> tuple[list, object, list]:
    """(lhs per threshold, delta, sum_j w_j escaped_j per threshold) of `verify` at d=2.

    `state` is a `SymmetricState` of n+k qubits; its coefficient t belongs to the
    Dicke state with t sites on level 0 (`type_table`'s ascending order). The
    kept sites are counted by s and the conditioned ones by u, both on level 1:
    rho's vector is sum C[s,u] |D_n,s>|D_k,u> with
    C[s,u] = c_(s+u) sqrt(C(n,s) C(k,u) / C(n+k,s+u)), so Tr_k rho = C C^dag, and
    phi_psi = C b(psi) with b_u = <psi|^(x)k |D_k,u> = sqrt(C(k,u)) conj(psi_0)^(k-u)
    conj(psi_1)^u. A node keeps the weights below r of phi_psi in its frame and
    falls back to psi^(x)n when the kept mass is at most _FALLBACK_FRACTION of its
    trace; delta is the lhs of the keep-all threshold n+1, which falls back only at
    trace 0. lhs = ||Tr_k rho - sum_j w_j (k+1) trace_j |tau_j><tau_j| ||_1.
    """
    k = state.sites - n
    thresholds = tuple(thresholds) + (n + 1,)
    with mpmath.workdps(DIGITS):
        c = [mpmath.mpc(complex(x)) for x in state.coefficients[::-1]]  # by sites on level 1
        coupling = [
            [
                c[s + u] * mpmath.sqrt(mpmath.mpf(math.comb(n, s) * math.comb(k, u)))
                / mpmath.sqrt(math.comb(n + k, s + u))
                for u in range(k + 1)
            ]
            for s in range(n + 1)
        ]
        reduced = _gram(list(zip(*coupling)), n + 1)
        columns = [[] for _ in thresholds]  # sqrt(w_j (k+1) trace_j) tau_j
        escaped = [mpmath.mpf(0)] * len(thresholds)
        for node, w in zip(rule.node_matrix, rule.weights):
            alpha, beta = mpmath.mpc(complex(node[0])), mpmath.mpc(complex(node[1]))
            weight = mpmath.mpf(float(w))
            bra_0, bra_1 = mpmath.conj(alpha), mpmath.conj(beta)
            bra = [mpmath.sqrt(math.comb(k, u)) * bra_0 ** (k - u) * bra_1**u for u in range(k + 1)]
            phi = [mpmath.fdot(row, bra) for row in coupling]
            basis = _weight_basis(n, alpha, beta)
            amplitudes = [mpmath.fdot((mpmath.conj(x) for x in row), phi) for row in basis]
            masses = [abs(a) ** 2 for a in amplitudes]
            trace = mpmath.fsum(masses)
            for i, r in enumerate(thresholds):
                kept = mpmath.fsum(masses[:r])
                escaped[i] += weight * mpmath.fsum(masses[r:])
                scale = mpmath.sqrt(weight * (k + 1) * trace)
                if kept <= (_FALLBACK_FRACTION if r <= n else 0) * trace:
                    tau = basis[0]  # psi^(x)n
                else:
                    scale /= mpmath.sqrt(kept)
                    tau = [
                        mpmath.fdot(amplitudes[:r], (row[s] for row in basis)) for s in range(n + 1)
                    ]
                columns[i].append([scale * x for x in tau])
        lhs = [
            mpmath.fsum(abs(e) for e in mpmath.eighe(reduced - _gram(v, n + 1), eigvals_only=True))
            for v in columns
        ]
        return lhs[:-1], lhs[-1], escaped[:-1]


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
