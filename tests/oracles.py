"""Dense reference oracles and per-node views that only the tests call.

The per-node views condition and truncate one node on the certifier's own
kernels and map the result into the d^n space; the dense oracles build
operators on the d^n basis directly. Nothing in the package imports this
module.
"""

import math

import numpy as np

from definetti.certifier import (
    _bra_powers,
    _condition,
    _coupling,
    _gram,
    _prepare,
    _truncate,
    tail_function_grid,
)
from definetti.hamming import weight_family
from definetti.linalg import DimensionError, Operator, PureState, _hermitian_entries, power_rows
from definetti.symmetric import strings_from_dicke, sym_dim

DISTANCE_TOL = 1e-10
_TRACE_ATOL = 1e-8


def random_state(rng, d, m=1):
    """A Haar-random pure state on m sites: a normalized complex Gaussian from `rng`."""
    z = rng.standard_normal(d**m) + 1j * rng.standard_normal(d**m)
    return PureState.normalized(d, m, z)


def tensor(a, b):
    """Kronecker product; `a` occupies the leading (most significant) sites."""
    if a.site_dim != b.site_dim:
        raise DimensionError("tensor requires equal site dimensions")
    return Operator(a.site_dim, a.sites + b.sites, np.kron(a.entries, b.entries))


def min_eigenvalue(a):
    """Smallest eigenvalue of a hermitian operator."""
    return float(np.linalg.eigvalsh(_hermitian_entries(a, "min_eigenvalue"))[0])


def dicke_isometry(n, d):
    """The d^n x sym_dim(n, d) isometry V whose column t is the Dicke state of type t."""
    return strings_from_dicke(n, d, np.eye(sym_dim(n, d), dtype=np.complex128))


def _site_strings(n, d):
    """(d**n, n) table of base-d digits; row j spells basis index j, site 1 first."""
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    for s in range(n - 1, -1, -1):
        digits[:, s] = idx % d
        idx //= d
    return digits


def permutation_operator(n, d, perm):
    """Unitary that moves the content of site i to site perm[i]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    moved = np.empty((d**n, n), dtype=np.int64)
    moved[:, perm] = _site_strings(n, d)
    mat = np.zeros((d**n, d**n), dtype=np.complex128)
    mat[moved @ d ** np.arange(n - 1, -1, -1), np.arange(d**n)] = 1.0
    return Operator(d, n, mat)


def pure_power_moment(rule, s):
    """sum_j w_j |theta_j><theta_j|^(x)s, as a weighted Gram of tensor-power rows."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    rows = power_rows(rule.node_matrix, s)
    return Operator(rule.d, s, (rows * rule.weights[:, None]).T @ rows.conj())


def node_pass(inst, nodes):
    """Condition, truncate and renormalize at every row of `nodes` at once."""
    phi = _coupling(inst) @ _bra_powers(nodes, inst.k)
    return _truncate(inst, _condition(inst, phi, nodes))


def _spread(inst, dicke):
    """V A V^T in the d^n space for an operator A on the n kept sites in Dicke coordinates."""
    rows = strings_from_dicke(inst.n, inst.d, dicke)
    return Operator(inst.d, inst.n, strings_from_dicke(inst.n, inst.d, rows.T).T)


def rho_psi(inst, psi):
    """rho conditioned on observing psi^(x)k in the trailing k sites."""
    return _spread(inst, _gram(_coupling(inst) @ _bra_powers(psi.amplitudes[None, :], inst.k)))


def tau_psi(inst, psi):
    """(trace of rho_psi truncated below weight r, the renormalized state, fallback flag).

    Where the truncated trace is a negligible part of the trace of rho_psi
    (always at r = 0), the state falls back to psi^(x)n, of deviation weight 0.
    """
    node = node_pass(inst, psi.amplitudes[None, :])
    return float(node.kept[0]), _spread(inst, _gram(node.tau)), bool(node.fallback[0])


def approximant(inst, rule):
    """The weighted average sym_dim(k,d) int trace(rho_psi) tau_psi d(psi), from verify's pass."""
    return _spread(inst, _prepare(inst, rule, (inst,)).grams[0])


def nu_weight_normalization(inst, rule):
    """Total mass sym_dim(k,d) int trace(rho_psi) d(psi); 1 for exact rules."""
    return _prepare(inst, rule, (inst,)).mass


def check_operator_inequality(inst, psi, rule):
    """Smallest eigenvalue of sym_dim(n+k,d) int |theta^n><theta^n| |<theta|psi>|^2k - rho_psi.

    For rules of exact degree >= n+k it dips below zero only by roundoff.
    """
    overlaps = np.abs(rule.node_matrix.conj() @ psi.amplitudes) ** 2
    coefficients = sym_dim(inst.n + inst.k, inst.d) * rule.weights * overlaps**inst.k
    upper = Operator(inst.d, inst.n, _gram(power_rows(rule.node_matrix, inst.n).T, coefficients))
    return min_eigenvalue(upper - rho_psi(inst, psi))


def binary_divergence(p, q):
    """Relative entropy p ln(p/q) + (1-p) ln((1-p)/(1-q)) of coin biases."""
    if not 0.0 <= p <= 1.0 or not 0.0 < q < 1.0:
        raise ValueError(f"need p in [0,1] and q in (0,1), got p={p} q={q}")
    first = 0.0 if p == 0.0 else p * math.log(p / q)
    second = 0.0 if p == 1.0 else (1 - p) * math.log((1 - p) / (1 - q))
    return first + second


def tail_function(n, r, x):
    """`certifier.tail_function_grid` at the single point x."""
    return float(tail_function_grid(n, r, np.array([x]))[0])


def hamming_distance(tau, psi, tol=DISTANCE_TOL):
    """Smallest r such that the state tau has at most `tol` on deviation weights above r."""
    if psi.sites != 1 or psi.site_dim != tau.site_dim:
        raise ValueError("hamming_distance needs a single-site psi on tau's site dimension")
    if abs(tau.trace().real - 1.0) > _TRACE_ATOL or abs(tau.trace().imag) > _TRACE_ATOL:
        raise ValueError(f"tau must have unit trace, got {tau.trace():.6g}")
    if not tau.is_psd():
        raise ValueError("tau must be positive semidefinite")
    family = weight_family(psi, tau.sites)
    masses = [np.einsum("ij,ji->", q.entries, tau.entries).real for q in family.projectors]
    above = np.cumsum(masses[::-1])[::-1]  # above[j] = sum_{i >= j}
    return next((r for r in range(tau.sites) if above[r + 1] <= tol), tau.sites)
