"""Dense reference oracles and per-node views that only the tests call.

The per-node views condition and truncate one node on the certifier's own
kernels and map the result into the d^n space; the dense oracles build
operators on the d^n basis directly. The binomial tail on a grid and the
dense gentle measurement check are references for the lemmas themselves,
and `type_table_reference` is the type table counted from sorted n-tuples.
`dense_pure`, `dicke_coefficients` and `from_dense` convert between the
package's Dicke coefficients and the dense d^n states of these oracles.
Nothing in the package imports this module.
"""

import itertools
import math

import numpy as np

from definetti.certifier import (
    _bra_powers,
    _condition,
    _coupling,
    _gram,
    _prepare,
    _truncate,
)
from definetti.hamming import weight_family
from definetti.linalg import (
    PSD_ATOL,
    DimensionError,
    Operator,
    PureState,
    _hermitian_entries,
    power_rows,
    trace_norm,
)
from definetti.symmetric import SymmetricState, strings_from_dicke, sym_dim, type_codes

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


def type_table_reference(n, d):
    """`type_table` counted from every sorted n-tuple of levels, read in reverse to ascend."""
    levels = itertools.combinations_with_replacement(range(d), n)
    levels = np.array(list(levels)[::-1], dtype=np.int64).reshape(sym_dim(n, d), n)
    types = np.stack([(levels == c).sum(axis=1) for c in range(d)], axis=1)
    mult = [math.factorial(n) // math.prod(map(math.factorial, row)) for row in types.tolist()]
    mult = np.array(mult, dtype=np.float64)
    types.setflags(write=False)
    mult.setflags(write=False)
    return types, mult


def dicke_isometry(n, d):
    """The d^n x sym_dim(n, d) isometry V whose column t is the Dicke state of type t."""
    return strings_from_dicke(n, d, np.eye(sym_dim(n, d), dtype=np.complex128))


def dense_pure(state):
    """The d^n amplitudes of a SymmetricState: c_t / sqrt(mult_t) on every basis string of type t."""
    amplitudes = strings_from_dicke(state.sites, state.site_dim, state.coefficients[:, None])
    return PureState(state.site_dim, state.sites, amplitudes[:, 0])


def dicke_coefficients(state):
    """(c, beta): the Dicke coefficients of a dense PureState and the norm of its non-symmetric part.

    With S_t the sum of the amplitudes over the basis strings of type t,
    c_t = S_t / sqrt(mult_t) in the order of `type_table`. Projecting onto the
    symmetric subspace replaces each amplitude by S_t / mult_t. `np.bincount`
    sums in order, so S_t carries up to about mult_t ulps of error (4e-12
    relative at n+k = 21); summing the deviations from those means once more
    removes it. The residual beta is the norm of the deviations, summed
    directly: 1 - sum_t |c_t|^2 loses it to cancellation near 1e-8.
    """
    code = type_codes(state.sites, state.site_dim)
    mult = np.bincount(code)

    def type_sums(values):
        return np.bincount(code, values.real) + 1j * np.bincount(code, values.imag)

    sums = type_sums(state.amplitudes)
    deviation = state.amplitudes - (sums / mult)[code]
    coefficients = (sums + type_sums(deviation)) / np.sqrt(mult)
    return coefficients, float(np.linalg.norm(deviation))


def from_dense(rho):
    """The SymmetricState of a symmetric dense PureState, or of a pure Operator's top eigenvector."""
    if isinstance(rho, Operator):
        rho = PureState(rho.site_dim, rho.sites, np.linalg.eigh(rho.entries)[1][:, -1])
    return SymmetricState(rho.site_dim, rho.sites, dicke_coefficients(rho)[0])


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


def node_pass(inst, nodes, r):
    """Condition, truncate below weight r and renormalize at every row of `nodes` at once."""
    phi = _coupling(inst) @ _bra_powers(nodes, inst.k)
    return _truncate(inst.n, inst.d, r, _condition(inst, phi, nodes))


def _spread(inst, dicke):
    """V A V^T in the d^n space for an operator A on the n kept sites in Dicke coordinates."""
    rows = strings_from_dicke(inst.n, inst.d, dicke)
    return Operator(inst.d, inst.n, strings_from_dicke(inst.n, inst.d, rows.T).T)


def rho_psi(inst, psi):
    """rho conditioned on observing psi^(x)k in the trailing k sites."""
    return _spread(inst, _gram(_coupling(inst) @ _bra_powers(psi.amplitudes[None, :], inst.k)))


def tau_psi(inst, psi, r):
    """(trace of rho_psi truncated below weight r, the renormalized state, fallback flag).

    Where the truncated trace is a negligible part of the trace of rho_psi
    (always at r = 0), the state falls back to psi^(x)n, of deviation weight 0.
    """
    node = node_pass(inst, psi.amplitudes[None, :], r)
    return float(node.kept[0]), _spread(inst, _gram(node.tau)), bool(node.fallback[0])


def approximant(inst, rule, r):
    """The weighted average sym_dim(k,d) int trace(rho_psi) tau_psi d(psi) at threshold r."""
    return _spread(inst, _prepare(inst, rule, (r,)).grams[0])


def nu_weight_normalization(inst, rule):
    """Total mass sym_dim(k,d) int trace(rho_psi) d(psi); 1 for exact rules.

    It is the trace of the post-selection Gram sym_dim(k,d) sum_j w_j |phi_j><phi_j|.
    """
    return float(np.trace(_prepare(inst, rule, ()).post_selection).real)


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


def tail_function_grid(n, r, xs):
    """Upper binomial tail sum_{i >= r} C(n, i) x^(n-i) (1-x)^i at every x in xs.

    The probability that at least r of n independent trials fail when each
    succeeds with probability x. Equals 1 at r <= 0 and 0 at r = n + 1.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= r <= n + 1:
        raise ValueError(f"r={r} outside 0..{n + 1}")
    for x in (float(xs.min(initial=0.0)), float(xs.max(initial=0.0))):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x={x} outside [0, 1]")
    if r <= 0:
        return np.ones_like(xs)
    if r == n + 1:
        return np.zeros_like(xs)
    i = np.arange(r, n + 1)
    coeff = np.array([float(math.comb(n, j)) for j in i])
    terms = coeff[None, :] * xs[:, None] ** (n - i)[None, :] * (1 - xs)[:, None] ** i[None, :]
    return terms.sum(axis=1)


def tail_function(n, r, x):
    """`tail_function_grid` at the single point x."""
    return float(tail_function_grid(n, r, np.array([x]))[0])


def check_gentle(rho, x_op):
    """Both sides of the gentle measurement inequality.

    Returns (||rho - sqrt(X) rho sqrt(X)||_1, 2 sqrt(tr rho) sqrt(tr rho(I-X)))
    for PSD rho and 0 <= X <= I.
    """
    if not rho.is_psd():
        raise ValueError("rho must be PSD")
    if not x_op.is_hermitian():
        raise ValueError("X must be hermitian")
    if (rho.site_dim, rho.sites) != (x_op.site_dim, x_op.sites):
        raise ValueError("rho and X must act on the same space")
    eigs, vecs = np.linalg.eigh(x_op.entries)
    if eigs[0] < -PSD_ATOL or eigs[-1] > 1 + PSD_ATOL:
        raise ValueError(f"X must satisfy 0 <= X <= I, spectrum [{eigs[0]:.3e}, {eigs[-1]:.6f}]")
    root = Operator(
        x_op.site_dim, x_op.sites, (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
    )
    lhs = trace_norm(rho - root @ rho @ root)
    leak = (rho.trace() - (rho @ x_op).trace()).real
    rhs = 2.0 * math.sqrt(rho.trace().real) * math.sqrt(max(leak, 0.0))
    return lhs, rhs


def hamming_distance(tau, psi, tol=DISTANCE_TOL):
    """Smallest r such that the state tau has at most `tol` on deviation weights above r."""
    if psi.sites != 1 or psi.site_dim != tau.site_dim:
        raise ValueError("hamming_distance needs a single-site psi on tau's site dimension")
    if abs(tau.trace().real - 1.0) > _TRACE_ATOL or abs(tau.trace().imag) > _TRACE_ATOL:
        raise ValueError(f"tau must have unit trace, got {tau.trace():.6g}")
    if not tau.is_psd():
        raise ValueError("tau must be positive semidefinite")
    family = weight_family(psi, tau.sites)
    masses = [np.einsum("ij,ji->", q.entries, tau.entries).real for q in family]
    above = np.cumsum(masses[::-1])[::-1]  # above[j] = sum_{i >= j}
    return next((r for r in range(tau.sites) if above[r + 1] <= tol), tau.sites)
