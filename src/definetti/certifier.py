"""Trace-distance certification for permutation-invariant pure states.

Given a pure state rho on n+k equal sites supported on the symmetric
subspace, the object under test is the distance between the reduction to the
first n sites and the weighted state average

    integral of  trace(rho_psi) tau_psi  over Haar psi, times sym_dim(k, d),

where rho_psi conditions rho on finding psi^(x)k in the trailing k sites and
tau_psi renormalizes rho_psi after truncation to deviation weights below r.
The certified chain is

    lhs <= 3 sym_dim(k,d) sqrt(integral trace(P_geq_r rho_psi))
        <= 3 sym_dim(k,d) sqrt(sym_dim(n+k,d)) exp(-(r/6) min(k/n, 1)),

with every ingredient (tail maxima, large-deviation slack, the operator
upper bound on rho_psi, the gentle measurement step) exposed as its own
check. Exact qubit rules make every polynomial integral here rigorous;
Monte Carlo rules carry a statistical error bar instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from definetti.hamming import tail_function_grid
from definetti.haar import DEGREE_ESCALATION, EXACT, QuadratureRule, exact_qubit_rule
from definetti.linalg import (
    DimensionError,
    Operator,
    PureState,
    min_eigenvalue,
    power_rows,
    trace_norm,
)
from definetti.symmetric import SymmetricState, strings_from_dicke, sym_dim, type_table

PASS = "PASS"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_FALLBACK_TOL = 1e-12
COMPARISON_SLACK = 1e-9
INCONCLUSIVE_FRACTION = 0.05
INCONCLUSIVE_FLOOR = 1e-6

_GRID_SLACK = 1e-12
# complex entries per block of stacked per-node matrices in the Monte Carlo
# standard error, so that its memory does not grow with the sample count
_BLOCK_ENTRIES = 1 << 16


class InstanceError(ValueError):
    """The problem instance violates its invariants; nothing was certified."""


@dataclass(frozen=True)
class Instance:
    """A certification problem: sites split as n kept + k conditioned.

    rho is a SymmetricState on n+k sites of dimension d; `verify` reads only
    its Dicke coefficients. A dense PureState or density Operator is converted
    once by `SymmetricState.from_dense`. The truncation threshold r lies in
    0..n. Violations raise InstanceError at construction.
    """

    d: int
    n: int
    k: int
    r: int
    rho: SymmetricState

    def __post_init__(self):
        if self.d < 2:
            raise InstanceError(f"d must be >= 2, got {self.d}")
        if self.n < 1:
            raise InstanceError(f"n must be >= 1, got {self.n}")
        if self.k < 1:
            raise InstanceError(f"k must be >= 1, got {self.k}")
        if not 0 <= self.r <= self.n:
            raise InstanceError(f"r={self.r} outside 0..{self.n}")
        rho = self.rho
        if not isinstance(rho, SymmetricState):
            raise InstanceError(
                f"rho is a {type(rho).__name__}; convert it with SymmetricState.from_dense"
            )
        if rho.site_dim != self.d or rho.sites != self.n + self.k:
            raise InstanceError(
                f"rho must act on {self.n + self.k} sites of dimension {self.d}, "
                f"got {rho.sites} sites of dimension {rho.site_dim}"
            )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one certification run; all numeric fields are finite."""

    lhs: float
    lhs_integration_error: float
    chain_bound: float
    explicit_bound: float
    g_max_value: float
    fallback_node_count: int
    rule_description: str
    status: str


class _Conditioned(NamedTuple):
    """The threshold-independent half of the node pass, one column per node.

    Rows are Dicke coordinates of the n kept sites, in the order of
    `type_table(n, d)`. The frame U = R_1 ... R_{d-1} D of node psi maps psi
    to e_0: D removes the phases of psi's entries and the real rotation R_j
    on levels (j-1, j) moves the remaining weight of levels j.. onto j-1.
    The inverse rotation in `_truncate` reads the conjugate of `turns`.
    """

    density: np.ndarray  # sym_dim(k,d) trace(rho_psi), the density of nu
    turns: tuple  # `_rotation_phases` of the nodes' Givens angles
    phases: np.ndarray  # D^(x)n, diagonal in type coordinates
    rotated: np.ndarray  # phi_psi with U^(x)n applied


class _NodePass(NamedTuple):
    """Per-node quantities, one column per node; tau_psi = |tau><tau|."""

    density: np.ndarray
    kept: np.ndarray  # trace(sigma_psi), the mass below deviation weight r
    escaped: np.ndarray  # trace(P_geq_r rho_psi)
    tau: np.ndarray  # in Dicke coordinates
    fallback: np.ndarray


class _Prepared(NamedTuple):
    """The threshold-independent half of `verify` for one state, split and rule.

    `escalated` is the rule DEGREE_ESCALATION degrees higher with its
    conditioned nodes for exact rules, None for Monte Carlo rules; `reduced`
    is Tr_k rho in Dicke coordinates.
    """

    base: _Conditioned
    escalated: tuple[QuadratureRule, _Conditioned] | None
    reduced: np.ndarray


class _Block(NamedTuple):
    """Types that a rotation on levels (j-1, j) mixes: equal spectators, m = t_{j-1} + t_j."""

    rows: np.ndarray  # (blocks, m+1): type rows, by t_j = 0..m within each block
    basis: np.ndarray  # W_m
    spectrum: np.ndarray  # lambda_m


def _generator_eigenbasis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(W_m, lambda_m) with exp(theta K_m) = W_m diag(exp(-i theta lambda_m)) W_m^dag.

    K_m is a_{j-1}^dag a_j - a_j^dag a_{j-1}, the generator of R_j, on the m+1
    types with t_{j-1} + t_j = m, indexed by a = t_j: the real antisymmetric
    matrix with <a|K_m|a+1> = -<a+1|K_m|a> = sqrt((a+1)(m-a)). Diagonalizing
    i K_m keeps every rotation unitary to roundoff, where expanding the
    rotated monomials does not.
    """
    coupling = np.sqrt((np.arange(m) + 1.0) * (m - np.arange(m)))
    spectrum, basis = np.linalg.eigh(np.diag(1j * coupling, 1) - np.diag(1j * coupling, -1))
    return basis, spectrum


@functools.lru_cache(maxsize=8)
def _rotation_blocks(n: int, d: int) -> tuple[tuple[_Block, ...], ...]:
    """For j = 1..d-1, the blocks with m >= 1 of a rotation on levels (j-1, j) of n sites."""
    types = type_table(n, d)[0]
    out = []
    for j in range(1, d):
        total = types[:, j - 1] + types[:, j]
        spectators = np.delete(types, [j - 1, j], axis=1)
        order = np.lexsort((types[:, j], *spectators.T, total))
        blocks = []
        for m in range(1, n + 1):
            rows = order[total[order] == m].reshape(-1, m + 1)
            if rows.size:
                blocks.append(_Block(rows, *_generator_eigenbasis(m)))
        out.append(tuple(blocks))
    return tuple(out)


def _rotation_phases(n: int, d: int, angles: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """exp(-i lambda_m angles[j-1]) for each block of `_rotation_blocks(n, d)`, level by level."""
    return tuple(
        tuple(np.exp(-1j * block.spectrum[:, None] * angles[j - 1]) for block in blocks)
        for j, blocks in enumerate(_rotation_blocks(n, d), start=1)
    )


def _rotate(n: int, d: int, turns, columns: np.ndarray, inverse=False) -> np.ndarray:
    """Column c mapped by the symmetric power of R_1 ... R_{d-1} (`turns`), or its inverse."""
    levels = range(1, d) if inverse else range(d - 1, 0, -1)
    blocks = _rotation_blocks(n, d)
    for j in levels:
        out = columns.copy()
        for block, phase in zip(blocks[j - 1], turns[j - 1]):
            phase = phase.conj() if inverse else phase
            out[block.rows] = block.basis @ (phase * (block.basis.conj().T @ columns[block.rows]))
        columns = out
    return columns


def _givens_angles(nodes: np.ndarray) -> np.ndarray:
    """(d-1, count): R_j turns (|psi_{j-1}|, |(psi_j, ..., psi_{d-1})|) onto level j-1."""
    moduli = np.abs(nodes)
    tails = np.sqrt(np.cumsum(moduli[:, ::-1] ** 2, axis=1)[:, ::-1])
    return np.arctan2(tails[:, 1:], moduli[:, :-1]).T


def _bra_powers(nodes: np.ndarray, k: int) -> np.ndarray:
    """b(psi) per column: <psi|^(x)k in Dicke coordinates, sqrt(mult_u) prod_i conj(psi_i)^u_i."""
    count, d = nodes.shape
    types, mult = type_table(k, d)
    powers = np.ones((k + 1, d, count), dtype=np.complex128)
    powers[1:] = np.cumprod(np.broadcast_to(nodes.conj().T, (k, d, count)), axis=0)
    return np.sqrt(mult)[:, None] * powers[types, np.arange(d)].prod(axis=1)


def _coupling(inst: Instance) -> np.ndarray:
    """C with phi_psi = C b(psi) in Dicke coordinates, so that Tr_k rho = C C^dag.

    C[s, u] = c_{s+u} sqrt(mult_n(s) mult_k(u) / mult_{n+k}(s+u)).
    """
    d, n, k = inst.d, inst.n, inst.k
    types_n, mult_n = type_table(n, d)
    types_k, mult_k = type_table(k, d)
    joint = (types_n[:, None, :] + types_k[None, :, :]).reshape(-1, d)
    # every type of n+k sites splits as s + u, so the sorted joint types are type_table(n+k, d)
    index = np.unique(joint, axis=0, return_inverse=True)[1].reshape(len(mult_n), len(mult_k))
    mult = np.outer(mult_n, mult_k) / type_table(n + k, d)[1][index]
    return inst.rho.coefficients[index] * np.sqrt(mult)


def _condition(inst: Instance, coupling: np.ndarray, nodes: np.ndarray) -> _Conditioned:
    """Condition rho on every row of `nodes` at once and rotate into each node's frame.

    rho is pure, so rho_psi = |phi_psi><phi_psi| stays a vector. In the frame
    of psi the deviation weight of a type is n - t_0, so truncation below
    weight r is a mask on t_0; nothing here depends on r.
    """
    d, n = inst.d, inst.n
    phi = coupling @ _bra_powers(nodes, inst.k)
    phases = np.exp(-1j * (type_table(n, d)[0] @ np.angle(nodes).T))
    turns = _rotation_phases(n, d, _givens_angles(nodes))
    return _Conditioned(
        density=sym_dim(inst.k, d) * np.sum(np.abs(phi) ** 2, axis=0),
        turns=turns,
        phases=phases,
        rotated=_rotate(n, d, turns, phases * phi),
    )


def _truncate(inst: Instance, cond: _Conditioned, fallback_tol: float) -> _NodePass:
    """Truncate every conditioned node below weight inst.r and renormalize.

    tau falls back to psi^(x)n where the kept mass is at most fallback_tol;
    the frame maps psi^(x)n to the last type, (n, 0, ..., 0).
    """
    below = type_table(inst.n, inst.d)[0][:, 0] > inst.n - inst.r
    mass = np.abs(cond.rotated) ** 2
    kept = mass[below].sum(axis=0)
    escaped = mass[~below].sum(axis=0)
    fallback = kept <= fallback_tol
    tau = cond.rotated * below[:, None] / np.sqrt(np.where(fallback, 1, kept))
    tau[:, fallback] = 0
    tau[-1, fallback] = 1
    tau = cond.phases.conj() * _rotate(inst.n, inst.d, cond.turns, tau, inverse=True)
    return _NodePass(cond.density, kept, escaped, tau, fallback)


def _node_pass(inst: Instance, nodes: np.ndarray, fallback_tol: float) -> _NodePass:
    """Condition, truncate and renormalize at every row of `nodes` at once."""
    return _truncate(inst, _condition(inst, _coupling(inst), nodes), fallback_tol)


def _node_row(inst: Instance, psi: PureState) -> np.ndarray:
    if (psi.site_dim, psi.sites) != (inst.d, 1):
        raise DimensionError(f"expected a single-site state of dimension {inst.d}")
    return psi.amplitudes[None, :]


def _gram(columns: np.ndarray, coefficients=1.0) -> np.ndarray:
    """sum_j coefficients[j] |columns[:, j]><columns[:, j]|."""
    return (columns * coefficients) @ columns.conj().T


def _spread(inst: Instance, columns: np.ndarray, coefficients=1.0) -> Operator:
    """`_gram` of Dicke columns of the n kept sites, mapped into the d^n space."""
    dense = strings_from_dicke(inst.n, inst.d, columns)
    return Operator(inst.d, inst.n, _gram(dense, coefficients))


def _approximant(inst: Instance, weights: np.ndarray, cond: _Conditioned, fallback_tol: float):
    nodes = _truncate(inst, cond, fallback_tol)
    return nodes, _gram(nodes.tau, weights * nodes.density)


def _prepare(inst: Instance, rule: QuadratureRule) -> _Prepared:
    coupling = _coupling(inst)
    escalated = None
    if rule.kind == EXACT:
        higher = exact_qubit_rule(rule.exact_degree + DEGREE_ESCALATION)
        escalated = (higher, _condition(inst, coupling, higher.node_matrix))
    return _Prepared(_condition(inst, coupling, rule.node_matrix), escalated, _gram(coupling))


# The last (key, _Prepared) of `verify`, so that a sweep over r on one state
# and rule prepares once. The key holds the state and rule objects themselves:
# both are frozen with read-only arrays, and holding them keeps their ids from
# being reused, so matching by identity cannot confuse two inputs.
_last_prepared = None


def _reuse_or_prepare(inst: Instance, rule: QuadratureRule) -> _Prepared:
    global _last_prepared
    key = (inst.rho, inst.n, inst.k, rule)
    last = _last_prepared
    if last is not None and all(a is b for a, b in zip(last[0], key)):
        return last[1]
    prepared = _prepare(inst, rule)
    _last_prepared = (key, prepared)
    return prepared


def _standard_error(inst: Instance, nodes: _NodePass) -> float:
    """`haar.standard_error` of the per-node values density_j |tau_j><tau_j| on the d^n space.

    Entry (x, y) of a value there is its Dicke entry (s, t) over
    sqrt(mult_s mult_t), for x of type s and y of type t. The squared
    deviations from the mean are summed over fixed blocks of nodes, so memory
    stays bounded whatever the number of nodes.
    """
    dim, count = nodes.tau.shape
    if count < 2:
        return 0.0
    mean = _gram(nodes.tau, nodes.density / count)
    block = max(1, _BLOCK_ENTRIES // dim**2)
    total = np.zeros((dim, dim))
    for start in range(0, count, block):
        tau = nodes.tau[:, start : start + block]
        values = np.einsum("j,aj,bj->jab", nodes.density[start : start + block], tau, tau.conj())
        total += (np.abs(values - mean) ** 2).sum(axis=0)
    mult = type_table(inst.n, inst.d)[1]
    return float(np.max(np.sqrt(total / np.outer(mult, mult) / (count - 1) / count)))


def _lhs_and_error(inst: Instance, rule: QuadratureRule, fallback_tol: float, prepared: _Prepared):
    """(node pass, lhs, integration error) of the approximant.

    Both trace norms are taken in Dicke coordinates; the isometry into the
    d^n space does not change them.
    """
    nodes, approx = _approximant(inst, rule.weights, prepared.base, fallback_tol)
    if prepared.escalated is None:
        err = _standard_error(inst, nodes)
    else:
        higher, cond = prepared.escalated
        err = trace_norm(approx - _approximant(inst, higher.weights, cond, fallback_tol)[1])
    return nodes, trace_norm(prepared.reduced - approx), err


def _chain_bound(inst: Instance, rule: QuadratureRule, nodes: _NodePass) -> float:
    return 3.0 * sym_dim(inst.k, inst.d) * math.sqrt(float(rule.weights @ nodes.escaped))


def rho_psi(inst: Instance, psi: PureState) -> Operator:
    """Condition rho on observing psi^(x)k in the trailing k sites."""
    return _spread(inst, _coupling(inst) @ _bra_powers(_node_row(inst, psi), inst.k))


def tau_psi(
    inst: Instance, psi: PureState, fallback_tol: float = DEFAULT_FALLBACK_TOL
) -> tuple[float, Operator, bool]:
    """Truncate rho_psi below weight r and renormalize.

    Returns (trace of the truncated state, the normalized state, fallback
    flag). When the truncated trace is negligible (always at r = 0) the
    normalized state falls back to psi^(x)n, which has deviation weight 0.
    """
    node = _node_pass(inst, _node_row(inst, psi), fallback_tol)
    return float(node.kept[0]), _spread(inst, node.tau), bool(node.fallback[0])


def approximant(
    inst: Instance, rule: QuadratureRule, fallback_tol: float = DEFAULT_FALLBACK_TOL
) -> Operator:
    """The weighted average sym_dim(k,d) int trace(rho_psi) tau_psi d(psi)."""
    nodes = _node_pass(inst, rule.node_matrix, fallback_tol)
    return _spread(inst, nodes.tau, rule.weights * nodes.density)


def nu_weight_normalization(inst: Instance, rule: QuadratureRule) -> float:
    """Total mass sym_dim(k,d) int trace(rho_psi) d(psi); 1 for exact rules."""
    return float(rule.weights @ _condition(inst, _coupling(inst), rule.node_matrix).density)


def lhs_distance(
    inst: Instance, rule: QuadratureRule, fallback_tol: float = DEFAULT_FALLBACK_TOL
) -> tuple[float, float]:
    """Trace distance between the n-site reduction and the approximant.

    Returns (value, integration error scale). The integrand is not a
    polynomial (tau_psi carries a normalizing ratio), so even exact rules
    report a degree-escalation discrepancy rather than zero.
    """
    return _lhs_and_error(inst, rule, fallback_tol, _prepare(inst, rule))[1:]


def chain_bound(inst: Instance, rule: QuadratureRule) -> float:
    """3 sym_dim(k,d) sqrt(int trace(P_geq_r rho_psi) d(psi)).

    The integrand is a polynomial of degree n+k in the node projector, so a
    qubit rule of degree >= n+k evaluates the integral without error.
    """
    return _chain_bound(inst, rule, _node_pass(inst, rule.node_matrix, DEFAULT_FALLBACK_TOL))


def explicit_bound(n: int, k: int, d: int, r: int) -> float:
    """Closed-form bound 3 sym_dim(k,d) sqrt(sym_dim(n+k,d)) e^(-(r/6) min(k/n,1))."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if not 0 <= r <= n:
        raise ValueError(f"r={r} outside 0..{n}")
    rate = min(k / n, 1.0)
    return 3.0 * sym_dim(k, d) * math.sqrt(sym_dim(n + k, d)) * math.exp(-(r / 6.0) * rate)


def _horner(coefficients, t: float) -> float:
    """sum_j coefficients[j] t^(len - 1 - j), highest power first."""
    total = 0.0
    for c in coefficients:
        total = total * t + c
    return total


def g_max(n: int, k: int, r: int) -> float:
    """Max over x in [0,1] of f(x) = x^k tail(n, r, x), located by bisection.

    tail(n, r, x) is the Beta(r, n-r+1) distribution function at 1-x, and
    the distribution function of a log-concave density is log-concave
    (Bagnoli and Bergstrom, Economic Theory 26, 2005). So f, a product of
    log-concave factors, is log-concave with a single maximizer. For
    1 <= r <= n, x tail(x) (ln f)'(x) equals

        h(x) = k tail(x) - n C(n-1, r-1) x^(n-r+1) (1-x)^(r-1),

    which is positive left of the maximizer and negative right of it. The
    bisection runs over x = m 2^-53 for integers m, where x and 1 - x are both
    exact floats, so the rounding of 1 - x is never raised to a power. It
    halves [0, 1] on the sign of h until no such x is left between its ends,
    then takes the larger f of the two, summed term by term with fsum. The
    sign comes from one Horner sum in t = min(x, 1-x) / max(x, 1-x) <= 1,
    with positive coefficients, so each step costs O(n - r + 1).

    The maximum never exceeds e^(-(r/3) min(k/n, 1)): for x below 1 - r/(3n)
    the power x^k decays enough, and above that point the binomial tail
    itself is small. That ceiling is asserted before returning.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if not 0 <= r <= n + 1:
        raise ValueError(f"r={r} outside 0..{n + 1}")
    if r == 0:
        return 1.0
    if r == n + 1:
        return 0.0
    # plain floats: at a few hundred terms numpy's per-call cost exceeds the arithmetic
    span = range(r, n + 1)
    coeff = [float(math.comb(n, i)) for i in span]
    reverse = coeff[::-1]
    slope = n * float(math.comb(n - 1, r - 1))
    steps = 1 << 53

    def tail(m):
        x, y = m / steps, (steps - m) / steps
        return math.fsum([c * x ** (n - i) * y**i for c, i in zip(coeff, span)])

    def rising(m):
        # the sign of h(x) / (1-x)^n below x = 1/2, of h(x) / (x^n t^(r-1)) above
        if 2 * m < steps:
            t = m / (steps - m)
            return k * _horner(coeff, t) > slope * t ** (n - r + 1)
        t = (steps - m) / m
        return k * t * _horner(reverse, t) > slope

    lo, hi = 0, steps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rising(mid):
            lo = mid
        else:
            hi = mid
    best = max((m / steps) ** k * tail(m) for m in (lo, hi))
    ceiling = math.exp(-(r / 3.0) * min(k / n, 1.0))
    if best > ceiling + _GRID_SLACK:
        raise ArithmeticError(
            f"g_max(n={n}, k={k}, r={r}) = {best!r} exceeds its ceiling {ceiling!r}"
        )
    return best


def check_operator_inequality(inst: Instance, psi: PureState, rule: QuadratureRule) -> float:
    """Slack of rho_psi <= sym_dim(n+k,d) int |theta^n><theta^n| |<theta|psi>|^2k.

    Returns the smallest eigenvalue of (right side - rho_psi); for rules of
    exact degree >= n+k it should only dip below zero by roundoff.
    """
    overlaps = np.abs(rule.node_matrix.conj() @ psi.amplitudes) ** 2
    coefficients = sym_dim(inst.n + inst.k, inst.d) * rule.weights * overlaps**inst.k
    upper = Operator(inst.d, inst.n, _gram(power_rows(rule.node_matrix, inst.n).T, coefficients))
    return min_eigenvalue(upper - rho_psi(inst, psi))


def check_gentle(rho: Operator, x_op: Operator) -> tuple[float, float]:
    """Both sides of the gentle measurement inequality.

    Returns (||rho - sqrt(X) rho sqrt(X)||_1, 2 sqrt(tr rho) sqrt(tr rho(I-X)))
    for PSD rho and 0 <= X <= I.
    """
    if not rho.is_psd(1e-10):
        raise ValueError("rho must be PSD")
    if x_op.hermiticity_defect() > 1e-12:
        raise ValueError("X must be hermitian")
    if (rho.site_dim, rho.sites) != (x_op.site_dim, x_op.sites):
        raise ValueError("rho and X must act on the same space")
    eigs, vecs = np.linalg.eigh(x_op.entries)
    if eigs[0] < -1e-10 or eigs[-1] > 1 + 1e-10:
        raise ValueError(f"X must satisfy 0 <= X <= I, spectrum [{eigs[0]:.3e}, {eigs[-1]:.6f}]")
    root = Operator(
        x_op.site_dim, x_op.sites, (vecs * np.sqrt(np.clip(eigs, 0.0, None))) @ vecs.conj().T
    )
    lhs = trace_norm(rho - root @ rho @ root)
    leak = (rho.trace() - (rho @ x_op).trace()).real
    rhs = 2.0 * math.sqrt(rho.trace().real) * math.sqrt(max(leak, 0.0))
    return lhs, rhs


def binary_divergence(p: float, q: float) -> float:
    """Relative entropy p ln(p/q) + (1-p) ln((1-p)/(1-q)) of coin biases."""
    if not 0.0 <= p <= 1.0 or not 0.0 < q < 1.0:
        raise ValueError(f"need p in [0,1] and q in (0,1), got p={p} q={q}")
    first = 0.0 if p == 0.0 else p * math.log(p / q)
    second = 0.0 if p == 1.0 else (1 - p) * math.log((1 - p) / (1 - q))
    return first + second


def _binary_divergences(p: float, q: np.ndarray) -> np.ndarray:
    """`binary_divergence(p, q_j)` for every entry of q, each in (0, 1)."""
    first = 0.0 if p == 0.0 else p * np.log(p / q)
    second = 0.0 if p == 1.0 else (1 - p) * np.log((1 - p) / (1 - q))
    return first + second


def check_chernoff_claim(n: int, r: int, grid_points: int = 1000) -> float:
    """Slack of the tail bound on the window where failures are rare.

    On x in [1 - r/(3n), 1) the chance that at least r of n trials fail,
    each failing with probability 1-x, is at most e^(-r/3). Returns the
    smallest value of e^(-r/3) - tail(n, r, x) over the grid, and verifies
    the large-deviation form n D(r/n || 1-x) >= r/3 at every grid point.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got n={n} r={r}")
    left = 1.0 - r / (3.0 * n)
    xs = left + (1.0 - left) * np.arange(grid_points) / grid_points
    tails = tail_function_grid(n, r, xs)
    slack = float((math.exp(-r / 3.0) - tails).min())
    worst = float((n * _binary_divergences(r / n, 1.0 - xs) - r / 3.0).min())
    if worst < -_GRID_SLACK:
        raise ArithmeticError(
            f"large-deviation form fails at n={n} r={r}: min slack {worst:.3e}"
        )
    return slack


def check_exponent_sandwich(pairs) -> bool:
    """min(k/n, 1) <= 2k/(n+k) <= 2 min(k/n, 1), in exact rational arithmetic."""
    for n, k in pairs:
        if n < 1 or k < 1:
            raise ValueError(f"need n, k >= 1, got n={n} k={k}")
        low = min(Fraction(k, n), Fraction(1))
        mid = Fraction(2 * k, n + k)
        if not low <= mid <= 2 * low:
            return False
    return True


def verify(
    inst: Instance, rule: QuadratureRule, fallback_tol: float = DEFAULT_FALLBACK_TOL
) -> VerificationReport:
    """Run the full certification and classify the outcome.

    PASS requires lhs - err <= chain bound and chain bound <= explicit
    bound, both with 1e-9 slack. A large integration error (above 5% of the
    chain bound) yields INCONCLUSIVE rather than a verdict either way;
    everything else is a VIOLATION.
    """
    nodes, lhs, err = _lhs_and_error(inst, rule, fallback_tol, _reuse_or_prepare(inst, rule))
    chain = _chain_bound(inst, rule, nodes)
    explicit = explicit_bound(inst.n, inst.k, inst.d, inst.r)
    tail_peak = g_max(inst.n, inst.k, inst.r)
    if err > INCONCLUSIVE_FRACTION * max(chain, INCONCLUSIVE_FLOOR):
        status = INCONCLUSIVE
    elif lhs - err <= chain + COMPARISON_SLACK and chain <= explicit + COMPARISON_SLACK:
        status = PASS
    else:
        status = VIOLATION
    return VerificationReport(
        lhs=lhs,
        lhs_integration_error=err,
        chain_bound=chain,
        explicit_bound=explicit,
        g_max_value=tail_peak,
        fallback_node_count=int(nodes.fallback.sum()),
        rule_description=rule.describe(),
        status=status,
    )
