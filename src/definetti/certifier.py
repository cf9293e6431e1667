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

with every ingredient (post-selection, tail maxima, large-deviation slack,
the gentle measurement step) exposed as its own check. `verify` checks the chain for the rule's own approximant, with the
integral replaced by the weighted sum over the rule's nodes. For a node
that keeps its truncation, ||rho_psi - trace(rho_psi) tau_psi||_1 =
2 sqrt(trace(rho_psi) e_psi) with e_psi = trace(P_geq_r rho_psi). A node of
trace a falls back to tau_psi = psi^(x)n only when its kept mass is at most
f a, f = _FALLBACK_FRACTION; then e_psi >= (1-f) a, so its cost 2a is at most
3 sqrt(a e_psi) for any f <= 5/9. So for every rule with nonnegative weights
that sum to 1, with c_j = 2 for a kept node and 3 for a fallback node,

    lhs <= delta + sym_dim(k,d) sum_j w_j c_j sqrt(trace(rho_j) e_j) <= delta + chain,

where delta = ||Tr_k rho - sym_dim(k,d) sum_j w_j rho_j||_1 is the rule's
post-selection defect: roundoff for a rule exact through degree k, a
sampling error for a Monte Carlo rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from definetti.haar import QuadratureRule
from definetti.linalg import PSD_ATOL, DimensionError, Operator, trace_norm
from definetti.symmetric import SymmetricState, sym_dim, type_table

PASS = "PASS"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"

COMPARISON_SLACK = 1e-9

_GRID_SLACK = 1e-12
_NODE_BLOCK = 512  # nodes conditioned at a time in `verify`
_FALLBACK_FRACTION = 1e-12  # of a node's trace; any value in [0, 5/9] keeps the theorem


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
    """Outcome of one certification run; all numeric fields are finite.

    `lhs_integration_error` is the rule's post-selection defect delta, the same
    for every threshold, and lhs <= delta + chain_bound holds as a theorem.
    """

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
    The inverse rotation in `_truncate` reads `turns` reversed, their conjugate.
    """

    density: np.ndarray  # sym_dim(k,d) trace(rho_psi), the density of nu
    turns: tuple  # from `_frame`
    unphase: np.ndarray  # (D^dag)^(x)n, diagonal in type coordinates
    rotated: np.ndarray  # phi_psi with U^(x)n applied
    mass: np.ndarray  # |rotated|^2


class _NodePass(NamedTuple):
    """Per-node quantities, one column per node; tau_psi = |tau><tau|."""

    density: np.ndarray
    kept: np.ndarray  # trace(sigma_psi), the mass below deviation weight r
    escaped: np.ndarray  # trace(P_geq_r rho_psi)
    tau: np.ndarray  # in Dicke coordinates
    fallback: np.ndarray


class _Prepared(NamedTuple):
    """What one `verify` call needs from the nodes; entry i of the last three is threshold i's."""

    reduced: np.ndarray  # Tr_k rho in Dicke coordinates
    defect: float  # the rule's post-selection defect delta
    mass: float  # trace of the post-selection Gram, sum_j w_j density_j
    grams: np.ndarray  # sum_j w_j density_j |tau_j><tau_j|, the approximant
    escaped: np.ndarray  # sum_j w_j escaped_j
    fallback: np.ndarray  # nodes that fell back


class _Block(NamedTuple):
    """Types that a rotation on levels (j-1, j) mixes: equal spectators, m = t_{j-1} + t_j."""

    rows: np.ndarray  # (blocks, m+1): type rows, by t_j = 0..m within each block
    basis: np.ndarray  # W_m
    adjoint: np.ndarray  # W_m^dag
    spectrum: np.ndarray  # 2a - m for a = 0..m


def _generator_eigenbasis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(W_m, W_m^dag) with exp(theta K_m) = W_m diag(exp(-i theta (2a - m))) W_m^dag, a = 0..m.

    K_m is a_{j-1}^dag a_j - a_j^dag a_{j-1}, the generator of R_j, on the m+1
    types with t_{j-1} + t_j = m, indexed by a = t_j: the real antisymmetric
    matrix with <a|K_m|a+1> = -<a+1|K_m|a> = sqrt((a+1)(m-a)). i K_m is twice a
    spin-m/2 J_y, with spectrum exactly 2a - m, so `eigh` supplies only W_m. Its
    rotations stay unitary to roundoff, where expanding rotated monomials does not.
    """
    coupling = np.sqrt((np.arange(m) + 1.0) * (m - np.arange(m)))
    basis = np.linalg.eigh(np.diag(1j * coupling, 1) - np.diag(1j * coupling, -1))[1]
    return basis, basis.conj().T.copy()


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
                blocks.append(_Block(rows, *_generator_eigenbasis(m), np.arange(-m, m + 1, 2)))
        out.append(tuple(blocks))
    return tuple(out)


def _rotate(n: int, d: int, turns, columns: np.ndarray, inverse=False, floor=0) -> np.ndarray:
    """Column c mapped by the symmetric power of R_1 ... R_{d-1} (`turns`), or its inverse.

    An inverse reads only rows with t_0 >= `floor` at its first level; the rest must be zero.
    """
    levels = range(1, d) if inverse else range(d - 1, 0, -1)
    blocks = _rotation_blocks(n, d)
    for j in levels:
        out = np.empty_like(columns) if d == 2 else columns.copy()  # d = 2: one block, all rows
        for block, phase in zip(blocks[j - 1], turns[j - 1]):
            live = block.rows.shape[1] - (floor if j == 1 else 0)
            if live > 0:
                phase = phase[::-1] if inverse else phase  # w^(m - 2a) is conj(w^(2a - m))
                rows = columns[block.rows[:, :live]]
                out[block.rows] = block.basis @ (phase * (block.adjoint[:, :live] @ rows))
        columns = out
    return columns


def _unit(values: np.ndarray) -> np.ndarray:
    """values / |values|, and 1 where a value is 0, as arctan2(0, 0) = 0 would give."""
    return np.divide(values, np.abs(values), out=np.ones_like(values), where=values != 0)


def _powers(values: np.ndarray, top: int) -> np.ndarray:
    """values^p for p = 0..top on a new leading axis, by repeated products."""
    powers = np.empty((top + 1, *values.shape), dtype=np.complex128)
    powers[0] = 1
    np.cumprod(np.broadcast_to(values, (top, *values.shape)), axis=0, out=powers[1:])
    return powers


def _monomials(values: np.ndarray, n: int) -> np.ndarray:
    """(sym_dim(n, d), count): prod_i values[:, i]^t_i for each type t of n sites."""
    d = values.shape[1]
    powers, types = _powers(values.T, n), type_table(n, d)[0]
    out = powers[types[:, 0], 0]
    for level in range(1, d):  # in place, level by level: no (sym_dim, d, count) table
        out *= powers[types[:, level], level]
    return out


def _bra_powers(nodes: np.ndarray, k: int) -> np.ndarray:
    """b(psi) per column: <psi|^(x)k in Dicke coordinates, sqrt(mult_u) prod_i conj(psi_i)^u_i."""
    return np.sqrt(type_table(k, nodes.shape[1])[1])[:, None] * _monomials(nodes.conj(), k)


def _frame(n: int, nodes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """(turns, unphase) of `_Conditioned`: U^(x)n is `_rotate` with turns after unphase^*.

    R_j turns (|psi_{j-1}|, tail_j = |(psi_j, ..., psi_{d-1})|) onto level j-1 by
    theta_j, so w = exp(-i theta_j) is the unit of |psi_{j-1}| - i tail_j; turns[j-1]
    holds w^(2a - m), a = 0..m, per block on levels (j-1, j). No angle is formed.
    """
    unphase = _monomials(_unit(nodes), n)  # first: its power table and the turns' never coexist
    tails = np.sqrt(np.cumsum(np.abs(nodes[:, ::-1]) ** 2, axis=1)[:, ::-1])
    givens = _unit(np.abs(nodes[:, :-1]) - 1j * tails[:, 1:])
    turns = []
    for w, blocks in zip(givens.T, _rotation_blocks(n, nodes.shape[1])):
        powers = _powers(w, n)  # w is a unit number, so w^-p is conj(w^p)
        signed = np.concatenate([powers[:0:-1].conj(), powers])  # w^p at row n + p
        turns.append(tuple(signed[n + block.spectrum] for block in blocks))
    return tuple(turns), unphase


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


def _condition(inst: Instance, phi: np.ndarray, nodes: np.ndarray) -> _Conditioned:
    """Rotate phi_psi = C b(psi), for every row psi of `nodes`, into each node's frame.

    rho is pure, so rho_psi = |phi_psi><phi_psi| stays a vector. In the frame
    of psi the deviation weight of a type is n - t_0, so truncation below
    weight r is a mask on t_0; nothing here depends on r.
    """
    density = sym_dim(inst.k, inst.d) * np.sum(np.abs(phi) ** 2, axis=0)
    turns, unphase = _frame(inst.n, nodes)
    rotated = _rotate(inst.n, inst.d, turns, unphase.conj() * phi)
    return _Conditioned(density, turns, unphase, rotated, np.abs(rotated) ** 2)


def _truncate(inst: Instance, cond: _Conditioned) -> _NodePass:
    """Truncate every conditioned node below weight inst.r and renormalize.

    Types ascend lexicographically, so the kept rows, t_0 > n - r, are a suffix.
    tau falls back to psi^(x)n where the kept mass is at most _FALLBACK_FRACTION
    of the node's trace (always at r = 0); the frame maps psi^(x)n to the last
    type, (n, 0, ..., 0).
    """
    start = np.searchsorted(type_table(inst.n, inst.d)[0][:, 0], inst.n - inst.r, side="right")
    kept = cond.mass[start:].sum(axis=0)
    escaped = cond.mass[:start].sum(axis=0)
    fallback = kept <= _FALLBACK_FRACTION * (kept + escaped)
    tau = np.zeros_like(cond.rotated)
    tau[start:] = cond.rotated[start:] / np.sqrt(np.where(fallback, 1, kept))
    tau[start:, fallback] = 0
    tau[-1, fallback] = 1
    floor = inst.n + 1 - max(inst.r, 1)  # kept rows have t_0 > n - r, the fallback t_0 = n
    tau = cond.unphase * _rotate(inst.n, inst.d, cond.turns, tau, inverse=True, floor=floor)
    return _NodePass(cond.density, kept, escaped, tau, fallback)


def _gram(columns: np.ndarray, coefficients=1.0) -> np.ndarray:
    """sum_j coefficients[j] |columns[:, j]><columns[:, j]|, from one conjugated copy."""
    return ((columns.conj() * coefficients) @ columns.T).conj()


def memory_floor(d: int, n: int, k: int, thresholds: int, nodes: int) -> int:
    """A lower bound, in bytes, on what `verify` holds for a rule of `nodes` nodes.

    The rule's complex node matrix and float weights, which live throughout, plus the larger
    of the int64 occupation table of `type_table(n+k, d)` and what `_prepare` holds at once:
    the complex coupling C, one block's b(psi) table, Tr_k rho, the post-selection Gram and
    one approximant Gram for each of the `thresholds` thresholds.
    """
    dim_n, dim_k = sym_dim(n, d), sym_dim(k, d)
    return (16 * d + 8) * nodes + max(
        8 * (n + k) * sym_dim(n + k, d),
        16 * ((dim_n + min(nodes, _NODE_BLOCK)) * dim_k + (thresholds + 2) * dim_n**2),
    )


def _prepare(inst: Instance, rule: QuadratureRule, rows) -> _Prepared:
    """Sum what each threshold in `rows` needs over the nodes, _NODE_BLOCK nodes at a time.

    A block is conditioned once, truncated for every threshold and dropped. Peak memory is
    O(_NODE_BLOCK sym_dim(n,d) + len(rows) sym_dim(n,d)^2), and at least the Gram term of
    `memory_floor`; the fixed block fixes each sum's order.
    """
    coupling = _coupling(inst)
    reduced = _gram(coupling)
    posted, grams = np.zeros_like(reduced), np.zeros((len(rows), *reduced.shape), complex)
    escaped, fallback = np.zeros(len(rows)), np.zeros(len(rows), dtype=np.int64)
    cuts = range(_NODE_BLOCK, rule.node_count, _NODE_BLOCK)
    for nodes, weights in zip(np.split(rule.node_matrix, cuts), np.split(rule.weights, cuts)):
        phi = coupling @ _bra_powers(nodes, inst.k)
        posted += _gram(phi, sym_dim(inst.k, inst.d) * weights)
        cond = _condition(inst, phi, nodes)
        for i, row in enumerate(rows):
            node = _truncate(row, cond)
            grams[i] += _gram(node.tau, weights * node.density)
            escaped[i] += weights @ node.escaped
            fallback[i] += node.fallback.sum()
    mass = float(np.trace(posted).real)
    return _Prepared(reduced, trace_norm(reduced - posted), mass, grams, escaped, fallback)


def _chain_bound(inst: Instance, escaped: float) -> float:
    return 3.0 * sym_dim(inst.k, inst.d) * math.sqrt(escaped)


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def chain_bound(inst: Instance, rule: QuadratureRule) -> float:
    """3 sym_dim(k,d) sqrt(int trace(P_geq_r rho_psi) d(psi)).

    The integrand is a polynomial of degree n+k in the node projector, so a
    qubit rule of degree >= n+k evaluates the integral without error. Equal to
    `verify(inst, rule).chain_bound`.
    """
    return _chain_bound(inst, _prepare(inst, rule, (inst,)).escaped[0])


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


def check_post_selection(rule: QuadratureRule, n: int) -> float:
    """Largest entry of |sym_dim(n,d) sum_j w_j |theta_j^n><theta_j^n| - P_sym| in the d^n basis.

    Both operators live on the symmetric subspace, where P_sym = V V^dag and column t of V
    is 1/sqrt(mult_t) on the strings of type t. So the entry at strings of types s and t
    is the Dicke entry E[s, t] / sqrt(mult_s mult_t), and only E, the sym_dim(n,d)-square
    Gram of the bras b(theta_j), is formed; |E| is the same for the bras and the kets.
    """
    mult = type_table(n, rule.d)[1]
    moment = sym_dim(n, rule.d) * _gram(_bra_powers(rule.node_matrix, n), rule.weights)
    return float(np.max(np.abs(moment - np.eye(len(mult))) / np.sqrt(np.outer(mult, mult))))


def check_gentle(rho: Operator, x_op: Operator) -> tuple[float, float]:
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


def _binary_divergences(p: float, q: np.ndarray) -> np.ndarray:
    """Relative entropy p ln(p/q_j) + (1-p) ln((1-p)/(1-q_j)) of coin biases, per q_j in (0, 1)."""
    first = 0.0 if p == 0.0 else p * np.log(p / q)
    second = 0.0 if p == 1.0 else (1 - p) * np.log((1 - p) / (1 - q))
    return first + second


def tail_function_grid(n: int, r: int, xs: np.ndarray) -> np.ndarray:
    """Upper binomial tail sum_{i >= r} C(n, i) x^(n-i) (1-x)^i at every x in xs.

    The probability that at least r of n independent trials fail when each
    succeeds with probability x. Equals 1 at r <= 0 and 0 at r = n + 1.
    """
    xs = np.asarray(xs, dtype=np.float64)
    for x in (float(xs.min(initial=0.0)), float(xs.max(initial=0.0))):
        _validate_tail_args(n, r, x)
    if r <= 0:
        return np.ones_like(xs)
    if r == n + 1:
        return np.zeros_like(xs)
    i = np.arange(r, n + 1)
    coeff = np.array([float(math.comb(n, j)) for j in i])
    terms = coeff[None, :] * xs[:, None] ** (n - i)[None, :] * (1 - xs)[:, None] ** i[None, :]
    return terms.sum(axis=1)


def _validate_tail_args(n: int, r: int, x: float):
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0 <= r <= n + 1:
        raise ValueError(f"r={r} outside 0..{n + 1}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")


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


def _report(inst: Instance, rule: QuadratureRule, prepared: _Prepared, i: int):
    """The VerificationReport for threshold inst.r, from entry i of `prepared`.

    Both trace norms are taken in Dicke coordinates; the isometry into the
    d^n space does not change them.
    """
    lhs = trace_norm(prepared.reduced - prepared.grams[i])
    err, chain = prepared.defect, _chain_bound(inst, prepared.escaped[i])
    explicit = explicit_bound(inst.n, inst.k, inst.d, inst.r)
    tail_peak = g_max(inst.n, inst.k, inst.r)
    if err > chain:
        status = INCONCLUSIVE
    elif lhs <= err + chain + COMPARISON_SLACK and chain <= explicit + COMPARISON_SLACK:
        status = PASS
    else:
        status = VIOLATION
    return VerificationReport(
        lhs=lhs,
        lhs_integration_error=err,
        chain_bound=chain,
        explicit_bound=explicit,
        g_max_value=tail_peak,
        fallback_node_count=int(prepared.fallback[i]),
        rule_description=rule.describe(),
        status=status,
    )


def verify(inst: Instance, rule: QuadratureRule, thresholds=None):
    """Run the full certification and classify the outcome.

    lhs <= delta + chain bound for every rule, with delta its post-selection
    defect (module docstring). A row whose delta exceeds its chain bound is
    INCONCLUSIVE. Otherwise PASS requires lhs <= delta + chain bound and chain
    bound <= explicit bound, both with COMPARISON_SLACK. Anything else is a
    VIOLATION: a broken kernel.

    Returns the report for inst.r, or, given a sequence of `thresholds`, a
    tuple of the reports for `replace(inst, r=r)` in their order. One walk
    over the nodes serves every threshold (`_prepare`), so a sweep is one call.
    """
    if rule.d != inst.d:
        raise DimensionError(f"rule has site dimension {rule.d}, instance has d={inst.d}")
    rows = (inst,) if thresholds is None else tuple(replace(inst, r=r) for r in thresholds)
    prepared = _prepare(inst, rule, rows)
    reports = tuple(_report(row, rule, prepared, i) for i, row in enumerate(rows))
    return reports[0] if thresholds is None else reports
