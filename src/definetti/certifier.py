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

with post-selection (`check_post_selection`) and the Chernoff step (the
ceiling that `g_max` asserts) each exposed as its own check. `verify` checks
the chain at each threshold r it is given, for the rule's own approximant,
with the integral replaced by the weighted sum over the rule's nodes. The
gentle measurement step is, for a pure conditioned state, an identity: for
a node that keeps its truncation,
||rho_psi - trace(rho_psi) tau_psi||_1 = 2 sqrt(trace(rho_psi) e_psi) with
e_psi = trace(P_geq_r rho_psi). A node of trace a falls back to tau_psi =
psi^(x)n only when its kept mass is at most f a, f = _FALLBACK_FRACTION;
then e_psi >= (1-f) a, so its cost 2a is at most 3 sqrt(a e_psi) for any
f <= 5/9. So for every rule with nonnegative weights that sum to 1, with
c_j = 2 for a kept node and 3 for a fallback node,

    lhs <= delta + sym_dim(k,d) sum_j w_j c_j sqrt(trace(rho_j) e_j) <= delta + chain,

where delta = ||Tr_k rho - sym_dim(k,d) sum_j w_j rho_j||_1 is the rule's
post-selection defect: roundoff for a rule exact through degree k, a
sampling error for a Monte Carlo rule.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from definetti.haar import QuadratureRule
from definetti.linalg import DimensionError, trace_norm
from definetti.symmetric import SymmetricState, sym_dim, type_rank, type_table

PASS = "PASS"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"

COMPARISON_SLACK = 1e-9

_GRID_SLACK = 1e-12
_NODE_BLOCK = 512  # nodes conditioned at a time in `verify`
_FALLBACK_FRACTION = 1e-12  # of a node's trace; any value in [0, 5/9] keeps the theorem


class InstanceError(ValueError):
    """The problem instance violates its invariants; nothing was certified."""


def _integer(name: str, value, low: int, high=None) -> int:
    """`operator.index(value)` (1.0 does not pass), checked to lie in low..high."""
    try:
        index = operator.index(value)
    except TypeError:
        raise InstanceError(f"{name} must be an integer, got {value!r}") from None
    if high is not None and not low <= index <= high:
        raise InstanceError(f"{name}={index} outside {low}..{high}")
    if index < low:
        raise InstanceError(f"{name} must be >= {low}, got {index}")
    return index


@dataclass(frozen=True)
class Instance:
    """A certification problem: sites split as n kept + k conditioned.

    rho is a SymmetricState on n+k sites of dimension d; `verify` reads only
    its Dicke coefficients. A dense PureState or density Operator is converted
    once by `SymmetricState.from_dense`. d, n and k must pass `operator.index`
    (1.0 does not), else InstanceError at construction; the thresholds r are `verify`'s.
    """

    d: int
    n: int
    k: int
    rho: SymmetricState

    def __post_init__(self):
        for name, low in (("d", 2), ("n", 1), ("k", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
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
    """Outcome of certifying one threshold r; all numeric fields are finite.

    `lhs_err` is the rule's post-selection defect delta, the same
    for every threshold, and lhs <= delta + chain_bound holds as a theorem. A
    non-finite field raises ArithmeticError, so that no NaN becomes a verdict.

    `status` is derived from these numbers, never passed: INCONCLUSIVE when delta
    exceeds the chain bound, else PASS when lhs <= delta + chain bound and chain
    bound <= explicit bound, both with COMPARISON_SLACK, else VIOLATION (a broken kernel).
    """

    r: int
    lhs: float
    lhs_err: float
    chain_bound: float
    explicit_bound: float
    g_max: float
    fallback_nodes: int
    rule_description: str
    status: str = field(init=False)

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ArithmeticError(f"{name} = {value!r} at r={self.r} is not finite")
        err, chain, slack = self.lhs_err, self.chain_bound, COMPARISON_SLACK
        if err > chain:
            status = INCONCLUSIVE
        elif self.lhs <= err + chain + slack and chain <= self.explicit_bound + slack:
            status = PASS
        else:
            status = VIOLATION
        object.__setattr__(self, "status", status)


class _Conditioned(NamedTuple):
    """The threshold-independent half of the node pass, one column per node.

    Rows are Dicke coordinates of the n kept sites, in the order of
    `type_table(n, d)`. The frame U = R_1 ... R_{d-1} D of node psi maps psi
    to e_0: D removes the phases of psi's entries and the real rotation R_j
    on levels (j-1, j) moves the remaining weight of levels j.. onto j-1.
    turns[n + p, j - 1] is w_j^p, p = -n..n; `_rotate` reads every block's phases as views.
    """

    density: np.ndarray  # sym_dim(k,d) trace(rho_psi), the density of nu
    turns: np.ndarray  # (2n+1, d-1, N), from `_frame`
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
    post_selection: np.ndarray  # sym_dim(k,d) sum_j w_j |phi_j><phi_j|
    grams: np.ndarray  # sum_j w_j density_j |tau_j><tau_j|
    escaped: np.ndarray  # sum_j w_j escaped_j
    fallback: np.ndarray  # nodes that fell back


class _Block(NamedTuple):
    """Types that a rotation on levels (j-1, j) mixes: equal spectators, m = t_{j-1} + t_j."""

    rows: np.ndarray  # (blocks, m+1): type rows, by t_j = 0..m within each block
    basis: np.ndarray  # W_m
    adjoint: np.ndarray  # W_m^dag


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
    types, eigenbasis = type_table(n, d)[0], functools.cache(_generator_eigenbasis)  # one per m
    out = []
    for j in range(1, d):
        step = np.eye(d, dtype=np.int64)[j] - np.eye(d, dtype=np.int64)[j - 1]  # e_j - e_{j-1}
        blocks = []
        for m in range(1, n + 1):
            starts = types[(types[:, j - 1] == m) & (types[:, j] == 0)]
            rows = type_rank(starts[:, None, :] + np.arange(m + 1)[:, None] * step, n)
            if rows.size:
                blocks.append(_Block(rows, *eigenbasis(m)))
        out.append(tuple(blocks))
    return tuple(out)


def _rotate(n: int, d: int, turns, columns: np.ndarray, inverse=False, floor=0) -> np.ndarray:
    """Column c mapped by the symmetric power of R_1 ... R_{d-1} (`turns`), or its inverse.

    A block of m+1 types reads w^(2a - m), a = 0..m, as rows n-m, n-m+2, .., n+m of its
    level; the inverse reads turns reversed, w^-p = conj(w^p) at row n+p. An inverse
    reads only rows with t_0 >= `floor` at its first level; the rest must be zero. After
    the first level the blocks turn in place: they are disjoint, each read before written.
    Phases multiply in place, phase first, so numpy's elision of a temporary (from 256 KiB)
    never swaps the operands of a complex product, whose two orders round differently.
    """
    levels, table = (range(1, d), turns[::-1]) if inverse else (range(d - 1, 0, -1), turns)
    blocks = _rotation_blocks(n, d)
    out = np.empty_like(columns) if d == 2 else columns.copy()  # d = 2: one block, all rows
    for j in levels:
        for block in blocks[j - 1]:
            m = block.rows.shape[1] - 1
            live = m + 1 - (floor if j == 1 else 0)
            if live > 0:
                phase = table[n - m : n + m + 1 : 2, j - 1]
                mixed = block.adjoint[:, :live] @ columns.take(block.rows[:, :live], axis=0)
                out[block.rows] = block.basis @ np.multiply(phase, mixed, out=mixed)
        columns = out
    return columns


def _unit(values: np.ndarray, modulus: np.ndarray) -> np.ndarray:
    """values / modulus, modulus = |values|, and 1 where it is 0, as arctan2(0, 0) = 0 gives."""
    return np.divide(values, modulus, out=np.ones_like(values), where=modulus != 0)


def _powers(values: np.ndarray, top: int) -> np.ndarray:
    """values^p for p = 0..top on a new leading axis, by repeated products."""
    powers = np.empty((top + 1, *values.shape), dtype=np.complex128)
    powers[0], powers[1:2] = 1, values  # row 1: a contiguous copy, faster to multiply by
    for p in range(2, top + 1):
        np.multiply(powers[p - 1], powers[1], out=powers[p])
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


def _frame(n: int, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(turns, unphase) of `_Conditioned`: U^(x)n is `_rotate` with turns after unphase^*.

    R_j turns (|psi_{j-1}|, tail_j = |(psi_j, ..., psi_{d-1})|) onto level j-1 by
    theta_j, so w_j = exp(-i theta_j) is the unit of |psi_{j-1}| - i tail_j. turns holds
    w_j^p at [n + p, j - 1] for p = -n..n, one table per level. No angle is formed.
    """
    modulus = np.abs(nodes)  # |psi|, for the site phases, the tails and the turns
    unphase = _monomials(_unit(nodes, modulus), n)  # first: its table and the turns' never coexist
    tails = np.sqrt(np.cumsum(modulus[:, ::-1] ** 2, axis=1)[:, ::-1])
    turn = modulus[:, :-1] - 1j * tails[:, 1:]  # |psi_{j-1}| - i tail_j
    powers = _powers(_unit(turn, np.abs(turn)).T, n)
    return np.concatenate([powers[:0:-1].conj(), powers]), unphase  # w is a unit: w^-p = conj(w^p)


def _coupling(inst: Instance) -> np.ndarray:
    """C with phi_psi = C b(psi) in Dicke coordinates, so that Tr_k rho = C C^dag.

    C[s, u] = c_{s+u} sqrt(mult_n(s) mult_k(u) / mult_{n+k}(s+u)).
    """
    d, n, k = inst.d, inst.n, inst.k
    types_n, mult_n = type_table(n, d)
    types_k, mult_k = type_table(k, d)
    index = type_rank(types_n[:, None, :] + types_k[None, :, :], n + k)
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


def _truncate(n: int, d: int, r: int, cond: _Conditioned) -> _NodePass:
    """Truncate every conditioned node of n sites below weight r in 0..n+1 and renormalize.

    Types ascend lexicographically, so the kept rows, t_0 > n - r, are a suffix. tau falls
    back to psi^(x)n where the kept mass is at most _FALLBACK_FRACTION of the node's trace
    (always at r = 0); the frame maps psi^(x)n to the last type, (n, 0, ..., 0).
    """
    start = len(cond.mass) - math.comb(r + d - 2, d - 1)  # sym_dim(r-1, d) rows kept, 0 at r = 0
    kept, escaped = cond.mass[start:].sum(axis=0), cond.mass[:start].sum(axis=0)
    fallback = kept <= _FALLBACK_FRACTION * (kept + escaped)
    tau = np.zeros_like(cond.rotated)
    np.divide(cond.rotated[start:], np.sqrt(kept), out=tau[start:], where=~fallback)
    tau[-1, fallback] = 1
    floor = n + 1 - max(r, 1)  # kept rows have t_0 > n - r, the fallback t_0 = n
    tau = _rotate(n, d, cond.turns, tau, inverse=True, floor=floor)
    np.multiply(cond.unphase, tau, out=tau)  # in place, unphase first, as `_rotate` multiplies
    return _NodePass(cond.density, kept, escaped, tau, fallback)


def _gram(columns: np.ndarray, coefficients=1.0) -> np.ndarray:
    """sum_j coefficients[j] |columns[:, j]><columns[:, j]|, from one conjugated copy."""
    return ((columns.conj() * coefficients) @ columns.T).conj()


def memory_floor(d: int, n: int, k: int, thresholds: int, nodes: int) -> int:
    """A lower bound, in bytes, on what `verify` holds for a rule of `nodes` nodes.

    The rule's complex node matrix and float weights, which live throughout, plus what
    `_prepare` holds at once: the complex coupling C, one block's b(psi) table and the gather
    temporary of `_monomials` beside it, Tr_k rho, one Gram per threshold and the
    post-selection Gram. The type tables, about 8 (d+1) sym_dim(n+k, d) bytes, are left out. It
    never decreases as k, `thresholds` or `nodes` grows.
    """
    dim_n, dim_k = sym_dim(n, d), sym_dim(k, d)
    gram = (dim_n + 2 * min(nodes, _NODE_BLOCK)) * dim_k + (thresholds + 2) * dim_n**2
    return (16 * d + 8) * nodes + 16 * gram


def _prepare(inst: Instance, rule: QuadratureRule, thresholds) -> _Prepared:
    """Sum, _NODE_BLOCK nodes at a time, delta's Gram and what each threshold in 0..n+1 needs.

    A block's phi = C b(psi) is added to the post-selection Gram, conditioned once and truncated
    for every threshold; each of these arrays is dropped before the next is built, so one of each
    lives at a time. Peak memory is O(_NODE_BLOCK sym_dim(n,d) + len(thresholds) sym_dim(n,d)^2),
    at least the Gram term of `memory_floor`; the fixed block fixes each sum's order.
    """
    coupling = _coupling(inst)
    reduced = _gram(coupling)
    selected = np.zeros_like(reduced)
    grams = np.zeros((len(thresholds), *reduced.shape), complex)
    escaped, fallback = np.zeros(len(thresholds)), np.zeros(len(thresholds), dtype=np.int64)
    cuts = range(_NODE_BLOCK, rule.node_count, _NODE_BLOCK)
    for nodes, weights in zip(np.split(rule.node_matrix, cuts), np.split(rule.weights, cuts)):
        phi = coupling @ _bra_powers(nodes, inst.k)
        selected += _gram(phi, weights)
        cond = _condition(inst, phi, nodes)
        del phi  # before the truncations, which do not read it
        for i, r in enumerate(thresholds):
            node = _truncate(inst.n, inst.d, r, cond)
            grams[i] += _gram(node.tau, weights * node.density)
            escaped[i] += weights @ node.escaped
            fallback[i] += node.fallback.sum()
            del node  # before the next truncation
        del cond  # before the next block is conditioned
    return _Prepared(reduced, sym_dim(inst.k, inst.d) * selected, grams, escaped, fallback)


def _chain_bound(inst: Instance, escaped: float) -> float:
    return 3.0 * sym_dim(inst.k, inst.d) * math.sqrt(escaped)


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def chain_bound(inst: Instance, rule: QuadratureRule, r) -> float:
    """3 sym_dim(k,d) sqrt(int trace(P_geq_r rho_psi) d(psi)), r checked as `verify` checks it.

    The integrand is a polynomial of degree n+k in the node projector, so a
    qubit rule of degree >= n+k evaluates the integral without error. Equal to
    `verify(inst, rule, (r,))[0].chain_bound`.
    """
    return _chain_bound(inst, _prepare(inst, rule, (_integer("r", r, 0, inst.n),)).escaped[0])


def explicit_bound(n: int, k: int, d: int, r: int) -> float:
    """Closed-form bound 3 sym_dim(k,d) sqrt(sym_dim(n+k,d)) e^(-(r/6) min(k/n,1)).

    The rate min(k/n, 1) is within a factor 2 of 2k/(n+k): min(k/n, 1) <= 2k/(n+k)
    <= 2 min(k/n, 1) for all n, k >= 1. Times n(n+k) > 0, with m = min(k, n), it reads
    m(n+k) <= 2kn <= 2m(n+k). If k <= n, then m = k, k(n+k) <= 2kn holds as k <= n, and
    2kn <= 2k(n+k) always. If n < k, then m = n, n(n+k) <= 2kn holds as n <= k, and
    2kn <= 2n(n+k) always.
    """
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


def _tail(n: int, r: int, x: float, y: float) -> float:
    """sum_{i=r..n} C(n,i) x^(n-i) y^i, term by term with fsum; at y = 1-x, P[Bin(n, y) >= r]."""
    terms = []
    for i in range(r, n + 1):
        term = float(math.comb(n, i)) * x ** (n - i) * y**i
        if term < sys.float_info.min and x > 0 and y > 0:  # y^i alone can underflow
            term = math.exp(math.log(math.comb(n, i)) + (n - i) * math.log(x) + i * math.log(y))
        terms.append(term)
    return math.fsum(terms)


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
    with positive coefficients, so each step costs O(n - r + 1). Both sides
    of the sign test carry the factor 2^-(n//2), exact in binary, so that
    the sums, up to 2^n, stay finite for every n whose C(n, i) are floats.

    The maximum never exceeds e^(-(r/3) min(k/n, 1)), which is asserted before
    returning, since f is at most e^(-rk/(3n)) or e^(-r/3) on either side of
    x = 1 - r/(3n):
    - x < 1 - r/(3n): x^k <= e^(-rk/(3n)), and tail <= 1.
    - otherwise q = 1-x <= p/3, p = r/n, and x^k <= 1. The Chernoff-Hoeffding
      bound P[Bin(n, q) >= r] <= e^(-n D(p || q)) holds for q <= p, D the
      binary relative entropy, and D(p || q) falls in q on (0, p], so
      tail <= e^(-n D(p || p/3)) <= e^(-r/3), as
    - f(p) = D(p || p/3) - p/3 is 0 at p = 0 and f' increases from
      f'(0) = ln 3 - 1 > 0, so n f(r/n) >= (ln 3 - 1) r.
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
    scale = 2.0 ** -(n // 2)
    coeff = [scale * float(math.comb(n, i)) for i in range(r, n + 1)]
    reverse = coeff[::-1]
    slope = n * scale * float(math.comb(n - 1, r - 1))  # n * float(..) alone can overflow
    steps = 1 << 53

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
    best = max((m / steps) ** k * _tail(n, r, m / steps, (steps - m) / steps) for m in (lo, hi))
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


def verify(inst: Instance, rule: QuadratureRule, thresholds) -> tuple[VerificationReport, ...]:
    """Certify every threshold r of `thresholds`; each report classifies itself.

    lhs <= delta + chain bound for every rule, with delta the post-selection defect of the
    module docstring. Trace norms are taken in Dicke coordinates; the d^n isometry keeps them.

    Each r must pass `operator.index` and lie in 0..n, else InstanceError. Returns
    one report per threshold, in their order and carrying its r; () for none. One
    walk over the nodes serves every threshold (`_prepare`), so a sweep is one call.
    """
    if rule.d != inst.d:
        raise DimensionError(f"rule has site dimension {rule.d}, instance has d={inst.d}")
    thresholds = tuple(_integer("r", r, 0, inst.n) for r in thresholds)
    if not thresholds:
        return ()
    prepared = _prepare(inst, rule, thresholds)
    defect = trace_norm(prepared.reduced - prepared.post_selection)
    return tuple(
        VerificationReport(
            r=r, lhs=trace_norm(prepared.reduced - prepared.grams[i]),
            lhs_err=defect, chain_bound=_chain_bound(inst, prepared.escaped[i]),
            explicit_bound=explicit_bound(inst.n, inst.k, inst.d, r),
            g_max=g_max(inst.n, inst.k, r), fallback_nodes=int(prepared.fallback[i]),
            rule_description=rule.describe(),
        )
        for i, r in enumerate(thresholds)
    )
