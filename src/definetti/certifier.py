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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from definetti.hamming import tail_function_grid
from definetti.haar import (
    DEGREE_ESCALATION,
    EXACT,
    QuadratureRule,
    _discrepancy,
    exact_qubit_rule,
)
from definetti.linalg import (
    DimensionError,
    Operator,
    PureState,
    min_eigenvalue,
    power_rows,
    trace_norm,
)
from definetti.symmetric import sym_dim, type_codes

PASS = "PASS"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"

DEFAULT_FALLBACK_TOL = 1e-12
COMPARISON_SLACK = 1e-9
INCONCLUSIVE_FRACTION = 0.05
INCONCLUSIVE_FLOOR = 1e-6

_PURITY_ATOL = 1e-10
_SYMMETRIC_SUPPORT_ATOL = 1e-9
_GRID_SLACK = 1e-12
# complex entries per block of stacked per-node matrices in the Monte Carlo
# standard error, so that its memory does not grow with the sample count
_BLOCK_ENTRIES = 1 << 16


class InstanceError(ValueError):
    """The problem instance violates its invariants; nothing was certified."""


def _symmetric_residual(state: PureState) -> float:
    """Norm of the part of `state` outside the symmetric subspace.

    Projecting onto the symmetric subspace replaces each amplitude by the mean
    amplitude over the basis strings of its type (occupation vector). The
    residual is summed directly: 1 - sum_t |S_t|^2 / mult_t, over the type
    sums S_t, loses it to cancellation near 1e-8, above the defect bound.
    """
    code = type_codes(state.sites, state.site_dim)[1]
    amps = state.amplitudes
    sums = np.bincount(code, amps.real) + 1j * np.bincount(code, amps.imag)
    return float(np.linalg.norm(amps - (sums / np.bincount(code))[code]))


@dataclass(frozen=True)
class Instance:
    """A certification problem: sites split as n kept + k conditioned.

    rho is a PureState on n+k sites of dimension d, supported on the symmetric
    subspace; a density Operator must be hermitian, unit trace, PSD and pure,
    and is replaced by its top eigenvector. The truncation threshold r lies
    in 0..n. Violations raise InstanceError at construction.
    """

    d: int
    n: int
    k: int
    r: int
    rho: PureState
    label: str = ""

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
        if rho.site_dim != self.d or rho.sites != self.n + self.k:
            raise InstanceError(
                f"rho must act on {self.n + self.k} sites of dimension {self.d}, "
                f"got {rho.sites} sites of dimension {rho.site_dim}"
            )
        if isinstance(rho, Operator):
            if not rho.is_hermitian(1e-12):
                raise InstanceError("rho must be hermitian")
            if not rho.is_trace_one(1e-10):
                raise InstanceError(f"rho must have unit trace, got {rho.trace():.6g}")
            eigs, vecs = np.linalg.eigh(rho.entries)
            if eigs[0] < -1e-10:
                raise InstanceError(f"rho must be PSD, smallest eigenvalue {eigs[0]:.3e}")
            if eigs[-2] > _PURITY_ATOL:
                raise InstanceError(f"rho must be pure, second eigenvalue {eigs[-2]:.3e}")
            rho = PureState(rho.site_dim, rho.sites, vecs[:, -1])
            object.__setattr__(self, "rho", rho)
        beta = _symmetric_residual(rho)
        # trace norm of P rho P - rho for rho = |Phi><Phi| whose component
        # outside the symmetric subspace has norm beta
        defect = beta * math.sqrt(beta**2 + 4.0 * (1.0 - beta**2))
        if defect > _SYMMETRIC_SUPPORT_ATOL:
            raise InstanceError(
                f"rho must be supported on the symmetric subspace (defect {defect:.3e})"
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
    """The threshold-independent half of the node pass, one column per node."""

    nodes: np.ndarray  # one unit row per node
    density: np.ndarray  # sym_dim(k,d) trace(rho_psi), the density of nu
    frames: np.ndarray  # (d, d, count): H per node, H psi along e_0, H = H^-1
    rotated: np.ndarray  # _phi with H applied on every site
    weight: np.ndarray  # number of nonzero digits of each basis string


class _NodePass(NamedTuple):
    """Per-node quantities, one column per node; tau_psi = |tau><tau|."""

    density: np.ndarray
    kept: np.ndarray  # trace(sigma_psi), the mass below deviation weight r
    escaped: np.ndarray  # trace(P_geq_r rho_psi)
    tau: np.ndarray
    fallback: np.ndarray


class _Prepared(NamedTuple):
    """The threshold-independent half of `verify` for one state, split and rule.

    `escalated` is the rule DEGREE_ESCALATION degrees higher with its
    conditioned nodes for exact rules, None for Monte Carlo rules.
    """

    base: _Conditioned
    escalated: tuple[QuadratureRule, _Conditioned] | None


def _rotate_sites(frames: np.ndarray, columns: np.ndarray, n: int) -> np.ndarray:
    """Column j mapped by frames[:, :, j] on each of its n sites.

    Each site's d x d map is applied as d^2 multiply-adds broadcast over whole
    slices, with the node axis last.
    """
    d, count = frames.shape[1:]
    for site in range(n):
        before = columns.reshape(d**site, d, -1, count)
        columns = np.empty_like(before)
        for a in range(d):
            np.multiply(frames[a, 0], before[:, 0], out=columns[:, a])
            for b in range(1, d):
                columns[:, a] += frames[a, b] * before[:, b]
    return columns.reshape(d**n, count)


def _phi(inst: Instance, nodes: np.ndarray) -> np.ndarray:
    """(I (x) <psi|^k) Phi for every row psi of `nodes`: rho_psi = |phi><phi|."""
    return inst.rho.amplitudes.reshape(inst.d**inst.n, -1) @ power_rows(nodes.conj(), inst.k).T


def _condition(inst: Instance, nodes: np.ndarray) -> _Conditioned:
    """Condition rho on every row of `nodes` at once and rotate into site frames.

    rho is pure, so rho_psi stays a vector. In the site frame of the
    Householder reflection H, truncation below weight r masks the strings
    with r or more nonzero digits; nothing here depends on r.
    """
    d, n = inst.d, inst.n
    phi = _phi(inst, nodes)
    types, code = type_codes(n, d)
    v = np.array(nodes, dtype=np.complex128)
    v[:, 0] += np.exp(1j * np.angle(nodes[:, 0]))
    scale = 2 / np.sum(np.abs(v) ** 2, axis=1)
    frames = np.eye(d)[:, :, None] - scale * v.T[:, None, :] * v.T.conj()[None, :, :]
    return _Conditioned(
        nodes=nodes,
        density=sym_dim(inst.k, d) * np.sum(np.abs(phi) ** 2, axis=0),
        frames=frames,
        rotated=_rotate_sites(frames, phi, n),
        weight=n - types[code, 0],
    )


def _truncate(inst: Instance, cond: _Conditioned, fallback_tol: float) -> _NodePass:
    """Truncate every conditioned node below weight inst.r and renormalize.

    tau falls back to psi^(x)n where the kept mass is at most fallback_tol.
    """
    below = cond.weight < inst.r
    kept = np.sum(np.abs(cond.rotated[below]) ** 2, axis=0)
    escaped = np.sum(np.abs(cond.rotated[~below]) ** 2, axis=0)
    fallback = kept <= fallback_tol
    tau = _rotate_sites(cond.frames, cond.rotated * below[:, None], inst.n)
    tau /= np.sqrt(np.where(fallback, 1, kept))
    tau[:, fallback] = power_rows(cond.nodes[fallback], inst.n).T
    return _NodePass(cond.density, kept, escaped, tau, fallback)


def _node_pass(inst: Instance, nodes: np.ndarray, fallback_tol: float) -> _NodePass:
    """Condition, truncate and renormalize at every row of `nodes` at once."""
    return _truncate(inst, _condition(inst, nodes), fallback_tol)


def _node_row(inst: Instance, psi: PureState) -> np.ndarray:
    if (psi.site_dim, psi.sites) != (inst.d, 1):
        raise DimensionError(f"expected a single-site state of dimension {inst.d}")
    return psi.amplitudes[None, :]


def _gram(inst: Instance, columns: np.ndarray, coefficients) -> Operator:
    """sum_j coefficients[j] |columns[:, j]><columns[:, j]| on the n kept sites."""
    return Operator(inst.d, inst.n, (columns * coefficients) @ columns.conj().T)


def _approximant(inst: Instance, weights: np.ndarray, cond: _Conditioned, fallback_tol: float):
    nodes = _truncate(inst, cond, fallback_tol)
    return nodes, _gram(inst, nodes.tau, weights * nodes.density)


def _prepare(inst: Instance, rule: QuadratureRule) -> _Prepared:
    escalated = None
    if rule.kind == EXACT:
        higher = exact_qubit_rule(rule.exact_degree + DEGREE_ESCALATION)
        escalated = (higher, _condition(inst, higher.node_matrix))
    return _Prepared(_condition(inst, rule.node_matrix), escalated)


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


def _standard_error(nodes: _NodePass) -> float:
    """`haar.standard_error` of the per-node values density_j |tau_j><tau_j|.

    The squared deviations from the mean are summed over fixed blocks of
    nodes, so memory stays bounded whatever the number of nodes.
    """
    dim, count = nodes.tau.shape
    if count < 2:
        return 0.0
    mean = (nodes.tau * (nodes.density / count)) @ nodes.tau.conj().T
    block = max(1, _BLOCK_ENTRIES // dim**2)
    total = np.zeros((dim, dim))
    for start in range(0, count, block):
        tau = nodes.tau[:, start : start + block]
        values = np.einsum("j,aj,bj->jab", nodes.density[start : start + block], tau, tau.conj())
        total += (np.abs(values - mean) ** 2).sum(axis=0)
    return float(np.max(np.sqrt(total / (count - 1) / count)))


def _lhs_and_error(inst: Instance, rule: QuadratureRule, fallback_tol: float, prepared: _Prepared):
    """(node pass, lhs, integration error) of the approximant."""
    nodes, approx = _approximant(inst, rule.weights, prepared.base, fallback_tol)
    reduced = _gram(inst, inst.rho.amplitudes.reshape(inst.d**inst.n, -1), 1.0)
    if prepared.escalated is None:
        err = _standard_error(nodes)
    else:
        higher, cond = prepared.escalated
        err = _discrepancy(approx, _approximant(inst, higher.weights, cond, fallback_tol)[1])
    return nodes, trace_norm(reduced - approx), err


def _chain_bound(inst: Instance, rule: QuadratureRule, nodes: _NodePass) -> float:
    return 3.0 * sym_dim(inst.k, inst.d) * math.sqrt(float(rule.weights @ nodes.escaped))


def rho_psi(inst: Instance, psi: PureState) -> Operator:
    """Condition rho on observing psi^(x)k in the trailing k sites."""
    return _gram(inst, _phi(inst, _node_row(inst, psi)), 1.0)


def tau_psi(
    inst: Instance, psi: PureState, fallback_tol: float = DEFAULT_FALLBACK_TOL
) -> tuple[float, Operator, bool]:
    """Truncate rho_psi below weight r and renormalize.

    Returns (trace of the truncated state, the normalized state, fallback
    flag). When the truncated trace is negligible (always at r = 0) the
    normalized state falls back to psi^(x)n, which has deviation weight 0.
    """
    node = _node_pass(inst, _node_row(inst, psi), fallback_tol)
    return float(node.kept[0]), _gram(inst, node.tau, 1.0), bool(node.fallback[0])


def approximant(
    inst: Instance, rule: QuadratureRule, fallback_tol: float = DEFAULT_FALLBACK_TOL
) -> Operator:
    """The weighted average sym_dim(k,d) int trace(rho_psi) tau_psi d(psi)."""
    return _approximant(inst, rule.weights, _condition(inst, rule.node_matrix), fallback_tol)[1]


def nu_weight_normalization(inst: Instance, rule: QuadratureRule) -> float:
    """Total mass sym_dim(k,d) int trace(rho_psi) d(psi); 1 for exact rules."""
    return float(rule.weights @ _condition(inst, rule.node_matrix).density)


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


def g_max(n: int, k: int, r: int) -> float:
    """Max over x in [0,1] of x^k tail(n, r, x), by dense grid plus refinement.

    The maximum never exceeds e^(-(r/3) min(k/n, 1)): for x below 1 - r/(3n)
    the power x^k decays enough, and above that point the binomial tail
    itself is small. That ceiling is asserted before returning.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    if not 0 <= r <= n + 1:
        raise ValueError(f"r={r} outside 0..{n + 1}")
    lo, hi = 0.0, 1.0
    best_x, best = 0.0, 0.0
    points = 10001
    for _ in range(3):
        xs = np.linspace(lo, hi, points)
        values = xs**k * tail_function_grid(n, r, xs)
        at = int(values.argmax())
        if values[at] >= best:
            best_x, best = float(xs[at]), float(values[at])
        step = (hi - lo) / (points - 1)
        lo, hi = max(best_x - step, 0.0), min(best_x + step, 1.0)
        points = 201
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
    upper = _gram(inst, power_rows(rule.node_matrix, inst.n).T, coefficients)
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
    rate = r / n
    divergences = np.array([binary_divergence(rate, 1.0 - float(x)) for x in xs])
    worst = float((n * divergences - r / 3.0).min())
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
