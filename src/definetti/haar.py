"""Quadrature rules for averages over Haar-random single-site pure states.

Two rule families:

* exact_qubit_rule(t): a product rule on the Bloch sphere (Gauss-Legendre in
  the polar coordinate, uniform in the azimuthal angle) that integrates every
  polynomial of degree at most 2t+1 in the entries of |theta><theta| without
  error. Qubits only.
* monte_carlo_rule(d, samples, seed): equal-weight nodes drawn as normalized
  complex gaussians, which are Haar distributed in any dimension.

`certifier.verify` reads `node_matrix` and `weights` in fixed node order, so
reruns with one rule agree bit for bit. `integrate` and its error estimate are
kept only because bench/tracer.py traces them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from definetti.linalg import NORM_ATOL, Operator, PureState

WEIGHT_SUM_ATOL = 1e-14

EXACT = "exact"
MONTE_CARLO = "monte_carlo"

# extra polynomial degree used to expose the error of an exact rule applied
# to a non-polynomial integrand
DEGREE_ESCALATION = 4


@dataclass(frozen=True)
class QuadratureRule:
    """Weighted single-site nodes approximating the Haar average.

    `node_matrix` holds one unit row per node; `weights` are nonnegative and
    sum to 1. Exact rules carry the polynomial degree they reproduce.
    """

    d: int
    node_matrix: np.ndarray
    weights: np.ndarray
    kind: str
    exact_degree: int = 0
    samples: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in (EXACT, MONTE_CARLO):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        nodes = np.array(self.node_matrix, dtype=np.complex128, copy=True)
        weights = np.array(self.weights, dtype=np.float64, copy=True)
        if nodes.ndim != 2 or nodes.shape[1] != self.d or nodes.shape[0] != weights.shape[0]:
            raise ValueError("node matrix and weights disagree in shape")
        if weights.min(initial=0.0) < 0:
            raise ValueError("weights must be nonnegative")
        if not abs(weights.sum() - 1.0) <= WEIGHT_SUM_ATOL:  # NaN fails it
            raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
        row_norms = np.sqrt(np.sum(nodes.real**2 + nodes.imag**2, axis=1))  # inf: no warning
        if row_norms.size and not np.abs(row_norms - 1.0).max() <= NORM_ATOL:  # so does NaN
            raise ValueError("nodes must be unit vectors")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "node_matrix", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_count(self) -> int:
        return self.weights.shape[0]

    def node(self, j: int) -> PureState:
        return PureState(self.d, 1, self.node_matrix[j])

    @property
    def nodes(self) -> tuple[PureState, ...]:
        return tuple(self.node(j) for j in range(self.node_count))

    def describe(self) -> str:
        if self.kind == EXACT:
            return f"exact(degree={self.exact_degree}, nodes={self.node_count})"
        return f"mc(samples={self.samples}, seed={self.seed})"


def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and their weights, which sum to 2.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Legendre polynomials, zero on the diagonal and j / sqrt(4 j^2 - 1) beside
    it, and the weights are 2 v_0^2 for the first entries v_0 of its unit
    eigenvectors. Nodes and weights are symmetrized about 0 and the weights
    renormalized. Unlike `numpy.polynomial.legendre.leggauss`, this needs no
    import beyond the `numpy.linalg` that `import numpy` already loads.
    """
    j = np.arange(1, points)
    beside = j / np.sqrt(4.0 * j * j - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beside, 1) + np.diag(beside, -1))
    weights = vectors[0] ** 2 + vectors[0, ::-1] ** 2
    return (nodes - nodes[::-1]) / 2, 2 * weights / weights.sum()


def exact_node_count(t: int) -> int:
    """Nodes of `exact_qubit_rule(t)`: t+1 polar nodes times 2t+2 azimuths."""
    return (t + 1) * (2 * t + 2)


def exact_qubit_rule(t: int) -> QuadratureRule:
    """Rule exact for qubit polynomials of degree <= 2t+1 in |theta><theta|.

    Haar measure on qubit pure states is the uniform measure on the Bloch
    sphere, where a monomial of degree s in |theta><theta| has degree s.
    Gauss-Legendre with t+1 points in the polar cosine is exact through polar
    degree 2t+1, and 2t+2 uniform azimuths cancel every frequency up to 2t+1.
    `exact_degree` and `describe()` report the declared t.
    """
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    u, gauss_w = _gauss_legendre(t + 1)
    n_phi = 2 * t + 2
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    nodes = np.empty((exact_node_count(t), 2), dtype=np.complex128)
    nodes[:, 0] = np.repeat(np.sqrt((1 + u) / 2), n_phi)
    nodes[:, 1] = (np.exp(1j * phi) * np.sqrt((1 - u) / 2)[:, None]).reshape(-1)
    weights = np.repeat(gauss_w / 2 / n_phi, n_phi)
    return QuadratureRule(d=2, node_matrix=nodes, weights=weights, kind=EXACT, exact_degree=t)


def monte_carlo_rule(d: int, samples: int, seed: int = 0) -> QuadratureRule:
    """Equal-weight Haar samples: normalized standard complex gaussians."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    z /= np.linalg.norm(z, axis=1)[:, None]
    weights = np.full(samples, 1.0 / samples)
    return QuadratureRule(
        d=d, node_matrix=z, weights=weights, kind=MONTE_CARLO, samples=samples, seed=seed
    )


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def integrate(rule: QuadratureRule, f):
    """Weighted sum of f over the nodes, accumulated in fixed node order.

    f may return an Operator, an ndarray, or a scalar; the result has the
    same kind. Fixed-order accumulation keeps repeated runs bit-identical.
    """
    total = None
    meta = None
    for j in range(rule.node_count):
        value = f(rule.node(j))
        if isinstance(value, Operator):
            if meta is None:
                meta = (value.site_dim, value.sites)
            elif meta != (value.site_dim, value.sites):
                raise ValueError("integrand returned operators on different spaces")
            value = value.entries
        contrib = rule.weights[j] * np.asarray(value)
        total = contrib if total is None else total + contrib
    if meta is not None:
        return Operator(meta[0], meta[1], total)
    if total.ndim == 0:
        total = complex(total)
        return total.real if total.imag == 0 else total
    return total


def _discrepancy(a, b) -> float:
    """Distance between two integral values: nuclear norm for matrices."""
    if isinstance(a, Operator):
        a, b = a.entries, b.entries
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim == 2:
        return float(np.linalg.svd(a - b, compute_uv=False).sum())
    return float(np.abs(a - b).max()) if a.ndim else float(abs(a - b))


def standard_error(values) -> float:
    """Largest entrywise standard error of the mean of values stacked on axis 0.

    A single sample carries no spread information and gives 0.
    """
    stack = np.asarray(values)
    count = stack.shape[0]
    if count < 2:
        return 0.0
    mean = stack.mean(axis=0)
    var = (np.abs(stack - mean) ** 2).sum(axis=0) / (count - 1)
    return float(np.max(np.sqrt(var / count)))


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def integration_error_estimate(rule: QuadratureRule, f) -> float:
    """Error scale of integrate(rule, f).

    Exact rules: the discrepancy against the same integral at degree + 4
    (zero up to roundoff when f is a polynomial within degree). Monte Carlo
    rules: the sample standard error of the mean, maximized over matrix
    entries for operator-valued f.
    """
    if rule.kind == EXACT:
        escalated = exact_qubit_rule(rule.exact_degree + DEGREE_ESCALATION)
        return _discrepancy(integrate(rule, f), integrate(escalated, f))
    values = [f(node) for node in rule.nodes]
    return standard_error([v.entries if isinstance(v, Operator) else v for v in values])
