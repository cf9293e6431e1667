"""Weight projectors counting how many sites differ from a reference state.

For a single-site state psi, each site carries the projector pair
(|psi><psi|, I - |psi><psi|). The weight-i projector Q_i is the sum of all
n-fold tensor products with exactly i factors of the second kind: it picks
out the subspace where exactly i sites deviate from psi. The Q_i are
mutually orthogonal projectors summing to the identity, with
rank C(n, i) (d-1)^i.

Only the n+1 aggregated projectors are ever materialized; the 2^n individual
products are folded in by a per-site recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from definetti.certifier import tail_function_grid
from definetti.linalg import Operator, PureState

DISTANCE_TOL = 1e-10
_TRACE_ATOL = 1e-8


@dataclass(frozen=True)
class WeightProjectorFamily:
    """Projectors Q_0 ... Q_n onto the deviation-weight subspaces for psi."""

    psi: PureState
    n: int
    projectors: tuple[Operator, ...]

    def weight_masses(self, rho: Operator) -> np.ndarray:
        """trace(Q_i rho) for every weight i, as a real vector."""
        return np.array(
            [np.einsum("ij,ji->", q.entries, rho.entries).real for q in self.projectors]
        )


def weight_family(psi: PureState, n: int) -> WeightProjectorFamily:
    """Build the weight projectors for n sites referenced to psi."""
    if psi.sites != 1:
        raise ValueError("weight_family expects a single-site reference state")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    keep = psi.projector().entries
    flip = np.eye(psi.site_dim) - keep
    # per-site recurrence over (matrix, weight) pairs; level m holds the
    # weight-w blocks of the first m sites
    level = [np.ones((1, 1), dtype=np.complex128)]
    for _ in range(n):
        grown = [np.kron(level[0], keep)]
        for w in range(1, len(level)):
            grown.append(np.kron(level[w], keep) + np.kron(level[w - 1], flip))
        grown.append(np.kron(level[-1], flip))
        level = grown
    ops = tuple(Operator(psi.site_dim, n, q) for q in level)
    return WeightProjectorFamily(psi=psi, n=n, projectors=ops)


def threshold_projectors(family: WeightProjectorFamily, r: int) -> tuple[Operator, Operator]:
    """(P_below, P_at_or_above): weights < r and weights >= r."""
    if not 0 <= r <= family.n + 1:
        raise ValueError(f"threshold r={r} outside 0..{family.n + 1}")
    d, n = family.psi.site_dim, family.n
    below = Operator.zero(d, n)
    for i in range(r):
        below = below + family.projectors[i]
    return below, Operator.identity(d, n) - below


def hamming_distance(tau: Operator, psi: PureState, tol: float = DISTANCE_TOL) -> int:
    """Smallest r such that tau has no mass on weights above r.

    tau must be a density operator (PSD, unit trace). Returns the largest
    deviation weight carrying more than `tol` of mass.
    """
    if psi.sites != 1 or psi.site_dim != tau.site_dim:
        raise ValueError("hamming_distance needs a single-site psi on tau's site dimension")
    if abs(tau.trace().real - 1.0) > _TRACE_ATOL or abs(tau.trace().imag) > _TRACE_ATOL:
        raise ValueError(f"tau must have unit trace, got {tau.trace():.6g}")
    if not tau.is_psd():
        raise ValueError("tau must be positive semidefinite")
    family = weight_family(psi, tau.sites)
    masses = family.weight_masses(tau)
    above = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])  # above[j] = sum_{i >= j}
    for r in range(tau.sites + 1):
        if above[r + 1] <= tol:
            return r
    return tau.sites


def tail_function(n: int, r: int, x: float) -> float:
    """`certifier.tail_function_grid` at the single point x."""
    return float(tail_function_grid(n, r, np.array([x]))[0])
