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

import numpy as np

from definetti.linalg import Operator, PureState


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def weight_family(psi: PureState, n: int) -> tuple[Operator, ...]:
    """The weight projectors Q_0 ... Q_n for n sites referenced to psi."""
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
    return tuple(Operator(psi.site_dim, n, q) for q in level)


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def threshold_projectors(projectors: tuple[Operator, ...], r: int) -> tuple[Operator, Operator]:
    """(P_below, P_at_or_above) from `weight_family`'s Q_0 ... Q_n: weights < r and >= r."""
    d, n = projectors[0].site_dim, len(projectors) - 1
    if not 0 <= r <= n + 1:
        raise ValueError(f"threshold r={r} outside 0..{n + 1}")
    below = Operator.zero(d, n)
    for i in range(r):
        below = below + projectors[i]
    return below, Operator.identity(d, n) - below
