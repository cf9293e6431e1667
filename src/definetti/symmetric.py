"""Symmetric subspace machinery: the type tables and symmetric states.

The permutation-symmetric subspace of n sites of dimension d has one basis
vector per occupation vector (m_1, ..., m_d) with sum n: the equal-amplitude
superposition of all basis strings of that type. A symmetric pure state is
its sym_dim(n, d) coefficients in that basis (`SymmetricState`), which is how
the state builders return it and what `SymmetricState.from_dense` reduces a
dense state to. `type_table` lists the types, `type_rank` finds their rows, and
`type_codes` gives the row of each of the d^n basis strings, through which
`from_dense` sums amplitudes and `strings_from_dicke` spreads Dicke coordinates back.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from definetti.linalg import PSD_ATOL, Operator, PureState, _norm, _unit_vector


def sym_dim(n: int, d: int) -> int:
    """Dimension C(n+d-1, n) of the symmetric subspace, as an exact integer."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return math.comb(n + d - 1, n)


@functools.lru_cache(maxsize=16)
def type_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(types, mult): the occupation types of n sites and the basis strings of each.

    types is the (sym_dim(n, d), d) table of occupation vectors in ascending lexicographic
    order, the order of `type_rank`. Row t reads d-1 bar positions b in range(n+d-1) as
    t = diff([-1, b, n+d-1]) - 1 (stars and bars), and `combinations` yields the b in
    lexicographic, so ascending, order. mult[t] = n! / prod_i types[t, i]! is the product of
    C(t_0 + ... + t_i, t_i) over i >= 1, from Pascal's triangle in Python integers (built by
    additions, not kept), so exact until its one conversion to a float, 4096 rows at a time.
    Both arrays are read-only and cached.
    """
    rows, slots = sym_dim(n, d), n + d - 1
    bars = itertools.chain.from_iterable(itertools.combinations(range(slots), d - 1))
    bars = np.fromiter(bars, dtype=np.int64, count=rows * (d - 1)).reshape(rows, d - 1)
    types = np.diff(bars, axis=1, prepend=-1, append=slots) - 1
    prefix = np.cumsum(types, axis=1)[:, 1:]  # t_0 + ... + t_i for i >= 1
    read = np.bincount(prefix.ravel(), minlength=n + 1) > 0  # the rows kept; at d=2 only row n
    pascal, row = np.zeros((n + 1, n + 1), dtype=object), np.eye(1, n + 1, dtype=object)[0]
    for x in range(n + 1):  # row holds C(x, y) at y
        pascal[x] = row if read[x] else 0
        row[1:] = row[1:] + row[:-1]
    mult = np.empty(rows)  # by blocks, so that the exact products never all coexist
    for block in (slice(start, start + 4096) for start in range(0, rows, 4096)):
        mult[block] = pascal[prefix[block], types[block, 1:]].prod(axis=1)
    types.setflags(write=False)
    mult.setflags(write=False)
    return types, mult


def type_rank(types: np.ndarray, n: int) -> np.ndarray:
    """Row in `type_table(n, d)` of each type of n sites (last axis), found without a sort."""
    d = types.shape[-1]
    table = np.arange(n + 1)[:, None].repeat(d - 1, axis=1)  # C(x-1+e, e) at [x, e-1]
    for e in range(1, d - 1):
        table[:, e] = np.cumsum(table[:, e - 1])
    rest = n - np.cumsum(types[..., :-1], axis=-1)  # the sites after level i, for i < d-1
    # after t come sum_i C(rest_i-1+e_i, e_i) types, e_i = d-1-i: same before level i, more on it
    return sym_dim(n, d) - 1 - table[rest, np.arange(d - 2, -1, -1)].sum(axis=-1)


@functools.lru_cache(maxsize=4)
def type_codes(n: int, d: int) -> np.ndarray:
    """code[j]: the row of `type_table(n, d)`'s types that basis string j belongs to.

    Types are numbered site by site: appending digit c to a string of type t gives type
    t + e_c, whose row `type_rank` gives, so no digit table of all strings is built. The
    types of fewer sites skip `type_table`'s cache, which one table per site would fill.
    The table is read-only and cached, so repeated checks of states on the same sites share it.
    """
    code = np.zeros(1, dtype=np.int64)
    for m in range(n):
        grown = type_table.__wrapped__(m, d)[0][:, None, :] + np.eye(d, dtype=np.int64)
        code = type_rank(grown, m + 1)[code].reshape(-1)
    code.setflags(write=False)
    return code


def strings_from_dicke(n: int, d: int, columns: np.ndarray) -> np.ndarray:
    """Dicke columns of n sites spread over the d**n strings: row t / sqrt(mult_t) on type t."""
    scale = 1.0 / np.sqrt(type_table(n, d)[1])
    return (scale[:, None] * columns)[type_codes(n, d)]


def _dicke_coefficients(state: PureState) -> tuple[np.ndarray, float]:
    """(c, beta): the Dicke coefficients of `state` and the norm of its non-symmetric part.

    With S_t the sum of the amplitudes over the basis strings of type t,
    c_t = S_t / sqrt(mult_t) in the order of `type_table`. Projecting onto the
    symmetric subspace replaces each amplitude by S_t / mult_t. `np.bincount`
    sums in order, so S_t carries up to about mult_t ulps of error (4e-12
    relative at n+k = 21); summing the deviations from those means once more
    removes it. The residual beta is the norm of the deviations, summed
    directly: 1 - sum_t |c_t|^2 loses it to cancellation near 1e-8, above the
    defect bound.
    """
    code = type_codes(state.sites, state.site_dim)
    mult = np.bincount(code)

    def type_sums(values):
        return np.bincount(code, values.real) + 1j * np.bincount(code, values.imag)

    sums = type_sums(state.amplitudes)
    deviation = state.amplitudes - (sums / mult)[code]
    coefficients = (sums + type_sums(deviation)) / np.sqrt(mult)
    coefficients.setflags(write=False)
    return coefficients, float(np.linalg.norm(deviation))


@dataclass(frozen=True)
class SymmetricState:
    """Pure state of `sites` sites of dimension `site_dim`, given by its Dicke coefficients.

    coefficients[t] is the amplitude of the Dicke state of the t-th type of
    `type_table(sites, site_dim)`, so the state is symmetric by construction
    and nothing of size site_dim**sites is held. The coefficients must number
    sym_dim(sites, site_dim) and have unit norm (the pairwise-sum check of
    `PureState`); they are stored read-only.
    """

    site_dim: int
    sites: int
    coefficients: np.ndarray

    def __post_init__(self):
        if self.site_dim < 2:
            raise ValueError(f"site_dim must be >= 2, got {self.site_dim}")
        if self.sites < 1:
            raise ValueError(f"sites must be >= 1, got {self.sites}")
        coefficients = _unit_vector(
            self.coefficients, sym_dim(self.sites, self.site_dim), "SymmetricState coefficients"
        )
        object.__setattr__(self, "coefficients", coefficients)

    @classmethod
    def from_dense(cls, rho: PureState | Operator) -> SymmetricState:
        """The SymmetricState of a dense PureState or density Operator.

        An Operator must be hermitian, unit trace, PSD and pure, and gives its
        top eigenvector. The state must lie in the symmetric subspace up to a
        trace-norm defect of 1e-9. A failed check raises ValueError.
        """
        if isinstance(rho, Operator):
            if not rho.is_hermitian():
                raise ValueError("rho must be hermitian")
            if not rho.is_trace_one():
                raise ValueError(f"rho must have unit trace, got {rho.trace():.6g}")
            eigs, vecs = np.linalg.eigh(rho.entries)
            if eigs[0] < -PSD_ATOL:
                raise ValueError(f"rho must be PSD, smallest eigenvalue {eigs[0]:.3e}")
            second = eigs[:-1].max(initial=0.0)  # a 1x1 operator on no sites has none
            if second > 1e-10:
                raise ValueError(f"rho must be pure, second eigenvalue {second:.3e}")
            rho = PureState(rho.site_dim, rho.sites, vecs[:, -1])
        coefficients, beta = _dicke_coefficients(rho)
        # trace norm of P rho P - rho for rho = |Phi><Phi| whose component
        # outside the symmetric subspace has norm beta
        defect = beta * math.sqrt(beta**2 + 4.0 * (1.0 - beta**2))
        if defect > 1e-9:
            raise ValueError(
                f"rho must be supported on the symmetric subspace (defect {defect:.3e})"
            )
        return cls(rho.site_dim, rho.sites, coefficients)

    def pure(self) -> PureState:
        """The site_dim**sites amplitudes: c_t / sqrt(mult_t) on every basis string of type t."""
        amplitudes = strings_from_dicke(self.sites, self.site_dim, self.coefficients[:, None])
        return PureState(self.site_dim, self.sites, amplitudes[:, 0])


def dicke_state(n: int, d: int, occupation) -> SymmetricState:
    """Equal-amplitude superposition of all basis strings with the given type."""
    occ = np.asarray(tuple(occupation))
    if occ.dtype.kind not in "iu" or occ.shape != (d,) or (occ < 0).any() or occ.sum() != n:
        raise ValueError(f"occupation {occ.tolist()} is not a d={d} type of total {n} in integers")
    return SymmetricState(d, n, (type_table(n, d)[0] == occ).all(axis=1))


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def symmetrizer(n: int, d: int) -> Operator:
    """Orthogonal projector onto the symmetric subspace, V V^T for the real V of Dicke columns."""
    v = strings_from_dicke(n, d, np.eye(sym_dim(n, d)))
    return Operator(d, n, v @ v.T)


def random_symmetric_pure(n: int, d: int, seed: int) -> SymmetricState:
    """Haar-like random symmetric state: complex gaussian Dicke coefficients."""
    size = sym_dim(n, d)
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    coeff /= _norm(coeff)  # the same bytes at every BLAS thread count
    return SymmetricState(d, n, coeff)


def ghz_state(n: int, d: int) -> SymmetricState:
    """Equal superposition of the d constant strings |j j ... j>, the types n e_j."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    constant = type_table(n, d)[0].max(axis=1) == n
    return SymmetricState(d, n, constant / math.sqrt(d))
