"""Symmetric subspace machinery: the type table and symmetric states.

The permutation-symmetric subspace of n sites of dimension d has one basis
vector per occupation vector (m_1, ..., m_d) with sum n: the equal-amplitude
superposition of all basis strings of that type. A symmetric pure state is
its sym_dim(n, d) coefficients in that basis (`SymmetricState`), which is how
the state builders return it and what `SymmetricState.from_dense` reduces a
dense state to. `strings_from_dicke` spreads Dicke coordinates back over the
d^n basis strings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from definetti.linalg import PSD_ATOL, Operator, PureState, _unit_vector


def sym_dim(n: int, d: int) -> int:
    """Dimension C(n+d-1, n) of the symmetric subspace, as an exact integer."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return math.comb(n + d - 1, n)


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def type_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(types, mult): the occupation types of n sites and the basis strings of each.

    types is the (sym_dim(n, d), d) table of occupation vectors in ascending
    lexicographic order, the order of `type_codes`; mult[t] is the multinomial
    n! / prod_i types[t, i]!, as a float. Each type counts the levels of one
    sorted n-tuple of `combinations_with_replacement`, read in reverse to
    ascend. Both arrays are read-only and cached.
    """
    levels = itertools.combinations_with_replacement(range(d), n)
    levels = np.array(list(levels)[::-1], dtype=np.int64).reshape(sym_dim(n, d), n)
    types = np.stack([(levels == c).sum(axis=1) for c in range(d)], axis=1)
    mult = [math.factorial(n) // math.prod(map(math.factorial, row)) for row in types.tolist()]
    return _read_only(types, np.array(mult, dtype=np.float64))


@functools.lru_cache(maxsize=4)
def type_codes(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(types, code): the occupation types of n sites and the type of every basis string.

    types is the table of `type_table`; code[j] is the row of types that basis
    string j belongs to. Types are numbered site by site: appending digit c
    to a string of type t gives type t + e_c, and np.unique renumbers the
    types after each site, so no digit table of all strings is built. Both
    arrays are read-only and cached, so repeated checks of states on the same
    sites share them.
    """
    types = np.zeros((1, d), dtype=np.int64)
    code = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        grown = (types[:, None, :] + np.eye(d, dtype=np.int64)).reshape(-1, d)
        types, renumber = np.unique(grown, axis=0, return_inverse=True)
        code = renumber.reshape(-1, d)[code].reshape(-1)
    return _read_only(types, code)


def strings_from_dicke(n: int, d: int, columns: np.ndarray) -> np.ndarray:
    """Dicke columns of n sites spread over the d**n strings: row t / sqrt(mult_t) on type t."""
    scale = 1.0 / np.sqrt(type_table(n, d)[1])
    return (scale[:, None] * columns)[type_codes(n, d)[1]]


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
    code = type_codes(state.sites, state.site_dim)[1]
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
    occ = tuple(int(x) for x in occupation)
    if len(occ) != d or any(x < 0 for x in occ) or sum(occ) != n:
        raise ValueError(f"occupation {occ} is not a d={d} type of total {n}")
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
    coeff /= np.linalg.norm(coeff)
    return SymmetricState(d, n, coeff)


def ghz_state(n: int, d: int) -> SymmetricState:
    """Equal superposition of the d constant strings |j j ... j>, the types n e_j."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    constant = type_table(n, d)[0].max(axis=1) == n
    return SymmetricState(d, n, constant / math.sqrt(d))
