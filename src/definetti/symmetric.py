"""Symmetric subspace machinery: the type table, symmetric states, Dicke isometries.

The permutation-symmetric subspace of n sites of dimension d has one basis
vector per occupation vector (m_1, ..., m_d) with sum n: the equal-amplitude
superposition of all basis strings of that type. A symmetric pure state is
its sym_dim(n, d) coefficients in that basis (`SymmetricState`), which is how
the state builders return it. Collecting the basis vectors as columns gives
an isometry from C^{sym_dim(n, d)} into the full space, and the orthogonal
projector onto the subspace is the isometry times its adjoint; both are
built only as dense reference oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from definetti.linalg import Operator, PureState, _unit_vector


def sym_dim(n: int, d: int) -> int:
    """Dimension C(n+d-1, n) of the symmetric subspace, as an exact integer."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return math.comb(n + d - 1, n)


def _grow(types: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Types of one more site, ascending, and the new row of types[i] + e_c at i * d + c."""
    d = types.shape[1]
    grown = (types[:, None, :] + np.eye(d, dtype=np.int64)).reshape(-1, d)
    return np.unique(grown, axis=0, return_inverse=True)


def _read_only(*arrays):
    for array in arrays:
        array.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def type_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(types, mult): the occupation types of n sites and the basis strings of each.

    types is the (sym_dim(n, d), d) table of occupation vectors in ascending
    lexicographic order, the order of `type_codes`; mult[t] is the multinomial
    n! / prod_i types[t, i]!, as a float. Nothing of size d**n is built. Both
    arrays are read-only and cached.
    """
    types = np.zeros((1, d), dtype=np.int64)
    for _ in range(n):
        types = _grow(types)[0]
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
        types, renumber = _grow(types)
        code = renumber.reshape(-1, d)[code].reshape(-1)
    return _read_only(types, code)


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

    def pure(self) -> PureState:
        """The site_dim**sites amplitudes: c_t / sqrt(mult_t) on every basis string of type t."""
        code = type_codes(self.sites, self.site_dim)[1]
        amplitudes = (1.0 / np.sqrt(np.bincount(code)))[code] * self.coefficients[code]
        return PureState(self.site_dim, self.sites, amplitudes)


def _site_strings(n: int, d: int) -> np.ndarray:
    """(d**n, n) table of base-d digits; row j spells basis index j, site 1 first."""
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int64)
    for s in range(n - 1, -1, -1):
        digits[:, s] = idx % d
        idx //= d
    return digits


@dataclass(frozen=True)
class DickeIsometry:
    """Isometry whose columns are the Dicke states of n sites of dimension d.

    Columns follow the order of the types from `type_codes(n, d)`. The matrix
    satisfies V^dag V = identity and V V^dag = symmetric-subspace projector.
    """

    n: int
    d: int
    occupations: tuple[tuple[int, ...], ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def subspace_dim(self) -> int:
        return self.matrix.shape[1]

    def column(self, occupation: tuple[int, ...]) -> np.ndarray:
        return self.matrix[:, self.occupations.index(tuple(occupation))]


def dicke_isometry(n: int, d: int) -> DickeIsometry:
    """Build the full Dicke-basis isometry for n sites of dimension d."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    types, code = type_codes(n, d)
    matrix = np.zeros((d**n, len(types)), dtype=np.complex128)
    matrix[np.arange(d**n), code] = 1.0 / np.sqrt(np.bincount(code)[code])
    occs = tuple(map(tuple, types.tolist()))
    return DickeIsometry(n=n, d=d, occupations=occs, matrix=matrix)


def dicke_state(n: int, d: int, occupation) -> SymmetricState:
    """Equal-amplitude superposition of all basis strings with the given type."""
    occ = tuple(int(x) for x in occupation)
    if len(occ) != d or any(x < 0 for x in occ) or sum(occ) != n:
        raise ValueError(f"occupation {occ} is not a d={d} type of total {n}")
    return SymmetricState(d, n, (type_table(n, d)[0] == occ).all(axis=1))


def symmetrizer(n: int, d: int) -> Operator:
    """Orthogonal projector onto the symmetric subspace, built as V V^dag."""
    iso = dicke_isometry(n, d)
    return Operator(d, n, iso.matrix @ iso.matrix.conj().T)


def permutation_operator(n: int, d: int, perm) -> Operator:
    """Unitary that moves the content of site i to site perm[i]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of 0..{n - 1}")
    digits = _site_strings(n, d)
    moved = np.empty_like(digits)
    moved[:, perm] = digits
    place = d ** np.arange(n - 1, -1, -1)
    new_index = moved @ place
    mat = np.zeros((d**n, d**n), dtype=np.complex128)
    mat[new_index, np.arange(d**n)] = 1.0
    return Operator(d, n, mat)


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
