"""Dense complex linear algebra on multi-site tensor product spaces.

Every object lives on `sites` subsystems of equal dimension `site_dim`.
Site 1 is the most significant index: the basis string (s1, ..., sm) sits
at flat position s1 * d**(m-1) + ... + sm. All operations that remove
subsystems act on the trailing (least significant) sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
PSD_ATOL = 1e-10
TRACE_ONE_ATOL = 1e-10


class DimensionError(ValueError):
    """Operands disagree on site dimension, site count, or shape."""


def _as_complex_readonly(a, shape, what: str) -> np.ndarray:
    arr = np.array(a, dtype=np.complex128, copy=True)
    if arr.shape != shape:
        raise DimensionError(f"{what}: expected shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _norm(vec: np.ndarray) -> float:
    """Euclidean norm from numpy's pairwise sum, whose rounding error grows with log(length).

    np.linalg.norm calls BLAS nrm2, whose error grows with the length and
    depends on the BLAS thread count; on vectors of a few million entries
    it exceeds NORM_ATOL.
    """
    return float(np.sqrt(np.sum(vec.real**2 + vec.imag**2)))


def _unit_vector(vector, length: int, what: str) -> np.ndarray:
    """`vector` as a read-only complex array of `length` entries, checked to have unit norm."""
    arr = _as_complex_readonly(vector, (length,), what)
    defect = abs(_norm(arr) - 1.0)
    if not defect <= NORM_ATOL:  # NaN fails it
        raise ValueError(f"{what} must be normalized: |norm - 1| = {defect:.3e}")
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector on `sites` subsystems of dimension `site_dim` each."""

    site_dim: int
    sites: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.site_dim < 2:
            raise ValueError(f"site_dim must be >= 2, got {self.site_dim}")
        if self.sites < 1:
            raise ValueError(f"sites must be >= 1, got {self.sites}")
        amps = _unit_vector(self.amplitudes, self.site_dim**self.sites, "PureState amplitudes")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def normalized(cls, site_dim: int, sites: int, vector) -> PureState:
        """Build a PureState from an unnormalized nonzero vector."""
        vec = np.asarray(vector, dtype=np.complex128)
        nrm = _norm(vec)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(site_dim, sites, vec / nrm)

    def overlap(self, other: PureState) -> complex:
        """Inner product <self|other>."""
        if (self.site_dim, self.sites) != (other.site_dim, other.sites):
            raise DimensionError("overlap requires matching site structure")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> Operator:
        """Rank-1 projector onto this state."""
        return Operator(self.site_dim, self.sites, np.outer(self.amplitudes, self.amplitudes.conj()))

    def tensor_power(self, copies: int) -> PureState:
        """The state repeated on `copies * sites` sites."""
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        rows = power_rows(self.amplitudes[None, :], copies)
        return PureState(self.site_dim, self.sites * copies, rows[0])


@dataclass(frozen=True, eq=False)
class Operator:
    """Square matrix acting on `sites` subsystems of dimension `site_dim`.

    `sites` may be 0 (a 1x1 scalar block, the result of tracing out
    everything). Validation only enforces the shape; hermiticity, positivity
    and normalization are checked by the predicates below and by the
    operations that require them.
    """

    site_dim: int
    sites: int
    entries: np.ndarray

    def __post_init__(self):
        if self.site_dim < 2:
            raise ValueError(f"site_dim must be >= 2, got {self.site_dim}")
        if self.sites < 0:
            raise ValueError(f"sites must be >= 0, got {self.sites}")
        side = self.site_dim**self.sites
        entries = _as_complex_readonly(self.entries, (side, side), "Operator entries")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def identity(cls, site_dim: int, sites: int) -> Operator:
        return cls(site_dim, sites, np.eye(site_dim**sites))

    @classmethod
    def zero(cls, site_dim: int, sites: int) -> Operator:
        side = site_dim**sites
        return cls(site_dim, sites, np.zeros((side, side)))

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def is_hermitian(self) -> bool:
        return _hermiticity_defect(self.entries) <= HERMITIAN_ATOL

    def is_psd(self) -> bool:
        return self.is_hermitian() and float(np.linalg.eigvalsh(self.entries)[0]) >= -PSD_ATOL

    def is_trace_one(self) -> bool:
        return abs(self.trace() - 1.0) <= TRACE_ONE_ATOL

    def _require_same_space(self, other: Operator, what: str):
        if (self.site_dim, self.sites) != (other.site_dim, other.sites):
            raise DimensionError(f"{what} requires matching site structure")

    def __add__(self, other: Operator) -> Operator:
        self._require_same_space(other, "addition")
        return Operator(self.site_dim, self.sites, self.entries + other.entries)

    def __sub__(self, other: Operator) -> Operator:
        self._require_same_space(other, "subtraction")
        return Operator(self.site_dim, self.sites, self.entries - other.entries)

    def __mul__(self, scalar) -> Operator:
        return Operator(self.site_dim, self.sites, self.entries * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: Operator) -> Operator:
        self._require_same_space(other, "composition")
        return Operator(self.site_dim, self.sites, self.entries @ other.entries)


def power_rows(rows: np.ndarray, copies: int) -> np.ndarray:
    """Row-wise `copies`-fold Kronecker power of a stack of vectors (copies = 0 gives ones)."""
    count, width = rows.shape
    out = np.ones((count, 1), dtype=np.complex128)
    for _ in range(copies):
        out = (out[:, :, None] * rows[:, None, :]).reshape(count, out.shape[1] * width)
    return out


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def partial_trace_last(rho: Operator, k: int) -> Operator:
    """Trace out the trailing k sites."""
    if not 0 <= k <= rho.sites:
        raise DimensionError(f"cannot trace {k} of {rho.sites} sites")
    if k == 0:
        return rho
    keep = rho.site_dim ** (rho.sites - k)
    gone = rho.site_dim**k
    blocks = rho.entries.reshape(keep, gone, keep, gone)
    return Operator(rho.site_dim, rho.sites - k, np.trace(blocks, axis1=1, axis2=3))


def _hermiticity_defect(entries: np.ndarray) -> float:
    """Largest entrywise deviation from the adjoint."""
    return float(np.abs(entries - entries.conj().T).max())


def _hermitian_entries(a: Operator | np.ndarray, what: str) -> np.ndarray:
    entries = a.entries if isinstance(a, Operator) else a
    defect = _hermiticity_defect(entries)
    if not defect <= HERMITIAN_ATOL:  # NaN fails it
        raise ValueError(f"{what} requires a hermitian operator (defect {defect:.3e})")
    return entries


def trace_norm(a: Operator | np.ndarray) -> float:
    """Sum of absolute eigenvalues of a hermitian operator or square matrix."""
    return float(np.abs(np.linalg.eigvalsh(_hermitian_entries(a, "trace_norm"))).sum())


# kept in the package only because bench/tracer.py traces it (ROADMAP item 1)
def sandwich_bra_last(rho: Operator, psi: PureState, k: int) -> Operator:
    """(I (x) <psi|^k) rho (I (x) |psi>^k), contracting the trailing k sites.

    The result keeps `rho.sites - k` sites. PSD inputs give PSD outputs with
    trace at most trace(rho).
    """
    if psi.sites != 1:
        raise DimensionError("sandwich_bra_last expects a single-site state")
    if psi.site_dim != rho.site_dim:
        raise DimensionError("sandwich_bra_last requires equal site dimensions")
    if not 0 <= k <= rho.sites:
        raise DimensionError(f"cannot contract {k} of {rho.sites} sites")
    if k == 0:
        return rho
    keep = rho.site_dim ** (rho.sites - k)
    gone = rho.site_dim**k
    phi = power_rows(psi.amplitudes[None, :], k)[0]
    blocks = rho.entries.reshape(keep, gone, keep, gone)
    out = np.einsum("x,axby,y->ab", phi.conj(), blocks, phi, optimize=True)
    return Operator(rho.site_dim, rho.sites - k, out)
