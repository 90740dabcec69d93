"""Truncated multimode Fock space: basis indexing, ladder operators,
tensor structure, partial trace and partial transpose on dense arrays.

Everything here is dense numpy. At the scales this package targets
(<= 3 modes, cutoff <= ~20) dense linear algebra is simpler and fast
enough; sparsity is deliberately out of scope.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

#: default truncation-leakage budget for state constructors, a probability
LEAK_TOL = 1e-6
#: positive-semidefiniteness tolerance (scaled by matrix norm)
PSD_TOL = 1e-10
#: relative Hermiticity tolerance for density operators
HERM_TOL = 1e-12


class TruncationError(ValueError):
    """Raised when a state loses more weight past the Fock cutoff than the
    leak budget allows.  Distinct from other validation errors so callers
    can retry with a larger cutoff instead of reporting a finding."""


def _check_leak(leak: float, leak_tol: float) -> None:
    """The one leak-budget check: raise :class:`TruncationError` when the
    probability ``leak`` lost past the cutoff exceeds ``leak_tol``."""
    if leak > leak_tol:
        raise TruncationError(
            f"truncation leakage {leak:.3e} exceeds budget {leak_tol:.1e}"
        )


@dataclass(frozen=True)
class FockArena:
    """An indexing scheme for ``n_modes`` truncated bosonic modes.

    Each mode holds photon numbers ``0 .. cutoff-1`` (per-mode dimension
    ``cutoff``).  Basis indexing is mode-major: mode 0 is the slowest
    index, so the global basis order matches nested ``np.kron`` with the
    mode-0 factor first.
    """

    n_modes: int
    cutoff: int

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be a positive integer")
        if self.cutoff < 1:
            raise ValueError("cutoff must be a positive integer")

    @property
    def total_dim(self) -> int:
        return self.cutoff ** self.n_modes

    def encode(self, occupations: Sequence[int]) -> int:
        """Basis index of the occupation tuple (mode-major)."""
        if len(occupations) != self.n_modes:
            raise ValueError("occupation tuple has wrong length")
        index = 0
        for n in occupations:
            if not 0 <= n < self.cutoff:
                raise ValueError(f"occupation {n} outside 0..{self.cutoff - 1}")
            index = index * self.cutoff + int(n)
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a basis index; inverse of :meth:`encode`."""
        if not 0 <= index < self.total_dim:
            raise ValueError("basis index out of range")
        occ = []
        for _ in range(self.n_modes):
            index, n = divmod(index, self.cutoff)
            occ.append(n)
        return tuple(reversed(occ))

    def occupation_table(self) -> np.ndarray:
        """(total_dim, n_modes) integer array of all occupation tuples."""
        return _occupation_table(self.n_modes, self.cutoff)

    def total_photon_numbers(self) -> np.ndarray:
        """Total photon number of every basis state, length total_dim."""
        return self.occupation_table().sum(axis=1)

    def photon_sector_indices(self) -> dict[int, np.ndarray]:
        """Basis indices grouped by total photon number."""
        totals = self.total_photon_numbers()
        return {int(n): np.flatnonzero(totals == n) for n in np.unique(totals)}

    def subspace_indices(self, max_total_photons: int) -> np.ndarray:
        """Indices of basis states with total photon number <= the bound."""
        return np.flatnonzero(self.total_photon_numbers() <= max_total_photons)


@functools.lru_cache(maxsize=None)
def _occupation_table(n_modes: int, cutoff: int) -> np.ndarray:
    grids = np.indices((cutoff,) * n_modes)
    table = grids.reshape(n_modes, -1).T
    table.setflags(write=False)
    return table


def _single_mode_annihilation(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


@functools.lru_cache(maxsize=None)
def _annihilation_cached(n_modes: int, cutoff: int, mode: int) -> np.ndarray:
    a = _single_mode_annihilation(cutoff)
    op = np.eye(1, dtype=complex)
    for m in range(n_modes):
        op = np.kron(op, a if m == mode else np.eye(cutoff, dtype=complex))
    op.setflags(write=False)
    return op


def annihilation_matrix(arena: FockArena, mode: int) -> np.ndarray:
    """Dense annihilation operator on ``mode``, identity on the rest."""
    if not 0 <= mode < arena.n_modes:
        raise ValueError(f"mode {mode} out of range for {arena.n_modes} modes")
    return _annihilation_cached(arena.n_modes, arena.cutoff, mode)


@dataclass(frozen=True)
class StateVector:
    """A pure state as a dense complex amplitude array over the arena basis.

    ``amplitudes`` is a read-only copy of the input.  Construction enforces
    the truncation-leakage budget: when the lost probability 1 - ||psi||^2
    exceeds ``leak_tol`` a :class:`TruncationError` is raised instead of
    silently renormalizing.
    """

    arena: FockArena
    amplitudes: np.ndarray
    leak_tol: float = field(default=LEAK_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.arena.total_dim,):
            raise ValueError("amplitude vector has wrong length")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.linalg.norm(amps))
        if norm > 1.0 + 1e-12:
            raise ValueError(f"state norm {norm} exceeds 1")
        _check_leak(1.0 - norm * norm, self.leak_tol)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_density(self, **kwargs) -> "DensityOperator":
        return DensityOperator(
            self.arena, np.outer(self.amplitudes, self.amplitudes.conj()), **kwargs
        )


@dataclass(frozen=True)
class DensityOperator:
    """A mixed state as a dense Hermitian PSD matrix over the arena basis.

    Validated at construction: the input is Hermitian within ``HERM_TOL``
    relative to its largest entry; ``matrix`` is then the read-only,
    exactly Hermitian copy ``(rho + rho^dag)/2``, whose trace lies in
    ``[1 - leak_tol, 1]`` and whose minimum eigenvalue is >= ``-PSD_TOL``
    scaled by the matrix norm.  Code downstream trusts these properties and
    does not re-impose them.
    """

    arena: FockArena
    matrix: np.ndarray
    leak_tol: float = field(default=LEAK_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.matrix, dtype=complex)
        dim = self.arena.total_dim
        if raw.shape != (dim, dim):
            raise ValueError("density matrix has wrong shape")
        scale = float(np.abs(raw).max())
        if scale == 0.0:
            raise ValueError("density matrix is identically zero")
        herm_dev = float(np.abs(raw - raw.conj().T).max())
        if herm_dev > HERM_TOL * scale:
            raise ValueError(f"density matrix not Hermitian: deviation {herm_dev:.3e}")
        mat = (raw + raw.conj().T) / 2.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        tr = float(np.trace(mat).real)
        if tr > 1.0 + 1e-12:
            raise ValueError(f"trace {tr} exceeds 1")
        _check_leak(1.0 - tr, self.leak_tol)
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -PSD_TOL * max(scale, 1.0):
            raise ValueError(f"density matrix not PSD: min eigenvalue {min_eig:.3e}")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.trace(self.matrix @ op))

    def fidelity_with_pure(self, psi: StateVector) -> float:
        """<psi|rho|psi>, the fidelity against a pure reference state."""
        return float(
            np.real(psi.amplitudes.conj() @ (self.matrix @ psi.amplitudes))
        )


def _as_tensor(arena: FockArena, matrix: np.ndarray) -> np.ndarray:
    n, d = arena.n_modes, arena.cutoff
    return matrix.reshape((d,) * (2 * n))


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced state on ``keep`` (sorted mode order), tracing out the rest."""
    keep_sorted = sorted(set(keep))
    n = rho.arena.n_modes
    if not keep_sorted:
        raise ValueError("keep set must be non-empty")
    if any(m < 0 or m >= n for m in keep_sorted):
        raise ValueError("keep set contains an invalid mode index")

    tensor = _as_tensor(rho.arena, rho.matrix)
    traced = [m for m in range(n) if m not in keep_sorted]
    for offset, m in enumerate(traced):
        axis = m - offset  # axes shift as earlier modes are traced out
        n_left = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=axis, axis2=n_left + axis)
    k = len(keep_sorted)
    reduced_arena = FockArena(k, rho.arena.cutoff)
    matrix = tensor.reshape(reduced_arena.total_dim, reduced_arena.total_dim)
    return DensityOperator(reduced_arena, matrix, leak_tol=rho.leak_tol)


def partial_transpose(rho: DensityOperator, transposed_modes: Iterable[int]) -> np.ndarray:
    """Matrix with the chosen modes' indices transposed (PPT map).

    The transposed set must be a proper non-empty subset of the modes;
    transposing nothing or everything is a plain (no-op / full) transpose
    and almost certainly a caller bug.
    """
    modes = sorted(set(transposed_modes))
    n = rho.arena.n_modes
    if not modes or len(modes) >= n:
        raise ValueError("transposed_modes must be a proper non-empty subset")
    if any(m < 0 or m >= n for m in modes):
        raise ValueError("transposed_modes contains an invalid mode index")
    tensor = _as_tensor(rho.arena, rho.matrix)
    for m in modes:
        tensor = np.swapaxes(tensor, m, n + m)
    dim = rho.arena.total_dim
    return tensor.reshape(dim, dim)
