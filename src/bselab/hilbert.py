"""Truncated multimode Fock space: basis indexing and the validated state
containers.  No operator matrix is built here: a full-space state is a set
of weighted amplitude rows, and its single-mode marginals are reduced from
those rows directly.

Everything here is dense numpy. At the scales this package targets
(<= 3 modes, cutoff <= ~20) dense linear algebra is simpler and fast
enough; sparsity is deliberately out of scope.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

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

    def occupation_table(self) -> np.ndarray:
        """(total_dim, n_modes) integer array of all occupation tuples."""
        return _occupation_table(self.n_modes, self.cutoff)

    def subspace_indices(self, max_total_photons: int) -> np.ndarray:
        """Indices of basis states with total photon number <= the bound."""
        return np.flatnonzero(self.occupation_table().sum(axis=1) <= max_total_photons)


@functools.lru_cache(maxsize=None)
def _occupation_table(n_modes: int, cutoff: int) -> np.ndarray:
    grids = np.indices((cutoff,) * n_modes)
    table = grids.reshape(n_modes, -1).T
    table.setflags(write=False)
    return table


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


@dataclass(frozen=True)
class Mixture:
    """A full-space state sum_i w_i |psi_i><psi_i| held as read-only copies
    of its finite, non-negative weights and its pure amplitude rows.

    It is PSD by construction, so the one check is the truncation ``leak``
    1 - sum_i w_i ||psi_i||^2 (sum_i w_i (1 - ||psi_i||^2) for weights that
    sum to 1).  No code forms its dim x dim matrix: ``marginals`` works on
    the rows, and ``witnesses.negativity_report`` takes the partial-transpose
    spectrum on a low-rank compression of the rows.
    """

    arena: FockArena
    weights: np.ndarray
    rows: np.ndarray
    leak_tol: float = field(default=LEAK_TOL, repr=False, compare=False)
    leak: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        rows = np.array(self.rows, dtype=complex)
        if w.ndim != 1 or rows.shape != (w.size, self.arena.total_dim):
            raise ValueError("need one amplitude row of length total_dim per weight")
        if not (np.isfinite(w).all() and np.isfinite(rows).all()) or np.any(w < 0):
            raise ValueError("mixture needs finite rows and finite non-negative weights")
        for name, value in (("weights", w), ("rows", rows)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        kept = float(w @ np.sum(np.abs(rows) ** 2, axis=1))
        if kept > 1.0 + 1e-12:
            raise ValueError(f"trace {kept} exceeds 1")
        object.__setattr__(self, "leak", 1.0 - kept)
        _check_leak(self.leak, self.leak_tol)

    def marginals(self) -> tuple[DensityOperator, ...]:
        """Single-mode reduced states in mode order: sum_i w_i A_i A_i^dag,
        with A_i row i reshaped to (cutoff, rest) for that mode: one GEMM
        per mode, contracting the weighted rows with their conjugates over
        the rows and the other modes."""
        n, d = self.arena.n_modes, self.arena.cutoff
        tensor = self.rows.reshape((-1,) + (d,) * n)
        weighted = self.weights.reshape((-1,) + (1,) * n) * tensor
        out = []
        for m in range(n):
            others = [0] + [k + 1 for k in range(n) if k != m]
            rho = np.tensordot(weighted, tensor.conj(), axes=(others, others))
            out.append(DensityOperator(FockArena(1, d), rho, leak_tol=self.leak_tol))
        return tuple(out)
