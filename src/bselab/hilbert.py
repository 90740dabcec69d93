"""Truncated multimode Fock space: basis indexing and the one validated
state container.  No operator matrix is built here: a pure state is a plain
amplitude row over the arena basis, a full-space state is a ``Mixture`` of
weighted amplitude rows, and each mode's photon-number distribution is
summed from those rows directly.

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
        # 2 ** 64 exceeds any intp, so no more than 64 factors need multiplying
        if int(self.cutoff) ** min(int(self.n_modes), 64) > np.iinfo(np.intp).max:
            raise ValueError(
                f"cutoff {self.cutoff} on {self.n_modes} modes spans more basis "
                "states than numpy can index"
            )

    @property
    def total_dim(self) -> int:
        return self.cutoff ** self.n_modes

    def encode(self, occupations: Sequence[int]) -> int:
        """Basis index of the occupation tuple (mode-major); ``ValueError``
        for an occupation that is not an integer (a bool included) or lies
        outside the arena."""
        if len(occupations) != self.n_modes:
            raise ValueError("occupation tuple has wrong length")
        index = 0
        for n in occupations:
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"occupation {n!r} is not an integer")
            if not 0 <= n < self.cutoff:
                raise ValueError(f"occupation {n} outside 0..{self.cutoff - 1}")
            index = index * self.cutoff + int(n)
        return index

    def occupation_table(self) -> np.ndarray:
        """(total_dim, n_modes) integer array of all occupation tuples."""
        return _occupation_table(self.n_modes, self.cutoff)


@functools.lru_cache(maxsize=None)
def _occupation_table(n_modes: int, cutoff: int) -> np.ndarray:
    grids = np.indices((cutoff,) * n_modes)
    table = grids.reshape(n_modes, -1).T
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class Mixture:
    """A full-space state sum_i w_i |psi_i><psi_i| held as read-only copies
    of its finite, non-negative weights and its pure amplitude rows.

    It is PSD by construction, so the one check is the truncation ``leak``
    1 - sum_i w_i ||psi_i||^2 (sum_i w_i (1 - ||psi_i||^2) for weights that
    sum to 1).  No code forms its dim x dim matrix: ``photon_distributions``
    sums the rows' squared moduli, and ``witnesses.negativity_reports`` takes
    the partial-transpose spectra on a low-rank compression of the rows.
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

    def photon_distributions(self) -> np.ndarray:
        """Each mode's photon-number distribution, shape (n_modes, cutoff):
        row m is sum_i w_i |psi_i|^2 summed over every mode but m, the
        diagonal of mode m's reduced state."""
        n, d = self.arena.n_modes, self.arena.cutoff
        probs = (self.weights @ np.abs(self.rows) ** 2).reshape((d,) * n)
        return np.array([probs.sum(axis=tuple(k for k in range(n) if k != m))
                         for m in range(n)])
