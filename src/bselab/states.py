"""State constructors: Fock (the vacuum is ``fock(arena, (0,) * n_modes)``),
coherent states, finite classical coherent ensembles, squeezed vacuum and
thermal probe states.

A pure state is a fresh complex amplitude row over the arena basis; the
constructors whose rows lose weight past the cutoff check that leak, and a
caller with raw amplitudes validates them as ``Mixture(arena, [1.0], [psi])``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import LEAK_TOL, FockArena, Mixture, _check_leak, _check_size


def _poisson_tail(n: int, mean: float) -> float:
    """P(N >= n) for N ~ Poisson(mean).

    Past the mean the tail is summed term by term from n upward, until a
    term no longer changes the float sum, so a small tail keeps its
    relative precision (1 - head sum has a floor near 1e-16).  At or below
    the mean the tail is at least about 1/2, and 1 - the head sum, summed
    from n - 1 downward, loses nothing.
    """
    if n <= 0 or mean == math.inf:
        return 1.0
    if mean <= 0.0:
        return 0.0
    k = n if n > mean else n - 1
    term = math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1))
    total = 0.0
    while k >= 0 and total + term != total:
        total += term
        if n > mean:  # pmf(k + 1) = pmf(k) * mean / (k + 1)
            k += 1
            term *= mean / k
        else:
            term *= k / mean
            k -= 1
    return total if n > mean else 1.0 - total


def coherent_leakage(abs_alpha: float, cutoff: int) -> float:
    """Probability weight of a coherent state past photon number cutoff-1,
    the Poisson(|alpha|^2) tail P(N >= cutoff), for a finite |alpha| >= 0."""
    _check_size("cutoff", cutoff, 1)
    if not 0 <= abs_alpha < math.inf:
        raise ValueError(f"abs_alpha must be finite and >= 0, not {abs_alpha!r}")
    return _poisson_tail(cutoff, float(abs_alpha * abs_alpha))


def fock(arena: FockArena, occupations) -> np.ndarray:
    """Number basis state |n_0, ..., n_{k-1}>; ``ValueError`` for an
    occupation that is not an integer or lies outside the arena."""
    amps = np.zeros(arena.total_dim, dtype=complex)
    amps[arena.encode(occupations)] = 1.0
    return amps


def _check_rows(rows: np.ndarray, leak_tol: float) -> None:
    """Each row's leak 1 - ||psi||^2 against the budget, in row order."""
    for row in rows.reshape(-1, rows.shape[-1]):
        norm = float(np.linalg.norm(row))
        _check_leak(1.0 - norm * norm, leak_tol)


def _coherent_column(alphas, cutoff: int) -> np.ndarray:
    """Single-mode coherent amplitudes e^{-|a|^2/2} a^n / sqrt(n!), n < cutoff,
    for every entry of ``alphas``: shape ``alphas.shape + (cutoff,)``.

    Computed in logs, so no power or factorial overflows, and with the
    roundings of the scalar formula: |a| is ``np.hypot`` of the parts, as
    ``abs(complex)`` rounds (``np.abs`` of a complex array differs in the
    last bit for about a third of inputs), and |a|^2 is ``np.float_power``,
    the C ``pow`` of ``abs(a) ** 2`` (``r ** 2`` squares, which differs for
    about 1 in 1000).  A zero amplitude gives the vacuum column exactly.
    """
    alphas = np.asarray(alphas, dtype=complex)
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff)))))
    r = np.hypot(alphas.real, alphas.imag)[..., None]
    zero = r == 0.0
    with np.errstate(over="ignore"):  # a square past the float range: a zero column
        log_mag = -np.float_power(r, 2) / 2.0 + n * np.log(np.where(zero, 1.0, r)) - log_fact / 2.0
    mag = np.where(zero, n == 0, np.exp(log_mag))
    return mag * np.exp(1j * n * np.angle(alphas)[..., None])


def _coherent_rows(alphas: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """The one coherent-product builder: the rows ``(K, N)`` of ``alphas``
    ``(K, n_modes)`` on the tuples ``occupations`` ``(N, n_modes)``.  Each
    row is built on its own, from ones, multiplied by each mode's gathered
    column in mode order: the arithmetic of ``np.kron`` of the columns,
    whatever the memory order of ``occupations``."""
    columns = _coherent_column(alphas, occupations.max() + 1)
    rows = np.ones((len(alphas), len(occupations)), dtype=complex)
    for row, column in zip(rows, columns):
        for mode, occ in enumerate(occupations.T):
            row *= column[mode, occ]
    return rows


def coherent(arena: FockArena, alphas) -> np.ndarray:
    """Truncated multimode coherent states |alpha_1, ..., alpha_n>: for
    ``alphas`` of shape ``(..., n_modes)`` the rows ``(..., total_dim)``.

    Amplitudes are the closed-form Poissonian profile per mode, multiplied
    over the modes row by row; a stack is its single rows bit for bit.
    Raises ``ValueError`` for a non-finite amplitude, and
    :class:`TruncationError` at the first row whose leak 1 - ||psi||^2
    exceeds LEAK_TOL (cutoff too small for |alpha|).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    if alphas.shape[-1] != arena.n_modes or not np.isfinite(alphas).all():
        raise ValueError("need one finite amplitude per mode")
    amps = _coherent_rows(alphas.reshape(-1, arena.n_modes), arena.occupation_table())
    _check_rows(amps, LEAK_TOL)
    return amps.reshape(alphas.shape[:-1] + (arena.total_dim,))


def squeezed_vacuum(arena: FockArena, r: float, theta_s: float = 0.0) -> np.ndarray:
    """Single-mode squeezed vacuum with squeezing r >= 0 and phase theta_s.

    Convention: S(xi) = exp((xi* a^2 - xi a^dag^2)/2) with xi = r e^{i theta_s},
    so theta_s = 0 squeezes the x quadrature (variance e^{-2r}/2) and the
    minimum-variance quadrature sits at phase theta_s/2.
    """
    if arena.n_modes != 1:
        raise ValueError("squeezed_vacuum builds single-mode states")
    if not (0 <= r < math.inf and math.isfinite(theta_s)):
        raise ValueError("squeezing needs a finite r >= 0 and a finite phase")
    amps = np.zeros(arena.cutoff, dtype=complex)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    ratio = -np.exp(1j * theta_s) * math.tanh(r)
    # c_{2n} = c_0 * ratio^n * sqrt((2n)!) / (2^n n!)
    c = amps[0]
    for n in range(1, (arena.cutoff - 1) // 2 + 1):
        c = c * ratio * math.sqrt((2 * n) * (2 * n - 1)) / (2 * n)
        amps[2 * n] = c
    _check_rows(amps, LEAK_TOL)
    return amps


def thermal(arena: FockArena, nbar: float) -> Mixture:
    """Single-mode thermal state: the Fock rows |k> with weights (1-q) q^k,
    q = nbar/(1+nbar); the leak past the cutoff is q^cutoff."""
    if arena.n_modes != 1:
        raise ValueError("thermal builds single-mode states")
    if nbar < 0:
        raise ValueError("mean photon number must be >= 0")
    q = nbar / (1.0 + nbar)
    probs = (1.0 - q) * q ** np.arange(arena.cutoff)
    return Mixture(arena, probs, np.eye(arena.cutoff))


@dataclass(frozen=True)
class CoherentEnsemble:
    """Finite non-negative mixture of multimode coherent states.

    This is the machine form of a classical (atomic) P-function: all
    weights must be >= 0 outright -- negativity of the weight distribution
    is exactly the classicality boundary, so there is no epsilon
    forgiveness.  Weights are normalized to sum 1 at construction.
    """

    n_modes: int
    weights: np.ndarray
    alphas: np.ndarray  # shape (n_components, n_modes), complex

    def __post_init__(self) -> None:
        _check_size("n_modes", self.n_modes, 1)
        w = np.asarray(self.weights, dtype=float)
        a = np.asarray(self.alphas, dtype=complex)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d array")
        if not (np.isfinite(w).all() and np.isfinite(a).all()):
            raise ValueError("ensemble weights and alphas must be finite")
        if np.any(w < 0):
            raise ValueError("ensemble weights must be non-negative")
        if a.shape != (w.size, self.n_modes):
            raise ValueError("alphas must have shape (n_components, n_modes)")
        total = w.sum()
        if total <= 0:
            raise ValueError("total weight must be positive")
        if abs(total - 1.0) > 1e-12:
            w = w / total
        else:
            w = w.copy()  # already normalized: keep the exact values
        w.setflags(write=False)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "alphas", a)

    @property
    def n_components(self) -> int:
        return self.weights.size

    def max_abs_alpha(self) -> float:
        return float(np.abs(self.alphas).max())


@dataclass(frozen=True)
class GaussianSpec:
    """A single-mode Gaussian probe state description.

    kind is one of ``coherent`` (amplitude alpha), ``thermal`` (mean photon
    number nbar >= 0) or ``squeezed_vacuum`` (r >= 0, phase theta_s).
    """

    kind: str
    alpha: complex = 0j
    nbar: float = 0.0
    r: float = 0.0
    theta_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("coherent", "thermal", "squeezed_vacuum"):
            raise ValueError(f"unknown Gaussian kind {self.kind!r}")
        if not np.isfinite([self.alpha, self.nbar, self.r, self.theta_s]).all():
            raise ValueError("alpha, nbar, r and theta_s must be finite")
        if self.nbar < 0:
            raise ValueError("nbar must be >= 0")
        if self.r < 0:
            raise ValueError("r must be >= 0")
