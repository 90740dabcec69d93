"""State constructors: vacuum, Fock, coherent states, finite classical
coherent ensembles, squeezed vacuum and thermal probe states."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from .hilbert import LEAK_TOL, DensityOperator, FockArena, StateVector, _check_leak


def coherent_leakage(abs_alpha: float, cutoff: int) -> float:
    """Probability weight of a coherent state beyond photon number cutoff-1:
    the Poisson(|alpha|^2) tail P(N >= cutoff)."""
    if cutoff < 1:
        raise ValueError("cutoff must be a positive integer")
    return float(scipy.special.pdtrc(cutoff - 1, abs_alpha * abs_alpha))


def vacuum(arena: FockArena) -> StateVector:
    """|0...0>: amplitude 1 on the all-zeros occupation, 0 elsewhere."""
    amps = np.zeros(arena.total_dim, dtype=complex)
    amps[0] = 1.0
    return StateVector(arena, amps)


def fock(arena: FockArena, occupations) -> StateVector:
    """Number basis state |n_0, ..., n_{k-1}>."""
    amps = np.zeros(arena.total_dim, dtype=complex)
    amps[arena.encode(occupations)] = 1.0
    return StateVector(arena, amps)


def _coherent_column(alpha: complex, cutoff: int) -> np.ndarray:
    # e^{-|a|^2/2} a^n / sqrt(n!) without overflow: accumulate the ratio
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff)))))
    mag = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - log_fact / 2.0) \
        if alpha != 0 else np.concatenate(([1.0], np.zeros(cutoff - 1)))
    phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else np.ones(cutoff)
    return mag * phase


def coherent(arena: FockArena, alphas, leak_tol: float = LEAK_TOL) -> StateVector:
    """Truncated multimode coherent state |alpha_1, ..., alpha_n>.

    Amplitudes are the closed-form Poissonian profile per mode, tensored.
    Raises :class:`TruncationError` when the truncated norm falls below the
    leak budget (cutoff too small for |alpha|).
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    if alphas.shape != (arena.n_modes,):
        raise ValueError("need one amplitude per mode")
    amps = np.ones(1, dtype=complex)
    for a in alphas:
        amps = np.kron(amps, _coherent_column(complex(a), arena.cutoff))
    return StateVector(arena, amps, leak_tol=leak_tol)


def squeezed_vacuum(arena: FockArena, r: float, theta_s: float = 0.0) -> StateVector:
    """Single-mode squeezed vacuum with squeezing r >= 0 and phase theta_s.

    Convention: S(xi) = exp((xi* a^2 - xi a^dag^2)/2) with xi = r e^{i theta_s},
    so theta_s = 0 squeezes the x quadrature (variance e^{-2r}/2) and the
    minimum-variance quadrature sits at phase theta_s/2.
    """
    if arena.n_modes != 1:
        raise ValueError("squeezed_vacuum builds single-mode states")
    if r < 0:
        raise ValueError("squeezing parameter r must be >= 0")
    amps = np.zeros(arena.cutoff, dtype=complex)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    ratio = -np.exp(1j * theta_s) * math.tanh(r)
    # c_{2n} = c_0 * ratio^n * sqrt((2n)!) / (2^n n!)
    c = amps[0]
    for n in range(1, (arena.cutoff - 1) // 2 + 1):
        c = c * ratio * math.sqrt((2 * n) * (2 * n - 1)) / (2 * n)
        amps[2 * n] = c
    return StateVector(arena, amps)


def thermal(arena: FockArena, nbar: float) -> DensityOperator:
    """Single-mode thermal state diag((1-q) q^k) with q = nbar/(1+nbar)."""
    if arena.n_modes != 1:
        raise ValueError("thermal builds single-mode states")
    if nbar < 0:
        raise ValueError("mean photon number must be >= 0")
    q = nbar / (1.0 + nbar)
    probs = (1.0 - q) * q ** np.arange(arena.cutoff)
    return DensityOperator(arena, np.diag(probs).astype(complex))


def kron_densities(*rhos: DensityOperator) -> DensityOperator:
    """Product density operator of independent factors (mode-major order)."""
    if not rhos:
        raise ValueError("need at least one factor")
    cutoff = rhos[0].arena.cutoff
    if any(r.arena.cutoff != cutoff for r in rhos):
        raise ValueError("cutoff mismatch between factors")
    mat = np.ones((1, 1), dtype=complex)
    for r in rhos:
        mat = np.kron(mat, r.matrix)
    arena = FockArena(sum(r.arena.n_modes for r in rhos), cutoff)
    return DensityOperator(arena, mat)


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

    @property
    def components(self) -> list[tuple[float, np.ndarray]]:
        return [(float(w), a) for w, a in zip(self.weights, self.alphas)]

    def max_abs_alpha(self) -> float:
        return float(np.abs(self.alphas).max())


def ensemble_to_density(
    ens: CoherentEnsemble, arena: FockArena, leak_tol: float = LEAK_TOL
) -> DensityOperator:
    """sum_i w_i |alpha_i><alpha_i| on the truncated arena."""
    if arena.n_modes != ens.n_modes:
        raise ValueError("arena mode count does not match ensemble")
    mat = np.zeros((arena.total_dim, arena.total_dim), dtype=complex)
    for w, alpha in ens.components:
        psi = coherent(arena, alpha, leak_tol=leak_tol)
        mat += w * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityOperator(arena, mat, leak_tol=leak_tol)


def ensemble_marginals(
    ens: CoherentEnsemble, arena: FockArena, leak_tol: float = LEAK_TOL
) -> tuple[DensityOperator, ...]:
    """Single-mode reduced states of ``ensemble_to_density(ens, arena)``.

    Mode m gets sum_i w_i prod_{m' != m} ||c(alpha_im')||^2 |c(alpha_im)><c(alpha_im)|,
    with c the truncated coherent column, so the dim x dim matrix is never
    built.  Raises :class:`TruncationError` on the condition ``coherent``
    applies: a component whose multi-mode lost probability
    1 - prod_m ||c(alpha_im)||^2 exceeds ``leak_tol``.
    """
    if arena.n_modes != ens.n_modes:
        raise ValueError("arena mode count does not match ensemble")
    # (component, mode, photon number)
    columns = np.array(
        [[_coherent_column(complex(a), arena.cutoff) for a in row] for row in ens.alphas]
    )
    norms = np.sum(np.abs(columns) ** 2, axis=-1)
    for leak in 1.0 - norms.prod(axis=1):
        _check_leak(leak, leak_tol)
    marginals = []
    for m in range(ens.n_modes):
        w = ens.weights * np.delete(norms, m, axis=1).prod(axis=1)
        rho = (w * columns[:, m].T) @ columns[:, m].conj()
        marginals.append(DensityOperator(FockArena(1, arena.cutoff), rho, leak_tol=leak_tol))
    return tuple(marginals)


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
        if self.nbar < 0:
            raise ValueError("nbar must be >= 0")
        if self.r < 0:
            raise ValueError("r must be >= 0")


def spec_to_density(spec: GaussianSpec, arena: FockArena) -> DensityOperator:
    """Truncated Fock-space density operator of a single-mode Gaussian spec."""
    if arena.n_modes != 1:
        raise ValueError("spec_to_density builds single-mode states")
    if spec.kind == "coherent":
        return coherent(arena, [spec.alpha]).to_density()
    if spec.kind == "thermal":
        return thermal(arena, spec.nbar)
    return squeezed_vacuum(arena, spec.r, spec.theta_s).to_density()
