"""Dense references the tests check bselab against.

The package never builds these: a full-space state stays a set of weighted
amplitude rows, and a trial's PT spectrum is taken on the local supports.
Each helper here builds the dense object, or reads a quantity off it, so
that a test can compare the package's result with the textbook one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from bselab.hilbert import (
    LEAK_TOL,
    DensityOperator,
    FockArena,
    StateVector,
    annihilation_matrix,
    partial_trace,
)
from bselab.passive import LiftedUnitary, ModeUnitary
from bselab.states import CoherentEnsemble, GaussianSpec, coherent, squeezed_vacuum, thermal


def decode(arena: FockArena, index: int) -> tuple[int, ...]:
    """Occupation tuple of a basis index; inverse of ``arena.encode``."""
    if not 0 <= index < arena.total_dim:
        raise ValueError("basis index out of range")
    occ = []
    for _ in range(arena.n_modes):
        index, n = divmod(index, arena.cutoff)
        occ.append(n)
    return tuple(reversed(occ))


def norm(state: StateVector) -> float:
    return float(np.linalg.norm(state.amplitudes))


def to_density(state: StateVector) -> DensityOperator:
    """|psi><psi| as a validated dense density."""
    return DensityOperator(state.arena, np.outer(state.amplitudes, state.amplitudes.conj()))


def ensemble_to_density(
    ens: CoherentEnsemble, arena: FockArena, leak_tol: float = LEAK_TOL
) -> DensityOperator:
    """sum_i w_i |alpha_i><alpha_i| on the truncated arena, as a dense matrix."""
    if arena.n_modes != ens.n_modes:
        raise ValueError("arena mode count does not match ensemble")
    rows = np.array([coherent(arena, a, leak_tol=leak_tol).amplitudes for a in ens.alphas])
    return DensityOperator(arena, (ens.weights * rows.T) @ rows.conj(), leak_tol=leak_tol)


def spec_to_density(spec: GaussianSpec, arena: FockArena) -> DensityOperator:
    """Truncated Fock-space density operator of a single-mode Gaussian spec."""
    if arena.n_modes != 1:
        raise ValueError("spec_to_density builds single-mode states")
    if spec.kind == "coherent":
        return to_density(coherent(arena, [spec.alpha]))
    if spec.kind == "thermal":
        return thermal(arena, spec.nbar)
    return to_density(squeezed_vacuum(arena, spec.r, spec.theta_s))


def quadrature_variance(rho: DensityOperator, mode: int, theta_q: float) -> float:
    """Variance of x_theta = (a e^{-i theta} + a^dag e^{i theta})/sqrt(2)."""
    reduced = rho if rho.arena.n_modes == 1 else partial_trace(rho, [mode])
    a = annihilation_matrix(reduced.arena, 0)
    exp_a = reduced.expectation(a)
    exp_n = reduced.expectation(a.conj().T @ a).real
    central = reduced.expectation(a @ a) - exp_a**2
    return float(
        0.5 + exp_n - abs(exp_a) ** 2 + (np.exp(-2j * theta_q) * central).real
    )


def conjugation_residual(u: LiftedUnitary, m: ModeUnitary, mode: int) -> float:
    """Max-norm of U c_mode U^dag - sum_k M_{mode,k} c_k on the protected
    (total photon <= cutoff/2) subspace."""
    if not 0 <= mode < m.n_modes:
        raise ValueError("mode index out of range")
    arena = u.arena
    conj = u.matrix @ annihilation_matrix(arena, mode) @ u.matrix.conj().T
    target = sum(
        m.matrix[mode, k] * annihilation_matrix(arena, k) for k in range(m.n_modes)
    )
    idx = u.protected_indices()
    diff = (conj - target)[np.ix_(idx, idx)]
    return float(np.abs(diff).max())


def dense_pt_eigenvalues(weights, rows, arena: FockArena, part_a) -> np.ndarray:
    """Eigenvalues of the partial transpose over ``part_a`` of the dense
    (w * rows^T) @ conj(rows), swapping each mode's row and column axis."""
    n, d = arena.n_modes, arena.cutoff
    rows = np.asarray(rows, dtype=complex)
    rho = (np.asarray(weights, dtype=float) * rows.T) @ rows.conj()
    tensor = ((rho + rho.conj().T) / 2.0).reshape((d,) * (2 * n))
    for m in part_a:
        tensor = np.swapaxes(tensor, m, n + m)
    return np.linalg.eigvalsh(tensor.reshape(rho.shape))


def permanent_block(matrix: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """<s|U|t> = Per(conj(M)[t, s]) / sqrt(t! s!) over the occupation tuples
    of one photon-number sector (Scheel, quant-ph/0406127), row j of conj(M)
    repeated t_j times and column k repeated s_k times.

    The permanent is summed over every permutation, so keep to sectors of at
    most about 5 photons.
    """
    occupations = np.asarray(occupations)
    n = int(occupations[0].sum())
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    modes = [np.repeat(np.arange(occupations.shape[1]), occ) for occ in occupations]
    norms = [math.prod(math.factorial(int(k)) for k in occ) for occ in occupations]
    conj = np.conj(np.asarray(matrix))
    out = np.empty((len(occupations),) * 2, dtype=complex)
    for a, (rows_s, norm_s) in enumerate(zip(modes, norms)):
        for b, (rows_t, norm_t) in enumerate(zip(modes, norms)):
            sub = conj[np.ix_(rows_t, rows_s)]
            per = sub[np.arange(n), perms].prod(axis=1).sum()
            out[a, b] = per / math.sqrt(norm_s * norm_t)
    return out
