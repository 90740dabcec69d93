"""Numeric diagnostics on truncated states: PPT negativity of a full-space
mixture and Mandel Q of a single-mode density.

The single-mode moments <n> and <n^2> are closed sums over the diagonal of
the density; no ladder-operator matrix is built.

The partial-transpose spectrum of a mixture of K rows is taken on the local
supports of the rows: across a cut A|B every row lies in
supp rho_A ⊗ supp rho_B, and the partial transpose vanishes outside that
subspace.  A 3-mode mixture at cutoff d is diagonalised at size d^2 K at
most, not d^3.

A negative partial-transpose eigenvalue certifies entanglement; the
converse is not claimed, so the separable-side verdict is named
``separable_by_ppt_nonviolation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityOperator, Mixture

#: PPT eigenvalue tolerance; looser than the PSD tolerance because
#: partial-transpose spectra inherit truncation noise from the lift pipeline
PPT_TOL = 1e-8
#: below this mean photon number Mandel Q is defined as 0 (0/0 at vacuum)
VACUUM_NBAR_EPS = 1e-14


@dataclass(frozen=True)
class EntanglementReport:
    bipartition: tuple[tuple[int, ...], tuple[int, ...]]
    min_pt_eigenvalue: float
    negativity: float
    log_negativity: float
    verdict: str  # "separable_by_ppt_nonviolation" | "entangled"


def _pt_spectrum(weights, rows, cutoff: int, part_a, part_b):
    """Spectrum of the partial transpose over ``part_a`` of
    sum_i w_i |psi_i><psi_i|, taken on the local supports, and whether they
    span a proper subspace of the full space.

    Every psi_i, reshaped to Psi_i (d_A x d_B), lies in Q_A ⊗ Q_B with Q_A
    an orthonormal basis of the columns of [Psi_1 ... Psi_K] and Q_B one of
    their rows.  With X_i = Q_A^dag Psi_i conj(Q_B) the partial transpose is
    (conj(Q_A) ⊗ Q_B) (sum_i w_i x_i x_i^dag)^{T_A} (conj(Q_A) ⊗ Q_B)^dag,
    so the compressed matrix holds its whole nonzero spectrum, and the rest
    is 0.  A reduced Householder QR gives a basis of a superset of the
    support whatever the rank, so no rank cut is needed.  A side is
    compressed only where its stacked matrix is tall (K d_other < d_side);
    at most one side can be, and with neither (every 2-mode input) this is
    the dense partial transpose.
    """
    n = len(part_a) + len(part_b)
    d_a, d_b = cutoff ** len(part_a), cutoff ** len(part_b)
    k = rows.shape[0]
    order = (0,) + tuple(1 + m for m in part_a + part_b)
    psi = rows.reshape((k,) + (cutoff,) * n).transpose(order).reshape(k, d_a, d_b)
    if k * d_b < d_a:
        q_a = np.linalg.qr(psi.transpose(1, 0, 2).reshape(d_a, k * d_b))[0]
        psi = q_a.conj().T @ psi
    elif k * d_a < d_b:
        q_b = np.linalg.qr(psi.transpose(2, 0, 1).reshape(d_b, k * d_a))[0]
        psi = psi @ q_b.conj()
    r_a, r_b = psi.shape[1:]
    x = psi.reshape(k, r_a * r_b)
    # the partial transpose only permutes entries, so it keeps sigma exactly
    # Hermitian
    sigma = (weights * x.T) @ x.conj()
    tensor = ((sigma + sigma.conj().T) / 2.0).reshape(r_a, r_b, r_a, r_b)
    eigs = np.linalg.eigvalsh(tensor.swapaxes(0, 2).reshape(sigma.shape))
    return eigs, r_a * r_b < d_a * d_b


def negativity_report(
    state: Mixture, bipartition, ppt_tol: float = PPT_TOL
) -> EntanglementReport:
    """PPT diagnostics across a bipartition of the modes (Peres criterion;
    negativity as in Vidal and Werner, PRA 65, 032314, 2002)."""
    part_a = tuple(sorted(set(bipartition[0])))
    part_b = tuple(sorted(set(bipartition[1])))
    n, d = state.arena.n_modes, state.arena.cutoff
    if set(part_a) | set(part_b) != set(range(n)) or set(part_a) & set(part_b):
        raise ValueError("bipartition must partition the mode set")
    if not part_a or not part_b:
        raise ValueError("both sides of the bipartition must be non-empty")

    eigs, proper = _pt_spectrum(state.weights, state.rows, d, part_a, part_b)
    # outside the compressed space the partial transpose is exactly 0
    min_eig = min(float(eigs[0]), 0.0) if proper else float(eigs[0])
    negativity = float(max(0.0, -eigs[eigs < 0].sum()))
    log_negativity = math.log2(1.0 + 2.0 * negativity)
    verdict = "entangled" if min_eig < -ppt_tol else "separable_by_ppt_nonviolation"
    return EntanglementReport(
        bipartition=(part_a, part_b),
        min_pt_eigenvalue=min_eig,
        negativity=negativity,
        log_negativity=log_negativity,
        verdict=verdict,
    )


def _single_mode_moments(rho: DensityOperator) -> tuple[float, float]:
    """<n>, <n^2> of a single-mode density as closed sums over its diagonal:
    <n^p> = sum_k k^p rho_kk."""
    if rho.arena.n_modes != 1:
        raise ValueError("moments are taken on a single-mode density")
    k = np.arange(rho.arena.cutoff, dtype=float)
    probs = rho.matrix.diagonal().real
    return float(k @ probs), float((k * k) @ probs)


def mandel_q(rho: DensityOperator) -> float:
    """(<n^2> - <n>^2 - <n>)/<n> of a single-mode density; 0 for vacuum."""
    exp_n, exp_n2 = _single_mode_moments(rho)
    if exp_n < VACUUM_NBAR_EPS:
        return 0.0
    return float((exp_n2 - exp_n**2 - exp_n) / exp_n)
