"""Numeric diagnostics on truncated states: PPT negativity of a full-space
mixture and Mandel Q of a single-mode photon-number distribution.

Mandel Q needs only the moments <n> and <n^2>, closed sums over the
distribution (``hilbert.Mixture.photon_distributions``); no ladder-operator
matrix and no single-mode density is built.

The partial-transpose spectrum of a mixture of K rows is taken on a
low-rank compression: across a cut A|B each side keeps the leading singular
vectors of its weighted stacked rows until the squared singular values it
drops fit a budget, and the report carries a certified bound b on how far
that moved the least eigenvalue (see ``_pt_spectrum``).

A negative partial-transpose eigenvalue certifies entanglement; the
converse is not claimed, so the separable-side verdict is named
``separable_by_ppt_nonviolation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Mixture

#: PPT eigenvalue tolerance: a least partial-transpose eigenvalue at or above
#: -PPT_TOL reads as PPT.  Route 2 drops sectors past passive.SECTOR_TAIL_EPS,
#: so its rows are exact only to about 1e-10 in amplitude; the tolerance sits
#: 100 times above that, and the rank cut's bound spends at most
#: PT_BOUND_SHARE of it.
PPT_TOL = 1e-8
#: share of the PPT tolerance the rank cut of a partial-transpose spectrum
#: may spend: its bound b stays <= PT_BOUND_SHARE * ppt_tol (1e-10 at
#: PPT_TOL).  Route 2 drops sectors past passive.SECTOR_TAIL_EPS (1e-20), so
#: its coherent-state rows are product only to about sqrt(1e-20) = 1e-10 in
#: amplitude.  A budget below that scale cannot discard that residue: at
#: b = 1e-12 the acceptance campaigns still diagonalise up to 120 (3 modes,
#: cutoff 8) and 196 (2 modes, cutoff 14) wide.  At this share the residue
#: goes, every width is at most K^2 for K components, and b stays 100 times
#: below the tolerance a verdict is read against.
PT_BOUND_SHARE = 0.01
#: below this mean photon number Mandel Q is defined as 0 (0/0 at vacuum)
VACUUM_NBAR_EPS = 1e-14


@dataclass(frozen=True)
class EntanglementReport:
    bipartition: tuple[tuple[int, ...], tuple[int, ...]]
    min_pt_eigenvalue: float
    negativity: float
    log_negativity: float
    verdict: str  # "separable_by_ppt_nonviolation" | "entangled"
    pt_bound: float  # b: |min_pt_eigenvalue - exact one| <= b, from the rank cut


def _kept_ranks(s_a: np.ndarray, s_b: np.ndarray, budget: float) -> tuple[int, int, float]:
    """How many of each side's (descending) singular values to keep, and
    the squared mass eps_A + eps_B the rest carry: the smallest values of
    both sides are discarded, summed from the small end, while that sum
    stays within ``budget``.  Each side keeps at least one vector."""
    mass = np.concatenate((s_a, s_b)) ** 2
    order = np.argsort(mass, kind="stable")
    tail = np.cumsum(mass[order])
    n_cut = int(np.searchsorted(tail, budget, side="right"))
    from_a = int(np.count_nonzero(order[:n_cut] < s_a.size))
    r_a = max(1, s_a.size - from_a)
    r_b = max(1, s_b.size - (n_cut - from_a))
    return r_a, r_b, float(tail[n_cut - 1]) if n_cut else 0.0


def _pt_spectrum(weights, rows, cutoff: int, part_a, part_b, budget: float):
    """Spectrum of the partial transpose over ``part_a`` of the compressed
    state P rho P, P = P_A ⊗ P_B, with rho = sum_i w_i |psi_i><psi_i|;
    whether P is a proper projection; and the bound b = 2 sqrt(eps) on the
    shift of the least eigenvalue, with eps <= ``budget``.

    Psi_i is psi_i reshaped to d_A x d_B.  P_A projects on the leading left
    singular vectors Q_A of S_A = [sqrt(w_1) Psi_1 ... sqrt(w_K) Psi_K], and
    P_B on those of S_B = [sqrt(w_i) Psi_i^T ...], kept until the discarded
    squared singular values eps_A + eps_B = eps fit the budget.  With
    X_i = Q_A^dag Psi_i conj(Q_B) the partial transpose of P rho P is
    (conj(Q_A) ⊗ Q_B) (sum_i w_i x_i x_i^dag)^{T_A} (conj(Q_A) ⊗ Q_B)^dag,
    so the compressed matrix holds its whole nonzero spectrum.

    The bound: tr rho (1 - P) <= eps, and per row the gentle-measurement
    identity ||psi psi^dag - P psi psi^dag P||_1 = sqrt(e (4 - 3e)) <= 2 sqrt(e),
    e = ||(1 - P) psi||^2, gives ||rho - P rho P||_1 <= 2 sqrt(eps) by
    concavity (Winter, IEEE TIT 45, 2481, 1999).  A partial transpose
    permutes entries, so it keeps the Frobenius norm, which the trace norm
    bounds; Weyl's inequality then moves no eigenvalue by more than b.

    The bases come from singular values, not from an eigensolve of the
    reduced density: its eigenvalues are sigma^2, resolved only to about
    1e-16, while the budget sits near 1e-21.  For K coherent-state rows,
    each side has numerical rank K, so the eigensolve is at most K^2 wide.
    """
    n = len(part_a) + len(part_b)
    d_a, d_b = cutoff ** len(part_a), cutoff ** len(part_b)
    k = rows.shape[0]
    order = (0,) + tuple(1 + m for m in part_a + part_b)
    psi = rows.reshape((k,) + (cutoff,) * n).transpose(order).reshape(k, d_a, d_b)
    psi = np.sqrt(weights)[:, None, None] * psi
    u_a, s_a = np.linalg.svd(psi.transpose(1, 0, 2).reshape(d_a, k * d_b),
                             full_matrices=False)[:2]
    u_b, s_b = np.linalg.svd(psi.transpose(2, 0, 1).reshape(d_b, k * d_a),
                             full_matrices=False)[:2]
    r_a, r_b, eps = _kept_ranks(s_a, s_b, budget)
    x = (u_a[:, :r_a].conj().T @ psi @ u_b[:, :r_b].conj()).reshape(k, r_a * r_b)
    # the weights ride in x; the partial transpose only permutes entries,
    # so it keeps sigma exactly Hermitian
    sigma = x.T @ x.conj()
    tensor = ((sigma + sigma.conj().T) / 2.0).reshape(r_a, r_b, r_a, r_b)
    eigs = np.linalg.eigvalsh(tensor.swapaxes(0, 2).reshape(sigma.shape))
    return eigs, r_a * r_b < d_a * d_b, 2.0 * math.sqrt(eps)


def negativity_report(
    state: Mixture, bipartition, ppt_tol: float = PPT_TOL
) -> EntanglementReport:
    """PPT diagnostics across a bipartition of the modes (Peres criterion;
    negativity as in Vidal and Werner, PRA 65, 032314, 2002), on the
    rank-cut state of ``_pt_spectrum`` with its bound b <= PT_BOUND_SHARE *
    ``ppt_tol``.  The verdict reads min_pt_eigenvalue - b against
    -``ppt_tol``, so the cut can only make the separability check stricter."""
    part_a = tuple(sorted(set(bipartition[0])))
    part_b = tuple(sorted(set(bipartition[1])))
    n, d = state.arena.n_modes, state.arena.cutoff
    if set(part_a) | set(part_b) != set(range(n)) or set(part_a) & set(part_b):
        raise ValueError("bipartition must partition the mode set")
    if not part_a or not part_b:
        raise ValueError("both sides of the bipartition must be non-empty")

    budget = (PT_BOUND_SHARE * ppt_tol / 2.0) ** 2
    eigs, proper, bound = _pt_spectrum(state.weights, state.rows, d, part_a, part_b, budget)
    # outside the compressed space the partial transpose is exactly 0
    min_eig = min(float(eigs[0]), 0.0) if proper else float(eigs[0])
    negativity = float(max(0.0, -eigs[eigs < 0].sum()))
    log_negativity = math.log2(1.0 + 2.0 * negativity)
    entangled = min_eig - bound < -ppt_tol
    return EntanglementReport(
        bipartition=(part_a, part_b),
        min_pt_eigenvalue=min_eig,
        negativity=negativity,
        log_negativity=log_negativity,
        verdict="entangled" if entangled else "separable_by_ppt_nonviolation",
        pt_bound=bound,
    )


def mandel_q(probs) -> float:
    """(<n^2> - <n>^2 - <n>)/<n> of a single-mode photon-number
    distribution, <n^p> = sum_k k^p probs[k]; 0 for vacuum."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError("Mandel Q reads one mode's photon-number distribution")
    k = np.arange(probs.size, dtype=float)
    exp_n, exp_n2 = float(k @ probs), float((k * k) @ probs)
    if exp_n < VACUUM_NBAR_EPS:
        return 0.0
    return float((exp_n2 - exp_n**2 - exp_n) / exp_n)
