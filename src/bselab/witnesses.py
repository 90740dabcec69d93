"""Numeric diagnostics on truncated states: PPT negativity of a full-space
mixture and Mandel Q of a single-mode photon-number distribution.

Mandel Q needs only the moments <n> and <n^2>, closed sums over the
distribution (``hilbert.Mixture.photon_distributions``); no ladder-operator
matrix and no single-mode density is built.

The partial-transpose spectrum of a mixture of K rows is taken on a
low-rank compression: across a cut A|B each side projects its weighted
stacked rows on a randomized range basis, K wide to start and doubled until
the residual mass it leaves out, measured, fits a budget; the report
carries a certified bound b on how far that moved the least eigenvalue
(see ``_pt_spectra``).  ``negativity_reports`` stacks the LAPACK calls of
many (state, cut) pairs; one pair is ``[(state, cut)]``.

A negative partial-transpose eigenvalue certifies entanglement; the
converse is not claimed, so the separable-side verdict is named
``separable_by_ppt_nonviolation``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
#: b = 1e-12 the range bases of the acceptance campaigns double past K, and
#: their eigensolves run up to 192 (3 modes, cutoff 8) and 196 (2 modes,
#: cutoff 14) wide.  At this share the residue goes, every width is at most
#: K^2 for K components, and b stays 100 times below the tolerance a
#: verdict is read against.
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


@functools.lru_cache(maxsize=64)
def _sketch(d: int, r: int) -> np.ndarray:
    """A fixed complex Gaussian test matrix of shape (d, r), read-only."""
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    omega.setflags(write=False)
    return omega


def _residual_mass(s: np.ndarray, q: np.ndarray) -> float:
    """||s - Q Q^dag s||_F^2, summed entry by entry from the residual."""
    residual = s - q @ (q.conj().T @ s)
    return float(np.vdot(residual, residual).real)


def _range_bases(s: np.ndarray, r: int, budget: float) -> list[tuple[np.ndarray, float]]:
    """For each matrix of a stack ``s`` (G x d x n), an orthonormal basis Q
    (d x r') of most of its range and the mass eps = ||s - Q Q^dag s||_F^2
    it leaves out, with eps <= ``budget`` unless Q spans the whole range.

    Q starts at most ``r`` wide: a randomized range finder with one power
    step (Halko, Martinsson and Tropp, SIAM Rev. 53, 217, 2011, §4), the
    range of s s^dag Omega for a fixed Gaussian Omega.  The power step
    weighs each direction by sigma^2, so Q leaves out little more than the
    tail past rank r; each product is orthonormalised (W from s^dag Omega,
    then Q from s W), so a direction is resolved against sigma, not
    sigma^2.  A column of W whose R diagonal carries less than the budget
    (a duplicate row, a row of weight 0, a rank below r) is dropped.  eps is
    measured, so the sketch only has to be good, not certified: where eps
    misses the budget the width doubles, and at min(d, n) Q is the exact
    range (the identity, or a QR of ``s`` when it is tall).  The stack
    shares Omega and each QR call, the second only where every matrix keeps
    all its columns; eps is measured, and a width doubled, matrix by matrix.
    """
    d, n = s.shape[1:]
    if r >= min(d, n):
        if n >= d:
            return [(np.eye(d), 0.0)] * len(s)
        return [(q, _residual_mass(m, q)) for m, q in zip(s, np.linalg.qr(s)[0])]
    w, tri = np.linalg.qr(s.conj().swapaxes(1, 2) @ _sketch(d, r))
    keep = np.abs(np.diagonal(tri, axis1=1, axis2=2)) ** 2 > budget
    keep[:, 0] = True
    if keep.all():
        qs = np.linalg.qr(s @ w)[0]
    else:
        qs = [np.linalg.qr(m @ wm[:, km])[0] for m, wm, km in zip(s, w, keep)]
    fits = [(q, _residual_mass(m, q)) for m, q in zip(s, qs)]
    return [(q, eps) if eps <= budget else _range_bases(m[None], 2 * r, budget)[0]
            for m, (q, eps) in zip(s, fits)]


def _grouped(fn, items: list, keys: list) -> list:
    """fn(key, stack) -> one result per stacked item, called once per
    distinct key on the items of that key; the results in item order."""
    out = {}
    for key in dict.fromkeys(keys):
        members = [i for i, k in enumerate(keys) if k == key]
        out.update(zip(members, fn(key, np.stack([items[i] for i in members]))))
    return [out[i] for i in range(len(items))]


def _pt_spectra(problems, budget: float) -> list:
    """Per problem (weights, rows, cutoff, part_a, part_b): the spectrum of
    the partial transpose over ``part_a`` of the compressed state P rho P,
    P = P_A ⊗ P_B, with rho = sum_i w_i |psi_i><psi_i|; whether P is a
    proper projection; and the bound b = 2 sqrt(eps) on the shift of the
    least eigenvalue, with eps <= ``budget``.

    Psi_i is psi_i reshaped to d_A x d_B.  P_A projects on a basis Q_A of
    the range of S_A = [sqrt(w_1) Psi_1 ... sqrt(w_K) Psi_K] and P_B on one
    of S_B = [sqrt(w_i) Psi_i^T ...], each from ``_range_bases`` with half
    the budget: eps = eps_A + eps_B, eps_A = ||(1 - P_A) S_A||_F^2 measured.
    With X_i = Q_A^dag Psi_i conj(Q_B) the partial transpose of P rho P is
    (conj(Q_A) ⊗ Q_B) (sum_i w_i x_i x_i^dag)^{T_A} (conj(Q_A) ⊗ Q_B)^dag,
    so the compressed matrix holds its whole nonzero spectrum.

    The bound holds for any orthogonal projections P_A, P_B: tr rho (1 - P)
    <= eps_A + eps_B = eps, and per row the gentle-measurement identity
    ||psi psi^dag - P psi psi^dag P||_1 = sqrt(e (4 - 3e)) <= 2 sqrt(e),
    e = ||(1 - P) psi||^2, gives ||rho - P rho P||_1 <= 2 sqrt(eps) by
    concavity (Winter, IEEE TIT 45, 2481, 1999).  A partial transpose
    permutes entries, so it keeps the Frobenius norm, which the trace norm
    bounds; Weyl's inequality then moves no eigenvalue by more than b.

    eps is the squared Frobenius norm of the residual, summed entry by
    entry, so it is resolved far below a budget near 1e-21: on route-2 rows
    it is within 1e-31 of the residual of the computed Q in 40-digit
    arithmetic, where ||S||^2 - ||Q^dag S||^2 would carry errors near
    1e-16.  No eigensolve of a reduced density is needed either, whose
    eigenvalues sigma^2 would be resolved only to about 1e-16.  For K
    coherent-state rows each side has numerical rank K, so the bases start,
    and stay, K wide and the eigensolve is at most K^2 wide.

    The problems share their LAPACK calls: the sides of one shape and K form
    one ``_range_bases`` stack, the compressed matrices of one width one
    eigensolve, and each matrix of a stack runs the arithmetic of its own call.
    """
    psis, sides, keys = [], [], []
    for weights, rows, cutoff, part_a, part_b in problems:
        n, k = len(part_a) + len(part_b), rows.shape[0]
        d_a, d_b = cutoff ** len(part_a), cutoff ** len(part_b)
        order = (0,) + tuple(1 + m for m in part_a + part_b)
        psi = rows.reshape((k,) + (cutoff,) * n).transpose(order).reshape(k, d_a, d_b)
        psi = np.sqrt(weights)[:, None, None] * psi
        psis.append(psi)
        sides += [psi.transpose(1, 0, 2).reshape(d_a, k * d_b),
                  psi.transpose(2, 0, 1).reshape(d_b, k * d_a)]
        keys += [(d_a, k * d_b, k), (d_b, k * d_a, k)]
    bases = _grouped(lambda key, s: _range_bases(s, key[2], budget / 2.0), sides, keys)
    mats, facts = [], []
    for psi, (q_a, eps_a), (q_b, eps_b) in zip(psis, bases[::2], bases[1::2]):
        k, d_a, d_b = psi.shape
        r_a, r_b = q_a.shape[1], q_b.shape[1]
        x = (q_a.conj().T @ psi @ q_b.conj()).reshape(k, r_a * r_b)
        # the weights ride in x; the partial transpose only permutes entries,
        # so it keeps sigma exactly Hermitian
        sigma = x.T @ x.conj()
        tensor = ((sigma + sigma.conj().T) / 2.0).reshape(r_a, r_b, r_a, r_b)
        mats.append(tensor.swapaxes(0, 2).reshape(sigma.shape))
        facts.append((r_a * r_b < d_a * d_b, 2.0 * math.sqrt(eps_a + eps_b)))
    spectra = _grouped(lambda _, m: np.linalg.eigvalsh(m), mats, [len(m) for m in mats])
    return [(eigs, *fact) for eigs, fact in zip(spectra, facts)]


def negativity_reports(pairs, ppt_tol: float = PPT_TOL) -> list[EntanglementReport]:
    """PPT diagnostics of each (Mixture, bipartition) pair across its
    bipartition of the modes (Peres criterion; negativity as in Vidal and
    Werner, PRA 65, 032314, 2002), on the rank-cut state of ``_pt_spectra``
    with its bound b <= PT_BOUND_SHARE * ``ppt_tol``.  The verdict reads
    min_pt_eigenvalue - b against -``ppt_tol``, so the cut can only make the
    separability check stricter.  The spectra of all pairs are taken
    together, in shared LAPACK calls."""
    cuts = []
    for state, bipartition in pairs:
        part_a, part_b = (tuple(sorted(set(side))) for side in bipartition)
        if sorted(part_a + part_b) != list(range(state.arena.n_modes)):
            raise ValueError("bipartition must partition the mode set")
        if not part_a or not part_b:
            raise ValueError("both sides of the bipartition must be non-empty")
        cuts.append((state.weights, state.rows, state.arena.cutoff, part_a, part_b))

    budget = (PT_BOUND_SHARE * ppt_tol / 2.0) ** 2
    reports = []
    for cut, (eigs, proper, bound) in zip(cuts, _pt_spectra(cuts, budget)):
        # outside the compressed space the partial transpose is exactly 0
        min_eig = min(float(eigs[0]), 0.0) if proper else float(eigs[0])
        negativity = float(max(0.0, -eigs[eigs < 0].sum()))
        verdict = "entangled" if min_eig - bound < -ppt_tol else "separable_by_ppt_nonviolation"
        reports.append(EntanglementReport(
            bipartition=cut[3:], min_pt_eigenvalue=min_eig, negativity=negativity,
            log_negativity=math.log2(1.0 + 2.0 * negativity), verdict=verdict, pt_bound=bound))
    return reports


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
