"""Numeric diagnostics on truncated states: PPT negativity of a full-space
mixture, Mandel Q and quadrature squeezing of single-mode densities.

A negative partial-transpose eigenvalue certifies entanglement; the
converse is not claimed, so the separable-side verdict is named
``separable_by_ppt_nonviolation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hilbert import DensityOperator, Mixture, annihilation_matrix, partial_trace

#: PPT eigenvalue tolerance; looser than the PSD tolerance because
#: partial-transpose spectra inherit truncation noise from the lift pipeline
PPT_TOL = 1e-8
#: tolerance for the classicality flags
WITNESS_TOL = 1e-8
#: below this mean photon number Mandel Q is defined as 0 (0/0 at vacuum)
VACUUM_NBAR_EPS = 1e-14


@dataclass(frozen=True)
class EntanglementReport:
    bipartition: tuple[tuple[int, ...], tuple[int, ...]]
    min_pt_eigenvalue: float
    negativity: float
    log_negativity: float
    verdict: str  # "separable_by_ppt_nonviolation" | "entangled"


@dataclass(frozen=True)
class ClassicalityReport:
    mandel_q: tuple[float, ...]
    min_quadrature_variance: tuple[float, ...]
    squeezing_detected: bool
    sub_poissonian_detected: bool


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

    # the partial transpose swaps the row and column index of each mode in
    # part_a; it only permutes entries, so it keeps rho exactly Hermitian
    rho = (state.weights * state.rows.T) @ state.rows.conj()
    tensor = ((rho + rho.conj().T) / 2.0).reshape((d,) * (2 * n))
    for m in part_a:
        tensor = np.swapaxes(tensor, m, n + m)
    eigs = np.linalg.eigvalsh(tensor.reshape(rho.shape))
    min_eig = float(eigs[0])
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


def _single_mode_moments(rho: DensityOperator, mode: int):
    reduced = rho if rho.arena.n_modes == 1 else partial_trace(rho, [mode])
    a = annihilation_matrix(reduced.arena, 0)
    n_op = a.conj().T @ a
    exp_a = reduced.expectation(a)
    exp_a2 = reduced.expectation(a @ a)
    exp_n = reduced.expectation(n_op).real
    exp_n2 = reduced.expectation(n_op @ n_op).real
    return exp_a, exp_a2, exp_n, exp_n2


def mandel_q(rho: DensityOperator, mode: int) -> float:
    """(<n^2> - <n>^2 - <n>)/<n> on the reduced mode; 0 for vacuum."""
    _, _, exp_n, exp_n2 = _single_mode_moments(rho, mode)
    if exp_n < VACUUM_NBAR_EPS:
        return 0.0
    return float((exp_n2 - exp_n**2 - exp_n) / exp_n)


def quadrature_variance(rho: DensityOperator, mode: int, theta_q: float) -> float:
    """Variance of x_theta = (a e^{-i theta} + a^dag e^{i theta})/sqrt(2)."""
    exp_a, exp_a2, exp_n, _ = _single_mode_moments(rho, mode)
    central = exp_a2 - exp_a**2
    return float(
        0.5 + exp_n - abs(exp_a) ** 2 + (np.exp(-2j * theta_q) * central).real
    )


def min_quadrature_variance(rho: DensityOperator, mode: int) -> float:
    """Quadrature variance minimized over the phase (closed form)."""
    exp_a, exp_a2, exp_n, _ = _single_mode_moments(rho, mode)
    return float(0.5 + exp_n - abs(exp_a) ** 2 - abs(exp_a2 - exp_a**2))


def classicality_report(marginals: Sequence[DensityOperator]) -> ClassicalityReport:
    """Mandel Q and minimum quadrature variance of each single-mode
    marginal (one per mode, in mode order) with verdict flags."""
    qs = tuple(mandel_q(rho, 0) for rho in marginals)
    variances = tuple(min_quadrature_variance(rho, 0) for rho in marginals)
    return ClassicalityReport(
        mandel_q=qs,
        min_quadrature_variance=variances,
        squeezing_detected=any(v < 0.5 - WITNESS_TOL for v in variances),
        sub_poissonian_detected=any(q < -WITNESS_TOL for q in qs),
    )
