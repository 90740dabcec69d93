"""Independent Gaussian-state oracle: mean/covariance representation,
symplectic action of passive unitaries, classicality test, and the
covariance PPT test of any set of bipartitions of the modes, taken in one
``ppt_verdicts`` call.

Conventions (fixed once, shared with the Fock pipeline): hbar = 1,
quadratures interleaved (x1, p1, ..., xn, pn), vacuum variance 1/2, and
x = (a + a^dag)/sqrt(2) so a coherent amplitude alpha has mean
(sqrt(2) Re alpha, sqrt(2) Im alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .passive import ModeUnitary
from .states import GaussianSpec

SYM_TOL = 1e-12
#: tolerance on the uncertainty relation cov + (i/2) Omega >= 0
UNCERTAINTY_TOL = 1e-10
#: shared tolerance band around 0 for verdicts, so boundary states
#: (vacuum) classify deterministically as classical / separable
VERDICT_TOL = 1e-10


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form in interleaved (x, p) ordering: one
    [[0, 1], [-1, 0]] block per mode."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    x = np.arange(0, 2 * n_modes, 2)
    omega[x, x + 1] = 1.0
    omega[x + 1, x] = -1.0
    return omega


@dataclass(frozen=True)
class GaussianState:
    """Mean vector (length 2n) and real symmetric covariance (2n x 2n)."""

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        d = 2 * self.n_modes
        if mean.shape != (d,):
            raise ValueError("mean vector has wrong length")
        if cov.shape != (d, d):
            raise ValueError("covariance matrix has wrong shape")
        if float(np.abs(cov - cov.T).max()) > SYM_TOL:
            raise ValueError("covariance matrix is not symmetric")
        cov = (cov + cov.T) / 2.0
        # uncertainty relation: cov + (i/2) Omega >= 0
        omega = symplectic_form(self.n_modes)
        herm = cov.astype(complex) + 0.5j * omega
        min_eig = float(np.linalg.eigvalsh(herm)[0])
        if min_eig < -UNCERTAINTY_TOL:
            raise ValueError(
                f"covariance violates the uncertainty relation: min eig {min_eig:.3e}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _single_mode_blocks(spec: GaussianSpec) -> tuple[np.ndarray, np.ndarray]:
    if spec.kind == "coherent":
        mean = np.sqrt(2.0) * np.array([spec.alpha.real, spec.alpha.imag])
        return mean, np.eye(2) / 2.0
    if spec.kind == "thermal":
        return np.zeros(2), (spec.nbar + 0.5) * np.eye(2)
    # squeezed vacuum: diag(e^{-2r}, e^{2r})/2 rotated by theta_s/2, matching
    # the Fock constructor whose minimum-variance phase is theta_s/2
    half = spec.theta_s / 2.0
    rot = np.array([[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]])
    core = np.diag([np.exp(-2.0 * spec.r), np.exp(2.0 * spec.r)]) / 2.0
    return np.zeros(2), rot @ core @ rot.T


def gaussian_from_spec(specs: Sequence[GaussianSpec]) -> GaussianState:
    """Product Gaussian state of independent single-mode specs."""
    if not specs:
        raise ValueError("need at least one mode spec")
    means, covs = zip(*(_single_mode_blocks(s) for s in specs))
    n = len(specs)
    cov = np.zeros((2 * n, 2 * n))
    for k, block in enumerate(covs):
        cov[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    return GaussianState(n, np.concatenate(means), cov)


def symplectic_image(matrix: np.ndarray) -> np.ndarray:
    """Real 2n x 2n image of a complex matrix N acting on amplitudes,
    alpha -> N alpha, with 2x2 blocks [[X_jk, -Y_jk], [Y_jk, X_jk]] for
    N = X + iY; orthogonal-symplectic when N is unitary."""
    n = matrix.shape[0]
    x, y = matrix.real, matrix.imag
    return np.array([[x, -y], [y, x]]).transpose(2, 0, 3, 1).reshape(2 * n, 2 * n)


def apply_passive(g: GaussianState, m: ModeUnitary) -> GaussianState:
    """Image of a Gaussian state under the passive unitary M.

    Uses the amplitude map alpha -> M^dag alpha of the Fock-space lift, so
    the two pipelines transform states identically: mean -> S mean,
    cov -> S cov S^T with S the symplectic image of M^dag.
    """
    if m.n_modes != g.n_modes:
        raise ValueError("mode count mismatch")
    s = symplectic_image(m.matrix.conj().T)
    return GaussianState(g.n_modes, s @ g.mean, s @ g.cov @ s.T)


@dataclass(frozen=True)
class GaussianVerdict:
    label: str
    margin: float


def is_classical(g: GaussianState) -> GaussianVerdict:
    """P-representability of a Gaussian state: cov - I/2 >= 0.

    margin is the minimum eigenvalue of (cov - I/2); the verdict applies
    the shared +-VERDICT_TOL band so vacuum classifies as classical.
    """
    margin = float(np.linalg.eigvalsh(g.cov - np.eye(2 * g.n_modes) / 2.0)[0])
    label = "classical" if margin >= -VERDICT_TOL else "nonclassical"
    return GaussianVerdict(label, margin)


def ppt_verdicts(g: GaussianState, sides: Sequence[Sequence[int]]) -> list[GaussianVerdict]:
    """Covariance PPT test of each bipartition, named by its side A.

    Partial transposition flips side A's momenta, V -> L_A V L_A; a
    separable state keeps the uncertainty relation after it (Simon, PRL 84,
    2726 (2000), for two modes, where the test is necessary and sufficient
    for Gaussian states; any bipartition of n modes: Werner and Wolf, PRL
    86, 3658 (2001)).  margin is the least eigenvalue of L_A V L_A + (i/2)
    Omega; all cuts share one stacked eigensolve.  ``ValueError`` for a side
    that is not a non-empty proper subset of the modes.
    """
    flips = np.ones((len(sides), 2 * g.n_modes))
    for row, side in zip(flips, sides):
        if not set() < set(side) < set(range(g.n_modes)):
            raise ValueError("each side A must be a non-empty proper subset of the modes")
        row[2 * np.asarray(side, dtype=int) + 1] = -1.0
    herm = g.cov * (flips[:, :, None] * flips[:, None, :]) + 0.5j * symplectic_form(g.n_modes)
    margins = np.linalg.eigvalsh(herm)[:, 0]
    return [GaussianVerdict("separable" if m >= -VERDICT_TOL else "entangled", float(m))
            for m in margins]
