"""Independent Gaussian-state oracle: mean/covariance representation,
symplectic action of passive unitaries, classicality test, and the Simon
separability criterion for two-mode states.

Conventions (fixed once, shared with the Fock pipeline): hbar = 1,
quadratures interleaved (x1, p1, ..., xn, pn), vacuum variance 1/2, and
x = (a + a^dag)/sqrt(2) so a coherent amplitude alpha has mean
(sqrt(2) Re alpha, sqrt(2) Im alpha).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import GaussianSpec

SYM_TOL = 1e-12
#: tolerance on the uncertainty relation cov + (i/2) Omega >= 0
UNCERTAINTY_TOL = 1e-10
#: shared tolerance band around 0 for verdicts, so boundary states
#: (vacuum) classify deterministically as classical / separable
VERDICT_TOL = 1e-10

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form in interleaved (x, p) ordering."""
    return np.kron(np.eye(n_modes), _J)


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
    N = X + iY.  Verified orthogonal-symplectic for unitary N."""
    n = matrix.shape[0]
    s = np.zeros((2 * n, 2 * n))
    x, y = matrix.real, matrix.imag
    for j in range(n):
        for k in range(n):
            s[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = [
                [x[j, k], -y[j, k]],
                [y[j, k], x[j, k]],
            ]
    if float(np.abs(s @ s.T - np.eye(2 * n)).max()) > 1e-10:
        raise ValueError("symplectic image is not orthogonal (matrix not unitary?)")
    return s


def apply_passive(g: GaussianState, m) -> GaussianState:
    """Image of a Gaussian state under the passive unitary M.

    Uses the amplitude map alpha -> M^dag alpha of the Fock-space lift, so
    the two pipelines transform states identically: mean -> S mean,
    cov -> S cov S^T with S the symplectic image of M^dag.
    """
    matrix = np.asarray(m.matrix if hasattr(m, "matrix") else m, dtype=complex)
    if matrix.shape[0] != g.n_modes:
        raise ValueError("mode count mismatch")
    s = symplectic_image(matrix.conj().T)
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


def ppt_uncertainty_margin(g: GaussianState) -> float:
    """Min eigenvalue of PT(cov) + (i/2) Omega for a two-mode state, where
    PT flips the momentum of mode 1.  Non-negative iff PPT holds; the
    eigenvalue form of the Simon criterion, kept as an independent
    cross-check of :func:`simon_separable`."""
    if g.n_modes != 2:
        raise ValueError("PPT margin is defined for two-mode states")
    p = np.diag([1.0, 1.0, 1.0, -1.0])
    herm = (p @ g.cov @ p).astype(complex) + 0.5j * symplectic_form(2)
    return float(np.linalg.eigvalsh(herm)[0])


def simon_separable(g: GaussianState) -> GaussianVerdict:
    """Simon's separability criterion for two-mode Gaussian states.

    With cov = [[A, C], [C^T, B]] in 2x2 blocks, separability is equivalent
    (for two modes) to

        det A det B + (1/4 - |det C|)^2 - tr(A J C J B J C^T J)
            >= (det A + det B)/4,

    J = [[0, 1], [-1, 0]].  margin is the inequality slack.
    """
    if g.n_modes != 2:
        raise ValueError("Simon criterion is defined for two-mode states")
    a = g.cov[0:2, 0:2]
    b = g.cov[2:4, 2:4]
    c = g.cov[0:2, 2:4]
    det_a, det_b, det_c = map(np.linalg.det, (a, b, c))
    lhs = (
        det_a * det_b
        + (0.25 - abs(det_c)) ** 2
        - np.trace(a @ _J @ c @ _J @ b @ _J @ c.T @ _J)
    )
    margin = float(lhs - (det_a + det_b) / 4.0)
    label = "separable" if margin >= -VERDICT_TOL else "entangled"
    return GaussianVerdict(label, margin)
