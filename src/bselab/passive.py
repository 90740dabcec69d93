"""Passive linear-optical transformations.

A passive transformation is fixed by an n x n unitary M acting on the mode
annihilation operators, U c_j U^{-1} = sum_k M_{jk} c_k.  The Fock-space
operator is the exponential lift U = exp(-sum_{jk} (ln M)_{jk} c_j^dag c_k)
with the principal matrix logarithm; it leaves the vacuum invariant and,
because the generator conserves total photon number, is exactly unitary and
block-diagonal over photon-number sectors even after truncation.

One sector core, ``_sector_generator``, builds each sector block of that
generator from ln M and the sector's occupation table: ``lift_unitary`` feeds
it the arena's clipped sectors, ``transform_coherent_exact`` full sectors
whose exponentials it applies to a batch of coherent states at once.

On coherent amplitudes the same map reads, in row-vector form,
alpha' = alpha . conj(M)  (equivalently alpha'_col = M^dag alpha_col),
which for real M reduces to plain right multiplication by M.  This closed
form is the truncation-free fast path for classical ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .hilbert import DensityOperator, FockArena, annihilation_matrix
from .states import CoherentEnsemble, _coherent_column

UNITARITY_TOL = 1e-12
LOG_ROUNDTRIP_TOL = 1e-10
VACUUM_TOL = 1e-10
SUBSPACE_UNITARITY_TOL = 1e-8
#: Poisson tail probability past which the exact transform drops a sector
SECTOR_TAIL_EPS = 1e-20


@dataclass(frozen=True)
class ModeUnitary:
    """An n x n unitary acting on the vector of mode annihilation operators."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mode matrix must be square")
        if not np.isfinite(m).all():
            raise ValueError("mode matrix must be finite")
        dev = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if dev > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary: deviation {dev:.3e}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0]

    def inverse(self) -> "ModeUnitary":
        return ModeUnitary(self.matrix.conj().T)


def beam_splitter_matrix(theta: float, phi0: float = 0.0, phi1: float = 0.0) -> ModeUnitary:
    """The standard 2x2 beam splitter mode matrix, rows/columns (a, b):

        [[ cos(theta) e^{i phi0},  sin(theta) e^{i phi1}],
         [-sin(theta) e^{-i phi1}, cos(theta) e^{-i phi0}]]

    Its determinant is cos^2 + sin^2 = 1 for every parameter triple.
    """
    c, s = np.cos(theta), np.sin(theta)
    m = np.array(
        [
            [c * np.exp(1j * phi0), s * np.exp(1j * phi1)],
            [-s * np.exp(-1j * phi1), c * np.exp(-1j * phi0)],
        ]
    )
    mu = ModeUnitary(m)
    det = np.linalg.det(mu.matrix)
    assert abs(det - 1.0) <= 1e-12, "beam splitter determinant drifted from 1"
    return mu


def log_unitary(m: ModeUnitary) -> np.ndarray:
    """Anti-Hermitian principal logarithm L of a unitary, exp(L) = M.

    Computed from the complex Schur form (diagonal for a normal matrix, and
    stable under eigenvalue degeneracy) with eigenphases taken in (-pi, pi],
    tie-broken to +pi.
    """
    t, z = scipy.linalg.schur(m.matrix, output="complex")
    phases = np.angle(np.diagonal(t))  # np.angle lands in (-pi, pi]
    log = (z * (1j * phases)) @ z.conj().T
    roundtrip = (z * np.exp(1j * phases)) @ z.conj().T
    dev = float(np.abs(roundtrip - m.matrix).max())
    if dev > LOG_ROUNDTRIP_TOL:
        raise ValueError(f"matrix logarithm round trip failed: deviation {dev:.3e}")
    return (log - log.conj().T) / 2.0


@dataclass(frozen=True)
class LiftedUnitary:
    """The Fock-space operator of a ModeUnitary on a truncated arena."""

    arena: FockArena
    matrix: np.ndarray

    def protected_indices(self) -> np.ndarray:
        """Basis indices of the total-photon <= cutoff/2 subspace on which
        the unitarity and conjugation contracts are honestly testable."""
        return self.arena.subspace_indices(self.arena.cutoff // 2)

    def apply_to_vector(self, amplitudes: np.ndarray) -> np.ndarray:
        return self.matrix @ amplitudes


def _sector_generator(log: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """The matrix of -sum_{jk} L_{jk} c_j^dag c_k on one photon-number sector.

    ``occupations`` lists the sector's occupation tuples, one per row, in
    lexicographic order (the order a FockArena lists them).  A hop
    c_j^dag c_k whose target tuple is not in the table is dropped, which is
    what the truncated ladder operators do at the cutoff.
    """
    eye = np.eye(log.shape[0], dtype=int)
    # (q, j, k): c_j^dag c_k |t_q> = sqrt(t_k (t_j + 1 - delta_jk)) |t_q - e_k + e_j>
    amp = np.sqrt(occupations[:, None, :] * (occupations[:, :, None] + 1 - eye))
    q, j, k = np.nonzero(amp)
    dims = (int(occupations.max(initial=0)) + 2,) * log.shape[0]
    keys = np.ravel_multi_index(occupations.T, dims)
    target_keys = np.ravel_multi_index((occupations[q] + eye[j] - eye[k]).T, dims)
    pos = np.minimum(np.searchsorted(keys, target_keys), keys.size - 1)
    hit = keys[pos] == target_keys
    gen = np.zeros((keys.size, keys.size), dtype=complex)
    np.add.at(gen, (pos[hit], q[hit]), -(log[j, k] * amp[q, j, k])[hit])
    return gen


def lift_unitary(m: ModeUnitary, arena: FockArena) -> LiftedUnitary:
    """exp(-sum_{jk} (ln M)_{jk} c_j^dag c_k) as a dense matrix.

    The generator is block-diagonal over total-photon-number sectors, so the
    exponential is taken sector by sector; sectors whose occupation tuples
    all fit under the cutoff are exact, truncation only clips the boundary
    sectors, whose blocks stay exactly unitary.
    """
    if m.n_modes != arena.n_modes:
        raise ValueError("mode count mismatch between unitary and arena")
    log = log_unitary(m)
    table = arena.occupation_table()
    dim = arena.total_dim
    matrix = np.zeros((dim, dim), dtype=complex)
    for idx in arena.photon_sector_indices().values():
        matrix[np.ix_(idx, idx)] = scipy.linalg.expm(_sector_generator(log, table[idx]))

    lifted = LiftedUnitary(arena, matrix)
    vac_dev = float(np.abs(matrix[:, 0] - np.eye(dim)[:, 0]).max())
    if vac_dev > VACUUM_TOL:
        raise ValueError(f"lifted operator moves the vacuum: deviation {vac_dev:.3e}")
    idx = lifted.protected_indices()
    sub = matrix[:, idx]
    unit_dev = float(np.abs(sub.conj().T @ sub - np.eye(idx.size)).max())
    if unit_dev > SUBSPACE_UNITARITY_TOL:
        raise ValueError(
            f"lifted operator not unitary on protected subspace: {unit_dev:.3e}"
        )
    return lifted


def conjugation_residual(u: LiftedUnitary, m: ModeUnitary, mode: int) -> float:
    """Max-norm of U c_mode U^dag - sum_k M_{mode,k} c_k on the protected
    (total photon <= cutoff/2) subspace; the module's self-test."""
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


def apply_to_density(u: LiftedUnitary, rho: DensityOperator) -> DensityOperator:
    """U rho U^dag, re-validated (a validation failure signals truncation
    overflow rather than a physics finding)."""
    if u.arena != rho.arena:
        raise ValueError("arena mismatch between operator and state")
    out = u.matrix @ rho.matrix @ u.matrix.conj().T
    return DensityOperator(rho.arena, out, leak_tol=rho.leak_tol)


def _sector_tail_bound(mean: float) -> int:
    """Smallest n with Poisson(mean) tail P(N >= n) <= SECTOR_TAIL_EPS."""
    if mean <= 0.0:
        return 0
    n = max(1, int(mean))
    while scipy.special.pdtrc(n - 1, mean) > SECTOR_TAIL_EPS:
        n += 1
    return n


def transform_coherent_exact(m: ModeUnitary, alphas, arena: FockArena) -> np.ndarray:
    """Amplitudes of the lifted unitary applied to |alphas>, projected to
    the arena truncation *after* the transform.

    ``alphas`` has shape ``(..., n_modes)``, the result ``(..., total_dim)``.

    The lift generator conserves total photon number, so the operator is
    exact on every full sector; evaluating it sector by sector (each state
    up to its own sector bound, where the Poissonian tail drops below
    ``SECTOR_TAIL_EPS``) avoids the boundary-clipping artifacts of the dense
    truncated lift, whose error near the cutoff would otherwise swamp tight
    PPT diagnostics.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    if alphas.shape[-1] != arena.n_modes:
        raise ValueError("need one amplitude per mode")
    rows = alphas.reshape(-1, arena.n_modes)
    means = np.sum(np.abs(rows) ** 2, axis=1)
    n_max = np.array([_sector_tail_bound(mean) for mean in means])
    top = int(n_max.max())
    columns = np.array([[_coherent_column(a, top + 1) for a in row] for row in rows])
    log = log_unitary(m)
    full = FockArena(arena.n_modes, top + 1)
    table = full.occupation_table()

    out = np.zeros((rows.shape[0], arena.total_dim), dtype=complex)
    for n, idx in full.photon_sector_indices().items():
        if n > top:
            break
        occ = table[idx]
        amps = columns[:, np.arange(arena.n_modes), occ].prod(axis=-1)
        amps[n_max < n] = 0.0
        transformed = amps @ scipy.linalg.expm(_sector_generator(log, occ)).T
        kept = occ.max(axis=1) < arena.cutoff
        index = np.ravel_multi_index(occ[kept].T, (arena.cutoff,) * arena.n_modes)
        out[:, index] = transformed[:, kept]
    return out.reshape(alphas.shape[:-1] + (arena.total_dim,))


def transform_ensemble(ens: CoherentEnsemble, m: ModeUnitary) -> CoherentEnsemble:
    """Closed-form image of a classical ensemble under a passive unitary.

    Weights are untouched; each amplitude row is right-multiplied by
    conj(M), the coherent-amplitude image of conjugation by the lifted
    operator (for real M this is plain right multiplication by M).  The
    output is again a valid ensemble, which is the constructive
    separability certificate.
    """
    if ens.n_modes != m.n_modes:
        raise ValueError("mode count mismatch between ensemble and unitary")
    return CoherentEnsemble(ens.n_modes, ens.weights, ens.alphas @ np.conj(m.matrix))
