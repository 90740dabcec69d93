"""Dense references the tests check bselab against.

The package never builds these: a full-space state stays a set of weighted
amplitude rows, Mandel Q reads a photon-number distribution, not a
single-mode density, a trial's PT spectrum is taken on a certified low-rank
compression, and route 2 builds only the arena rows of each sector block.
Each helper here builds the dense object, or reads a quantity off it, so
that a test can compare the package's result with the textbook one: among
them the dense lift P U P (``lift_unitary``), which the package applies
sector by sector and never forms.  The
SVD rank cut that the package's randomized range bases replaced is kept
here too (``svd_pt_spectrum``), and so is Simon's two-mode determinant
formula, which the package's covariance PPT test replaced
(``simon_determinant_margin``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from bselab.gaussian import GaussianState
from bselab.hilbert import LEAK_TOL, FockArena, Mixture, _check_leak
from bselab.passive import (
    SECTOR_TAIL_EPS,
    ModeUnitary,
    _sector_blocks,
    _sector_plan,
    _sector_tail_bound,
)
from bselab.states import (
    CoherentEnsemble,
    GaussianSpec,
    _coherent_column,
    _poisson_tail,
    coherent,
    squeezed_vacuum,
    thermal,
)


#: positive-semidefiniteness tolerance (scaled by matrix norm)
PSD_TOL = 1e-10
#: relative Hermiticity tolerance for density operators
HERM_TOL = 1e-12
#: the lift's vacuum deviation, and its unitarity and conjugation residual
#: on the protected (total photons <= cutoff/2) subspace
VACUUM_TOL = 1e-10
SUBSPACE_UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class DensityOperator:
    """A mixed state as a dense Hermitian PSD matrix over the arena basis.

    Validated at construction: the input is Hermitian within ``HERM_TOL``
    relative to its largest entry; ``matrix`` is then the read-only,
    exactly Hermitian copy ``(rho + rho^dag)/2``, whose trace lies in
    ``[1 - leak_tol, 1]`` and whose minimum eigenvalue is >= ``-PSD_TOL``
    scaled by the matrix norm.
    """

    arena: FockArena
    matrix: np.ndarray
    leak_tol: float = field(default=LEAK_TOL, repr=False, compare=False)

    def __post_init__(self) -> None:
        raw = np.asarray(self.matrix, dtype=complex)
        dim = self.arena.total_dim
        if raw.shape != (dim, dim):
            raise ValueError("density matrix has wrong shape")
        scale = float(np.abs(raw).max())
        if scale == 0.0:
            raise ValueError("density matrix is identically zero")
        herm_dev = float(np.abs(raw - raw.conj().T).max())
        if herm_dev > HERM_TOL * scale:
            raise ValueError(f"density matrix not Hermitian: deviation {herm_dev:.3e}")
        mat = (raw + raw.conj().T) / 2.0
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        tr = float(np.trace(mat).real)
        if tr > 1.0 + 1e-12:
            raise ValueError(f"trace {tr} exceeds 1")
        _check_leak(1.0 - tr, self.leak_tol)
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        if min_eig < -PSD_TOL * max(scale, 1.0):
            raise ValueError(f"density matrix not PSD: min eigenvalue {min_eig:.3e}")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def marginals(state: Mixture) -> tuple[DensityOperator, ...]:
    """Single-mode reduced states in mode order: sum_i w_i A_i A_i^dag,
    with A_i row i reshaped to (cutoff, rest) for that mode, contracted
    over the rows and the other modes."""
    n, d = state.arena.n_modes, state.arena.cutoff
    tensor = state.rows.reshape((-1,) + (d,) * n)
    weighted = state.weights.reshape((-1,) + (1,) * n) * tensor
    out = []
    for m in range(n):
        others = [0] + [k + 1 for k in range(n) if k != m]
        rho = np.tensordot(weighted, tensor.conj(), axes=(others, others))
        out.append(DensityOperator(FockArena(1, d), rho, leak_tol=state.leak_tol))
    return tuple(out)


def decode(arena: FockArena, index: int) -> tuple[int, ...]:
    """Occupation tuple of a basis index; inverse of ``arena.encode``."""
    if not 0 <= index < arena.total_dim:
        raise ValueError("basis index out of range")
    occ = []
    for _ in range(arena.n_modes):
        index, n = divmod(index, arena.cutoff)
        occ.append(n)
    return tuple(reversed(occ))


def to_density(arena: FockArena, psi: np.ndarray) -> DensityOperator:
    """|psi><psi| of an amplitude row as a validated dense density."""
    return DensityOperator(arena, np.outer(psi, psi.conj()))


def ensemble_to_density(ens: CoherentEnsemble, arena: FockArena) -> DensityOperator:
    """sum_i w_i |alpha_i><alpha_i| on the truncated arena, as a dense matrix."""
    if arena.n_modes != ens.n_modes:
        raise ValueError("arena mode count does not match ensemble")
    rows = coherent(arena, ens.alphas)
    return DensityOperator(arena, (ens.weights * rows.T) @ rows.conj())


def spec_to_density(spec: GaussianSpec, arena: FockArena) -> DensityOperator:
    """Truncated Fock-space density operator of a single-mode Gaussian spec."""
    if arena.n_modes != 1:
        raise ValueError("spec_to_density builds single-mode states")
    if spec.kind == "coherent":
        return to_density(arena, coherent(arena, [spec.alpha]))
    if spec.kind == "thermal":
        return DensityOperator(arena, np.diag(thermal(arena, spec.nbar).weights))
    return to_density(arena, squeezed_vacuum(arena, spec.r, spec.theta_s))


def annihilation_matrix(arena: FockArena, mode: int) -> np.ndarray:
    """Dense annihilation operator on ``mode``, identity on the other modes
    (mode 0 is the first ``np.kron`` factor)."""
    if not 0 <= mode < arena.n_modes:
        raise ValueError(f"mode {mode} out of range for {arena.n_modes} modes")
    a = np.diag(np.sqrt(np.arange(1, arena.cutoff, dtype=float)), k=1).astype(complex)
    op = np.eye(1, dtype=complex)
    for m in range(arena.n_modes):
        op = np.kron(op, a if m == mode else np.eye(arena.cutoff, dtype=complex))
    return op


def partial_trace(rho: DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Reduced state on ``keep`` (sorted mode order), tracing out the rest."""
    keep_sorted = sorted(set(keep))
    n = rho.arena.n_modes
    if not keep_sorted:
        raise ValueError("keep set must be non-empty")
    if any(m < 0 or m >= n for m in keep_sorted):
        raise ValueError("keep set contains an invalid mode index")

    tensor = rho.matrix.reshape((rho.arena.cutoff,) * (2 * n))
    traced = [m for m in range(n) if m not in keep_sorted]
    for offset, m in enumerate(traced):
        axis = m - offset  # axes shift as earlier modes are traced out
        n_left = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=axis, axis2=n_left + axis)
    reduced_arena = FockArena(len(keep_sorted), rho.arena.cutoff)
    matrix = tensor.reshape(reduced_arena.total_dim, reduced_arena.total_dim)
    return DensityOperator(reduced_arena, matrix, leak_tol=rho.leak_tol)


def dense_moments(rho: DensityOperator) -> tuple[complex, complex, float, float]:
    """<a>, <a^2>, <n>, <n^2> of a single-mode density as tr(rho op) with
    dense ladder-operator products, n = a^dag a."""
    a = annihilation_matrix(rho.arena, 0)
    n_op = a.conj().T @ a

    def expect(op):
        return complex(np.trace(rho.matrix @ op))

    return expect(a), expect(a @ a), expect(n_op).real, expect(n_op @ n_op).real


def min_quadrature_variance(rho: DensityOperator) -> float:
    """Quadrature variance of a single-mode density, minimized over the
    phase: 1/2 + <n> - |<a>|^2 - |<a^2> - <a>^2|."""
    exp_a, exp_a2, exp_n, _ = dense_moments(rho)
    return float(0.5 + exp_n - abs(exp_a) ** 2 - abs(exp_a2 - exp_a**2))


def quadrature_variance(rho: DensityOperator, mode: int, theta_q: float) -> float:
    """Variance of x_theta = (a e^{-i theta} + a^dag e^{i theta})/sqrt(2)."""
    reduced = rho if rho.arena.n_modes == 1 else partial_trace(rho, [mode])
    exp_a, exp_a2, exp_n, _ = dense_moments(reduced)
    central = exp_a2 - exp_a**2
    return float(
        0.5 + exp_n - abs(exp_a) ** 2 + (np.exp(-2j * theta_q) * central).real
    )


@dataclass(frozen=True)
class LiftedUnitary:
    """P U P: a ModeUnitary's Fock-space operator projected onto an arena."""

    arena: FockArena
    matrix: np.ndarray

    def apply_to_vector(self, amplitudes: np.ndarray) -> np.ndarray:
        return self.matrix @ amplitudes


def lift_unitary(m: ModeUnitary, arena: FockArena) -> LiftedUnitary:
    """P U P as a dim x dim matrix: the arena-row sector blocks up to
    n_modes*(cutoff-1), on the columns whose tuples fit the arena.  Sectors
    below the cutoff fit whole and stay unitary; the clipped ones above it
    are contractions, so a row loses at most its own weight there."""
    if m.n_modes != arena.n_modes:
        raise ValueError("mode count mismatch between unitary and arena")
    dim = arena.total_dim
    shape = (arena.cutoff,) * arena.n_modes
    matrix = np.zeros((dim, dim), dtype=complex)
    for occ, cols, (block,) in _sector_blocks(m.matrix[None], arena.n_modes * (arena.cutoff - 1),
                                              arena.cutoff):
        kept = cols.max(axis=1) < arena.cutoff
        rows = np.ravel_multi_index(occ.T, shape)
        matrix[np.ix_(rows, np.ravel_multi_index(cols[kept].T, shape))] = block[:, kept]
    return LiftedUnitary(arena, matrix)


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
    idx = np.flatnonzero(arena.occupation_table().sum(axis=1) <= arena.cutoff // 2)
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


def exact_pt_spectrum(weights, rows, cutoff: int, part_a, part_b):
    """Spectrum of the partial transpose over ``part_a`` of
    sum_i w_i |psi_i><psi_i|, taken on the local supports with no rank cut,
    and whether they span a proper subspace of the full space.

    Every psi_i, reshaped to Psi_i (d_A x d_B), lies in Q_A ⊗ Q_B with Q_A
    an orthonormal basis of the columns of [Psi_1 ... Psi_K] and Q_B one of
    their rows.  A reduced Householder QR gives a basis of a superset of the
    support whatever the rank.  A side is compressed only where its stacked
    matrix is tall (K d_other < d_side); with neither this is the dense
    partial transpose.
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
    sigma = (weights * x.T) @ x.conj()
    tensor = ((sigma + sigma.conj().T) / 2.0).reshape(r_a, r_b, r_a, r_b)
    eigs = np.linalg.eigvalsh(tensor.swapaxes(0, 2).reshape(sigma.shape))
    return eigs, r_a * r_b < d_a * d_b


def weighted_sides(weights, rows, cutoff: int, part_a, part_b):
    """The stacked matrices of a cut A|B: with Psi_i the row psi_i reshaped
    to d_A x d_B, S_A = [sqrt(w_1) Psi_1 ... sqrt(w_K) Psi_K] (d_A x K d_B)
    and S_B the same of the Psi_i^T (d_B x K d_A); and the weighted Psi_i
    themselves, shape (K, d_A, d_B)."""
    n = len(part_a) + len(part_b)
    d_a, d_b = cutoff ** len(part_a), cutoff ** len(part_b)
    k = rows.shape[0]
    order = (0,) + tuple(1 + m for m in part_a + part_b)
    psi = rows.reshape((k,) + (cutoff,) * n).transpose(order).reshape(k, d_a, d_b)
    psi = np.sqrt(weights)[:, None, None] * psi
    s_a = psi.transpose(1, 0, 2).reshape(d_a, k * d_b)
    s_b = psi.transpose(2, 0, 1).reshape(d_b, k * d_a)
    return s_a, s_b, psi


def kept_ranks(s_a: np.ndarray, s_b: np.ndarray, budget: float) -> tuple[int, int, float]:
    """How many of each side's (descending) singular values the SVD cut
    keeps, and the squared mass eps_A + eps_B the rest carry: the smallest
    values of both sides are discarded, summed from the small end, while
    that sum stays within ``budget``.  Each side keeps at least one vector."""
    mass = np.concatenate((s_a, s_b)) ** 2
    order = np.argsort(mass, kind="stable")
    tail = np.cumsum(mass[order])
    n_cut = int(np.searchsorted(tail, budget, side="right"))
    from_a = int(np.count_nonzero(order[:n_cut] < s_a.size))
    r_a = max(1, s_a.size - from_a)
    r_b = max(1, s_b.size - (n_cut - from_a))
    return r_a, r_b, float(tail[n_cut - 1]) if n_cut else 0.0


def svd_pt_spectrum(weights, rows, cutoff: int, part_a, part_b, budget: float):
    """The SVD rank cut ``witnesses._pt_spectrum`` replaced, with its
    returns: each side keeps its leading left singular vectors until the
    squared singular values both sides drop fit ``budget`` together
    (``kept_ranks``), and b = 2 sqrt(eps) from those singular values."""
    s_a, s_b, psi = weighted_sides(weights, rows, cutoff, part_a, part_b)
    k, d_a, d_b = psi.shape
    u_a, sv_a = np.linalg.svd(s_a, full_matrices=False)[:2]
    u_b, sv_b = np.linalg.svd(s_b, full_matrices=False)[:2]
    r_a, r_b, eps = kept_ranks(sv_a, sv_b, budget)
    x = (u_a[:, :r_a].conj().T @ psi @ u_b[:, :r_b].conj()).reshape(k, r_a * r_b)
    sigma = x.T @ x.conj()
    tensor = ((sigma + sigma.conj().T) / 2.0).reshape(r_a, r_b, r_a, r_b)
    eigs = np.linalg.eigvalsh(tensor.swapaxes(0, 2).reshape(sigma.shape))
    return eigs, r_a * r_b < d_a * d_b, 2.0 * math.sqrt(eps)


def full_sector_transform(m: ModeUnitary, alphas, arena: FockArena) -> np.ndarray:
    """P U|alpha> for each row of ``alphas`` from whole sector blocks up to
    the Poisson tail bound, keeping the arena's tuples afterwards.  No bound
    passes the arena's top sector, above which no tuple is kept."""
    rows = np.atleast_2d(np.asarray(alphas, dtype=complex))
    last = arena.n_modes * (arena.cutoff - 1)
    n_max = np.array([_sector_tail_bound(float(np.sum(np.abs(r) ** 2)), last) for r in rows])
    top = int(n_max.max())
    columns = np.array([[_coherent_column(a, top + 1) for a in row] for row in rows])
    out = np.zeros((rows.shape[0], arena.total_dim), dtype=complex)
    for n, (occ, _, (block,)) in enumerate(_sector_blocks(m.matrix[None], top, top + 1)):
        amps = columns[:, np.arange(arena.n_modes), occ].prod(axis=-1)
        amps[n_max < n] = 0.0
        transformed = amps @ block.T
        kept = occ.max(axis=1) < arena.cutoff
        index = np.ravel_multi_index(occ[kept].T, (arena.cutoff,) * arena.n_modes)
        out[:, index] = transformed[:, kept]
    return out


def loop_sector_blocks(stack: np.ndarray, top: int, cutoff: int):
    """``_sector_blocks`` as a loop over the modes k of each sector step:
    from a zero block, add sqrt(s_k) * parents[rows_k] * coef_k one mode at
    a time.  The package takes the same sum in one array pass."""
    plan = _sector_plan(stack.shape[-1], top, cutoff)
    coef = np.conj(stack).transpose(2, 0, 1)[..., plan.mode] * plan.inv_sqrt_t
    block = np.ones((1, len(stack), 1), dtype=complex)
    yield plan.sectors[0][0], plan.cols[:1], block.transpose(1, 0, 2)
    for occ, rows, _, parent, columns in plan.sectors[1:]:
        parents = np.take(block, parent, axis=-1)
        block = np.zeros((len(occ),) + parents.shape[1:], dtype=complex)
        for r, s, c in zip(rows, np.sqrt(occ.T)[..., None, None], coef[..., columns]):
            term = np.multiply(s, parents[r])
            term *= c
            block += term
        yield occ, plan.cols[columns], block.transpose(1, 0, 2)


def linear_sector_tail_bound(mean: float, top: int) -> int:
    """Smallest n <= ``top`` with P(N >= n) <= SECTOR_TAIL_EPS, and ``top``
    when there is none, by the plain upward search on exact tails from
    max(1, int(mean)), where ``_sector_tail_bound`` starts its walk for a
    mean below ``top``."""
    if mean <= 0.0:
        return 0
    n = max(1, int(mean))
    while n < top and _poisson_tail(n, mean) > SECTOR_TAIL_EPS:
        n += 1
    return min(n, top)


def scalar_coherent_column(alpha: complex, cutoff: int) -> np.ndarray:
    """e^{-|a|^2/2} a^n / sqrt(n!) for one amplitude, in Python scalars
    where the formula has them: the form ``_coherent_column`` vectorises."""
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff)))))
    if alpha == 0:
        return np.concatenate(([1.0], np.zeros(cutoff - 1))).astype(complex)
    mag = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - log_fact / 2.0)
    return mag * np.exp(1j * n * np.angle(alpha))


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


def simon_determinant_margin(g: GaussianState) -> float:
    """Simon's two-mode separability criterion in its determinant form.

    With cov = [[A, C], [C^T, B]] in 2x2 blocks and J = [[0, 1], [-1, 0]],
    a two-mode state is PPT iff

        det A det B + (1/4 - |det C|)^2 - tr(A J C J B J C^T J)
            >= (det A + det B)/4.

    Returns the slack of that inequality: an independent two-mode
    cross-check of the sign of the eigenvalue margin of
    ``gaussian.ppt_verdicts`` on the cut 0|1 (Simon, PRL 84, 2726 (2000))."""
    if g.n_modes != 2:
        raise ValueError("Simon criterion is defined for two-mode states")
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    a, b, c = g.cov[0:2, 0:2], g.cov[2:4, 2:4], g.cov[0:2, 2:4]
    det_a, det_b, det_c = map(np.linalg.det, (a, b, c))
    lhs = det_a * det_b + (0.25 - abs(det_c)) ** 2 - np.trace(a @ j @ c @ j @ b @ j @ c.T @ j)
    return float(lhs - (det_a + det_b) / 4.0)
