"""Passive linear-optical transformations.

A passive transformation is fixed by an n x n unitary M acting on the mode
annihilation operators, U c_j U^{-1} = sum_k M_{jk} c_k.  The Fock-space
operator U conserves total photon number; its block on sector n is the
symmetric power Sym^n of the mode map, <s|U|t> = Per(conj(M)[t, s]) /
sqrt(t! s!) (Scheel, quant-ph/0406127; Aaronson-Arkhipov, STOC 2011).

One builder, ``_sector_blocks``, forms those blocks column by column from
U c_j^dag U^{-1} = sum_k conj(M_jk) c_k^dag: no matrix logarithm (no branch
to choose at eigenphases +-pi), no exponential; each sector is one array
pass that gathers, scales and sums the terms of every mode k.  It reads one
cached plan, ``_sector_plan``, and builds one shape, the rows whose tuples
fit a cutoff against every column of the sector, for a stack of mode
matrices (one matrix is a stack of one).  One applier, ``_apply_sectors``,
forms that stack and applies the blocks to each amplitude row on the plan's
columns on its own, with one scatter to the arena.  Both entry points take
one form, a sequence of T ModeUnitary and K rows in, ``(T, K, total_dim)``
out; one unitary is ``[m]``, and each row is its one-row call bit for bit.
The builder runs in scratch arrays kept per thread, grown to the largest
sector the thread has built and never shrunk, so a sector step allocates
nothing; each block it yields is a view of that scratch, valid until the
generator advances.

``transform_coherent_exact`` feeds the applier K coherent states, built by
``states._coherent_rows`` on the plan's columns, which gives the projection
of the exact transform, and also returns the Poisson tail each state drops
past its last sector; it transforms its input once and builds every block
for the whole sequence (a sweep's angles).  ``_lift_rows`` feeds it K arena
amplitude rows, which gives P U P, the exact lift projected onto the arena;
no code here forms that dim x dim matrix.

On coherent amplitudes the same map reads, in row-vector form,
alpha' = alpha . conj(M)  (equivalently alpha'_col = M^dag alpha_col),
which for real M reduces to plain right multiplication by M.  This closed
form is the truncation-free fast path for classical ensembles.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .hilbert import FockArena
from .states import CoherentEnsemble, _coherent_rows

UNITARITY_TOL = 1e-12
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
    return ModeUnitary(m)


class _SectorPlan(NamedTuple):
    """What the recursion, the applier and both entry points read."""

    sectors: tuple          # per sector: (occ, rows, sqrt_s, parent, columns)
    cols: np.ndarray        # every column tuple, in sector order
    sector: np.ndarray      # the sector of each column
    mode: np.ndarray        # the mode j each column lowers
    inv_sqrt_t: np.ndarray  # 1/sqrt(t_j) of each column
    row_index: np.ndarray   # the arena index of each row, in sector order
    inside: np.ndarray      # the columns whose tuples fit the arena: the rows


@functools.lru_cache(maxsize=None)
def _sector_plan(n_modes: int, top: int, cutoff: int) -> _SectorPlan:
    """The plan of sectors 0..top.  Per sector, ``columns`` is the slice of
    its columns, the whole sector, and ``occ`` the rows, the columns whose
    tuples fit a FockArena with ``cutoff``; from sector 1, ``rows[k]`` is the
    position of row s - e_k in the sector below (0 where s_k = 0),
    ``sqrt_s[k]`` the complex sqrt(s_k) as ``(rows, 1, 1)`` (no step casts
    it), and ``parent`` the position of each column's t - e_j among the
    columns below.  Column t lowers its most occupied mode j (first on ties),
    which keeps the blocks unitary to roundoff (1e-14 at 2-mode sector 60,
    where lowering the first occupied mode drifts to 3e-9).

    A tuple's key is its digits in base top + 1, mode 0 first, whose numeric
    order is the lexicographic one of a FockArena: sector n is the keys of
    sector n - 1 raised by each mode's stride, sorted, without repeats, and
    ``np.searchsorted`` finds s - e_k and t - e_j in the sector below.
    """
    if (top + 1) ** min(n_modes, 64) > np.iinfo(np.intp).max:
        raise ValueError(f"sector {top} on {n_modes} modes has tuples numpy cannot key")
    stride = (top + 1) ** np.arange(n_modes - 1, -1, -1)
    starts = np.cumsum([0] + [math.comb(n + n_modes - 1, n) for n in range(top + 1)]).tolist()
    # one allocation for every key, so a plan numpy cannot hold fails at once
    key = np.zeros(starts[-1], dtype=np.intp)
    for n in range(1, top + 1):
        raised = np.sort((key[starts[n - 1]:starts[n], None] + stride).ravel())
        key[starts[n]:starts[n + 1]] = raised[np.diff(raised, prepend=-1) > 0]
    cols = key[:, None] // stride % (top + 1)
    mode, inside = cols.argmax(axis=1), cols.max(axis=1) < cutoff
    # the vacuum column lowers nothing; its coefficient is never read
    inv_sqrt_t = 1.0 / np.sqrt(np.maximum(cols[np.arange(len(cols)), mode], 1))
    steps = [(cols[:1], None, None, None, slice(0, 1))]
    for n in range(1, top + 1):
        below, columns = slice(starts[n - 1], starts[n]), slice(starts[n], starts[n + 1])
        occ = cols[columns][inside[columns]]
        rows = np.where(occ.T > 0, np.searchsorted(
            key[below][inside[below]], key[columns][inside[columns]] - stride[:, None]), 0)
        parent = np.searchsorted(key[below], key[columns] - stride[mode[columns]])
        sqrt_s = np.sqrt(occ.T)[..., None, None].astype(complex)
        steps.append((occ, rows, sqrt_s, parent, columns))
    plan = _SectorPlan(tuple(steps), cols, cols.sum(axis=1), mode, inv_sqrt_t,
                       np.ravel_multi_index(cols[inside].T, (cutoff,) * n_modes), inside)
    for array in (*plan[1:], *(a for step in plan.sectors for a in step[:4] if a is not None)):
        array.setflags(write=False)
    return plan


class _Scratch:
    """One running recursion's scratch: a flat gather, terms and block array,
    and their views on each sector for the (n_modes, cutoff, T) of ``key``.
    A sector's shapes do not depend on the plan's top, so the views of one
    key serve every top up to the deepest one built."""

    def __init__(self) -> None:
        self.flat = [np.empty(0, dtype=complex) for _ in range(3)]
        self.key, self.views = None, []

    def sector_views(self, plan: _SectorPlan, cutoff: int, t: int) -> list:
        """Per sector of ``plan``, its (gather, terms, block) views for a
        stack of ``t``; on a new key or a deeper plan, each flat array first
        grows to the largest of its shapes where it is smaller."""
        key = (plan.cols.shape[1], cutoff, t)
        if key != self.key or len(self.views) < len(plan.sectors):
            shapes = [((0,), (0,), (1, t, 1))]  # sector 0 gathers nothing
            shapes += [((len(below), t, len(parent)), rows.shape + (t, len(parent)),
                        (len(occ), t, len(parent)))
                       for (below, *_), (occ, rows, _, parent, _)
                       in zip(plan.sectors, plan.sectors[1:])]
            sizes = [max(map(math.prod, slot)) for slot in zip(*shapes)]
            self.flat = [a if a.size >= n else np.empty(n, dtype=complex)
                         for a, n in zip(self.flat, sizes)]
            self.views = [[a[:math.prod(shape)].reshape(shape) for a, shape in zip(self.flat, step)]
                          for step in shapes]
            self.key = key
        return self.views


class _ScratchPool(threading.local):
    """Per thread, the scratch no running ``_sector_blocks`` holds."""

    def __init__(self) -> None:
        self.idle: list[_Scratch] = []


_scratch_pool = _ScratchPool()


def _sector_blocks(stack: np.ndarray, top: int, cutoff: int) -> Iterator[tuple]:
    """Sectors 0..top of the Fock-space lift of each mode matrix of a stack
    ``(T, n, n)``, in order and one at a time (each is built from the one
    below), each as its row and column occupation tuples (lexicographic, as
    a FockArena lists them) and its blocks ``(T, rows, cols)``, <s|U|t>,
    built from U|0> = |0> by
        U|t> = t_j^{-1/2} (sum_k conj(M_jk) c_k^dag) U|t - e_j>.
    The rows are the tuples of a FockArena with ``cutoff`` and the columns
    the whole sector: the arena rows of the full blocks, and the full blocks
    themselves for a cutoff above ``top``.

    Each sector is one array pass: the terms of every mode k form one
    ``(k, rows, T, cols)`` array, summed over k in mode order from 0 as a
    loop over the modes sums them.  With the stack between rows and columns,
    each matrix runs the same elementwise operations in the same order as a
    stack of one, and each block is C-contiguous, so every matrix reaches
    BLAS with unit column stride.

    A sector step allocates nothing: it gathers, scales and sums in a
    ``_Scratch`` of three flat arrays (gather, terms, block), taken from the
    thread's idle ones on entry and returned on close, so two live
    generators, or two threads, never share one.  Each array grows to the
    largest sector it has served and is never shrunk: a thread keeps about
    the working set of its largest call, once per generator it runs at a
    time.  A yielded block is a view of that scratch, valid until the
    generator advances; a caller that keeps it copies it.
    """
    plan = _sector_plan(stack.shape[-1], top, cutoff)
    # coef[k, T, t] = conj(M_jk) / sqrt(t_j), j the mode column t lowers
    coef = np.conj(stack).transpose(2, 0, 1)[..., plan.mode] * plan.inv_sqrt_t
    idle = _scratch_pool.idle
    scratch = idle.pop() if idle else _Scratch()
    try:
        views = scratch.sector_views(plan, cutoff, len(stack))
        block = views[0][2]
        block.fill(1.0)
        yield plan.sectors[0][0], plan.cols[:1], block.transpose(1, 0, 2)
        for (occ, rows, sqrt_s, parent, columns), (parents, terms, next_block) in zip(
                plan.sectors[1:], views[1:]):
            # <s|c_k^dag|phi> = sqrt(s_k) <s - e_k|phi>, with phi = U|t - e_j>;
            # the indices are in range by construction, and mode="clip" lets
            # np.take write to out unbuffered
            np.take(block, parent, axis=-1, out=parents, mode="clip")
            np.take(parents, rows, axis=0, out=terms, mode="clip")
            np.multiply(sqrt_s, terms, out=terms)
            np.multiply(terms, coef[:, None, :, columns], out=terms)
            block = terms.sum(axis=0, out=next_block)
            yield occ, plan.cols[columns], block.transpose(1, 0, 2)
    finally:
        _scratch_pool.idle.append(scratch)


def _apply_sectors(unitaries, amps: np.ndarray, top: int, arena: FockArena) -> np.ndarray:
    """The one sector applier: P U on amplitudes ``(K, n_columns)`` on the
    plan's columns of sectors 0..top, for each of a sequence of T
    ModeUnitary, whose matrices it stacks ``(T, n, n)`` for the blocks; the
    result ``(T, K, total_dim)`` is on the arena.  Each sector's blocks act
    on its columns as one ``(1, cols)`` product per row and matrix, written
    to that sector's slice of one ``(T, K, 1, rows)`` array, and every
    sector's rows reach the arena in one scatter."""
    if any(u.n_modes != arena.n_modes for u in unitaries):
        raise ValueError("mode count mismatch between unitary and arena")
    stack = np.reshape([u.matrix for u in unitaries], (-1,) + (arena.n_modes,) * 2)
    plan = _sector_plan(arena.n_modes, top, arena.cutoff)
    prods = np.empty((len(stack), len(amps), 1, len(plan.row_index)), dtype=complex)
    start = 0
    for (occ, _, block), (*_, columns) in zip(_sector_blocks(stack, top, arena.cutoff),
                                              plan.sectors):
        np.matmul(amps[:, None, columns], np.swapaxes(block, -1, -2)[:, None],
                  out=prods[..., start:start + len(occ)])
        start += len(occ)
    out = np.zeros((len(stack), len(amps), arena.total_dim), dtype=complex)
    out[..., plan.row_index] = prods[..., 0, :]
    return out


def _lift_rows(unitaries, rows: np.ndarray, arena: FockArena) -> np.ndarray:
    """P U P on arena amplitude rows, sector by sector, without the dim x dim
    matrix: for a sequence of T ModeUnitary and rows ``(K, dim)``, the rows
    after each unitary, ``(T, K, dim)``; one unitary is ``[m]``.  Only the
    sectors up to the rows' top occupied one are built.  An arena row is 0
    on every tuple outside the arena, so P U P psi = P U psi: the rows are
    read on the sectors' full columns, with 0 on the columns outside the
    arena, so no sector tail is dropped: the one loss of P U P is the leak
    past the arena, which the row check sees.  Each row is its one-row call,
    and from two modes up each unitary its one-unitary call, bit for bit."""
    occupied = np.any(rows != 0, axis=0)
    top = int(arena.occupation_table().sum(axis=1)[occupied].max(initial=0))
    plan = _sector_plan(arena.n_modes, top, arena.cutoff)
    amps = np.zeros((len(rows), len(plan.cols)), dtype=complex)
    amps[:, plan.inside] = rows[:, plan.row_index]
    return _apply_sectors(unitaries, amps, top, arena)


def _tail_bound(mean: float, n: int) -> float:
    """pmf(n) (n+1)/(n+1-mean) of Poisson(mean), formed in logs: for
    n + 1 > mean, where the geometric series of ratio mean/(n+1) dominates
    the tail past pmf(n), a bound on P(N >= n)."""
    return (n + 1) / (n + 1 - mean) * math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def _sector_tail_bound(mean: float, top: int) -> int:
    """The first n <= ``top`` where ``_tail_bound(mean, n)`` fits
    SECTOR_TAIL_EPS, else ``top``: one walk up from max(1, int(mean)), or
    from ``top`` when the mean lies above it, so n + 1 > mean at each step."""
    if mean <= 0.0 or top <= 0:
        return 0
    n = max(1, int(min(mean, top)))
    while n < top and _tail_bound(mean, n) > SECTOR_TAIL_EPS:
        n += 1
    return n


def transform_coherent_exact(unitaries, alphas, arena: FockArena) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes of each lifted unitary applied to each |alpha>, projected
    to the arena *after* the transform, and the tail each component drops.

    ``unitaries`` is a sequence of T ModeUnitary and ``alphas`` has shape
    ``(K, n_modes)``, K = 0 included, for rows ``(T, K, total_dim)`` and
    tails ``(K,)``.  The work on the input (sector bounds, tails, coherent
    columns) is done once for the whole sequence, and each sector block is
    built for all T at once.  Each of the K rows is its one-component call
    bit for bit (sectors above its own bound meet zero amplitudes), and from
    two modes up each of the T is its one-matrix call; one mode's blocks are
    1 x 1, and numpy rounds the lone complex product of a stack of one
    without a fused multiply-add, so there the last bit can differ.  A
    non-finite amplitude raises ``ValueError``.

    The lift conserves total photon number, so it is exact on every full
    sector.  Evaluating it sector by sector on the untruncated coherent
    state and projecting afterwards gives P U|alpha>; the dense P U P on a
    truncated input would miss the amplitude that U carries into the arena
    from outside it.  Component i is kept up to its sector bound n_i, where
    a bound on its Poisson tail drops below ``SECTOR_TAIL_EPS``, or to the
    arena's top sector n_modes*(cutoff-1), above which no arena tuple lies,
    when that comes first.  Its tail is tail_i >= P(N_i > n_i), what it
    drops past n_i: 0 at a zero mean or at the top, else ``_tail_bound`` at
    n_i + 1, where n_i + 2 > mean_i.  Only the arena's rows of each block
    are built (from every column of the sector).
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.shape[1:] != (arena.n_modes,) or not np.isfinite(alphas).all():
        raise ValueError("need finite alphas of shape (K, n_modes)")
    with np.errstate(over="ignore"):  # a square past the float range: an infinite mean
        means = np.sum(np.abs(alphas) ** 2, axis=1)
    last = arena.n_modes * (arena.cutoff - 1)  # the arena's top sector
    n_max = np.array([_sector_tail_bound(mean, last) for mean in means], dtype=int)
    tails = np.array([0.0 if n in (0, last) else _tail_bound(mean, n + 1)
                      for mean, n in zip(means, n_max)])
    top = int(n_max.max(initial=0))
    plan = _sector_plan(arena.n_modes, top, arena.cutoff)
    amps = _coherent_rows(alphas, plan.cols)
    amps[plan.sector > n_max[:, None]] = 0.0
    return _apply_sectors(unitaries, amps, top, arena), tails


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
