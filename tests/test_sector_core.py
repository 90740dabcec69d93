"""Property tests for the photon-number-sector builder (`_sector_blocks`,
arena rows against full columns) and its one applier, through both callers:
P U P on amplitude rows (`_lift_rows`) and the exact coherent transform
(`transform_coherent_exact`).  The dense lift they are checked against
(`lift_unitary`) is the tests' reference, and the builder is pinned byte for
byte to a loop over the modes (`loop_sector_blocks`).

Unitaries are Haar draws and degenerate cases: +-I, mode permutations and
eigenphases at +-pi, each also in a rotated eigenbasis.

The builder runs in scratch reused per thread; interleaved shapes, zipped
builders and concurrent threads each give the bytes of a call made alone.
"""

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bselab.hilbert import FockArena, _occupation_table
from bselab.passive import (
    ModeUnitary,
    _SectorPlan,
    _lift_rows,
    _sector_blocks,
    _sector_plan,
    beam_splitter_matrix,
    transform_coherent_exact,
)
from bselab.states import _coherent_rows, fock
from bselab.theoremlab import haar_unitary
from reference import (
    SUBSPACE_UNITARITY_TOL,
    VACUUM_TOL,
    conjugation_residual,
    full_sector_transform,
    hypercube_sector_plan,
    lift_unitary,
    loop_sector_blocks,
    permanent_block,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)


def _degenerate(n: int) -> list[np.ndarray]:
    out = [np.eye(n), -np.eye(n)]
    out += [np.eye(n)[list(p)] for p in itertools.permutations(range(n))]
    for signs in itertools.product((1.0, -1.0), repeat=n):
        # exp(+i pi) and exp(-i pi) differ in the sign of their roundoff
        # imaginary part, so np.angle puts one at +pi and the other at -pi
        out.append(np.diag(np.exp(1j * np.pi * np.array(signs))))
    out.append(np.diag(np.exp(1j * np.pi * np.linspace(-1.0, 1.0, n))))
    return out


@st.composite
def unitaries(draw, n: int) -> ModeUnitary:
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        return haar_unitary(n, rng)
    base = draw(st.sampled_from(_degenerate(n)))
    if draw(st.booleans()):
        # the same spectrum in a rotated eigenbasis
        v = haar_unitary(n, rng).matrix
        base = v @ base @ v.conj().T
    return ModeUnitary(base)


amplitudes = st.one_of(
    st.just(0j),
    st.builds(complex, st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
)


def _unitarity_dev(block: np.ndarray) -> float:
    return float(np.abs(block.conj().T @ block - np.eye(len(block))).max())


@PROPERTY
@given(st.sampled_from([2, 3]).flatmap(unitaries))
def test_sector_blocks_match_permanent_reference(m):
    table = FockArena(m.n_modes, 6).occupation_table()
    for n, (occ, cols, (block,)) in enumerate(_sector_blocks(m.matrix[None], 5, 6)):
        assert np.array_equal(occ, table[table.sum(axis=1) == n])
        assert np.array_equal(cols, occ)
        assert np.abs(block - permanent_block(m.matrix, occ)).max() <= 1e-12


@PROPERTY
@given(st.sampled_from([(2, 42), (3, 24)]).flatmap(
    lambda shape: st.tuples(st.just(shape[1]), unitaries(shape[0]))))
def test_sector_blocks_stay_unitary_on_big_sectors(case):
    # the column recursion lowers the most occupied mode; lowering the first
    # occupied one instead drifts past 1e-12 on sectors this big
    top, m = case
    for _, _, (block,) in _sector_blocks(m.matrix[None], top, top + 1):
        assert _unitarity_dev(block) <= 1e-12


@PROPERTY
@given(st.sampled_from([(2, 12), (3, 8), (4, 4)]).flatmap(
    lambda shape: st.tuples(st.just(shape), unitaries(shape[0]))))
def test_arena_sector_blocks_are_full_sub_blocks(case):
    # the recursion closed on arena rows gives the arena rows of the full
    # blocks: bit for bit on the sectors the arena holds whole, and within
    # the roundoff of a wider elementwise loop on the clipped ones above
    (n_modes, cutoff), m = case
    top = n_modes * (cutoff - 1)
    for n, ((occ, cols, (rows,)), (full_occ, full_cols, (full,))) in enumerate(zip(
            _sector_blocks(m.matrix[None], top, cutoff),
            _sector_blocks(m.matrix[None], top, top + 1))):
        kept = full_occ.max(axis=1) < cutoff
        assert np.array_equal(full_cols, full_occ) and np.array_equal(cols, full_cols)
        assert np.array_equal(occ, full_occ[kept])
        if n <= cutoff - 1:
            assert np.array_equal(rows, full)
        else:
            assert np.abs(rows - full[kept]).max() <= 1e-15


def _byte_pin_matrices(n: int) -> list[np.ndarray]:
    out = [np.eye(n), np.eye(n)[::-1], np.diag(np.exp(1j * np.pi * (-1.0) ** np.arange(n)))]
    if n >= 2:
        # splitters on modes 0 and 1; cos(pi/2) and sin(pi) are roundoff
        for theta in (0.0, np.pi / 4, np.pi / 2, np.pi):
            m = np.eye(n, dtype=complex)
            m[:2, :2] = beam_splitter_matrix(theta).matrix
            out.append(m)
    rng = np.random.default_rng(n)
    return out + [haar_unitary(n, rng).matrix for _ in range(3)]


@pytest.mark.parametrize("n_modes, cutoff", [(1, 9), (2, 6), (3, 4), (4, 3)])
def test_sector_blocks_are_the_per_mode_loop_byte_for_byte(n_modes, cutoff):
    # one array pass over the modes sums their terms in mode order from 0,
    # as the loop does: no byte moves, signed zeros included
    matrices = _byte_pin_matrices(n_modes)
    stacks = [m[None] for m in matrices]
    stacks += [np.array(matrices[i:i + size]) for size in (2, 3, 4)
               for i in range(0, len(matrices) - size + 1, size)]
    for stack in stacks:
        for top in range(n_modes * (cutoff - 1) + 1):
            for (occ, cols, blocks), (ref_occ, ref_cols, ref_blocks) in zip(
                    _sector_blocks(stack, top, cutoff), loop_sector_blocks(stack, top, cutoff),
                    strict=True):
                assert np.array_equal(occ, ref_occ) and np.array_equal(cols, ref_cols)
                assert blocks.shape == ref_blocks.shape
                assert blocks.tobytes() == ref_blocks.tobytes()


@pytest.mark.parametrize("n_modes, cutoff", [(2, 6), (3, 4), (3, 8)])
def test_sector_plan_scatters_every_arena_row_once(n_modes, cutoff):
    # the applier's one scatter writes each arena row of sectors 0..top once,
    # whether the rows are whole sectors (top below cutoff - 1) or clipped
    totals = FockArena(n_modes, cutoff).occupation_table().sum(axis=1)
    for top in (cutoff - 3, cutoff - 2, cutoff - 1, cutoff, n_modes * (cutoff - 1)):
        plan = _sector_plan(n_modes, top, cutoff)
        assert np.array_equal(np.sort(plan.row_index), np.flatnonzero(totals <= top))


def _same(a, b):
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b))
    return a == b


@pytest.mark.parametrize("n_modes, cutoffs", [(1, (1, 2, 9)), (2, (1, 2, 5, 8)),
                                              (3, (1, 2, 4, 6)), (4, (1, 2, 3, 4))])
def test_sector_plan_matches_the_hypercube_reference(n_modes, cutoffs):
    # every field and every sector step, value, dtype and shape, for every
    # top the arena can reach and for the whole-block shape cutoff = top + 1
    shapes = [(top, cutoff) for cutoff in cutoffs for top in range(n_modes * (cutoff - 1) + 1)]
    shapes += [(top, top + 1) for top in range(2 * max(cutoffs))]
    for top, cutoff in shapes:
        plan = _sector_plan(n_modes, top, cutoff)
        ref = hypercube_sector_plan(n_modes, top, cutoff)
        assert len(plan.sectors) == len(ref.sectors) == top + 1
        for step, ref_step in zip(plan.sectors, ref.sectors):
            assert all(_same(a, b) for a, b in zip(step, ref_step, strict=True)), (top, cutoff)
        for name in _SectorPlan._fields[1:]:
            assert _same(getattr(plan, name), getattr(ref, name)), (name, top, cutoff)


def test_sector_plan_rejects_tuples_numpy_cannot_key():
    # 40 modes, sector 3: 11,480 tuples, but 4 ** 40 keys pass intp, as the
    # 4 ** 40 tuples of the hypercube do
    with pytest.raises(ValueError, match="numpy"):
        _sector_plan(40, 3, 2)


def test_sector_plan_builds_no_occupation_table():
    # no hypercube FockArena(n_modes, top + 1) table stays in the cache
    _occupation_table.cache_clear()
    _sector_plan.__wrapped__(3, 9, 4)
    _sector_plan.__wrapped__(2, 30, 31)
    assert _occupation_table.cache_info().currsize == 0


@PROPERTY
@given(st.sampled_from([(2, 4), (2, 7), (3, 5)]).flatmap(
    lambda shape: st.tuples(st.just(shape), unitaries(shape[0]))))
def test_lift_properties(case):
    (n_modes, cutoff), m = case
    arena = FockArena(n_modes, cutoff)
    u = lift_unitary(m, arena)

    vac = fock(arena, (0,) * arena.n_modes)
    assert np.abs(u.apply_to_vector(vac) - vac).max() <= VACUUM_TOL
    for mode in range(n_modes):
        assert conjugation_residual(u, m, mode) <= SUBSPACE_UNITARITY_TOL
    totals = arena.occupation_table().sum(axis=1)
    assert not np.any(u.matrix[totals[:, None] != totals[None, :]])
    table = arena.occupation_table()
    for n in range(n_modes * (cutoff - 1) + 1):
        idx = np.flatnonzero(totals == n)
        block = u.matrix[np.ix_(idx, idx)]
        if n <= 5:
            # P U P: the full-sector block restricted to the arena's tuples
            assert np.abs(block - permanent_block(m.matrix, table[idx])).max() <= 1e-12
        if n <= cutoff - 1:
            assert _unitarity_dev(block) <= 1e-12
        else:
            assert np.linalg.norm(block, 2) <= 1.0 + 1e-12


@PROPERTY
@given(st.sampled_from([(2, 6), (3, 4), (4, 3)]).flatmap(
    lambda shape: st.tuples(
        st.just(shape),
        st.lists(unitaries(shape[0]), min_size=1, max_size=5),
        st.lists(st.lists(amplitudes, min_size=shape[0], max_size=shape[0]),
                 min_size=1, max_size=4),
    )))
def test_lift_rows_is_the_dense_lift(case):
    # P U P on rows, sector by sector up to the rows' top occupied sector;
    # the basis rows run from the vacuum to the arena corner in sector
    # n_modes*(cutoff-1), where P U P clips
    (n_modes, cutoff), ms, rows = case
    arena = FockArena(n_modes, cutoff)
    dense, first = lift_unitary(ms[0], arena).matrix, ms[:1]
    for row in np.eye(arena.total_dim, dtype=complex):
        assert _lift_rows(first, row[None], arena)[0, 0].tobytes() == (dense @ row).tobytes()
    zero = np.zeros((2, arena.total_dim), dtype=complex)
    assert not np.any(_lift_rows(first, zero, arena))
    inputs = _coherent_rows(np.array(rows, dtype=complex), arena.occupation_table())
    assert np.abs(_lift_rows(first, inputs, arena)[0] - inputs @ dense.T).max() <= 1e-15
    # a sequence of T unitaries is T single calls bit for bit, the arena
    # corner included: its block is one row against the sector's full columns
    inputs = np.concatenate([inputs, np.eye(arena.total_dim)[[0, -1]]])
    batch = _lift_rows(ms, inputs, arena)
    assert batch.shape == (len(ms), len(inputs), arena.total_dim)
    for m, out in zip(ms, batch):
        assert out.tobytes() == _lift_rows([m], inputs, arena)[0].tobytes()
    # and each of the K rows is its one-row call bit for bit, whatever the
    # top sector of the rows beside it
    for k, row in enumerate(inputs):
        assert batch[:, k].tobytes() == _lift_rows(ms, row[None], arena)[:, 0].tobytes()


@PROPERTY
@given(st.sampled_from([(2, 12), (3, 6), (4, 4)]).flatmap(
    lambda shape: st.tuples(
        st.just(shape),
        unitaries(shape[0]),
        st.lists(st.lists(amplitudes, min_size=shape[0], max_size=shape[0]),
                 min_size=1, max_size=4),
    )))
def test_exact_transform_properties(case):
    # each of the K rows is its one-component call bit for bit, whatever
    # the sector bounds of the components beside it
    (n_modes, cutoff), m, rows = case
    arena = FockArena(n_modes, cutoff)
    alphas = np.array(rows, dtype=complex)
    batch = transform_coherent_exact([m], alphas, arena)[0][0]
    assert batch.shape == (len(rows), arena.total_dim)
    for alpha, amps in zip(alphas, batch):
        single = transform_coherent_exact([m], alpha[None], arena)[0][0, 0]
        assert amps.tobytes() == single.tobytes()
        # closed-form image, used here only as the reference
        closed = _coherent_rows((alpha @ np.conj(m.matrix))[None], arena.occupation_table())[0]
        assert np.abs(single - closed).max() <= 1e-10


@PROPERTY
@given(st.sampled_from([(2, 8), (2, 14), (3, 6), (3, 8)]).flatmap(
    lambda shape: st.tuples(
        st.just(shape),
        unitaries(shape[0]),
        st.lists(st.lists(amplitudes, min_size=shape[0], max_size=shape[0]),
                 min_size=1, max_size=4),
        st.floats(0.5, 2.0),
    )))
def test_arena_row_transform_matches_full_sectors(case):
    # arena rows only, and no sector above n_modes*(cutoff-1): the same
    # amplitudes as the full blocks projected afterwards, up to the roundoff
    # of a GEMM on another shape
    (n_modes, cutoff), m, rows, scale = case
    arena = FockArena(n_modes, cutoff)
    alphas = scale * np.array(rows, dtype=complex)
    reference = full_sector_transform(m, alphas, arena)
    assert np.abs(transform_coherent_exact([m], alphas, arena)[0][0] - reference).max() <= 1e-15


@PROPERTY
@given(st.sampled_from([(2, 6), (2, 22), (3, 5), (3, 8)]).flatmap(
    lambda shape: st.tuples(
        st.just(shape),
        st.lists(unitaries(shape[0]), min_size=1, max_size=5),
        st.lists(st.lists(amplitudes, min_size=shape[0], max_size=shape[0]),
                 min_size=1, max_size=4),
        st.floats(0.5, 2.0),
    )))
def test_exact_transform_of_a_stack_is_single_calls_bit_for_bit(case):
    # every stack also holds the eigenphases +-pi, and every input a zero
    # amplitude; a stack of one is a sweep of one angle
    (n_modes, cutoff), ms, rows, scale = case
    arena = FockArena(n_modes, cutoff)
    ms = ms + [ModeUnitary(np.diag(np.exp(1j * np.pi * (-1.0) ** np.arange(n_modes))))]
    alphas = scale * np.array(rows + [[0j] + rows[0][1:]], dtype=complex)
    batch = transform_coherent_exact(ms, alphas, arena)[0]
    assert batch.shape == (len(ms), len(alphas), arena.total_dim)
    for m, amps in zip(ms, batch):
        assert amps.tobytes() == transform_coherent_exact([m], alphas, arena)[0][0].tobytes()
    assert transform_coherent_exact(ms[:1], alphas, arena)[0][0].tobytes() == batch[0].tobytes()


def _route_two_calls() -> list:
    """Route 2 on the shapes that meet in one process, each a call that
    returns its rows' bytes: a 3-mode trial at cutoff 8 (T = 1), the 2-mode
    sweep at cutoff 22 (T = 5), the 3-mode retry cutoff 12, and an empty
    T = 0 stack."""
    rng = np.random.default_rng(35)

    def call(n_modes, cutoff, n_stack, modulus):
        ms = [haar_unitary(n_modes, rng) for _ in range(n_stack)]
        alphas = modulus * np.exp(2j * np.pi * rng.random((3, n_modes)))
        arena = FockArena(n_modes, cutoff)
        return lambda: transform_coherent_exact(ms, alphas, arena)[0].tobytes()

    return [call(3, 8, 1, 0.5), call(2, 22, 5, 1.5), call(3, 12, 1, 0.5), call(3, 8, 0, 0.5)]


def _in_fresh_thread(call):
    """``call()`` on a thread of its own, whose scratch no earlier call used."""
    result = []
    thread = threading.Thread(target=lambda: result.append(call()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def test_interleaved_shapes_give_their_bytes_alone():
    # one thread's scratch serves each shape in turn: deeper sectors, more
    # modes, another cutoff, another T and no matrix at all
    calls = _route_two_calls()
    alone = [_in_fresh_thread(call) for call in calls]
    for i in (0, 1, 2, 3, 2, 0, 3, 1, 0):
        assert calls[i]() == alone[i], i


def test_threads_give_the_bytes_of_serial_calls():
    calls = _route_two_calls()[:2]
    serial = [call() for call in calls]
    results = [[], []]

    def work(i):
        for _ in range(20):
            results[i].append(calls[i]())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [[serial[0]] * 20, [serial[1]] * 20]


def test_zipped_sector_recursions_keep_their_own_blocks():
    # a yielded block is a view that stays valid until its generator
    # advances, whatever another live generator of the thread does meanwhile
    rng = np.random.default_rng(7)
    shapes = [(np.array([haar_unitary(3, rng).matrix]), 12, 8),
              (np.array([haar_unitary(3, rng).matrix]), 12, 8),
              (np.array([haar_unitary(2, rng).matrix for _ in range(5)]), 20, 22)]
    alone = [[block.copy() for *_, block in _sector_blocks(*shape)] for shape in shapes]
    for a, b in ((0, 1), (0, 2), (2, 0)):
        pairs = zip(_sector_blocks(*shapes[a]), _sector_blocks(*shapes[b]))
        for n, ((*_, block_a), (*_, block_b)) in enumerate(pairs):
            assert block_a.tobytes() == alone[a][n].tobytes(), (a, n)
            assert block_b.tobytes() == alone[b][n].tobytes(), (b, n)
