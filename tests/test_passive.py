import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bselab import passive
from bselab.hilbert import FockArena, TruncationError
from bselab.passive import (
    SECTOR_TAIL_EPS,
    ModeUnitary,
    _lift_rows,
    _sector_tail_bound,
    _tail_bound,
    beam_splitter_matrix,
    transform_coherent_exact,
    transform_ensemble,
)
from bselab.states import CoherentEnsemble, _coherent_rows, coherent, fock
from bselab.theoremlab import haar_unitary
from reference import (
    annihilation_matrix,
    conjugation_residual,
    ensemble_to_density,
    lift_unitary,
    linear_sector_tail_bound,
)

RT2 = np.sqrt(2.0) / 2.0
#: a top sector no walk in these tests reaches
UNBOUNDED = 10**9


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_exact_transform_rejects_non_finite_amplitudes(value):
    # not an OverflowError or a float-to-int error from the sector bound
    with pytest.raises(ValueError, match="finite"):
        transform_coherent_exact([beam_splitter_matrix(0.3)], [[value, 0.0]], FockArena(2, 4))


def test_mode_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        ModeUnitary(np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_mode_unitary_rejects_non_finite(value):
    with pytest.raises(ValueError):
        ModeUnitary(np.full((2, 2), value))
    with pytest.raises(ValueError):
        ModeUnitary(np.array([[value, 0.0], [0.0, 1.0]]))


def test_beam_splitter_fifty_fifty():
    m = beam_splitter_matrix(np.pi / 4)
    expected = np.array([[RT2, RT2], [-RT2, RT2]])
    assert np.abs(m.matrix - expected).max() <= 1e-15


def test_beam_splitter_identity_at_zero():
    m = beam_splitter_matrix(0.0, 0.0, 0.0)
    assert np.abs(m.matrix - np.eye(2)).max() == 0.0


def test_beam_splitter_det_one_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        theta, phi0, phi1 = rng.uniform(-np.pi, np.pi, 3)
        det = np.linalg.det(beam_splitter_matrix(theta, phi0, phi1).matrix)
        assert abs(det - 1.0) <= 1e-12


def test_lift_identity_is_identity():
    arena = FockArena(2, 5)
    u = lift_unitary(ModeUnitary(np.eye(2)), arena)
    assert np.abs(u.matrix - np.eye(arena.total_dim)).max() <= 1e-12
    assert conjugation_residual(u, ModeUnitary(np.eye(2)), 0) <= 1e-12


def test_lift_mode_count_mismatch():
    with pytest.raises(ValueError):
        lift_unitary(ModeUnitary(np.eye(3)), FockArena(2, 4))


@pytest.mark.parametrize("make, match", [
    (lambda: ModeUnitary(np.ones((2, 3))), "mode matrix must be square"),
    (lambda: transform_coherent_exact([beam_splitter_matrix(0.3)], [[0.1]], FockArena(1, 4)),
     "mode count mismatch between unitary and arena"),
    (lambda: transform_ensemble(CoherentEnsemble(1, [1.0], [[0.1]]), beam_splitter_matrix(0.3)),
     "mode count mismatch between ensemble and unitary"),
], ids=["non-square", "unitary-arena", "ensemble-unitary"])
def test_malformed_passive_input_is_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_vacuum_invariance_fifty_fifty():
    arena = FockArena(2, 8)
    u = lift_unitary(beam_splitter_matrix(np.pi / 4), arena)
    dev = np.abs(u.apply_to_vector(fock(arena, (0,) * arena.n_modes)) - fock(arena, (0,) * arena.n_modes))
    assert dev.max() <= 1e-10


def test_fifty_fifty_splits_single_photon():
    arena = FockArena(2, 4)
    u = lift_unitary(beam_splitter_matrix(np.pi / 4), arena)
    out = u.apply_to_vector(fock(arena, (1, 0)))
    expected = np.zeros(arena.total_dim, complex)
    expected[arena.encode((1, 0))] = RT2
    expected[arena.encode((0, 1))] = RT2
    assert np.abs(out - expected).max() <= 1e-9


def test_conjugation_residual_fifty_fifty():
    arena = FockArena(2, 10)
    m = beam_splitter_matrix(np.pi / 4, 0.3, -1.1)
    u = lift_unitary(m, arena)
    for mode in range(2):
        assert conjugation_residual(u, m, mode) <= 1e-8


def test_conjugation_residual_blows_up_at_boundary():
    # without the protected-subspace restriction the truncated conjugation
    # picks up O(1) errors at the cutoff boundary
    arena = FockArena(2, 6)
    m = beam_splitter_matrix(np.pi / 4)
    u = lift_unitary(m, arena)
    conj = u.matrix @ annihilation_matrix(arena, 0) @ u.matrix.conj().T
    target = sum(m.matrix[0, k] * annihilation_matrix(arena, k) for k in range(2))
    assert np.abs(conj - target).max() > 1e-2


def test_lifted_row_keeps_vacuum_and_loses_only_clipped_weight():
    # P U P is unitary on the sectors below the cutoff and a contraction on
    # the clipped ones, so a row loses at most its weight in those sectors
    arena = FockArena(2, 8)
    u = lift_unitary(beam_splitter_matrix(0.7, 0.2, 0.9), arena)
    vac = fock(arena, (0,) * arena.n_modes)
    assert np.abs(u.matrix @ vac - vac).max() <= 1e-10

    psi = coherent(arena, [0.6, -0.2 + 0.4j])
    out = u.matrix @ psi
    loss = np.linalg.norm(psi) ** 2 - np.linalg.norm(out) ** 2
    clipped = float(np.sum(np.abs(psi[arena.occupation_table().sum(axis=1) >= 8]) ** 2))
    assert clipped > 0.0
    assert -1e-14 <= loss <= clipped + 1e-14


def test_lifted_single_photon_row_is_bell_like():
    arena = FockArena(2, 4)
    u = lift_unitary(beam_splitter_matrix(np.pi / 4), arena)
    out = u.matrix @ fock(arena, (1, 0))
    bell = np.zeros(arena.total_dim, complex)
    bell[arena.encode((1, 0))] = RT2
    bell[arena.encode((0, 1))] = RT2
    assert np.abs(np.outer(out, out.conj()) - np.outer(bell, bell.conj())).max() <= 1e-9


def test_transform_ensemble_fifty_fifty_example():
    ens = CoherentEnsemble(2, np.array([1.0]), np.array([[1.0, 0.0]], complex))
    out = transform_ensemble(ens, beam_splitter_matrix(np.pi / 4))
    assert np.abs(out.alphas[0] - np.array([RT2, RT2])).max() <= 1e-14
    assert np.array_equal(out.weights, ens.weights)


def test_transform_ensemble_identity_and_round_trip():
    rng = np.random.default_rng(5)
    alphas = rng.uniform(-1, 1, (3, 2)) + 1j * rng.uniform(-1, 1, (3, 2))
    ens = CoherentEnsemble(2, rng.dirichlet(np.ones(3)), alphas)

    same = transform_ensemble(ens, ModeUnitary(np.eye(2)))
    assert np.abs(same.alphas - ens.alphas).max() == 0.0

    m = haar_unitary(2, rng)
    back = transform_ensemble(transform_ensemble(ens, m), m.inverse())
    assert np.abs(back.alphas - ens.alphas).max() <= 1e-12


def test_transform_ensemble_preserves_photon_expectation():
    rng = np.random.default_rng(9)
    for _ in range(10):
        alphas = rng.uniform(-1, 1, (4, 3)) + 1j * rng.uniform(-1, 1, (4, 3))
        ens = CoherentEnsemble(3, rng.dirichlet(np.ones(4)), alphas)
        out = transform_ensemble(ens, haar_unitary(3, rng))
        assert np.all(out.weights >= 0)
        n_in, n_out = (e.weights @ np.sum(np.abs(e.alphas) ** 2, axis=1) for e in (ens, out))
        assert abs(n_out - n_in) <= 1e-12


@st.composite
def _ensemble_and_two_maps(draw):
    n_modes = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    if sum(weights) == 0.0:
        weights[0] = 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alphas = rng.standard_normal((k, n_modes)) + 1j * rng.standard_normal((k, n_modes))
    ens = CoherentEnsemble(n_modes, np.array(weights), alphas)
    return ens, haar_unitary(n_modes, rng), haar_unitary(n_modes, rng)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=_ensemble_and_two_maps())
def test_transform_ensemble_closes_under_composition(case):
    # M1 then M2 is the passive map M1 M2: weights stay bit for bit, and
    # the amplitudes agree to roundoff
    ens, m1, m2 = case
    twice = transform_ensemble(transform_ensemble(ens, m1), m2)
    once = transform_ensemble(ens, ModeUnitary(m1.matrix @ m2.matrix))
    assert np.array_equal(twice.weights, ens.weights)
    assert np.abs(twice.alphas - once.alphas).max() <= 1e-14


def test_cross_pipeline_consistency_truncation_safe():
    # density route and closed-form ensemble route agree within 1e-7
    # at a truncation-safe cutoff
    rng = np.random.default_rng(21)
    arena = FockArena(2, 20)
    for _ in range(5):
        alphas = 0.7 * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
        ens = CoherentEnsemble(2, rng.dirichlet(np.ones(2)), alphas)
        m = haar_unitary(2, rng)
        rows = coherent(arena, ens.alphas)
        lifted = rows @ lift_unitary(m, arena).matrix.T
        via_rows = (ens.weights * lifted.T) @ lifted.conj()
        via_ensemble = ensemble_to_density(transform_ensemble(ens, m), arena)
        assert np.abs(via_rows - via_ensemble.matrix).max() <= 1e-7


def test_sector_exact_transform_matches_dense_lift():
    rng = np.random.default_rng(31)
    arena = FockArena(2, 18)
    m = haar_unitary(2, rng)
    alpha = np.array([0.8 + 0.2j, -0.3 + 0.6j])
    dense = lift_unitary(m, arena).apply_to_vector(coherent(arena, alpha))
    exact = transform_coherent_exact([m], alpha[None], arena)[0][0, 0]
    assert np.abs(dense - exact).max() <= 1e-7
    closed = coherent(arena, alpha @ np.conj(m.matrix))
    assert np.abs(exact - closed).max() <= 1e-10


def test_lifts_are_vacuum_invariant_for_random_unitaries():
    rng = np.random.default_rng(17)
    arena = FockArena(2, 6)
    for _ in range(10):
        u = lift_unitary(haar_unitary(2, rng), arena)
        dev = np.abs(u.apply_to_vector(fock(arena, (0,) * arena.n_modes)) - fock(arena, (0,) * arena.n_modes))
        assert dev.max() <= 1e-10


#: means 0-2 finely (where the walk must find the least n), 0-30 by 0.01 and
#: 30-400 by 0.5, against no top sector, 0 and the tops of the 2- and 3-mode
#: arenas campaigns and sweeps use (2 modes at cutoff 4: 6; 3 at cutoff 8:
#: 21; 2 at cutoff 22: 42)
TAIL_MEANS = np.unique(np.concatenate((np.linspace(0.0, 2.0, 4001), np.linspace(0.0, 30.0, 3001),
                                       np.linspace(30.0, 400.0, 741))))
TAIL_TOPS = (0, 6, 21, 42, UNBOUNDED)


def _tail_bounds(bound):
    return np.array([[bound(float(mean), top) for top in TAIL_TOPS] for mean in TAIL_MEANS])


def test_sector_tail_bound_is_sound_by_pdtrc():
    # the exact tail P(N >= n) = pdtrc(n - 1, mean) of the returned n is
    # within SECTOR_TAIL_EPS unless n is the top (or the mean is 0, with
    # nothing past sector 0); below the top, the tail the cross-check reads,
    # the bound at n + 1, is at least the exact P(N > n) = pdtrc(n, mean)
    n = _tail_bounds(_sector_tail_bound)
    tail = scipy.special.pdtrc(n - 1, TAIL_MEANS[:, None])
    sound = (tail <= SECTOR_TAIL_EPS) | (n == np.array(TAIL_TOPS)) | (TAIL_MEANS[:, None] == 0.0)
    assert sound.all(), list(zip(*np.nonzero(~sound)))[:5]
    kept = [(mean, k) for mean, row in zip(TAIL_MEANS, n) for k, top in zip(row, TAIL_TOPS)
            if mean > 0.0 and k < top]
    dropped = np.array([_tail_bound(float(mean), int(k) + 1) for mean, k in kept])
    exact = scipy.special.pdtrc(*np.array(kept)[:, ::-1].T)
    assert len(kept) > 10000 and (exact <= dropped).all()


def test_sector_bounds_drop_no_tail_at_a_zero_mean_or_the_top():
    # an arena of 2 modes at cutoff 4 has top sector 6: a zero mean keeps
    # sector 0 alone, and a mean whose walk reaches 6 (3.0), lies above it
    # (7.0) or overflows (1e200 squared) keeps the whole arena, since no
    # sector above 6 holds an arena tuple; that tail of 0 holds for route 2
    arena = FockArena(2, 4)
    alphas = np.array([[0.0, 0.0], [1.5, np.sqrt(0.75)], [2.0, np.sqrt(3.0)], [1e200, 0.0]])
    with np.errstate(over="ignore"):
        means = np.sum(np.abs(alphas) ** 2, axis=1)
    assert [_sector_tail_bound(mean, 6) for mean in means] == [0, 6, 6, 6]
    m = haar_unitary(2, np.random.default_rng(4))
    out, tails = transform_coherent_exact([m], alphas, arena)
    assert tails.tolist() == [0.0] * 4
    # below the top, the tail is the bound at n + 1
    n = _sector_tail_bound(0.25, 26)
    (tail,) = transform_coherent_exact([m], np.array([[0.3, 0.4j]]), FockArena(2, 14))[1]
    assert n < 26 and tail == _tail_bound(0.25, n + 1) >= scipy.special.pdtrc(n, 0.25) > 0.0
    closed = _coherent_rows(alphas[1:3] @ np.conj(m.matrix), arena.occupation_table())
    assert np.abs(out[0, 1:3] - closed).max() <= 1e-14


def test_exact_transform_of_no_component_is_no_row():
    # K = 0: every unitary gives no row and there is no tail, as _lift_rows
    # gives no row for no row
    arena = FockArena(2, 4)
    ms = [beam_splitter_matrix(0.3), beam_splitter_matrix(0.7)]
    rows, tails = transform_coherent_exact(ms, np.zeros((0, 2)), arena)
    assert rows.shape == (2, 0, arena.total_dim) and tails.shape == (0,)
    assert _lift_rows(ms, np.zeros((0, arena.total_dim)), arena).shape == rows.shape


def test_sector_tail_bound_is_at_most_one_past_the_linear_search():
    # the closed-form bound of the tail can need one sector more than the
    # exact tail (mean 27.4, no top: 90 against 89), never more, and on no
    # mean up to 2
    n, least = _tail_bounds(_sector_tail_bound), _tail_bounds(linear_sector_tail_bound)
    assert ((least <= n) & (n <= least + 1)).all()
    assert np.mean(n == least) >= 0.995
    assert (n[TAIL_MEANS <= 2.0] == least[TAIL_MEANS <= 2.0]).all()
    assert _sector_tail_bound(27.4, UNBOUNDED) == linear_sector_tail_bound(27.4, UNBOUNDED) + 1


@pytest.mark.parametrize("mean, n", [(1e-25, 1), (0.5, 9), (3.0, 12), (21.0, 40), (150.0, 230)])
def test_sector_tail_bound_keeps_a_tail_equal_to_the_budget(monkeypatch, mean, n):
    # the walk stops at the first n whose tail bound pmf(n) (n+1)/(n+1-mean)
    # is at most the budget, equality included: with the budget set to the
    # bound at n, formed as the walk forms it, the walk stops at n
    bound = (n + 1) / (n + 1 - mean) * math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
    monkeypatch.setattr(passive, "SECTOR_TAIL_EPS", bound)
    assert _sector_tail_bound(mean, UNBOUNDED) == n


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.floats(0.0, 1000.0), st.integers(0, 2000))
@example(1e-9, UNBOUNDED)
def test_sector_tail_bound_is_sound_and_near_the_linear_search_on_any_mean(mean, top):
    n, least = _sector_tail_bound(mean, top), linear_sector_tail_bound(mean, top)
    assert least <= n <= least + 1
    assert n == top or mean == 0.0 or scipy.special.pdtrc(n - 1, mean) <= SECTOR_TAIL_EPS


def test_sector_tail_bound_stops_at_the_arena_top():
    # a mean at or above the arena's top sector returns that top with no
    # walk: the tail of every sector the arena keeps is at least about 1/2.
    # An amplitude of 3000 on 2 modes at cutoff 4 (top sector 6) keeps no
    # arena amplitude; an unbounded walk from its mean, 9e6, would go to
    # sector 9,027,806.  The square of 1e200 overflows to an infinite mean,
    # with no warning from either entry point
    for top in (0, 1, 6, 21, 42):
        for mean in (float(top), top + 0.5, 3000.0, np.inf):
            assert _sector_tail_bound(mean, top) == top, (mean, top)
    arena = FockArena(2, 4)
    out = transform_coherent_exact([beam_splitter_matrix(0.3)], [[3000.0, 0.0]], arena)[0]
    assert out.shape == (1, 1, arena.total_dim) and not out.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = transform_coherent_exact([beam_splitter_matrix(0.3)], [[1e200, 0.0]], arena)[0]
        with pytest.raises(TruncationError, match=r"leakage 1\.000e\+00"):
            coherent(arena, [[1e200, 0.0]])
    assert not out.any()
