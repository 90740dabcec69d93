import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bselab import passive
from bselab.hilbert import FockArena
from bselab.passive import (
    SECTOR_TAIL_EPS,
    ModeUnitary,
    _sector_tail_bound,
    beam_splitter_matrix,
    transform_coherent_exact,
    transform_ensemble,
)
from bselab.states import CoherentEnsemble, _poisson_tail, coherent, fock
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
    exact = transform_coherent_exact([m], alpha[None], arena)[0, 0]
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


def test_sector_tail_bound_matches_pdtrc_reference():
    # the smallest n whose Poisson tail P(N >= n) = pdtrc(n - 1, mean) is
    # within SECTOR_TAIL_EPS, found by a plain upward search, or the top
    # sector when that comes first (0 and the 2- and 3-mode arena tops)
    def reference(mean):
        if mean <= 0.0:
            return 0
        n = 1
        while scipy.special.pdtrc(n - 1, mean) > SECTOR_TAIL_EPS:
            n += 1
        return n

    for mean in np.linspace(0.0, 30.0, 3001):
        bound = reference(float(mean))
        for top in (0, 6, 21, 42, UNBOUNDED):
            assert _sector_tail_bound(float(mean), top) == min(bound, top), (mean, top)


def test_sector_tail_bound_matches_linear_search(monkeypatch):
    # 0, vanishing means down to the least subnormal, integer means (where
    # the walk starts at the mean), means past the top sector of every arena
    # the campaigns and sweeps use (3 modes at cutoff 8: 21; 2 at cutoff 22:
    # 42) and means from 100 on.  Below a mean of about 450 the pmf walk
    # leaves at most 4 exact tails to evaluate.
    means = np.concatenate(([0.0, 5e-324, 1e-300, 1e-9, 1e-3], np.linspace(0.0, 64.0, 2561),
                            np.arange(1.0, 65.0), [100.0, 200.0, 300.0, 400.0],
                            np.linspace(100.0, 400.0, 61) + 0.3))
    tails = []

    def counted(n, mean):
        tails.append(n)
        return _poisson_tail(n, mean)

    monkeypatch.setattr(passive, "_poisson_tail", counted)
    for mean in means:
        for top in (21, 42, UNBOUNDED):
            tails.clear()
            bound = linear_sector_tail_bound(float(mean), top)
            assert _sector_tail_bound(float(mean), top) == bound, (mean, top)
            assert len(tails) <= 4, (mean, top)


@pytest.mark.parametrize("mean, n", [(1e-25, 1), (0.5, 9), (3.0, 12), (21.0, 40), (150.0, 230)])
def test_sector_tail_bound_keeps_a_tail_equal_to_the_budget(monkeypatch, mean, n):
    # the bound is the first n whose tail is at most the budget, equality
    # included: with the budget set to the tail at n, the bound is n
    monkeypatch.setattr(passive, "SECTOR_TAIL_EPS", _poisson_tail(n, mean))
    assert _sector_tail_bound(mean, UNBOUNDED) == n


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.floats(0.0, 1000.0), st.integers(0, 2000))
@example(1e-9, UNBOUNDED)
def test_sector_tail_bound_bisection_matches_linear_search_on_any_mean(mean, top):
    assert _sector_tail_bound(mean, top) == linear_sector_tail_bound(mean, top)


def test_sector_tail_bound_stops_at_the_arena_top(monkeypatch):
    # a mean far above the arena's top sector (2 modes, cutoff 4: sector 6)
    # needs no walk: the tail of every sector the arena keeps is about 1.
    # An unbounded walk goes to sector 9,027,802, with 1940 exact tails;
    # the square of 1e200 overflows to an infinite mean
    tails = []

    def counted(n, mean):
        tails.append(n)
        return _poisson_tail(n, mean)

    monkeypatch.setattr(passive, "_poisson_tail", counted)
    arena = FockArena(2, 4)
    assert _sector_tail_bound(3000.0, 6) == _sector_tail_bound(np.inf, 6) == 6
    out = transform_coherent_exact([beam_splitter_matrix(0.3)], [[3000.0, 0.0]], arena)
    assert len(tails) <= 4
    assert out.shape == (1, 1, arena.total_dim) and not out.any()
    with np.errstate(over="ignore"):
        out = transform_coherent_exact([beam_splitter_matrix(0.3)], [[1e200, 0.0]], arena)
    assert not out.any()
