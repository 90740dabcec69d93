import numpy as np
import pytest
import scipy.linalg

from bselab.hilbert import FockArena, annihilation_matrix
from bselab.passive import (
    ModeUnitary,
    apply_to_density,
    beam_splitter_matrix,
    conjugation_residual,
    lift_unitary,
    log_unitary,
    transform_coherent_exact,
    transform_ensemble,
)
from bselab.states import CoherentEnsemble, coherent, ensemble_to_density, fock, vacuum
from bselab.theoremlab import haar_unitary

RT2 = np.sqrt(2.0) / 2.0


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


def test_log_unitary_identity_and_principal_branch():
    assert np.abs(log_unitary(ModeUnitary(np.eye(3)))).max() <= 1e-14
    m = ModeUnitary(np.diag([1j, -1j]))
    log = log_unitary(m)
    assert np.abs(log - np.diag([1j * np.pi / 2, -1j * np.pi / 2])).max() <= 1e-14


def test_log_unitary_tie_break_at_pi():
    log = log_unitary(ModeUnitary(-np.eye(2)))
    phases = np.imag(np.diag(log))
    assert np.allclose(phases, np.pi)


def test_log_unitary_round_trip_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = haar_unitary(3, rng)
        log = log_unitary(m)
        assert np.abs(log + log.conj().T).max() <= 1e-12  # anti-Hermitian
        assert np.abs(scipy.linalg.expm(log) - m.matrix).max() <= 1e-10


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
    dev = np.abs(u.apply_to_vector(vacuum(arena).amplitudes) - vacuum(arena).amplitudes)
    assert dev.max() <= 1e-10


def test_fifty_fifty_splits_single_photon():
    arena = FockArena(2, 4)
    u = lift_unitary(beam_splitter_matrix(np.pi / 4), arena)
    out = u.apply_to_vector(fock(arena, (1, 0)).amplitudes)
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


def test_apply_to_density_preserves_vacuum_and_trace():
    arena = FockArena(2, 8)
    u = lift_unitary(beam_splitter_matrix(0.7, 0.2, 0.9), arena)
    rho = apply_to_density(u, vacuum(arena).to_density())
    expected = np.zeros((arena.total_dim,) * 2, complex)
    expected[0, 0] = 1.0
    assert np.abs(rho.matrix - expected).max() <= 1e-10

    psi = coherent(arena, [0.6, -0.2 + 0.4j])
    out = apply_to_density(u, psi.to_density())
    assert abs(out.trace - psi.to_density().trace) <= 1e-10


def test_apply_to_density_single_photon_projector():
    arena = FockArena(2, 4)
    u = lift_unitary(beam_splitter_matrix(np.pi / 4), arena)
    rho = apply_to_density(u, fock(arena, (1, 0)).to_density())
    bell = np.zeros(arena.total_dim, complex)
    bell[arena.encode((1, 0))] = RT2
    bell[arena.encode((0, 1))] = RT2
    assert np.abs(rho.matrix - np.outer(bell, bell.conj())).max() <= 1e-9


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


def test_cross_pipeline_consistency_truncation_safe():
    # density route and closed-form ensemble route agree within 1e-7
    # at a truncation-safe cutoff
    rng = np.random.default_rng(21)
    arena = FockArena(2, 20)
    for _ in range(5):
        alphas = 0.7 * (rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2)))
        ens = CoherentEnsemble(2, rng.dirichlet(np.ones(2)), alphas)
        m = haar_unitary(2, rng)
        via_density = apply_to_density(lift_unitary(m, arena), ensemble_to_density(ens, arena))
        via_ensemble = ensemble_to_density(transform_ensemble(ens, m), arena)
        assert np.abs(via_density.matrix - via_ensemble.matrix).max() <= 1e-7


def test_sector_exact_transform_matches_dense_lift():
    rng = np.random.default_rng(31)
    arena = FockArena(2, 18)
    m = haar_unitary(2, rng)
    alpha = np.array([0.8 + 0.2j, -0.3 + 0.6j])
    dense = lift_unitary(m, arena).apply_to_vector(coherent(arena, alpha).amplitudes)
    exact = transform_coherent_exact(m, alpha, arena)
    assert np.abs(dense - exact).max() <= 1e-7
    closed = coherent(arena, alpha @ np.conj(m.matrix)).amplitudes
    assert np.abs(exact - closed).max() <= 1e-10


def test_lifts_are_vacuum_invariant_for_random_unitaries():
    rng = np.random.default_rng(17)
    arena = FockArena(2, 6)
    for _ in range(10):
        u = lift_unitary(haar_unitary(2, rng), arena)
        dev = np.abs(u.apply_to_vector(vacuum(arena).amplitudes) - vacuum(arena).amplitudes)
        assert dev.max() <= 1e-10
