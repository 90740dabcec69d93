import numpy as np
import pytest

from bselab.hilbert import DensityOperator, FockArena, StateVector, partial_trace
from bselab.passive import ModeUnitary, apply_to_density, beam_splitter_matrix, lift_unitary
from bselab.states import (
    CoherentEnsemble,
    coherent,
    ensemble_to_density,
    fock,
    squeezed_vacuum,
    thermal,
    vacuum,
)
from bselab.witnesses import (
    classicality_report,
    mandel_q,
    min_quadrature_variance,
    negativity_report,
    quadrature_variance,
)


def _bell(arena):
    amps = np.zeros(arena.total_dim, complex)
    amps[arena.encode((1, 0))] = 1 / np.sqrt(2)
    amps[arena.encode((0, 1))] = 1 / np.sqrt(2)
    return DensityOperator(arena, np.outer(amps, amps.conj()))


def test_negativity_of_bell_like_state():
    report = negativity_report(_bell(FockArena(2, 2)), ((0,), (1,)))
    assert report.negativity == pytest.approx(0.5, abs=1e-12)
    assert report.log_negativity == pytest.approx(1.0, abs=1e-12)
    assert report.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert report.verdict == "entangled"


def test_negativity_log_relation_and_product_states():
    arena = FockArena(2, 12)
    rng = np.random.default_rng(14)
    for _ in range(10):
        a = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)
        rho = coherent(arena, [a, b]).to_density()
        report = negativity_report(rho, ((0,), (1,)))
        assert report.negativity <= 1e-12
        assert report.verdict == "separable_by_ppt_nonviolation"
        assert report.log_negativity == pytest.approx(
            np.log2(1 + 2 * report.negativity), abs=1e-12
        )


def test_negativity_invariant_under_local_phase_rotations():
    arena = FockArena(2, 4)
    rho = _bell(arena)
    base = negativity_report(rho, ((0,), (1,))).negativity
    for phi in (0.3, 1.2, 2.9):
        local = ModeUnitary(np.diag([np.exp(1j * phi), 1.0]))
        rotated = apply_to_density(lift_unitary(local, arena), rho)
        rep = negativity_report(rotated, ((0,), (1,)))
        assert rep.negativity == pytest.approx(base, abs=1e-10)


def test_negativity_rejects_bad_bipartition():
    rho = _bell(FockArena(2, 2))
    with pytest.raises(ValueError):
        negativity_report(rho, ((0,), (0, 1)))
    with pytest.raises(ValueError):
        negativity_report(rho, ((), (0, 1)))


def test_classical_ensemble_output_is_ppt_nonviolating():
    rng = np.random.default_rng(15)
    arena = FockArena(2, 20)
    alphas = 0.7 * (rng.uniform(-1, 1, (3, 2)) + 1j * rng.uniform(-1, 1, (3, 2)))
    ens = CoherentEnsemble(2, rng.dirichlet(np.ones(3)), alphas)
    u = lift_unitary(beam_splitter_matrix(0.61, 0.2, 1.4), arena)
    rho = apply_to_density(u, ensemble_to_density(ens, arena))
    assert negativity_report(rho, ((0,), (1,))).min_pt_eigenvalue >= -1e-8


def test_mandel_q_reference_states():
    assert mandel_q(coherent(FockArena(1, 25), [1.0]).to_density(), 0) == pytest.approx(
        0.0, abs=1e-8
    )
    assert mandel_q(fock(FockArena(1, 4), (1,)).to_density(), 0) == pytest.approx(-1.0)
    assert mandel_q(thermal(FockArena(1, 30), 1.0), 0) == pytest.approx(1.0, abs=1e-6)
    # vacuum convention: 0/0 defined as 0
    assert mandel_q(vacuum(FockArena(1, 4)).to_density(), 0) == 0.0


def test_mandel_q_on_multimode_reduction():
    arena = FockArena(2, 4)
    rho = fock(arena, (1, 0)).to_density()
    assert mandel_q(rho, 0) == pytest.approx(-1.0)
    assert mandel_q(rho, 1) == 0.0


def test_quadrature_variance_reference_states():
    vac = vacuum(FockArena(1, 6)).to_density()
    for theta in (0.0, 0.7, 2.1):
        assert quadrature_variance(vac, 0, theta) == pytest.approx(0.5, abs=1e-12)

    coh = coherent(FockArena(1, 25), [0.8 - 0.5j]).to_density()
    assert quadrature_variance(coh, 0, 1.3) == pytest.approx(0.5, abs=1e-8)

    sq = squeezed_vacuum(FockArena(1, 30), 0.5, 0.0).to_density()
    assert quadrature_variance(sq, 0, 0.0) == pytest.approx(np.exp(-1.0) / 2, abs=1e-6)
    assert min_quadrature_variance(sq, 0) == pytest.approx(np.exp(-1.0) / 2, abs=1e-6)


def test_min_variance_tracks_squeezing_phase():
    for theta_s in (0.0, 0.9, 2.5):
        sq = squeezed_vacuum(FockArena(1, 30), 0.4, theta_s).to_density()
        assert quadrature_variance(sq, 0, theta_s / 2) == pytest.approx(
            np.exp(-0.8) / 2, abs=1e-6
        )


def _marginals(rho):
    return [partial_trace(rho, [m]) for m in range(rho.arena.n_modes)]


def test_classicality_report_flags():
    arena1 = FockArena(1, 30)
    sq = np.kron(squeezed_vacuum(arena1, 0.5).amplitudes,
                 squeezed_vacuum(arena1, 0.0).amplitudes)
    report = classicality_report(_marginals(StateVector(FockArena(2, 30), sq).to_density()))
    assert report.squeezing_detected
    assert not report.sub_poissonian_detected

    single_photon = fock(FockArena(2, 4), (1, 0)).to_density()
    report = classicality_report(_marginals(single_photon))
    assert report.sub_poissonian_detected
    assert report.mandel_q[0] == pytest.approx(-1.0)

    coh = coherent(FockArena(2, 20), [0.5, 0.2]).to_density()
    report = classicality_report(_marginals(coh))
    assert not report.squeezing_detected
    assert not report.sub_poissonian_detected
