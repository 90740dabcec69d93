import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from bselab.hilbert import FockArena, TruncationError, annihilation_matrix, partial_trace
from bselab.states import (
    CoherentEnsemble,
    GaussianSpec,
    coherent,
    coherent_leakage,
    ensemble_marginals,
    ensemble_to_density,
    fock,
    spec_to_density,
    squeezed_vacuum,
    thermal,
    vacuum,
)


def test_vacuum_is_unit_vector_at_index_zero():
    arena = FockArena(2, 4)
    v = vacuum(arena)
    assert v.amplitudes[0] == 1.0
    assert np.abs(v.amplitudes[1:]).max() == 0.0
    assert v.norm == 1.0
    for mode in range(2):
        assert np.abs(annihilation_matrix(arena, mode) @ v.amplitudes).max() == 0.0


def test_fock_states_are_orthonormal_basis_vectors():
    arena = FockArena(2, 3)
    psi = fock(arena, (1, 0))
    assert psi.amplitudes[arena.encode((1, 0))] == 1.0
    for mode, expected in ((0, 1.0), (1, 0.0)):
        a = annihilation_matrix(arena, mode)
        assert (psi.amplitudes.conj() @ a.conj().T @ a @ psi.amplitudes).real == expected
    other = fock(arena, (0, 2))
    assert np.vdot(psi.amplitudes, other.amplitudes) == 0.0
    with pytest.raises(ValueError):
        fock(arena, (3, 0))


def test_coherent_zero_is_vacuum():
    arena = FockArena(2, 5)
    assert np.array_equal(coherent(arena, [0, 0]).amplitudes, vacuum(arena).amplitudes)


def test_coherent_vacuum_amplitude_closed_form():
    arena = FockArena(1, 20)
    psi = coherent(arena, [1.0])
    assert abs(psi.amplitudes[0] - np.exp(-0.5)) <= 1e-14
    # full Poissonian profile
    n = np.arange(20)
    import scipy.special

    expected = np.exp(-0.5) / np.sqrt(scipy.special.factorial(n))
    assert np.abs(psi.amplitudes - expected).max() <= 1e-12


def test_coherent_overlap_closed_form():
    # |<beta|alpha>|^2 = exp(-|alpha - beta|^2) at (1, 0.5)
    arena = FockArena(1, 25)
    a = coherent(arena, [1.0])
    b = coherent(arena, [0.5])
    assert abs(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2 - np.exp(-0.25)) <= 1e-8


def test_coherent_rejects_leaky_truncation():
    with pytest.raises(TruncationError):
        coherent(FockArena(1, 4), [2.0])


def test_coherent_leak_budget_is_a_probability():
    # the lost probability 1 - ||psi||^2 lies between leak_tol and
    # 2 * leak_tol; the amplitude-norm deficit 1 - ||psi|| is below leak_tol
    leak = coherent_leakage(1.0, 8)
    leak_tol = leak / 1.5
    with pytest.raises(TruncationError, match=f"{leak:.3e}"):
        coherent(FockArena(1, 8), [1.0], leak_tol=leak_tol)
    assert coherent(FockArena(1, 8), [1.0], leak_tol=1.01 * leak).norm < 1.0


def test_coherent_leakage_has_no_cancellation_floor():
    # the tail summed term by term is 2.5e-21; 1 - sum(pmf) bottoms out near 1e-16
    direct = sum(np.exp(-0.01) * 0.01**n / math.factorial(n) for n in range(8, 30))
    assert coherent_leakage(0.1, 8) == pytest.approx(direct, rel=1e-12)
    assert coherent_leakage(0.1, 8) == pytest.approx(scipy.special.pdtrc(7, 0.01), rel=1e-12)
    with pytest.raises(ValueError):
        coherent_leakage(0.5, 0)


def test_ensemble_rejects_negative_weight_outright():
    with pytest.raises(ValueError):
        CoherentEnsemble(1, np.array([0.5, -1e-15 - 0.0]), np.zeros((2, 1), complex))
    with pytest.raises(ValueError):
        CoherentEnsemble(1, np.array([1.0, -0.2]), np.zeros((2, 1), complex))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_ensemble_rejects_non_finite_values(value):
    alphas = np.zeros((2, 1), complex)
    with pytest.raises(ValueError, match="finite"):
        CoherentEnsemble(1, np.array([0.5, value]), alphas)
    alphas[1, 0] = complex(value, 0.0)
    with pytest.raises(ValueError, match="finite"):
        CoherentEnsemble(1, np.array([0.5, 0.5]), alphas)


def test_ensemble_normalizes_and_is_idempotent():
    ens = CoherentEnsemble(1, np.array([2.0, 2.0]), np.zeros((2, 1), complex))
    assert np.array_equal(ens.weights, [0.5, 0.5])
    again = CoherentEnsemble(1, ens.weights, ens.alphas)
    assert np.array_equal(again.weights, ens.weights)


def test_single_component_vacuum_projector():
    arena = FockArena(1, 4)
    ens = CoherentEnsemble(1, np.array([1.0]), np.zeros((1, 1), complex))
    rho = ensemble_to_density(ens, arena)
    expected = np.zeros((4, 4), complex)
    expected[0, 0] = 1.0
    assert np.abs(rho.matrix - expected).max() == 0.0


def test_two_component_purity_closed_form():
    # equal mixture of |alpha> and |-alpha| at |alpha| = 1:
    # tr rho^2 = (1 + e^{-4|alpha|^2}) / 2
    arena = FockArena(1, 25)
    ens = CoherentEnsemble(1, np.array([0.5, 0.5]), np.array([[1.0], [-1.0]], complex))
    rho = ensemble_to_density(ens, arena)
    assert abs(np.trace(rho.matrix @ rho.matrix).real - (1 + np.exp(-4.0)) / 2) <= 1e-8


def test_ensemble_density_is_linear_in_weights():
    arena = FockArena(1, 20)
    alphas = np.array([[0.4 + 0.1j], [-0.6j]])
    full = ensemble_to_density(CoherentEnsemble(1, np.array([0.3, 0.7]), alphas), arena)
    parts = [
        ensemble_to_density(CoherentEnsemble(1, np.array([1.0]), alphas[i : i + 1]), arena)
        for i in range(2)
    ]
    combo = 0.3 * parts[0].matrix + 0.7 * parts[1].matrix
    assert np.abs(full.matrix - combo).max() <= 1e-14


def test_squeezed_vacuum_limits():
    arena = FockArena(1, 10)
    assert np.array_equal(squeezed_vacuum(arena, 0.0).amplitudes, vacuum(arena).amplitudes)
    psi = squeezed_vacuum(FockArena(1, 30), 0.5, 0.3)
    # support on even photon numbers only
    assert np.abs(psi.amplitudes[1::2]).max() == 0.0
    with pytest.raises(ValueError):
        squeezed_vacuum(arena, -0.1)


def test_thermal_states():
    arena = FockArena(1, 4)
    vac_proj = thermal(arena, 0.0)
    assert np.abs(vac_proj.matrix - np.diag([1.0, 0, 0, 0])).max() == 0.0

    hot = thermal(FockArena(1, 30), 1.0)
    n = np.arange(30)
    mean = float(np.diag(hot.matrix).real @ n)
    assert abs(mean - 1.0) <= 1e-6

    with pytest.raises(ValueError):
        thermal(arena, -0.5)
    with pytest.raises(TruncationError):
        thermal(FockArena(1, 4), 5.0)


def test_gaussian_spec_validation_and_fock_form():
    with pytest.raises(ValueError):
        GaussianSpec("cat")
    with pytest.raises(ValueError):
        GaussianSpec("thermal", nbar=-1.0)
    arena = FockArena(1, 15)
    rho = spec_to_density(GaussianSpec("coherent", alpha=0.3 + 0.1j), arena)
    assert abs(rho.trace - 1.0) <= 1e-8


_amplitude = st.one_of(
    st.just(0.0),
    st.floats(-0.8, 0.8, allow_subnormal=False),
)


@st.composite
def _ensembles(draw):
    n_modes = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    parts = draw(st.lists(_amplitude, min_size=2 * k * n_modes, max_size=2 * k * n_modes))
    alphas = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    return CoherentEnsemble(n_modes, np.array(weights), alphas.reshape(k, n_modes))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(ens=_ensembles(), cutoff=st.integers(3, 8))
def test_ensemble_marginals_match_dense_partial_trace(ens, cutoff):
    # reference: the dense multi-mode density, traced down to each mode
    arena = FockArena(ens.n_modes, cutoff)
    try:
        rho = ensemble_to_density(ens, arena)
    except TruncationError:
        with pytest.raises(TruncationError):
            ensemble_marginals(ens, arena)
        return
    marginals = ensemble_marginals(ens, arena)
    assert len(marginals) == ens.n_modes
    for m, marginal in enumerate(marginals):
        assert marginal.arena == FockArena(1, cutoff)
        reference = partial_trace(rho, [m]).matrix
        assert np.abs(marginal.matrix - reference).max() <= 1e-14
