import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bselab import states
from bselab.hilbert import FockArena, TruncationError
from bselab.passive import _sector_plan
from bselab.states import (
    CoherentEnsemble,
    GaussianSpec,
    _check_rows,
    _coherent_column,
    _coherent_rows,
    _poisson_tail,
    coherent,
    coherent_leakage,
    fock,
    squeezed_vacuum,
    thermal,
)
from reference import (
    annihilation_matrix,
    ensemble_to_density,
    scalar_coherent_column,
    spec_to_density,
)


def test_vacuum_is_unit_vector_at_index_zero():
    arena = FockArena(2, 4)
    v = fock(arena, (0,) * arena.n_modes)
    assert v[0] == 1.0
    assert np.abs(v[1:]).max() == 0.0
    assert np.linalg.norm(v) == 1.0
    for mode in range(2):
        assert np.abs(annihilation_matrix(arena, mode) @ v).max() == 0.0


def test_fock_states_are_orthonormal_basis_vectors():
    arena = FockArena(2, 3)
    psi = fock(arena, (1, 0))
    assert psi[arena.encode((1, 0))] == 1.0
    for mode, expected in ((0, 1.0), (1, 0.0)):
        a = annihilation_matrix(arena, mode)
        assert (psi.conj() @ a.conj().T @ a @ psi).real == expected
    other = fock(arena, (0, 2))
    assert np.vdot(psi, other) == 0.0
    with pytest.raises(ValueError):
        fock(arena, (3, 0))


def test_coherent_zero_is_vacuum():
    arena = FockArena(2, 5)
    assert np.array_equal(coherent(arena, [0, 0]), fock(arena, (0,) * arena.n_modes))


def test_coherent_vacuum_amplitude_closed_form():
    arena = FockArena(1, 20)
    psi = coherent(arena, [1.0])
    assert abs(psi[0] - np.exp(-0.5)) <= 1e-14
    # full Poissonian profile
    n = np.arange(20)
    import scipy.special

    expected = np.exp(-0.5) / np.sqrt(scipy.special.factorial(n))
    assert np.abs(psi - expected).max() <= 1e-12


def test_coherent_overlap_closed_form():
    # |<beta|alpha>|^2 = exp(-|alpha - beta|^2) at (1, 0.5)
    arena = FockArena(1, 25)
    a = coherent(arena, [1.0])
    b = coherent(arena, [0.5])
    assert abs(abs(np.vdot(a, b)) ** 2 - np.exp(-0.25)) <= 1e-8


def test_coherent_rejects_leaky_truncation():
    with pytest.raises(TruncationError):
        coherent(FockArena(1, 4), [2.0])


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_coherent_rejects_non_finite_amplitudes(value):
    # a NaN row's NaN leak would pass the budget check unseen
    with pytest.raises(ValueError, match="finite"):
        coherent(FockArena(2, 4), [value, 0.0])


def test_coherent_leak_budget_is_a_probability():
    # the lost probability 1 - ||psi||^2 lies between leak_tol and
    # 2 * leak_tol; the amplitude-norm deficit 1 - ||psi|| is below leak_tol
    leak = coherent_leakage(1.0, 8)
    psi = _coherent_rows(np.array([[1.0 + 0j]]), FockArena(1, 8).occupation_table())
    with pytest.raises(TruncationError, match=f"{leak:.3e}"):
        _check_rows(psi, leak / 1.5)
    _check_rows(psi, 1.01 * leak)
    assert np.linalg.norm(psi) < 1.0


def test_coherent_leakage_has_no_cancellation_floor():
    # the tail summed term by term is 2.5e-21; 1 - sum(pmf) bottoms out near 1e-16
    direct = sum(np.exp(-0.01) * 0.01**n / math.factorial(n) for n in range(8, 30))
    assert coherent_leakage(0.1, 8) == pytest.approx(direct, rel=1e-12)
    assert coherent_leakage(0.1, 8) == pytest.approx(scipy.special.pdtrc(7, 0.01), rel=1e-12)
    with pytest.raises(ValueError):
        coherent_leakage(0.5, 0)


@pytest.mark.parametrize("abs_alpha, cutoff, match", [
    (np.nan, 5, "abs_alpha must be finite"), (np.inf, 5, "abs_alpha must be finite"),
    (-0.1, 5, "abs_alpha must be finite"), (0.5, 2.5, "cutoff must be an integer"),
    (0.5, True, "cutoff must be an integer"), (0.5, 0, "cutoff must be >= 1")],
    ids=["nan", "inf", "negative", "float-cutoff", "bool-cutoff", "zero-cutoff"])
def test_coherent_leakage_rejects_what_is_no_amplitude_or_cutoff(abs_alpha, cutoff, match):
    # a NaN leak would pass every `leak > leak_tol` check, and a cutoff of
    # 2.5 would read a tail of 7.9e-3
    with pytest.raises(ValueError, match=match):
        coherent_leakage(abs_alpha, cutoff)
    assert coherent_leakage(0.0, np.int64(1)) == 0.0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(n=st.integers(0, 80), mean=st.floats(0.0, 50.0))
@example(n=0, mean=0.0)
@example(n=5, mean=0.0)
@example(n=3, mean=3.0)  # n <= mean: 1 - the head sum
@example(n=20, mean=49.5)
@example(n=80, mean=0.0147)  # a tail near 1e-266
def test_poisson_tail_matches_pdtrc(n, mean):
    # pdtrc(k, m) is P(N > k), the complement of pdtr, so the tail
    # P(N >= n) is pdtrc(n - 1, m); below the smallest normal float no
    # relative precision is left to compare
    expected = 1.0 if n == 0 else float(scipy.special.pdtrc(n - 1, mean))
    assert _poisson_tail(n, mean) == pytest.approx(expected, rel=1e-12,
                                                   abs=sys.float_info.min)


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
    assert np.array_equal(squeezed_vacuum(arena, 0.0), fock(arena, (0,) * arena.n_modes))
    psi = squeezed_vacuum(FockArena(1, 30), 0.5, 0.3)
    # support on even photon numbers only
    assert np.abs(psi[1::2]).max() == 0.0
    with pytest.raises(ValueError):
        squeezed_vacuum(arena, -0.1)


def test_thermal_states():
    # a thermal state is the Fock rows with the thermal weights
    arena = FockArena(1, 4)
    vac_proj = thermal(arena, 0.0)
    assert np.array_equal(vac_proj.weights, [1.0, 0, 0, 0])
    assert np.array_equal(vac_proj.rows, np.eye(4))

    hot = thermal(FockArena(1, 30), 1.0)
    n = np.arange(30)
    mean = float(hot.photon_distributions()[0] @ n)
    assert abs(mean - 1.0) <= 1e-6
    assert abs(hot.leak - 0.5**30) <= 1e-15  # q^cutoff, q = nbar / (1 + nbar)

    with pytest.raises(ValueError):
        thermal(arena, -0.5)
    with pytest.raises(TruncationError):
        thermal(FockArena(1, 4), 5.0)


@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_squeezed_vacuum_rejects_non_finite_squeezing(value):
    with pytest.raises(ValueError, match="finite"):
        squeezed_vacuum(FockArena(1, 8), value)


def test_gaussian_spec_validation_and_fock_form():
    with pytest.raises(ValueError):
        GaussianSpec("cat")
    with pytest.raises(ValueError):
        GaussianSpec("thermal", nbar=-1.0)
    arena = FockArena(1, 15)
    rho = spec_to_density(GaussianSpec("coherent", alpha=0.3 + 0.1j), arena)
    assert abs(rho.trace - 1.0) <= 1e-8


@pytest.mark.parametrize("make, match", [
    (lambda: squeezed_vacuum(FockArena(2, 4), 0.1), "single-mode"),
    (lambda: thermal(FockArena(2, 4), 0.1), "single-mode"),
    (lambda: CoherentEnsemble(1, [], np.zeros((0, 1))), "weights must be a non-empty"),
    (lambda: CoherentEnsemble(2, [1.0], [[0.1]]), "alphas must have shape"),
    (lambda: GaussianSpec("squeezed_vacuum", r=-0.1), "r must be >= 0"),
    # True would be a one-mode ensemble, as it was a one-mode FockArena
    (lambda: CoherentEnsemble(True, [1.0], [[0.1]]), "n_modes must be an integer"),
    (lambda: CoherentEnsemble(1.0, [1.0], [[0.1]]), "n_modes must be an integer"),
    (lambda: CoherentEnsemble(0, [1.0], np.zeros((1, 0))), "n_modes must be >= 1"),
], ids=["two-mode-squeezed", "two-mode-thermal", "empty-weights", "alphas-shape",
        "negative-r", "bool-modes", "float-modes", "no-modes"])
def test_malformed_state_input_is_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


_parts = st.floats(-4.0, 4.0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
           st.lists(st.one_of(st.just(0j), st.builds(complex, _parts, _parts)),
                    min_size=n, max_size=n), min_size=1, max_size=4)),
       st.integers(1, 30))
@example([[0j, 1.885376393636725 + 0j], [-0.3991432526686962 - 0.6268762044095801j, 0j]], 22)
def test_coherent_column_matches_scalar_formula_bit_for_bit(rows, cutoff):
    # rows mixing zero and nonzero amplitudes, as a sweep or trial ensemble
    # has; the example's |a|^2 and |a| are ones where r * r and np.abs of a
    # complex array round differently from the scalar formula
    alphas = np.array(rows, dtype=complex)
    columns = _coherent_column(alphas, cutoff)
    assert columns.shape == alphas.shape + (cutoff,)
    expected = np.array([[scalar_coherent_column(complex(a), cutoff) for a in row]
                         for row in alphas])
    assert columns.tobytes() == expected.tobytes()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from([(1, 10), (1, 30), (2, 6), (2, 14), (3, 4), (3, 8)]).flatmap(
           lambda shape: st.tuples(st.just(shape), st.lists(
               st.lists(st.one_of(st.just(0j), st.builds(complex, _parts, _parts)),
                        min_size=shape[0], max_size=shape[0]), min_size=1, max_size=5))),
       st.sampled_from([1e-6, 1e-3, 1.0]))
@example(((2, 6), [[0.3, 0j], [2.0, 0j], [0j, 3.0]]), 1e-6)  # rows 1 and 2 both leak
def test_coherent_stack_is_its_single_rows(case, leak_tol):
    # a (K, n_modes) stack is K single calls bit for bit, and raises at the
    # first row whose leak a single call rejects, with that row's message;
    # each single row is np.kron of the scalar columns, mode 0 first.
    # coherent checks at states.LEAK_TOL, set here to each budget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "LEAK_TOL", leak_tol)
        _check_stack_against_single_rows(case)


def _check_stack_against_single_rows(case):
    (n_modes, cutoff), rows = case
    arena = FockArena(n_modes, cutoff)
    alphas = np.array(rows, dtype=complex)
    singles = []
    for alpha in alphas:
        try:
            singles.append(coherent(arena, alpha))
        except TruncationError as exc:
            singles.append(str(exc))
            continue
        kron = np.ones(1, dtype=complex)
        for a in alpha:
            kron = np.kron(kron, scalar_coherent_column(complex(a), cutoff))
        assert singles[-1].tobytes() == kron.tobytes()
    first_error = next((s for s in singles if isinstance(s, str)), None)
    if first_error is None:
        stack = coherent(arena, alphas)
        assert stack.shape == (len(rows), arena.total_dim)
        assert stack.tobytes() == np.array(singles).tobytes()
    else:
        with pytest.raises(TruncationError) as info:
            coherent(arena, alphas)
        assert str(info.value) == first_error


@pytest.mark.parametrize("n_modes, cutoff", [(1, 10), (2, 6), (2, 14), (3, 4), (3, 8), (4, 3)])
def test_coherent_rows_are_one_arithmetic_in_either_layout(n_modes, cutoff):
    # the builder's bytes do not depend on the memory order of its table:
    # the arena table (F-ordered, as coherent passes it) and route 2's plan
    # columns (C-ordered) each give the same rows in the other order; and
    # each plan row is the product from 1, in mode order, of the scalar
    # columns, as np.kron forms it.  A zero and a subnormal amplitude give
    # signed zeros, which a product that starts from mode 0 keeps.
    rng = np.random.default_rng(10 * n_modes + cutoff)
    alphas = rng.uniform(-1.5, 1.5, (4, n_modes)) + 1j * rng.uniform(-1.5, 1.5, (4, n_modes))
    alphas[1, 0], alphas[2, -1] = 0.0, 2.2e-313j
    top = n_modes * (cutoff - 1)
    cols = _sector_plan(n_modes, top, cutoff).cols
    for table in (FockArena(n_modes, cutoff).occupation_table(), cols):
        c_order = _coherent_rows(alphas, np.ascontiguousarray(table))
        assert c_order.tobytes() == _coherent_rows(alphas, np.asfortranarray(table)).tobytes()
    index = np.ravel_multi_index(cols.T, (top + 1,) * n_modes)
    for alpha, row in zip(alphas, _coherent_rows(alphas, cols)):
        kron = np.ones(1, dtype=complex)
        for a in alpha:
            kron = np.kron(kron, scalar_coherent_column(complex(a), top + 1))
        assert row.tobytes() == kron[index].tobytes()
