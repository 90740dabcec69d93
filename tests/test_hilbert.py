import itertools

import numpy as np
import pytest

from bselab.hilbert import FockArena, Mixture, TruncationError
from bselab.states import CoherentEnsemble, coherent, fock
from reference import (
    DensityOperator,
    annihilation_matrix,
    decode,
    ensemble_to_density,
    partial_trace,
    to_density,
)


@pytest.mark.parametrize("n_modes,cutoff", [(1, 6), (2, 4), (2, 6), (3, 3), (3, 6)])
def test_encode_decode_bijection_exhaustive(n_modes, cutoff):
    arena = FockArena(n_modes, cutoff)
    seen = set()
    for occ in itertools.product(range(cutoff), repeat=n_modes):
        idx = arena.encode(occ)
        assert decode(arena, idx) == occ
        seen.add(idx)
    assert seen == set(range(arena.total_dim))
    assert arena.total_dim == cutoff**n_modes


def test_encoding_is_mode_major():
    arena = FockArena(2, 3)
    # mode 0 is the slowest index
    assert arena.encode((1, 0)) == 3
    assert arena.encode((0, 1)) == 1
    # so mode 0's ladder operator is the first np.kron factor
    a1 = annihilation_matrix(FockArena(1, 3), 0)
    assert np.array_equal(annihilation_matrix(arena, 0), np.kron(a1, np.eye(3)))
    assert np.array_equal(annihilation_matrix(arena, 1), np.kron(np.eye(3), a1))


def test_arena_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FockArena(0, 4)
    with pytest.raises(ValueError):
        FockArena(2, 0)
    arena = FockArena(2, 3)
    with pytest.raises(ValueError):
        arena.encode((3, 0))
    with pytest.raises(ValueError):
        decode(arena, 9)


def test_encode_rejects_non_integer_occupations():
    # an occupation is never truncated to an integer ((0.2, 2.9) is not
    # |0,2>), and a bool is no occupation; numpy integers are
    arena = FockArena(2, 4)
    for occ in [(0.2, 2.9), (1.0, 0), (True, 0), (0, np.True_), ("1", 0)]:
        with pytest.raises(ValueError, match="not an integer"):
            fock(arena, occ)
    assert arena.encode((np.int64(1), np.uint8(2))) == arena.encode((1, 2)) == 6


def test_annihilation_single_mode_entries():
    arena = FockArena(1, 3)
    a = annihilation_matrix(arena, 0)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    assert np.array_equal(a, expected)


def test_annihilation_kills_vacuum():
    arena = FockArena(2, 5)
    for mode in range(2):
        out = annihilation_matrix(arena, mode) @ fock(arena, (0,) * arena.n_modes)
        assert np.abs(out).max() == 0.0


def test_annihilation_mode_out_of_range():
    with pytest.raises(ValueError):
        annihilation_matrix(FockArena(2, 3), 2)


def test_commutator_is_identity_below_boundary():
    # [a, a^dag] = 1 on the photon-number < cutoff-1 subspace, brute force
    arena = FockArena(1, 6)
    a = annihilation_matrix(arena, 0)
    comm = a @ a.conj().T - a.conj().T @ a
    inner = comm[:5, :5]
    assert np.abs(inner - np.eye(5)).max() <= 1e-12


def test_density_operator_validation():
    arena = FockArena(1, 3)
    with pytest.raises(ValueError):
        DensityOperator(arena, np.diag([0.5, 0.5, 0.1]).astype(complex))  # trace > 1
    # non-Hermitian
    bad = np.diag([1.0, 0.0, 0.0]).astype(complex)
    bad[0, 1] = 1e-3
    with pytest.raises(ValueError):
        DensityOperator(arena, bad)
    # negative eigenvalue
    neg = np.diag([1.1, -0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        DensityOperator(arena, neg)


def test_density_operator_stores_an_exactly_hermitian_read_only_copy():
    arena = FockArena(1, 3)
    raw = np.diag([0.6, 0.3, 0.1]).astype(complex)
    raw[0, 1] = 0.1 + 0.05j
    raw[1, 0] = np.conj(raw[0, 1]) * (1.0 + 1e-13)  # Hermitian within HERM_TOL
    assert not np.array_equal(raw, raw.conj().T)
    rho = DensityOperator(arena, raw)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    assert not rho.matrix.flags.writeable
    assert not np.shares_memory(rho.matrix, raw)
    assert np.abs(rho.matrix - raw).max() <= 1e-13


def _bell_like(arena):
    amps = np.zeros(arena.total_dim, dtype=complex)
    amps[arena.encode((1, 0))] = 1 / np.sqrt(2)
    amps[arena.encode((0, 1))] = 1 / np.sqrt(2)
    return to_density(arena, amps)


def test_partial_trace_product_state():
    a1 = FockArena(1, 3)
    rho_a = to_density(a1, fock(a1, (1,)))
    rho_b = to_density(a1, fock(a1, (2,)))
    joint = DensityOperator(FockArena(2, 3), np.kron(rho_a.matrix, rho_b.matrix))
    reduced = partial_trace(joint, [0])
    assert np.abs(reduced.matrix - rho_a.matrix).max() <= 1e-14
    assert abs(reduced.trace - joint.trace) <= 1e-12


def test_partial_trace_bell_like():
    arena = FockArena(2, 2)
    reduced = partial_trace(_bell_like(arena), [0])
    assert np.abs(reduced.matrix - np.diag([0.5, 0.5])).max() <= 1e-14


def test_partial_trace_rejects_empty_keep():
    arena = FockArena(2, 2)
    with pytest.raises(ValueError):
        partial_trace(_bell_like(arena), [])


def test_mixture_stores_read_only_copies():
    arena = FockArena(2, 3)
    weights = np.array([0.25, 0.75])
    rows = np.eye(9, dtype=complex)[:2]
    rho = Mixture(arena, weights, rows)
    for stored, given in ((rho.weights, weights), (rho.rows, rows)):
        assert not stored.flags.writeable
        assert not np.shares_memory(stored, given)
    rows[0, 0] = 0.0
    assert rho.rows[0, 0] == 1.0


def test_mixture_validation():
    arena = FockArena(1, 3)
    row = np.eye(3, dtype=complex)[1]
    with pytest.raises(ValueError):
        Mixture(arena, [1.0], [row[:2]])  # wrong row length
    with pytest.raises(ValueError):
        Mixture(arena, [0.5, 0.5], [row])  # one weight per row
    with pytest.raises(ValueError):
        Mixture(arena, [-0.1, 1.1], [row, row])
    with pytest.raises(ValueError):
        Mixture(arena, [np.nan], [row])
    with pytest.raises(ValueError):
        Mixture(arena, [1.0], [np.array([np.inf, 0.0, 0.0])])
    with pytest.raises(ValueError):
        Mixture(arena, [0.6, 0.6], [row, row])  # trace 1.2
    # the trace may pass 1 by roundoff only: 1 + 1e-9 is a bad state, while
    # 1 + 1e-13 is inside the 1e-12 allowance
    with pytest.raises(ValueError, match="exceeds 1"):
        Mixture(arena, [0.5, 0.5], [np.sqrt(1.0 + 1e-9) * row] * 2)
    assert Mixture(arena, [0.5, 0.5], [np.sqrt(1.0 + 1e-13) * row] * 2).leak < 0.0


def test_mixture_leak_budget():
    # the leak is 1 - sum_i w_i ||psi_i||^2, a probability
    arena = FockArena(1, 2)
    short = np.array([np.sqrt(1.0 - 2e-6), 0.0], dtype=complex)
    full = np.array([1.0, 0.0], dtype=complex)
    Mixture(arena, [0.5, 0.5], [short, full])  # leak 1e-6
    with pytest.raises(TruncationError):
        Mixture(arena, [0.5, 0.5], [short, full], leak_tol=0.9e-6)
    with pytest.raises(TruncationError):
        Mixture(arena, [0.999, 0.0], [full, full])


def test_mixture_marginals_match_dense_partial_trace():
    # each mode's photon-number distribution is the diagonal of its reduced state
    rng = np.random.default_rng(8)
    for n_modes, cutoff in ((2, 12), (3, 6)):
        arena = FockArena(n_modes, cutoff)
        radii, phases = rng.uniform(size=(2, 3, n_modes))
        alphas = 0.4 * np.sqrt(radii) * np.exp(2j * np.pi * phases)
        ens = CoherentEnsemble(n_modes, rng.dirichlet(np.ones(3)), alphas)
        rows = coherent(arena, ens.alphas)
        dense = ensemble_to_density(ens, arena)
        probs = Mixture(arena, ens.weights, rows).photon_distributions()
        assert probs.shape == (n_modes, cutoff)
        for m in range(n_modes):
            diagonal = partial_trace(dense, [m]).matrix.diagonal().real
            assert np.abs(probs[m] - diagonal).max() <= 1e-14
