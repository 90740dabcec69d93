import itertools

import numpy as np
import pytest

from bselab.hilbert import (
    DensityOperator,
    FockArena,
    StateVector,
    TruncationError,
    annihilation_matrix,
    partial_trace,
    partial_transpose,
)
from bselab.states import fock, vacuum


@pytest.mark.parametrize("n_modes,cutoff", [(1, 6), (2, 4), (2, 6), (3, 3), (3, 6)])
def test_encode_decode_bijection_exhaustive(n_modes, cutoff):
    arena = FockArena(n_modes, cutoff)
    seen = set()
    for occ in itertools.product(range(cutoff), repeat=n_modes):
        idx = arena.encode(occ)
        assert arena.decode(idx) == occ
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
        arena.decode(9)


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
        out = annihilation_matrix(arena, mode) @ vacuum(arena).amplitudes
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


def test_state_vector_leak_budget():
    arena = FockArena(1, 4)
    amps = np.zeros(4, dtype=complex)
    amps[0] = 0.9
    with pytest.raises(TruncationError):
        StateVector(arena, amps)
    with pytest.raises(ValueError):
        StateVector(arena, 2 * np.eye(4)[0].astype(complex))


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


def test_state_vector_stores_a_read_only_copy():
    arena = FockArena(1, 4)
    amps = np.eye(4)[1].astype(complex)
    psi = StateVector(arena, amps)
    assert not psi.amplitudes.flags.writeable
    assert not np.shares_memory(psi.amplitudes, amps)
    amps[1] = 0.0
    assert psi.amplitudes[1] == 1.0


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
    return StateVector(arena, amps).to_density()


def test_partial_trace_product_state():
    a1 = FockArena(1, 3)
    rho_a = fock(a1, (1,)).to_density()
    rho_b = fock(a1, (2,)).to_density()
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


def test_partial_transpose_bell_min_eigenvalue():
    arena = FockArena(2, 2)
    pt = partial_transpose(_bell_like(arena), [0])
    eigs = np.linalg.eigvalsh(pt)
    assert abs(eigs[0] + 0.5) <= 1e-12
    # eigenvalue sum (trace) preserved
    assert abs(np.trace(pt).real - 1.0) <= 1e-12


def test_partial_transpose_involution_and_product_psd():
    arena = FockArena(2, 3)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    local = z @ z.conj().T
    local /= np.trace(local).real
    rho = DensityOperator(FockArena(2, 3), np.kron(local, local))
    pt = partial_transpose(rho, [1])
    assert np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0] >= -1e-12
    # involution: transposing the same subset twice is the identity
    back = partial_transpose(DensityOperator(arena, pt), [1])
    assert np.abs(back - rho.matrix).max() <= 1e-14


def test_partial_transpose_rejects_trivial_subsets():
    arena = FockArena(2, 2)
    rho = _bell_like(arena)
    with pytest.raises(ValueError):
        partial_transpose(rho, [])
    with pytest.raises(ValueError):
        partial_transpose(rho, [0, 1])
