"""Property tests for the photon-number-sector core shared by the Fock lift
(`lift_unitary`) and the exact coherent transform (`transform_coherent_exact`).

Unitaries are Haar draws and degenerate cases: +-I, mode permutations and
eigenphases at +-pi (both branches of the principal logarithm).
"""

import itertools

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bselab.hilbert import FockArena, annihilation_matrix
from bselab.passive import (
    SUBSPACE_UNITARITY_TOL,
    VACUUM_TOL,
    ModeUnitary,
    lift_unitary,
    log_unitary,
    transform_coherent_exact,
)
from bselab.states import coherent, vacuum
from bselab.theoremlab import haar_unitary
from reference import conjugation_residual

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


def _dense_ladder_lift(m: ModeUnitary, arena: FockArena) -> np.ndarray:
    """Reference lift: the generator from dense truncated ladder products,
    exponentiated block by block over the arena's photon-number sectors."""
    log = log_unitary(m)
    ladders = [annihilation_matrix(arena, k) for k in range(arena.n_modes)]
    gen = -sum(
        log[j, k] * (ladders[j].conj().T @ ladders[k])
        for j in range(arena.n_modes)
        for k in range(arena.n_modes)
    )
    out = np.zeros_like(gen)
    for idx in arena.photon_sector_indices().values():
        out[np.ix_(idx, idx)] = scipy.linalg.expm(gen[np.ix_(idx, idx)])
    return out


@PROPERTY
@given(st.sampled_from([(2, 7), (3, 5)]).flatmap(
    lambda shape: st.tuples(st.just(shape), unitaries(shape[0]))))
def test_lift_properties(case):
    (n_modes, cutoff), m = case
    arena = FockArena(n_modes, cutoff)
    u = lift_unitary(m, arena)

    vac = vacuum(arena).amplitudes
    assert np.abs(u.apply_to_vector(vac) - vac).max() <= VACUUM_TOL
    for mode in range(n_modes):
        assert conjugation_residual(u, m, mode) <= SUBSPACE_UNITARITY_TOL
    # boundary sectors included: the clipped blocks stay exactly unitary
    assert np.abs(u.matrix.conj().T @ u.matrix - np.eye(arena.total_dim)).max() <= 1e-12
    assert np.abs(u.matrix - _dense_ladder_lift(m, arena)).max() <= 1e-12


@PROPERTY
@given(st.sampled_from([(2, 12), (3, 6)]).flatmap(
    lambda shape: st.tuples(
        st.just(shape),
        unitaries(shape[0]),
        st.lists(st.lists(amplitudes, min_size=shape[0], max_size=shape[0]),
                 min_size=1, max_size=4),
    )))
def test_exact_transform_properties(case):
    (n_modes, cutoff), m, rows = case
    arena = FockArena(n_modes, cutoff)
    alphas = np.array(rows, dtype=complex)
    batch = transform_coherent_exact(m, alphas, arena)
    assert batch.shape == (len(rows), arena.total_dim)
    for alpha, amps in zip(alphas, batch):
        single = transform_coherent_exact(m, alpha, arena)
        assert np.abs(amps - single).max() <= 1e-14
        # closed-form image, used here only as the reference
        closed = coherent(arena, alpha @ np.conj(m.matrix), leak_tol=1.0).amplitudes
        assert np.abs(single - closed).max() <= 1e-10
