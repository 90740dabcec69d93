import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bselab.gaussian import (
    VERDICT_TOL,
    GaussianState,
    apply_passive,
    gaussian_from_spec,
    is_classical,
    ppt_verdicts,
    symplectic_form,
    symplectic_image,
)
from bselab.hilbert import FockArena, Mixture
from bselab.passive import (
    ModeUnitary,
    beam_splitter_matrix,
    transform_coherent_exact,
    transform_ensemble,
)
from bselab.states import CoherentEnsemble, GaussianSpec, coherent_leakage
from bselab.theoremlab import haar_unitary
from reference import dense_moments, marginals, min_quadrature_variance, simon_determinant_margin


def _vacuum(n=2):
    return gaussian_from_spec([GaussianSpec("coherent")] * n)


def test_vacuum_state_blocks():
    g = _vacuum(1)
    assert np.array_equal(g.mean, np.zeros(2))
    assert np.array_equal(g.cov, np.eye(2) / 2)


def test_thermal_and_squeezed_covariances():
    th = gaussian_from_spec([GaussianSpec("thermal", nbar=1.0)])
    assert np.abs(th.cov - 1.5 * np.eye(2)).max() <= 1e-14

    sq = gaussian_from_spec([GaussianSpec("squeezed_vacuum", r=0.5)])
    assert abs(np.linalg.eigvalsh(sq.cov)[0] - np.exp(-1.0) / 2) <= 1e-12


def test_uncertainty_relation_enforced():
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), np.eye(2) / 4)  # below vacuum both quadratures


@pytest.mark.parametrize("make, match", [
    (lambda: GaussianState(1, [0.0], np.eye(2) / 2), "mean vector has wrong length"),
    (lambda: GaussianState(1, [0.0, 0.0], np.eye(3) / 2), "covariance matrix has wrong shape"),
    (lambda: GaussianState(1, [0.0, 0.0], [[0.5, 0.1], [0.0, 0.5]]), "not symmetric"),
    (lambda: gaussian_from_spec([]), "need at least one mode spec"),
    (lambda: apply_passive(_vacuum(1), beam_splitter_matrix(0.3)), "mode count mismatch"),
    # a NaN covariance would read as nonclassical with margin nan, a NaN
    # mean as classical, and a NaN uncertainty check as a made-up eigenvalue
    (lambda: gaussian_from_spec([GaussianSpec("thermal", nbar=np.nan)]), "must be finite"),
    (lambda: gaussian_from_spec([GaussianSpec("coherent", alpha=complex(np.nan, 0.0))]),
     "must be finite"),
    (lambda: gaussian_from_spec([GaussianSpec("coherent", alpha=complex(0.0, np.inf))]),
     "must be finite"),
    (lambda: gaussian_from_spec([GaussianSpec("squeezed_vacuum", r=np.inf)]), "must be finite"),
    (lambda: gaussian_from_spec([GaussianSpec("squeezed_vacuum", r=0.3, theta_s=np.nan)]),
     "must be finite"),
    (lambda: GaussianState(1, [0.0, 0.0], [[np.nan, 0.0], [0.0, np.nan]]), "must be finite"),
    (lambda: GaussianState(1, [np.inf, 0.0], np.eye(2) / 2), "must be finite"),
    # True would be a one-mode state, and 1.5 a numpy TypeError
    (lambda: GaussianState(True, np.zeros(2), np.eye(2) / 2), "n_modes must be an integer"),
    (lambda: GaussianState(1.5, np.zeros(3), np.eye(3) / 2), "n_modes must be an integer"),
], ids=["mean-length", "cov-shape", "asymmetric-cov", "no-specs", "mode-mismatch", "nan-nbar",
        "nan-alpha", "inf-alpha", "inf-r", "nan-theta-s", "nan-cov", "inf-mean", "bool-modes",
        "float-modes"])
def test_malformed_gaussian_input_is_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_symplectic_form_is_one_block_per_mode():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for n in range(1, 5):
        assert np.array_equal(symplectic_form(n), np.kron(np.eye(n), j))


def test_symplectic_image_matches_its_block_loop():
    rng = np.random.default_rng(3)
    for n in range(1, 5):
        m = haar_unitary(n, rng).matrix
        loop = np.zeros((2 * n, 2 * n))
        for j in range(n):
            for k in range(n):
                x, y = m[j, k].real, m[j, k].imag
                loop[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = [[x, -y], [y, x]]
        assert np.array_equal(symplectic_image(m), loop)


def test_symplectic_image_is_orthogonal_symplectic():
    rng = np.random.default_rng(4)
    omega = symplectic_form(3)
    for _ in range(10):
        s = symplectic_image(haar_unitary(3, rng).matrix)
        assert np.abs(s @ s.T - np.eye(6)).max() <= 1e-12
        assert np.abs(s @ omega @ s.T - omega).max() <= 1e-12


def test_apply_passive_identity_and_vacuum_fixed_point():
    g = gaussian_from_spec(
        [GaussianSpec("coherent", alpha=0.4 + 0.3j), GaussianSpec("thermal", nbar=0.7)]
    )
    same = apply_passive(g, ModeUnitary(np.eye(2)))
    assert np.abs(same.mean - g.mean).max() <= 1e-14
    assert np.abs(same.cov - g.cov).max() <= 1e-14

    rng = np.random.default_rng(6)
    vac = _vacuum(2)
    for _ in range(20):
        out = apply_passive(vac, haar_unitary(2, rng))
        assert np.abs(out.cov - np.eye(4) / 2).max() <= 1e-12


def test_coherent_mean_matches_ensemble_amplitude_map():
    alpha = np.array([0.6 - 0.2j, 0.1 + 0.8j])
    ens = CoherentEnsemble(2, np.array([1.0]), alpha[None, :])
    m = beam_splitter_matrix(np.pi / 4, 0.5, -0.3)
    alpha_out = transform_ensemble(ens, m).alphas[0]
    g_out = apply_passive(
        gaussian_from_spec([GaussianSpec("coherent", alpha=complex(a)) for a in alpha]), m
    )
    expected_mean = np.sqrt(2.0) * np.column_stack(
        [alpha_out.real, alpha_out.imag]
    ).ravel()
    assert np.abs(g_out.mean - expected_mean).max() <= 1e-12


def test_is_classical_margins():
    assert is_classical(gaussian_from_spec([GaussianSpec("thermal", nbar=0.8)])).margin == pytest.approx(0.8)
    assert is_classical(_vacuum(1)).label == "classical"
    sq = is_classical(gaussian_from_spec([GaussianSpec("squeezed_vacuum", r=0.5)]))
    assert sq.label == "nonclassical"
    assert sq.margin == pytest.approx(np.exp(-1.0) / 2 - 0.5)


@pytest.mark.parametrize("r, label", [(5e-11, "classical"), (3e-10, "nonclassical")])
def test_is_classical_band_is_verdict_tol(r, label):
    # squeezing r gives the margin (e^{-2r} - 1)/2, about -r: 5e-11 sits
    # just inside the -VERDICT_TOL band and 3e-10 just outside it
    verdict = is_classical(gaussian_from_spec([GaussianSpec("squeezed_vacuum", r=r)]))
    assert verdict.margin == pytest.approx(-r, rel=1e-6)
    assert VERDICT_TOL / 4 < abs(verdict.margin) < 4 * VERDICT_TOL
    assert verdict.label == label


@pytest.mark.parametrize("r, label", [(1e-10, "separable"), (6e-10, "entangled")])
def test_ppt_verdict_band_is_verdict_tol(r, label):
    # squeezing r through a 50:50 splitter gives the PPT margin about -r/2:
    # 5e-11 just inside the -VERDICT_TOL band, 3e-10 just outside it
    verdicts = ppt_verdicts(_squeezed_through_splitter(3, r), [(0,), (1,)])
    for verdict in verdicts:
        assert verdict.margin == pytest.approx(-r / 2, rel=1e-6)
        assert VERDICT_TOL / 4 < abs(verdict.margin) < 4 * VERDICT_TOL
        assert verdict.label == label


def test_simon_product_state_separable():
    g = gaussian_from_spec(
        [GaussianSpec("thermal", nbar=0.3), GaussianSpec("squeezed_vacuum", r=0.7)]
    )
    verdict = ppt_verdicts(g, [(0,)])[0]
    assert verdict.label == "separable"
    assert verdict.margin >= -1e-12
    assert simon_determinant_margin(g) >= -1e-12


def test_simon_two_mode_squeezed_entangled():
    sq = gaussian_from_spec(
        [
            GaussianSpec("squeezed_vacuum", r=0.5),
            GaussianSpec("squeezed_vacuum", r=0.5, theta_s=np.pi),
        ]
    )
    out = apply_passive(sq, beam_splitter_matrix(np.pi / 4))
    verdict = ppt_verdicts(out, [(0,)])[0]
    assert verdict.label == "entangled"
    assert verdict.margin < -1e-3
    assert simon_determinant_margin(out) < -1e-3


def test_simon_agrees_with_ppt_margin_sign():
    # the determinant form (tests/reference.py) and the eigenvalue form
    # (src) of Simon's criterion agree in sign, squeezed states included.
    # Isotropic noise on the squeezed mode leaves no pure symplectic mode,
    # where the determinant slack of a separable state reads 0
    rng = np.random.default_rng(8)
    signs = set()
    for _ in range(200):
        r = rng.uniform(0, 0.8)
        specs = [
            GaussianSpec("squeezed_vacuum", r=r, theta_s=rng.uniform(0, 2 * np.pi)),
            GaussianSpec("thermal", nbar=rng.uniform(0, 1.0)),
        ]
        g = gaussian_from_spec(specs)
        noisy = GaussianState(2, g.mean, g.cov + np.diag([1.0, 1.0, 0.0, 0.0]) * rng.uniform(0, 0.3))
        out = apply_passive(noisy, haar_unitary(2, rng))
        simon = simon_determinant_margin(out)
        ppt = ppt_verdicts(out, [(0,)])[0].margin
        if abs(simon) > 1e-9 and abs(ppt) > 1e-9:
            assert np.sign(simon) == np.sign(ppt)
            signs.add(np.sign(ppt))
    assert signs == {-1.0, 1.0}


def _squeezed_through_splitter(n_modes, r=0.5):
    # squeezed vacuum r on mode 0, vacuum elsewhere, and a 50:50 splitter
    # on modes 0 and 1
    specs = [GaussianSpec("squeezed_vacuum", r=r)] + [GaussianSpec("coherent")] * (n_modes - 1)
    m = np.eye(n_modes, dtype=complex)
    m[:2, :2] = beam_splitter_matrix(np.pi / 4).matrix
    return apply_passive(gaussian_from_spec(specs), ModeUnitary(m))


def test_ppt_verdicts_of_every_three_mode_cut():
    g3 = _squeezed_through_splitter(3)
    two_mode = ppt_verdicts(_squeezed_through_splitter(2), [(0,)])[0]
    assert two_mode.margin == pytest.approx(-0.1824, abs=1e-4)
    cuts = [(0,), (1,), (0, 1)]
    verdicts = ppt_verdicts(g3, cuts)
    assert [v.label for v in verdicts] == ["entangled", "entangled", "separable"]
    # the vacuum mode 2 only adds the eigenvalues 0 and 1 to a cut through
    # the entangled pair
    for v in verdicts[:2]:
        assert v.margin == pytest.approx(two_mode.margin, abs=1e-12)
    assert abs(verdicts[2].margin) <= 1e-12
    # transposing side B instead gives the complex-conjugate matrix: same margin
    complements = ppt_verdicts(g3, [(1, 2), (0, 2), (2,)])
    for v, w in zip(verdicts, complements):
        assert v.label == w.label
        assert v.margin == pytest.approx(w.margin, abs=1e-12)


@pytest.mark.parametrize("side", [(), (0, 1), (2,), (-1,), (0.5,)])
def test_ppt_verdicts_rejects_a_side_that_is_no_cut(side):
    # an empty side, the whole mode set, a mode past the last, a negative
    # index (numpy would read it from the end) and a fraction name no cut
    with pytest.raises(ValueError, match="proper subset"):
        ppt_verdicts(_squeezed_through_splitter(2), [(0,), side])


def test_classical_states_stay_classical_and_separable():
    # Gaussian shadow of the theorem: 1000 random passive unitaries
    rng = np.random.default_rng(10)
    for _ in range(1000):
        specs = [
            GaussianSpec("thermal", nbar=rng.uniform(0, 2.0)),
            GaussianSpec("coherent", alpha=complex(rng.uniform(-1, 1), rng.uniform(-1, 1))),
        ]
        out = apply_passive(gaussian_from_spec(specs), haar_unitary(2, rng))
        assert is_classical(out).label == "classical"
        assert ppt_verdicts(out, [(0,)])[0].label == "separable"


def test_apply_passive_preserves_uncertainty_relation():
    rng = np.random.default_rng(12)
    omega = symplectic_form(2)
    g = gaussian_from_spec(
        [GaussianSpec("squeezed_vacuum", r=0.9), GaussianSpec("thermal", nbar=0.2)]
    )
    for _ in range(50):
        out = apply_passive(g, haar_unitary(2, rng))
        herm = out.cov.astype(complex) + 0.5j * omega
        assert np.linalg.eigvalsh(herm)[0] >= -1e-10


# (n_modes, cutoff, amplitude bound) with coherent_leakage(bound * sqrt(n),
# cutoff) <= 1e-12: an output amplitude is at most the input norm, so every
# output marginal keeps its coherent moments to well inside 1e-10
_SAFE_SHAPES = [(2, 24, 1.0), (2, 14, 0.5), (3, 14, 0.5), (3, 10, 0.3)]


@st.composite
def _coherent_through_haar(draw):
    n_modes, cutoff, bound = draw(st.sampled_from(_SAFE_SHAPES))
    radii = draw(st.lists(st.floats(0.0, bound), min_size=n_modes, max_size=n_modes))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n_modes, max_size=n_modes))
    m = haar_unitary(n_modes, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return FockArena(n_modes, cutoff), bound, np.array(radii) * np.exp(1j * np.array(phases)), m


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=_coherent_through_haar())
def test_gaussian_and_fock_routes_agree_on_coherent_marginals(case):
    arena, bound, alpha, m = case
    assert coherent_leakage(bound * np.sqrt(arena.n_modes), arena.cutoff) <= 1e-12
    rows = transform_coherent_exact([m], alpha[None, :], arena)[0]
    reduced = marginals(Mixture(arena, [1.0], rows))
    g_out = apply_passive(
        gaussian_from_spec([GaussianSpec("coherent", alpha=complex(a)) for a in alpha]), m
    )
    for j, rho in enumerate(reduced):
        exp_a = dense_moments(rho)[0]
        mean = np.sqrt(2.0) * np.array([exp_a.real, exp_a.imag])
        assert np.abs(mean - g_out.mean[2 * j : 2 * j + 2]).max() <= 1e-10
        block = g_out.cov[2 * j : 2 * j + 2, 2 * j : 2 * j + 2]
        assert abs(min_quadrature_variance(rho) - np.linalg.eigvalsh(block)[0]) <= 1e-10


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=_coherent_through_haar())
def test_exact_transform_conserves_photon_number(case):
    # a passive map conserves N: the output row's <N> is the input's
    # sum |alpha|^2, up to the Poisson tail past the cutoff
    arena, _, alpha, m = case
    row = transform_coherent_exact([m], alpha[None, :], arena)[0, 0]
    photons = np.indices((arena.cutoff,) * arena.n_modes).sum(axis=0).ravel()
    assert abs(photons @ np.abs(row) ** 2 - np.sum(np.abs(alpha) ** 2)) <= 1e-10
