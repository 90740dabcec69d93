import json
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bselab import cli, witnesses
from bselab.hilbert import FockArena, Mixture
from bselab.passive import ModeUnitary, beam_splitter_matrix, transform_coherent_exact
from bselab.states import (
    CoherentEnsemble,
    _coherent_rows,
    coherent,
    fock,
    squeezed_vacuum,
    thermal,
)
from bselab.theoremlab import (
    CampaignConfig,
    bipartitions,
    haar_unitary,
    random_classical_ensemble,
    run_theorem_trial,
)
from bselab.witnesses import (
    PPT_TOL,
    PT_BOUND_SHARE,
    VACUUM_NBAR_EPS,
    mandel_q,
    negativity_reports,
)
from reference import (
    DensityOperator,
    dense_moments,
    dense_pt_eigenvalues,
    exact_pt_spectrum,
    lift_unitary,
    min_quadrature_variance,
    quadrature_variance,
    svd_pt_spectrum,
    to_density,
    weighted_sides,
)


def _bell(arena):
    amps = np.zeros(arena.total_dim, complex)
    amps[arena.encode((1, 0))] = 1 / np.sqrt(2)
    amps[arena.encode((0, 1))] = 1 / np.sqrt(2)
    return Mixture(arena, [1.0], [amps])


def test_negativity_of_bell_like_state():
    report = negativity_reports([(_bell(FockArena(2, 2)), ((0,), (1,)))])[0]
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
        rho = Mixture(arena, [1.0], [coherent(arena, [a, b])])
        report = negativity_reports([(rho, ((0,), (1,)))])[0]
        assert report.negativity <= 1e-12
        assert report.verdict == "separable_by_ppt_nonviolation"
        assert report.log_negativity == pytest.approx(
            np.log2(1 + 2 * report.negativity), abs=1e-12
        )


def test_negativity_invariant_under_local_phase_rotations():
    arena = FockArena(2, 4)
    rho = _bell(arena)
    base = negativity_reports([(rho, ((0,), (1,)))])[0].negativity
    for phi in (0.3, 1.2, 2.9):
        local = ModeUnitary(np.diag([np.exp(1j * phi), 1.0]))
        rotated = Mixture(arena, rho.weights, rho.rows @ lift_unitary(local, arena).matrix.T)
        rep = negativity_reports([(rotated, ((0,), (1,)))])[0]
        assert rep.negativity == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("offset, verdict", [
    (0.5, "entangled"), (1.5, "separable_by_ppt_nonviolation")])
def test_verdict_nets_the_pt_bound(monkeypatch, offset, verdict):
    # the rank cut's bound b makes the PPT check stricter: a least
    # eigenvalue e = -ppt_tol + offset * b reads entangled while e - b sits
    # below -ppt_tol, although e alone sits above it
    bound = 1e-10

    def spectra(problems, budget):
        return [(np.array([-PPT_TOL + offset * bound, 0.5]), False, bound) for _ in problems]

    monkeypatch.setattr(witnesses, "_pt_spectra", spectra)
    report = negativity_reports([(_bell(FockArena(2, 2)), ((0,), (1,)))])[0]
    assert report.min_pt_eigenvalue == -PPT_TOL + offset * bound
    assert report.pt_bound == bound
    assert report.verdict == verdict


@pytest.mark.parametrize("n_modes, cutoff, scale", [(2, 4, 0.0), (3, 3, 0.0), (2, 4, 1e-12)])
def test_states_below_the_budget_keep_one_basis_column(n_modes, cutoff, scale):
    # rows whose whole mass sits below the rank-cut budget (zero rows, or a
    # Bell row scaled by 1e-12, mass 1e-24) leave every R diagonal of the
    # range finder under it; the basis keeps its first column all the same,
    # so the compressed spectrum is not empty and reads about 0
    arena = FockArena(n_modes, cutoff)
    bell = fock(arena, (1,) + (0,) * (n_modes - 1)) + fock(arena, (0, 1) + (0,) * (n_modes - 2))
    rows = scale / np.sqrt(2) * np.stack([bell, bell])
    state = Mixture(arena, [1.0, 0.5], rows, leak_tol=1.0)
    report = negativity_reports([(state, ((0,), tuple(range(1, n_modes))))])[0]
    assert abs(report.min_pt_eigenvalue) <= scale ** 2
    assert report.verdict == "separable_by_ppt_nonviolation"


def test_negativity_rejects_bad_bipartition():
    rho = _bell(FockArena(2, 2))
    with pytest.raises(ValueError):
        negativity_reports([(rho, ((0,), (0, 1)))])[0]
    with pytest.raises(ValueError):
        negativity_reports([(rho, ((), (0, 1)))])[0]


def test_classical_ensemble_output_is_ppt_nonviolating():
    rng = np.random.default_rng(15)
    arena = FockArena(2, 20)
    alphas = 0.7 * (rng.uniform(-1, 1, (3, 2)) + 1j * rng.uniform(-1, 1, (3, 2)))
    ens = CoherentEnsemble(2, rng.dirichlet(np.ones(3)), alphas)
    u = lift_unitary(beam_splitter_matrix(0.61, 0.2, 1.4), arena)
    rows = coherent(arena, ens.alphas) @ u.matrix.T
    rho = Mixture(arena, ens.weights, rows)
    assert negativity_reports([(rho, ((0,), (1,)))])[0].min_pt_eigenvalue >= -1e-8


def test_product_mixture_has_psd_partial_transpose():
    # a product of two random local mixed states, each a weighted set of
    # rows: every partial-transpose eigenvalue stays >= 0
    rng = np.random.default_rng(2)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    local_w = np.sum(np.abs(z) ** 2, axis=0)
    local_rows = (z / np.sqrt(local_w)).T  # row k: column k of z, normalised
    local_w = local_w / local_w.sum()
    rows = np.einsum("ia,jb->ijab", local_rows, local_rows).reshape(9, 9)
    rho = Mixture(FockArena(2, 3), np.kron(local_w, local_w), rows)
    for bp in (((0,), (1,)), ((1,), (0,))):
        report = negativity_reports([(rho, bp)])[0]
        assert report.min_pt_eigenvalue >= -1e-12
        assert report.negativity == 0.0


@st.composite
def _row_mixtures(draw):
    """K weighted rows on 2 modes or 3 modes, at cutoffs where K rows span
    less than the full space on one side of a 1|2 cut and where they do
    not. Rows are random vectors or lifted Fock states (entangled, full
    rank: nothing above roundoff may be cut), exact coherent outputs
    (separable), or those plus a tiny random residue (the cut must move the
    spectrum); some rows repeat and some weights are 0."""
    n_modes = draw(st.sampled_from((2, 3, 3)))
    cutoff = draw(st.integers(3, 5) if n_modes == 2 else st.integers(3, 4))
    k = draw(st.integers(1, cutoff + 2))
    kind = draw(st.sampled_from(("random", "fock", "coherent", "near-product")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arena = FockArena(n_modes, cutoff)
    if kind == "random":
        z = rng.standard_normal((k, arena.total_dim)) + 1j * rng.standard_normal(
            (k, arena.total_dim))
        rows = z / np.linalg.norm(z, axis=1, keepdims=True)
    elif kind == "fock":
        rows = np.array([
            lift_unitary(haar_unitary(n_modes, rng), arena).matrix
            @ fock(arena, rng.integers(0, cutoff, n_modes))
            for _ in range(k)
        ])
    else:
        alphas = 0.4 * np.exp(2j * np.pi * rng.uniform(size=(k, n_modes)))
        rows = transform_coherent_exact([haar_unitary(n_modes, rng)], alphas, arena)[0][0]
        if kind == "near-product":
            # an entangled residue of amplitude 1e-11, below the budget:
            # the cut drops it and moves the least eigenvalue by ~1e-11
            z = rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)
            rows = rows + 1e-11 * z / np.linalg.norm(z, axis=1, keepdims=True)
    repeats = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    if draw(st.booleans()):
        rows = rows[repeats]  # rank-deficient: repeated rows
    weights = rng.dirichlet(np.ones(k))
    if k > 1 and draw(st.booleans()):
        weights[repeats[0]] = 0.0
        weights /= weights.sum()
    part_a = draw(st.sampled_from(bipartitions(n_modes)))[0]
    return Mixture(arena, weights, rows, leak_tol=1.0), part_a, kind


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=_row_mixtures())
def test_compressed_pt_matches_dense_reference(case):
    # the rank cut moves the least eigenvalue by at most its bound b, against
    # the exact spectrum on the local supports and the dense one; by
    # Hoffman-Wielandt the negativity moves by at most sqrt(dim) b
    state, part_a, kind = case
    arena, k = state.arena, state.weights.size
    part_b = tuple(m for m in range(arena.n_modes) if m not in part_a)
    for a, b in ((part_a, part_b), (part_b, part_a)):
        report = negativity_reports([(state, (a, b))])[0]
        bound = report.pt_bound
        assert 0.0 <= bound <= PT_BOUND_SHARE * PPT_TOL
        if kind == "random":
            assert bound <= 1e-13  # full rank: only roundoff is cut
        exact, proper = exact_pt_spectrum(state.weights, state.rows, arena.cutoff, a, b)
        exact_min = min(exact[0], 0.0) if proper else exact[0]
        assert abs(report.min_pt_eigenvalue - exact_min) <= bound + 1e-13
        dense = dense_pt_eigenvalues(state.weights, state.rows, arena, a)
        assert abs(report.min_pt_eigenvalue - dense[0]) <= bound + 1e-13
        assert abs(report.negativity - max(0.0, -dense[dense < 0].sum())) <= (
            np.sqrt(dense.size) * bound + 1e-13)
        dense_verdict = "entangled" if dense[0] < -PPT_TOL else "separable_by_ppt_nonviolation"
        assert report.verdict == dense_verdict
        d_a, d_b = arena.cutoff ** len(a), arena.cutoff ** len(b)
        if k * d_b < d_a or k * d_a < d_b:  # the compressed space is proper
            assert report.min_pt_eigenvalue <= 0.0


# per mode count, a campaign cutoff and (to 0.05) the largest amplitude bound
# a campaign config accepts there: coherent leakage within the leak budget
EDGE_SHAPES = {2: (10, 1.1), 3: (6, 0.55)}


@st.composite
def _classical_inputs(draw):
    """A random classical ensemble at an edge shape and a random Haar
    unitary, with every component amplitude vector of norm at most the
    shape's bound, so that every output mode stays within it too."""
    n_modes = draw(st.sampled_from(sorted(EDGE_SHAPES)))
    cutoff, bound = EDGE_SHAPES[n_modes]
    k = draw(st.integers(1, 4))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    if sum(weights) == 0.0:
        weights[0] = 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((k, n_modes)) + 1j * rng.standard_normal((k, n_modes))
    radii = bound * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    alphas = radii[:, None] * z / np.linalg.norm(z, axis=1, keepdims=True)
    ens = CoherentEnsemble(n_modes, np.array(weights), alphas)
    return ens, haar_unitary(n_modes, rng), FockArena(n_modes, cutoff), bound


@st.composite
def _classical_outputs(draw):
    """A classical input through its unitary by the exact transform."""
    ens, m, arena, bound = draw(_classical_inputs())
    rows = transform_coherent_exact([m], ens.alphas, arena)[0][0]
    return Mixture(arena, ens.weights, rows), bound


def test_edge_shapes_are_the_largest_safe_bounds():
    for n_modes, (cutoff, bound) in EDGE_SHAPES.items():
        CampaignConfig(n_trials=1, seed=0, n_modes=n_modes, cutoff=cutoff,
                       amplitude_bound=bound)
        with pytest.raises(ValueError, match="truncation-unsafe"):
            CampaignConfig(n_trials=1, seed=0, n_modes=n_modes, cutoff=cutoff,
                           amplitude_bound=bound + 0.05)


# the rank-cut budget eps_A + eps_B at the default tolerance: b = 2 sqrt(eps)
BUDGET = (PT_BOUND_SHARE * PPT_TOL / 2.0) ** 2


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=_row_mixtures())
def test_range_basis_residual_is_measured(case):
    # each side's basis leaves out at most half the budget, and what it
    # reports leaving out is no less than the SVD tail at its width
    # (Eckart-Young): a residual measured wrong, say as a difference of
    # traces (rounding near 1e-16), would undercut that floor.  The floor
    # itself is known only to the SVD's backward error: each computed
    # sigma_j is exact for S + E, ||E|| <= delta = max(d, n) u sigma_1, so a
    # tail of mass t over m values is known to 2 sqrt(m t) delta + m delta^2
    # (about 1e-28 on near-product rows, where the tail is near 1e-22)
    state, part_a, _ = case
    part_b = tuple(m for m in range(state.arena.n_modes) if m not in part_a)
    s_a, s_b, _ = weighted_sides(state.weights, state.rows, state.arena.cutoff,
                                 part_a, part_b)
    for s in (s_a, s_b):
        q, eps = witnesses._range_bases(s[None], state.weights.size, BUDGET / 2.0)[0]
        assert np.abs(q.conj().T @ q - np.eye(q.shape[1])).max() <= 1e-12
        assert 0.0 <= eps <= BUDGET / 2.0
        sv = np.linalg.svd(s, compute_uv=False)
        tail = sv[q.shape[1]:]
        delta = max(s.shape) * np.finfo(float).eps * sv[0]
        slack = 2.0 * np.sqrt(tail.size * np.sum(tail**2)) * delta + tail.size * delta**2
        assert eps >= float(np.sum(tail**2)) - slack


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=_classical_outputs())
def test_classical_widths_match_the_svd_cut(case):
    # on classical outputs the range bases are as wide as the SVD cut's
    # kept singular vectors, and both spectra start within their bounds
    state, _ = case
    args = (state.weights, state.rows, state.arena.cutoff)
    for a, b in bipartitions(state.arena.n_modes):
        eigs, _, bound = witnesses._pt_spectra([(*args, a, b)], BUDGET)[0]
        ref, _, ref_bound = svd_pt_spectrum(*args, a, b, BUDGET)
        assert eigs.size == ref.size
        assert abs(eigs[0] - ref[0]) <= bound + ref_bound + 1e-13


def _fock_33(arena):
    u = lift_unitary(beam_splitter_matrix(np.pi / 4), arena).matrix
    return Mixture(arena, [1.0], [u @ fock(arena, (3, 3))], leak_tol=1.0)


def _classical_k4(arena):
    rng = np.random.default_rng(4)
    alphas = 0.5 * np.exp(2j * np.pi * rng.uniform(size=(4, arena.n_modes)))
    rows = transform_coherent_exact([haar_unitary(arena.n_modes, rng)], alphas, arena)[0][0]
    return Mixture(arena, rng.dirichlet(np.ones(4)), rows)


@pytest.mark.parametrize("sketch", ["zeros", "orthogonal"])
@pytest.mark.parametrize("make, arena", [
    (_bell, FockArena(2, 4)),
    (_fock_33, FockArena(2, 8)),
    (_classical_k4, FockArena(3, 8)),
], ids=["bell", "fock33", "classical-k4"])
def test_certificate_not_sketch_carries_correctness(monkeypatch, sketch, make, arena):
    # a sketch that sees nothing of the range: the measured residual still
    # sends the basis to the exact range, and the reports stay correct.  All
    # cuts run in one call, so the sides of one shape share a stack and the
    # sketch is blind to every matrix stacked with it
    current = {}
    range_bases = witnesses._range_bases

    def recording(s, r, budget):
        current["s"] = s
        return range_bases(s, r, budget)

    def blind(d, r):
        current["sketches"] = current.get("sketches", 0) + 1
        if sketch == "zeros":
            return np.zeros((d, r), complex)
        # columns orthogonal to the range of every stacked s, so that
        # s^dag omega = 0 for each
        u, sv = np.linalg.svd(np.hstack(tuple(current["s"])))[:2]
        null = u[:, int(np.sum(sv > 1e-13)):][:, :r]
        return np.hstack((null, np.zeros((d, r - null.shape[1]), complex)))

    state = make(arena)
    monkeypatch.setattr(witnesses, "_range_bases", recording)
    monkeypatch.setattr(witnesses, "_sketch", blind)
    cuts = bipartitions(arena.n_modes)
    for bp, report in zip(cuts, negativity_reports([(state, bp) for bp in cuts])):
        dense = dense_pt_eigenvalues(state.weights, state.rows, arena, bp[0])
        assert abs(report.min_pt_eigenvalue - dense[0]) <= report.pt_bound + 1e-13
        dense_verdict = "entangled" if dense[0] < -PPT_TOL else "separable_by_ppt_nonviolation"
        assert report.verdict == dense_verdict
    assert current["sketches"] > 0


class _LapackCount:
    """numpy as ``witnesses`` sees it, with its np.linalg.qr and eigvalsh
    calls counted."""

    def __init__(self):
        self.calls = {"qr": 0, "eigvalsh": 0}
        self.linalg = types.SimpleNamespace(
            **{name: self._counted(name) for name in self.calls})

    def _counted(self, name):
        fn = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("n_modes, cutoff, bound, n_qr", [
    (3, 8, 0.5, 4),
    (2, 14, 1.0, 2),
], ids=["campaign5", "campaign4"])
def test_trial_pt_stage_stacks_its_lapack_calls(monkeypatch, n_modes, cutoff, bound, n_qr):
    # the sides of all cuts of one shape share each QR step, and the K^2-wide
    # compressed matrices of all cuts one eigensolve: 3 modes have two side
    # shapes (8 x 64K and 64 x 8K), 2 modes one
    count = _LapackCount()
    monkeypatch.setattr(witnesses, "np", count)
    rng = np.random.default_rng(505)
    ks = set()
    for _ in range(12):
        ens = random_classical_ensemble(rng, n_modes, 4, bound)
        m = haar_unitary(n_modes, rng)
        count.calls = dict.fromkeys(count.calls, 0)
        run_theorem_trial(ens, m, FockArena(n_modes, cutoff))
        assert count.calls == {"qr": n_qr, "eigvalsh": 1}
        ks.add(ens.n_components)
    assert ks == {1, 2, 3, 4}


def test_sweep_pt_stage_stacks_its_lapack_calls(monkeypatch, tmp_path):
    # a 5-angle ensemble sweep: both sides of all five angles in one stack
    count = _LapackCount()
    monkeypatch.setattr(witnesses, "np", count)
    rng = np.random.default_rng(6)
    ensemble = [{"weight": float(w), "alphas": [[a.real, a.imag] for a in row]}
                for w, row in zip(rng.dirichlet(np.ones(4)),
                                  np.exp(2j * np.pi * rng.uniform(size=(4, 2))))]
    cfg = tmp_path / "ensemble.json"
    cfg.write_text(json.dumps({"version": 1, "ensemble": ensemble}))
    thetas = ",".join(repr(float(t)) for t in np.linspace(0.0, np.pi / 2.0, 5))
    assert cli.main(["sweep", "--input", "ensemble", "--config", str(cfg), "--cutoff", "22",
                     "--thetas", thetas, "--out", str(tmp_path / "sweep")]) == 0
    assert count.calls == {"qr": 2, "eigvalsh": 1}


# roundoff allowed below the truncation floor of Mandel Q
Q_MARGIN = 1e-8


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=_classical_outputs())
def test_classical_output_is_ppt_and_poissonian(case):
    state, bound = case
    for bp in bipartitions(state.arena.n_modes):
        assert negativity_reports([(state, bp)])[0].min_pt_eigenvalue >= -PPT_TOL
    # Truncation alone pulls Mandel Q below 0: a truncated Poisson law has
    # variance < mean. A mixture's Q is at least its components' smallest
    # Q, and a truncated coherent state's Q falls with |alpha|, so the floor
    # is the Q of one coherent state at the bound. At these edge bounds that
    # floor lies far below -Q_MARGIN (-3.5e-5 at cutoff 10, |alpha| 1.1).
    cutoff = state.arena.cutoff
    floor = min(0.0, mandel_q(_probs(coherent(FockArena(1, cutoff), [bound]))))
    for probs in state.photon_distributions():
        assert mandel_q(probs) >= floor - Q_MARGIN


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(case=_classical_inputs())
def test_pup_lift_output_is_ppt_to_within_the_input_truncation(case):
    # P U P on a truncated coherent row P|alpha> differs from the product
    # row P U|alpha> by P U (1 - P)|alpha>, of norm sqrt(leak). So each row
    # is within sqrt(leak_i) of a product vector, the mixture is within
    # 2 sum_i w_i sqrt(leak_i) of a separable one in trace norm, and Weyl's
    # inequality bounds the partial transpose's least eigenvalue below by
    # minus that floor. At the edge bounds the floor is near 1e-3 and the
    # lift reads down to about -2e-4, far past -PPT_TOL: route 2 therefore
    # transforms untruncated states.
    ens, m, arena, _ = case
    inputs = _coherent_rows(ens.alphas, arena.occupation_table())
    leaks = 1.0 - np.sum(np.abs(inputs) ** 2, axis=1)
    floor = 2.0 * float(ens.weights @ np.sqrt(np.maximum(leaks, 0.0)))
    state = Mixture(arena, ens.weights, inputs @ lift_unitary(m, arena).matrix.T, leak_tol=1.0)
    for bp in bipartitions(arena.n_modes):
        report = negativity_reports([(state, bp)])[0]
        assert report.min_pt_eigenvalue - report.pt_bound >= -PPT_TOL - floor


def _probs(psi):
    """Photon-number distribution of a single-mode pure state."""
    return np.abs(psi) ** 2


def test_mandel_q_reference_states():
    assert mandel_q(_probs(coherent(FockArena(1, 25), [1.0]))) == pytest.approx(0.0, abs=1e-8)
    assert mandel_q(_probs(fock(FockArena(1, 4), (1,)))) == -1.0
    hot = thermal(FockArena(1, 30), 1.0).photon_distributions()[0]
    assert mandel_q(hot) == pytest.approx(1.0, abs=1e-6)
    # vacuum convention: 0/0 defined as 0
    assert mandel_q(_probs(fock(FockArena(1, 4), (0,)))) == 0.0


def test_mandel_q_on_multimode_reduction():
    arena = FockArena(2, 4)
    probs = Mixture(arena, [1.0], [fock(arena, (1, 0))]).photon_distributions()
    assert mandel_q(probs[0]) == -1.0
    assert mandel_q(probs[1]) == 0.0
    # Mandel Q reads one mode's distribution: anything not 1-d is refused
    for bad in (probs, np.diag(probs[0]), 1.0):
        with pytest.raises(ValueError, match="one mode"):
            mandel_q(bad)


@st.composite
def _single_mode_densities(draw):
    """A random PSD single-mode density G G^dag scaled to trace <= 1."""
    cutoff = draw(st.integers(1, 25))
    rank = draw(st.integers(1, cutoff))
    trace = draw(st.floats(1e-3, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((cutoff, rank)) + 1j * rng.standard_normal((cutoff, rank))
    rho = g @ g.conj().T
    return DensityOperator(FockArena(1, cutoff), trace * rho / np.trace(rho).real,
                           leak_tol=1.0)


def _close(value, reference):
    return abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(rho=_single_mode_densities())
@example(rho=DensityOperator(FockArena(1, 1), [[1.0]]))
@example(rho=DensityOperator(FockArena(1, 2), [[0.5, 0.3j], [-0.3j, 0.5]]))
def test_closed_sum_moments_match_dense_ladder(rho):
    # cutoffs 1 and 2 are the edge cases: vacuum only, and one photon at most;
    # Mandel Q from the diagonal's closed sums against tr(rho n^p) with ladders
    exp_n, exp_n2 = dense_moments(rho)[2:]
    q_ref = 0.0 if exp_n < VACUUM_NBAR_EPS else (exp_n2 - exp_n**2 - exp_n) / exp_n
    assert _close(mandel_q(rho.matrix.diagonal().real), q_ref)


def test_quadrature_variance_reference_states():
    small, mid, big = FockArena(1, 6), FockArena(1, 25), FockArena(1, 30)
    vac = to_density(small, fock(small, (0,) * small.n_modes))
    for theta in (0.0, 0.7, 2.1):
        assert quadrature_variance(vac, 0, theta) == pytest.approx(0.5, abs=1e-12)

    coh = to_density(mid, coherent(mid, [0.8 - 0.5j]))
    assert quadrature_variance(coh, 0, 1.3) == pytest.approx(0.5, abs=1e-8)

    sq = to_density(big, squeezed_vacuum(big, 0.5, 0.0))
    assert quadrature_variance(sq, 0, 0.0) == pytest.approx(np.exp(-1.0) / 2, abs=1e-6)
    assert min_quadrature_variance(sq) == pytest.approx(np.exp(-1.0) / 2, abs=1e-6)


def test_min_variance_tracks_squeezing_phase():
    for theta_s in (0.0, 0.9, 2.5):
        arena = FockArena(1, 30)
        sq = to_density(arena, squeezed_vacuum(arena, 0.4, theta_s))
        assert quadrature_variance(sq, 0, theta_s / 2) == pytest.approx(
            np.exp(-0.8) / 2, abs=1e-6
        )

