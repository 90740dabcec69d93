import numpy as np
import pytest

from bselab import _blas, passive, theoremlab, witnesses
from bselab.hilbert import FockArena
from bselab.passive import ModeUnitary, beam_splitter_matrix, transform_coherent_exact
from bselab.states import CoherentEnsemble
from bselab.theoremlab import (
    CampaignConfig,
    bipartitions,
    haar_unitary,
    random_classical_ensemble,
    run_campaign,
    run_theorem_trial,
)


def test_haar_unitary_is_unitary_and_deterministic():
    u1 = haar_unitary(3, np.random.default_rng(42))
    u2 = haar_unitary(3, np.random.default_rng(42))
    assert np.array_equal(u1.matrix, u2.matrix)
    assert np.abs(u1.matrix.conj().T @ u1.matrix - np.eye(3)).max() <= 1e-12


def test_random_ensemble_contract():
    ens = random_classical_ensemble(7, 2, 4, 1.0)
    assert 1 <= ens.n_components <= 4
    assert abs(ens.weights.sum() - 1.0) <= 1e-12
    assert np.all(ens.weights >= 0)
    assert np.abs(ens.alphas).max() <= 1.0
    again = random_classical_ensemble(7, 2, 4, 1.0)
    assert np.array_equal(ens.weights, again.weights)
    assert np.array_equal(ens.alphas, again.alphas)

    single = random_classical_ensemble(3, 2, 1, 0.5)
    assert single.n_components == 1

    with pytest.raises(ValueError):
        random_classical_ensemble(0, 2, 0, 1.0)


def test_bipartitions_enumeration():
    assert bipartitions(2) == [((0,), (1,))]
    three = bipartitions(3)
    assert len(three) == 3
    splits = {frozenset(map(frozenset, pair)) for pair in three}
    assert frozenset({frozenset({0}), frozenset({1, 2})}) in splits
    assert frozenset({frozenset({1}), frozenset({0, 2})}) in splits
    assert frozenset({frozenset({2}), frozenset({0, 1})}) in splits


def test_trial_identity_unitary_keeps_diagnostics():
    arena = FockArena(2, 12)
    ens = random_classical_ensemble(1, 2, 3, 0.6)
    record = run_theorem_trial(ens, ModeUnitary(np.eye(2)), arena)
    assert record.ppt_min_eigenvalue >= -1e-10
    assert record.cross_pipeline_max_dev <= 1e-10


@pytest.mark.parametrize("shape", [(3, 8, 0.5, 505), (2, 14, 1.0, 404)],
                         ids=["campaign5", "campaign4"])
def test_trial_pt_eigensolves_are_at_most_k_squared_wide(monkeypatch, shape):
    # route-2 rows of K coherent components are product states to within the
    # sector cut, so each side's K-wide range basis already leaves out less
    # than its half of the budget, and no partial-transpose spectrum is
    # wider than K^2
    n_modes, cutoff, bound, seed = shape
    widths = []
    spectra = witnesses._pt_spectra

    def recording(problems, budget):
        out = spectra(problems, budget)
        widths.extend(eigs.size for eigs, _, _ in out)
        return out

    monkeypatch.setattr(witnesses, "_pt_spectra", recording)
    summary = run_campaign(CampaignConfig(
        n_trials=100, seed=seed, n_modes=n_modes, max_ensemble_components=4,
        amplitude_bound=bound, cutoff=cutoff))
    cuts = len(bipartitions(n_modes))
    assert len(widths) == cuts * summary.n_completed == cuts * 100
    for i, record in enumerate(summary.records):
        k = len(record.input_description["weights"])
        assert max(widths[cuts * i: cuts * (i + 1)]) <= k * k
    assert max(widths) == 16  # four components occur, and each keeps its rank


def test_trial_single_component_runs_gaussian_oracle():
    arena = FockArena(2, 12)
    ens = CoherentEnsemble(2, np.array([1.0]), np.array([[0.5, 0.2j]], complex))
    record = run_theorem_trial(ens, beam_splitter_matrix(np.pi / 4), arena)
    assert record.gaussian_verdict is not None
    assert record.gaussian_verdict["is_classical"] == "classical"
    assert record.gaussian_verdict["bipartitions"] == [
        {"modes_a": [0], "modes_b": [1], "verdict": "separable",
         "ppt_margin": record.gaussian_verdict["bipartitions"][0]["ppt_margin"]}]
    assert abs(record.gaussian_verdict["bipartitions"][0]["ppt_margin"]) <= 1e-12


def test_trial_single_component_checks_every_cut_in_route_three():
    arena = FockArena(3, 6)
    ens = CoherentEnsemble(3, np.array([1.0]), np.array([[0.3, 0.2j, -0.1]], complex))
    record = run_theorem_trial(ens, haar_unitary(3, np.random.default_rng(2)), arena)
    cuts = record.gaussian_verdict["bipartitions"]
    assert [(c["modes_a"], c["modes_b"]) for c in cuts] == [
        (list(a), list(b)) for a, b in bipartitions(3)]
    assert all(c["verdict"] == "separable" for c in cuts)
    assert [name for name, _ in record.stage_times][-1] == "route3_gaussian"


#: four components of distinct means on 3 modes at cutoff 8, whose sector
#: bounds all lie below the arena's top sector 21
FOUR_COMPONENTS = CoherentEnsemble(3, np.full(4, 0.25), np.array(
    [[0.1, 0.2j, 0.3], [0.4, 0.0, 0.1j], [0.2, -0.2, 0.2j], [0.0, 0.5, 0.0]], complex))


def test_trial_walks_each_sector_bound_once(monkeypatch):
    # route 2 returns the tail each row drops and the cross-check reads it
    # there, so an attempt walks each component's sector bound once
    means, walk = [], passive._sector_tail_bound

    def counting(mean, top):
        means.append(mean)
        return walk(mean, top)

    monkeypatch.setattr(passive, "_sector_tail_bound", counting)
    run_theorem_trial(FOUR_COMPONENTS, haar_unitary(3, np.random.default_rng(5)), FockArena(3, 8))
    assert len(means) == FOUR_COMPONENTS.n_components


def test_trial_sector_tail_is_the_largest_tail_route_two_drops():
    arena, m = FockArena(3, 8), haar_unitary(3, np.random.default_rng(5))
    record = run_theorem_trial(FOUR_COMPONENTS, m, arena)
    tails = transform_coherent_exact([m], FOUR_COMPONENTS.alphas, arena)[1]
    assert len(set(tails.tolist())) == 4 and tails.min() > 0.0
    assert record.sector_tail == tails.max()


def test_trial_record_serialization_omits_wall_time():
    arena = FockArena(2, 12)
    ens = random_classical_ensemble(2, 2, 2, 0.5)
    record = run_theorem_trial(ens, haar_unitary(2, np.random.default_rng(0)), arena)
    payload = record.to_json_dict()
    assert set(payload) == {
        "seed", "cutoff", "leak", "attempts", "input", "unitary",
        "ppt_min_eigenvalue", "ppt_headroom", "bipartitions", "cross_pipeline_max_dev",
        "sector_tail", "gaussian",
    }
    assert len(payload["bipartitions"]) == 1
    assert set(payload["bipartitions"][0]) == {
        "modes_a", "modes_b", "min_pt_eigenvalue", "negativity", "log_negativity",
        "pt_bound", "verdict",
    }
    # timings stay off the record's bytes; the stages run in order and
    # account for the whole trial
    assert [name for name, _ in record.stage_times] == [
        "route1_closed_form", "route2_transform", "pt_spectrum", "cross_check"]
    assert sum(t for _, t in record.stage_times) <= record.wall_time


def test_empty_campaign():
    summary = run_campaign(CampaignConfig(n_trials=0, seed=1))
    assert summary.n_completed == 0
    assert summary.findings == ()
    assert summary.worst_ppt_min_eigenvalue is None
    assert summary.clean


def test_small_campaign_clean_and_reproducible():
    cfg = CampaignConfig(n_trials=8, seed=123, n_modes=2, cutoff=14)
    s1 = run_campaign(cfg)
    s2 = run_campaign(cfg)
    assert s1.clean
    assert s1.worst_ppt_min_eigenvalue >= -1e-8
    assert s1.to_json_dict() == s2.to_json_dict()
    assert [r.to_json_dict() for r in s1.records] == [r.to_json_dict() for r in s2.records]


def test_campaign_parallel_matches_serial():
    base = CampaignConfig(n_trials=8, seed=9, n_modes=2, cutoff=14)
    parallel = CampaignConfig(n_trials=8, seed=9, n_modes=2, cutoff=14, threads=4)
    r1 = [r.to_json_dict() for r in run_campaign(base).records]
    r4 = [r.to_json_dict() for r in run_campaign(parallel).records]
    assert r1 == r4


def test_campaign_pins_blas_and_restores_it(monkeypatch):
    libs = _blas._openblas()
    if not libs:
        pytest.skip("no loaded OpenBLAS exports a thread-count call")
    original = [lib.get_num_threads() for lib in libs]
    seen = []

    def spy(*args, **kwargs):
        seen.append([lib.get_num_threads() for lib in libs])
        return run_theorem_trial(*args, **kwargs)

    monkeypatch.setattr(theoremlab, "run_theorem_trial", spy)
    try:
        for lib in libs:
            lib.set_num_threads(3)
        run_campaign(CampaignConfig(n_trials=2, seed=4, cutoff=10,
                                    amplitude_bound=0.5, threads=2))
        after = [lib.get_num_threads() for lib in libs]
    finally:
        for lib, n in zip(libs, original):
            lib.set_num_threads(n)
    assert seen == [[1] * len(libs)] * 2
    assert after == [3] * len(libs)


def test_retried_trials_draw_their_unitary_once(monkeypatch):
    # the retrying config: 3 of its 8 trials overflow cutoff 6 and retry,
    # on the ensemble and unitary their first attempt drew
    draws = []

    def counting(n, rng):
        draws.append(n)
        return haar_unitary(n, rng)

    monkeypatch.setattr(theoremlab, "haar_unitary", counting)
    summary = run_campaign(CampaignConfig(n_trials=8, seed=0, n_modes=3, cutoff=6,
                                          amplitude_bound=0.5))
    assert summary.n_completed == 8 and summary.n_retried == 3
    assert len(draws) == 8


def test_beam_splitter_grid_source():
    cfg = CampaignConfig(
        n_trials=6, seed=2, n_modes=2, cutoff=14, unitary_source="beam_splitter_grid"
    )
    summary = run_campaign(cfg)
    assert summary.clean
    assert all(
        r.unitary_description["source"] == "beam_splitter_grid" for r in summary.records
    )


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(n_trials=-1, seed=0)
    with pytest.raises(ValueError):
        CampaignConfig(n_trials=1, seed=0, n_modes=1)
    with pytest.raises(ValueError):
        CampaignConfig(n_trials=1, seed=0, unitary_source="magic")
    with pytest.raises(ValueError):
        CampaignConfig(n_trials=1, seed=0, n_modes=3, unitary_source="beam_splitter_grid")
    # truncation-unsafe combination is rejected up front
    with pytest.raises(ValueError):
        CampaignConfig(n_trials=1, seed=0, amplitude_bound=2.0, cutoff=6)
    # a manual ensemble is checked at its own largest |alpha|, the only
    # amplitude its trials see, however small amplitude_bound is
    with pytest.raises(ValueError, match="truncation-unsafe for"):
        CampaignConfig(n_trials=1, cutoff=8, amplitude_bound=0.1,
                       manual_ensemble=CoherentEnsemble(2, [1.0], [[2.5, 0.0]]))
    # numpy integers count as integers (the CLI rejects floats and bools)
    assert CampaignConfig(n_trials=np.int64(1), seed=np.uint32(3)).seed == 3


@pytest.mark.parametrize("make, match", [
    (lambda: CampaignConfig(n_trials=1, n_modes=3, manual_ensemble=CoherentEnsemble(
        2, [1.0], [[0.1, 0.0]])), "manual ensemble mode count does not match config"),
    (lambda: run_theorem_trial(CoherentEnsemble(1, [1.0], [[0.1]]), ModeUnitary(np.eye(1)),
                               FockArena(1, 6)), "need at least 2 modes for a bipartition"),
], ids=["manual-ensemble-modes", "one-mode-trial"])
def test_malformed_trial_input_is_rejected(make, match):
    # a one-mode trial has no cut to test, and is refused before its routes run
    with pytest.raises(ValueError, match=match):
        make()

