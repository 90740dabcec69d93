"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with -s to see them on success;
pytest shows them on failure regardless) and asserts the property at its
stated tolerance.
"""

import json

import numpy as np
import pytest

from bselab import cli
from bselab.gaussian import (
    apply_passive,
    gaussian_from_spec,
    is_classical,
    ppt_verdicts,
)
from bselab.hilbert import FockArena, Mixture
from bselab.passive import beam_splitter_matrix
from bselab.states import GaussianSpec, coherent, fock, squeezed_vacuum, thermal
from bselab.theoremlab import (
    CampaignConfig,
    bipartitions,
    haar_unitary,
    run_campaign,
)
from bselab.witnesses import negativity_reports
from reference import conjugation_residual, lift_unitary


def _verdict(n: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def lift_set():
    """Shared unitary set for criteria 1 and 2: 50 random 2-mode lifts at
    cutoff 10 and 20 random 3-mode lifts at cutoff 8."""
    rng = np.random.default_rng(2024)
    lifts = []
    arena2 = FockArena(2, 10)
    for _ in range(50):
        m = haar_unitary(2, rng)
        lifts.append((m, lift_unitary(m, arena2), arena2))
    arena3 = FockArena(3, 8)
    for _ in range(20):
        m = haar_unitary(3, rng)
        lifts.append((m, lift_unitary(m, arena3), arena3))
    return lifts


def test_acceptance_1_vacuum_invariance(lift_set):
    worst = 0.0
    for _, lifted, arena in lift_set:
        vac = fock(arena, (0,) * arena.n_modes)
        worst = max(worst, float(np.abs(lifted.apply_to_vector(vac) - vac).max()))
    _verdict(1, "vacuum invariance", worst <= 1e-10)


def test_acceptance_2_conjugation_law(lift_set):
    worst = 0.0
    for m, lifted, arena in lift_set:
        for mode in range(arena.n_modes):
            worst = max(worst, conjugation_residual(lifted, m, mode))
    _verdict(2, "conjugation law", worst <= 1e-8)


def test_acceptance_3_coherent_covariance():
    rng = np.random.default_rng(77)
    arena = FockArena(2, 20)
    worst = 1.0
    for _ in range(100):
        radii = np.sqrt(rng.uniform(0.0, 1.0, 2))
        alpha = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2))
        m = haar_unitary(2, rng)
        psi = lift_unitary(m, arena).matrix @ coherent(arena, alpha)
        target = coherent(arena, alpha @ np.conj(m.matrix))
        worst = min(worst, abs(np.vdot(target, psi)) ** 2)
    _verdict(3, "coherent covariance", worst >= 1.0 - 1e-6)


def test_acceptance_4_two_mode_theorem_campaign():
    summary = run_campaign(
        CampaignConfig(
            n_trials=200,
            seed=404,
            n_modes=2,
            max_ensemble_components=4,
            amplitude_bound=1.0,
            cutoff=14,
        )
    )
    ok = (
        summary.clean
        and summary.n_completed == 200
        and summary.worst_ppt_min_eigenvalue >= -1e-8
    )
    _verdict(4, "two-mode theorem campaign", ok)


def test_acceptance_5_three_mode_campaign():
    summary = run_campaign(
        CampaignConfig(
            n_trials=100,
            seed=505,
            n_modes=3,
            max_ensemble_components=4,
            amplitude_bound=0.5,
            cutoff=8,
            unitary_source="random_haar",
        )
    )
    ok = summary.clean and summary.n_completed == 100
    expected = {tuple(sorted(bp)) for bp in bipartitions(3)}
    for record in summary.records:
        seen = {tuple(sorted(r.bipartition)) for r in record.entanglement_reports}
        ok = ok and seen == expected
        ok = ok and all(
            r.min_pt_eigenvalue >= -1e-8 for r in record.entanglement_reports
        )
    _verdict(5, "three-mode campaign", ok)


def _demo_report(out, name: str, *options: str) -> tuple[int, dict]:
    """Exit code and report.json of ``bselab demo name`` at cutoff 6."""
    code = cli.main(["demo", name, "--cutoff", "6", *options, "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())


def test_acceptance_6_entanglement_generation_benchmark(tmp_path):
    code, split = _demo_report(tmp_path / "split", "bell")  # theta = pi/4
    ok = code == 0 and abs(split["log_negativity"] - 1.0) <= 1e-9
    code, flat = _demo_report(tmp_path / "flat", "bell", "--theta", "0")
    ok = ok and code == 0 and abs(flat["log_negativity"]) <= 1e-9
    _verdict(6, "entanglement generation benchmark", ok)


def test_acceptance_7_non_sufficiency(tmp_path):
    code, report = _demo_report(tmp_path, "inverse")
    ok = (
        code == 0
        and report["inverse_negativity"] <= 1e-9
        and report["recovered_fidelity"] >= 1.0 - 1e-9
        and report["input_mandel_q"] == -1.0
    )
    _verdict(7, "non-sufficiency demo", ok)


def _factor_rows(spec: GaussianSpec, arena: FockArena):
    """(weights, rows) of a single-mode factor: a thermal state is Fock rows
    with its thermal weights, a coherent state one row of weight 1."""
    if spec.kind == "thermal":
        state = thermal(arena, spec.nbar)
        return state.weights, state.rows
    return np.ones(1), coherent(arena, [spec.alpha])[None]


def test_acceptance_8_gaussian_oracle_agreement():
    rng = np.random.default_rng(808)
    arena = FockArena(2, 18)
    ok = True
    worst_negativity = 0.0
    for _ in range(100):
        specs = []
        for _ in range(2):
            if rng.uniform() < 0.5:
                specs.append(GaussianSpec("thermal", nbar=float(rng.uniform(0.0, 0.4))))
            else:
                a = 0.7 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
                specs.append(GaussianSpec("coherent", alpha=complex(a)))
        m = haar_unitary(2, rng)

        g_out = apply_passive(gaussian_from_spec(specs), m)
        ok = ok and is_classical(g_out).label == "classical"
        ok = ok and ppt_verdicts(g_out, [(0,)])[0].label == "separable"

        (w_a, rows_a), (w_b, rows_b) = (_factor_rows(s, FockArena(1, 18)) for s in specs)
        rows_in = np.einsum("ia,jb->ijab", rows_a, rows_b).reshape(-1, arena.total_dim)
        rows_out = rows_in @ lift_unitary(m, arena).matrix.T
        state = Mixture(arena, np.kron(w_a, w_b), rows_out)
        neg = negativity_reports([(state, ((0,), (1,)))])[0].negativity
        worst_negativity = max(worst_negativity, neg)
    ok = ok and worst_negativity <= 1e-7

    # two-mode squeezed vacuum at r = 0.5: both pipelines flag entanglement
    tmsv_cov = apply_passive(
        gaussian_from_spec(
            [
                GaussianSpec("squeezed_vacuum", r=0.5),
                GaussianSpec("squeezed_vacuum", r=0.5, theta_s=np.pi),
            ]
        ),
        beam_splitter_matrix(np.pi / 4),
    )
    ok = ok and ppt_verdicts(tmsv_cov, [(0,)])[0].label == "entangled"

    arena20 = FockArena(2, 20)
    sq_in = np.kron(squeezed_vacuum(FockArena(1, 20), 0.5),
                    squeezed_vacuum(FockArena(1, 20), 0.5, np.pi))
    tmsv_fock = lift_unitary(beam_splitter_matrix(np.pi / 4), arena20).matrix @ sq_in
    tmsv_state = Mixture(arena20, [1.0], [tmsv_fock])
    ok = ok and negativity_reports([(tmsv_state, ((0,), (1,)))])[0].negativity > 0.1
    _verdict(8, "gaussian oracle agreement", ok)


def test_acceptance_9_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"version": 1, "n_trials": 20, "seed": 909, "cutoff": 14}))

    streams = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        streams.append((out / "trials.jsonl").read_bytes())
    ok = streams[0] == streams[1]

    threaded = tmp_path / "threaded"
    assert (
        cli.main(["verify", "--config", str(cfg), "--out", str(threaded), "--threads", "4"])
        == 0
    )
    ok = ok and (threaded / "trials.jsonl").read_bytes() == streams[0]
    serial_report = json.loads((tmp_path / "first" / "report.json").read_text())
    threaded_report = json.loads((threaded / "report.json").read_text())
    serial_report["config"].pop("threads")
    threaded_report["config"].pop("threads")
    ok = ok and serial_report == threaded_report
    _verdict(9, "determinism", ok)
