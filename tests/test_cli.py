import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bselab import cli, passive, theoremlab
from bselab.gaussian import gaussian_from_spec
from bselab.hilbert import LEAK_TOL, FockArena, Mixture, TruncationError
from bselab.passive import (
    ModeUnitary,
    beam_splitter_matrix,
    transform_coherent_exact,
)
from bselab.states import CoherentEnsemble, GaussianSpec, coherent, fock
from bselab.witnesses import PPT_TOL, mandel_q, negativity_reports
from reference import dense_pt_eigenvalues, lift_unitary


def _write_config(path: Path, **overrides) -> Path:
    payload = {"version": 1, "n_trials": 4, "seed": 7, "cutoff": 14}
    payload.update(overrides)
    cfg = path / "config.json"
    cfg.write_text(json.dumps(payload))
    return cfg


def test_demo_commands_pass(tmp_path, capsys):
    for name in ("bell", "inverse", "coherent-covariance"):
        out = tmp_path / name
        assert cli.main(["demo", name, "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "bselab"
        # every demo reads each flag it echoes
        assert sorted(manifest["config"]) == ["cutoff", "demo", "phi0", "phi1", "theta"]
        assert "timings_seconds" in manifest
        assert manifest["parallelism"]["workers"] == 1
        for lib in manifest["parallelism"]["openblas"]:
            assert lib["num_threads"] == 1, lib


def test_demo_bell_theta_zero_has_no_entanglement(tmp_path):
    out = tmp_path / "flat"
    assert cli.main(["demo", "bell", "--theta", "0", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["log_negativity"] == pytest.approx(0.0, abs=1e-9)


def test_demo_rejects_unknown_name(tmp_path):
    for name in ("nosuch", "vacuum"):
        assert cli.main(["demo", name, "--out", str(tmp_path)]) == cli.EXIT_USAGE


def test_non_sufficiency_demo_values(tmp_path):
    # demo inverse at cutoff 8: the 50:50 splitter entangles |1,0> with
    # log-negativity 1 and its inverse disentangles it; at theta = 0 the
    # forward step entangles nothing
    reports = {}
    for tag, theta in (("split", repr(np.pi / 4)), ("flat", "0")):
        out = tmp_path / tag
        assert cli.main(["demo", "inverse", "--cutoff", "8", "--theta", theta,
                         "--out", str(out)]) == 0
        reports[tag] = json.loads((out / "report.json").read_text())
    split = reports["split"]
    assert split["input_mandel_q"] == pytest.approx(-1.0)
    assert split["forward_log_negativity"] == pytest.approx(1.0, abs=1e-9)
    assert split["inverse_negativity"] <= 1e-9
    assert split["recovered_fidelity"] >= 1.0 - 1e-9
    assert reports["flat"]["forward_negativity"] <= 1e-12


@pytest.mark.parametrize(
    "argv, config",
    [(["demo", "bell", "--cutoff", "1000000"], None),
     (["demo", "bell", "--cutoff", "10000000000"], None),
     (["sweep", "--thetas", "0.3", "--cutoff", "10000000000"], None),
     (["verify"], {"cutoff": 1000000}),
     (["verify"], {"n_modes": 40, "cutoff": 4, "amplitude_bound": 0.01})],
    ids=["demo-1e12-entries", "demo-1e20-entries", "sweep-1e20-entries",
         "verify-1e12-entries", "verify-40-modes"],
)
def test_oversized_arena_is_config_error(tmp_path, capsys, argv, config):
    # only sizes numpy refuses at once (>= 1e12 entries, 16 TB of complex
    # amplitudes or more): an arena past the largest intp is refused when it
    # is built, a smaller one when its first row is allocated
    if config is not None:
        argv = argv + ["--config", str(_write_config(tmp_path, n_trials=1, **config))]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "cutoff" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["bell", "--cutoff", "0"], ["bell", "--theta", "nan"], ["bell", "--phi1", "inf"],
     ["bell", "--cutoff", "1"], ["inverse", "--cutoff", "1"], ["bell", "--seed", "1"]],
    ids=["zero-cutoff", "nan-theta", "inf-phi1", "bell-cutoff-1", "inverse-cutoff-1",
         "seed-option"],
)
def test_demo_bad_input_is_usage_error(tmp_path, capsys, argv):
    assert cli.main(["demo", *argv, "--out", str(tmp_path)]) == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_verify_clean_run(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert "4/4 trials clean" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["findings"] == []
    assert report["n_completed"] == 4
    records = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
    assert len(records) == 4
    assert all(record["ensemble_closure"] == "pass" for record in records)
    # the headroom nets each cut's rank-cut bound: min over cuts of
    # min_pt_eigenvalue - pt_bound, plus ppt_tol
    for record in records:
        cuts = record["bipartitions"]
        assert all(cut["pt_bound"] > 0.0 for cut in cuts)
        assert record["ppt_headroom"] == min(
            cut["min_pt_eigenvalue"] - cut["pt_bound"] for cut in cuts) + PPT_TOL


def test_verify_trials_are_byte_deterministic(tmp_path):
    cfg = _write_config(tmp_path, n_trials=3)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "trials.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_verify_threads_do_not_change_results(tmp_path):
    cfg = _write_config(tmp_path, n_trials=4)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(serial)]) == 0
    assert (
        cli.main(
            ["verify", "--config", str(cfg), "--out", str(parallel), "--threads", "4"]
        )
        == 0
    )
    assert (serial / "trials.jsonl").read_bytes() == (parallel / "trials.jsonl").read_bytes()
    s = json.loads((serial / "report.json").read_text())
    p = json.loads((parallel / "report.json").read_text())
    s["config"].pop("threads")
    p["config"].pop("threads")
    assert s == p
    manifests = [json.loads((out / "manifest.json").read_text())["parallelism"]
                 for out in (serial, parallel)]
    assert [m["workers"] for m in manifests] == [1, 4]
    assert all(lib["num_threads"] == 1 for m in manifests for lib in m["openblas"])


def test_verify_manual_ensemble(tmp_path):
    cfg = _write_config(
        tmp_path,
        n_trials=2,
        ensemble=[
            {"weight": 0.5, "alphas": [[0.3, 0.0], [0.0, 0.2]]},
            {"weight": 0.5, "alphas": [[-0.3, 0.1], [0.1, 0.0]]},
        ],
    )
    out = tmp_path / "manual"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["ensemble"]["weights"] == [0.5, 0.5]


def test_verify_reports_closure_breach_as_finding(tmp_path, monkeypatch):
    exact = theoremlab.transform_ensemble

    def breaking(ens, m):
        out = exact(ens, m)
        weights = out.weights.copy()
        weights[0] += 0.1
        return CoherentEnsemble(out.n_modes, weights, out.alphas)

    monkeypatch.setattr(theoremlab, "transform_ensemble", breaking)
    cfg = _write_config(
        tmp_path,
        n_trials=1,
        ensemble=[
            {"weight": 0.5, "alphas": [[0.3, 0.0], [0.0, 0.2]]},
            {"weight": 0.5, "alphas": [[-0.3, 0.1], [0.1, 0.0]]},
        ],
    )
    out = tmp_path / "breach"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_FINDING
    report = json.loads((out / "report.json").read_text())
    assert [f["kind"] for f in report["findings"]] == ["closure_breach_critical"]
    record = json.loads((out / "trials.jsonl").read_text())
    assert record["ensemble_closure"] == "fail"


@pytest.mark.parametrize("n_modes, mixed", [(2, True), (3, True), (3, False)],
                         ids=["2-modes", "3-modes", "3-modes-identity"])
def test_verify_reports_route_three_findings_by_name(tmp_path, monkeypatch, n_modes,
                                                     mixed):
    # route 3 sees squeezed vacuum (r = 0.5) on mode 0 and vacuum elsewhere
    # in place of the coherent input (routes 1 and 2 still see the classical
    # input). A splitter that mixes modes 0 and 1 entangles every cut
    # through that pair; the identity leaves a nonclassical product state
    squeezed = [GaussianSpec("squeezed_vacuum", r=0.5)] + [GaussianSpec("coherent")] * (n_modes - 1)
    monkeypatch.setattr(theoremlab, "gaussian_from_spec",
                        lambda specs: gaussian_from_spec(squeezed))
    if n_modes == 2:
        source = "beam_splitter_grid"
    else:
        source = "random_haar"
        splitter = np.eye(3, dtype=complex)
        if mixed:
            splitter[:2, :2] = beam_splitter_matrix(np.pi / 4).matrix
        monkeypatch.setattr(theoremlab, "haar_unitary",
                            lambda n, rng: ModeUnitary(splitter))
    cfg = _write_config(
        tmp_path, n_trials=2, n_modes=n_modes, cutoff=10, unitary_source=source,
        ensemble=[{"weight": 1.0, "alphas": [[0.3, 0.1]] + [[0.0, 0.2]] * (n_modes - 1)}])
    out = tmp_path / "route3"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_FINDING
    report = json.loads((out / "report.json").read_text())
    kinds = ("gaussian_classicality_lost", "gaussian_simon_entangled")[:1 + mixed]
    assert [(f["trial"], f["kind"]) for f in report["findings"]] == [
        (i, kind) for i in range(2) for kind in kinds]
    for line in (out / "trials.jsonl").read_text().splitlines():
        cuts = json.loads(line)["gaussian"]["bipartitions"]
        assert len(cuts) == len(theoremlab.bipartitions(n_modes))
        for cut in cuts:
            entangled = mixed and (0 in cut["modes_a"]) != (1 in cut["modes_a"])
            assert cut["verdict"] == ("entangled" if entangled else "separable")
            if entangled and n_modes == 3:
                assert cut["ppt_margin"] == pytest.approx(-0.1824, abs=1e-4)


def _conjugate_route_two(monkeypatch):
    # route 2 applies M where it should apply conj(M): the exact lift is
    # built from conj(M), so handing it conj(M) makes it apply M
    exact = theoremlab.transform_coherent_exact

    def unconjugated(unitaries, alphas, arena):
        return exact([ModeUnitary(m.matrix.conj()) for m in unitaries], alphas, arena)

    monkeypatch.setattr(theoremlab, "transform_coherent_exact", unconjugated)


def test_verify_reports_cross_pipeline_disagreement_alone(tmp_path, monkeypatch):
    _conjugate_route_two(monkeypatch)
    cfg = _write_config(tmp_path, n_trials=3, seed=7, cutoff=14)
    out = tmp_path / "conj"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_FINDING
    report = json.loads((out / "report.json").read_text())
    assert [(f["trial"], f["kind"]) for f in report["findings"]] == [
        (i, "cross_pipeline_disagreement") for i in range(3)]


def _trials(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("factor, fires", [(0.5, False), (2.0, True)])
def test_cross_pipeline_tolerance_is_its_edge(tmp_path, monkeypatch, factor, fires):
    # the closed-form rows of the cross-check move on the vacuum amplitude,
    # which the dropped sectors leave alone, by factor times each trial's
    # documented bound sqrt(sector_tail) + (top + 2 n_modes) eps, and route 2
    # is left alone: half of it is agreement and twice it is a finding on
    # every trial
    cfg = _write_config(tmp_path, n_trials=3, seed=7, cutoff=14)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "clean")]) == 0
    clean = _trials(tmp_path / "clean")
    bounds = [math.sqrt(r["sector_tail"]) + (2 * (r["cutoff"] - 1) + 4) * np.finfo(float).eps
              for r in clean]
    assert all(0.0 < r["sector_tail"] <= 1e-20 for r in clean)
    shifts = iter(factor * b for b in bounds)
    closed_form = theoremlab._coherent_rows

    def shifted(alphas, occupations):
        rows = closed_form(alphas, occupations)
        rows[..., 0] += next(shifts)
        return rows

    monkeypatch.setattr(theoremlab, "_coherent_rows", shifted)
    out = tmp_path / "shifted"
    code = cli.main(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == (cli.EXIT_FINDING if fires else cli.EXIT_OK)
    report = json.loads((out / "report.json").read_text())
    assert [(f["trial"], f["kind"]) for f in report["findings"]] == [
        (i, "cross_pipeline_disagreement") for i in range(3 if fires else 0)]
    devs = [r["cross_pipeline_max_dev"] for r in _trials(out)]
    assert devs == pytest.approx([factor * b for b in bounds], rel=1e-6)
    assert report["worst_sector_tail"] == max(r["sector_tail"] for r in clean)


def test_conjugation_fault_is_invisible_for_a_real_splitter(tmp_path, monkeypatch):
    # the same fault is invisible when M is real: a one-trial grid draws the
    # splitter at phi0 = phi1 = 0, where conj(M) = M, so the run stays clean
    _conjugate_route_two(monkeypatch)
    cfg = _write_config(tmp_path, n_trials=1, cutoff=14, unitary_source="beam_splitter_grid")
    out = tmp_path / "real"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["findings"] == []
    matrix = np.array(json.loads((out / "trials.jsonl").read_text())["unitary"]["matrix"])
    assert np.all(matrix[..., 1] == 0.0)


def test_verify_reports_truncation_overflow_by_name(tmp_path, monkeypatch):
    # the retrying config of test_verify_trials_record_their_cutoff_and_retries
    # with no retry budget: its overflowing trials become findings
    monkeypatch.setattr(theoremlab, "RETRY_BUDGET", 0)
    cfg = _write_config(tmp_path, n_trials=8, seed=0, n_modes=3, cutoff=6,
                        amplitude_bound=0.5)
    out = tmp_path / "overflow"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_NUMERIC
    report = json.loads((out / "report.json").read_text())
    kinds = [f["kind"] for f in report["findings"]]
    assert kinds == ["truncation_overflow"] * 3
    assert report["n_overflow_failures"] == len(kinds)
    # each detail names the cutoffs its attempts ran at, then the leak
    assert all(f["detail"].startswith("cutoff 6: truncation leakage ")
               for f in report["findings"])
    assert report["n_retried"] == 0
    records = (out / "trials.jsonl").read_text().splitlines()
    assert len(records) == report["n_completed"] == 8 - len(kinds)


def test_verify_rejects_negative_weight(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, ensemble=[{"weight": -0.5, "alphas": [[0.3, 0.0], [0.0, 0.2]]}]
    )
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "negative" in err and "non-negative" in err


@pytest.mark.parametrize(
    "overrides",
    [
        {"ensemble": [{"weight": float("nan"), "alphas": [[0.3, 0.0], [0.0, 0.2]]},
                      {"weight": 1.0, "alphas": [[0.3, 0.0], [0.0, 0.2]]}]},
        {"ensemble": [{"weight": 1.0, "alphas": [[float("nan"), 0.0], [0.0, 0.2]]}]},
        {"ppt_tol": float("nan")},
        {"leak_tol": float("nan")},
        {"amplitude_bound": float("inf")},
    ],
    ids=["nan-weight", "nan-alpha", "nan-ppt-tol", "nan-leak-tol", "inf-amplitude-bound"],
)
def test_verify_rejects_non_finite_config(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, n_trials=1, cutoff=8, amplitude_bound=0.5)
    payload = json.loads(cfg.read_text())
    payload.update(overrides)
    cfg.write_text(json.dumps(payload))  # json writes the NaN/Infinity tokens
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"amplitude_bound": 0},
        {"max_ensemble_components": 0},
        {"n_trials": 2.5},
        {"n_trials": True},
        {"seed": -1},
        {"n_modes": 2.0},
        {"threads": 1.5},
        {"ppt_tol": -1},
        {"leak_tol": 0, "amplitude_bound": 1e-3},
        {"cutoff": 0, "amplitude_bound": 1e-9},
        {"amplitude_bound": True, "cutoff": 14},
        {"ppt_tol": True},
        {"leak_tol": True},
        {"version": True},
        {"ensemble": [{"weight": True, "alphas": [[0.3, 0.0], [0.0, 0.2]]}]},
        {"ensemble": [{"weight": 1.0, "alphas": [[True, 0.0], [0.0, 0.2]]}], "cutoff": 14},
    ],
    ids=["zero-amplitude-bound", "zero-components", "fractional-n-trials",
         "bool-n-trials", "negative-seed", "float-n-modes", "fractional-threads",
         "negative-ppt-tol", "zero-leak-tol", "zero-cutoff", "bool-amplitude-bound",
         "bool-ppt-tol", "bool-leak-tol", "bool-version", "bool-weight", "bool-alpha"],
)
def test_verify_rejects_out_of_range_config(tmp_path, capsys, overrides):
    cfg = _write_config(tmp_path, n_trials=1, cutoff=8, amplitude_bound=0.5)
    payload = json.loads(cfg.read_text())
    payload.update(overrides)
    cfg.write_text(json.dumps(payload))
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_rejects_unknown_field(tmp_path, capsys):
    cfg = _write_config(tmp_path, frobnicate=True)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "unknown config fields" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    ({"ensemble": [{"weight": 1.0, "alphas": [[0.3, 0.0], [0.0, 0.2]], "phase": 0.0}]},
     "unknown ensemble component fields: ['phase']"),
    ({"ensemble": [{"weight": 0.5, "alphas": [[0.3, 0.0], [0.0, 0.2]]},
                   {"weight": 0.5, "alphas": [[0.3, 0.0]]}]},
     "all ensemble components must have the same mode count"),
    ({"n_modes": 3, "ensemble": [{"weight": 1.0, "alphas": [[0.3, 0.0], [0.0, 0.2]]}]},
     "manual ensemble mode count does not match config"),
], ids=["unknown-component-field", "mixed-mode-counts", "ensemble-config-modes"])
def test_verify_rejects_malformed_ensemble(tmp_path, capsys, overrides, message):
    cfg = _write_config(tmp_path, n_trials=1, cutoff=8, amplitude_bound=0.5, **overrides)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err


def test_verify_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_verify_requires_version(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n_trials": 1, "seed": 0}))
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "version" in capsys.readouterr().err


def test_verify_rejects_truncation_unsafe_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, amplitude_bound=2.5, cutoff=8)
    assert cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "truncation-unsafe" in capsys.readouterr().err


def test_sweep_fock_values(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main(
        ["sweep", "--thetas", "0,0.7853981633974483", "--input", "fock",
         "--occupations", "1,0", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
    flat = lines[1].split(",")
    assert float(flat[1]) == pytest.approx(0.0, abs=1e-10)  # theta=0: no negativity
    assert float(flat[4]) == pytest.approx(-1.0)  # single photon in mode a
    split = lines[2].split(",")
    assert float(split[2]) == pytest.approx(1.0, abs=1e-9)  # log-negativity at pi/4


def test_sweep_empty_grid_writes_header_only(tmp_path):
    out = tmp_path / "empty"
    assert cli.main(["sweep", "--thetas", "", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines == [",".join(cli.SWEEP_COLUMNS)]


def test_sweep_ensemble_input_requires_config(tmp_path, capsys):
    assert cli.main(["sweep", "--thetas", "0.5", "--input", "ensemble",
                     "--out", str(tmp_path)]) == 2
    assert "requires --config" in capsys.readouterr().err


def test_sweep_bad_thetas(tmp_path, capsys):
    assert cli.main(["sweep", "--thetas", "0.1,oops", "--out", str(tmp_path)]) == 2
    assert "bad --thetas" in capsys.readouterr().err


def test_sweep_classical_ensemble_stays_ppt(tmp_path):
    # a classical input near the cutoff: the boundary-clipped dense lift
    # read min_pt_eigenvalue down to -1.8e-6 here, i.e. "entangled"
    rng = np.random.default_rng(6)
    weights = rng.dirichlet(np.ones(4))
    radii = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, size=(4, 2)))
    alphas = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(4, 2)))
    ensemble = [{"weight": float(w), "alphas": [[a.real, a.imag] for a in row]}
                for w, row in zip(weights, alphas)]
    cfg = tmp_path / "ensemble.json"
    cfg.write_text(json.dumps({"version": 1, "ensemble": ensemble}))
    thetas = ",".join(repr(float(t)) for t in np.linspace(0.0, np.pi / 2.0, 5))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--input", "ensemble", "--config", str(cfg),
                     "--cutoff", "22", "--thetas", thetas, "--out", str(out)]) == 0
    with (out / "sweep.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(float(row["min_pt_eigenvalue"]) >= -PPT_TOL for row in rows)


def test_pt_spectra_take_no_svd(tmp_path, monkeypatch):
    # one way to take a partial-transpose basis: neither a campaign of the
    # acceptance-5 shape nor an ensemble sweep calls a full SVD
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.svd was called")

    monkeypatch.setattr(np.linalg, "svd", refused)
    cfg = _write_config(tmp_path, n_trials=5, seed=505, n_modes=3, cutoff=8,
                        max_ensemble_components=4, amplitude_bound=0.5,
                        unitary_source="random_haar")
    out = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert len((out / "trials.jsonl").read_text().splitlines()) == 5
    rng = np.random.default_rng(1)
    alphas = np.sqrt(rng.uniform(size=(4, 2))) * np.exp(2j * np.pi * rng.uniform(size=(4, 2)))
    ensemble = [{"weight": float(w), "alphas": [[a.real, a.imag] for a in row]}
                for w, row in zip(rng.dirichlet(np.ones(4)), alphas)]
    ens = tmp_path / "ensemble.json"
    ens.write_text(json.dumps({"version": 1, "ensemble": ensemble}))
    thetas = ",".join(repr(float(t)) for t in np.linspace(0.0, np.pi / 2.0, 5))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--input", "ensemble", "--config", str(ens),
                     "--cutoff", "22", "--thetas", thetas, "--out", str(out)]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 6


def test_fock_paths_build_no_dense_lift(tmp_path):
    # the Fock sweep and the demos map their rows sector by sector; the dim x
    # dim P U P, lift_unitary, is the tests' reference and no src module
    # names it
    thetas = ",".join(repr(float(t)) for t in np.linspace(0.0, np.pi / 2.0, 5))
    assert cli.main(["sweep", "--input", "fock", "--occupations", "3,3", "--phi0", "0.3",
                     "--thetas", thetas, "--out", str(tmp_path / "sweep")]) == 0
    for name in ("bell", "inverse", "coherent-covariance"):
        assert cli.main(["demo", name, "--out", str(tmp_path / name)]) == 0
    src = Path(passive.__file__).parent
    assert [path.name for path in sorted(src.glob("*.py"))
            if "lift_unitary" in path.read_text()] == []


def test_sweep_fock_row_clipped_by_the_arena_is_numeric_failure(tmp_path, capsys):
    # |11,11> is the arena corner at cutoff 12, in sector 22; P U P keeps
    # only the arena's tuples of that sector, so the row loses 0.9 of its
    # weight and the sweep writes nothing
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--input", "fock", "--occupations", "11,11", "--cutoff", "12",
                     "--thetas", "0.3", "--out", str(out)]) == cli.EXIT_NUMERIC
    assert "truncation leakage 9.055e-01" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_ensemble_checks_each_input_component(tmp_path, capsys, monkeypatch):
    # the second component alone loses 0.57 past cutoff 12; its weight is
    # too small for the mixture's leak to exceed the budget.  The check runs
    # before the sweep's one transform of all angles.
    def no_angle_runs(*args):
        raise AssertionError("the sweep transformed its input")

    monkeypatch.setattr(cli, "transform_coherent_exact", no_angle_runs)
    cfg = tmp_path / "ensemble.json"
    cfg.write_text(json.dumps({"version": 1, "ensemble": [
        {"weight": 1.0 - 1e-7, "alphas": [[0.1, 0.0], [0.1, 0.0]]},
        {"weight": 1e-7, "alphas": [[3.5, 0.0], [0.0, 0.0]]}]}))
    assert cli.main(["sweep", "--input", "ensemble", "--config", str(cfg), "--cutoff", "12",
                     "--thetas", "0.3,0.7", "--out", str(tmp_path / "out")]) == cli.EXIT_NUMERIC
    assert "truncation leakage 5.667e-01" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_sweep_ensemble_checks_each_output_component(tmp_path, capsys):
    # at 45 degrees the first component's output row loses 6.98e-4 past
    # cutoff 14, though its input row loses only 8.4e-7; its weight of 1e-3
    # keeps the mixture's leak under the budget
    cfg = tmp_path / "ensemble.json"
    cfg.write_text(json.dumps({"version": 1, "ensemble": [
        {"weight": 0.001, "alphas": [[1.5811388, 0.0], [1.5811388, 0.0]]},
        {"weight": 0.999, "alphas": [[0.1, 0.0], [0.0, 0.1]]}]}))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--input", "ensemble", "--config", str(cfg), "--cutoff", "14",
                     "--thetas", repr(np.pi / 4.0), "--out", str(out)]) == cli.EXIT_NUMERIC
    assert "truncation leakage 6.980e-04" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_ensemble_empty_grid_writes_header_only(tmp_path):
    cfg = tmp_path / "ensemble.json"
    cfg.write_text(json.dumps({"version": 1, "ensemble": [
        {"weight": 1.0, "alphas": [[0.4, 0.1], [-0.2, 0.3]]}]}))
    out = tmp_path / "empty"
    assert cli.main(["sweep", "--input", "ensemble", "--config", str(cfg),
                     "--thetas", "", "--out", str(out)]) == 0
    assert (out / "sweep.csv").read_text().splitlines() == [",".join(cli.SWEEP_COLUMNS)]


def test_sweep_fock_rows_are_each_angles_lift(tmp_path):
    # one call maps the Fock row for every angle, and each output row is
    # that angle's dense P U P applied to it, byte for byte
    thetas = [0.0, 0.4, 1.1, np.pi / 2]
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--input", "fock", "--occupations", "2,1", "--cutoff", "6",
                     "--phi0", "0.3", "--thetas", ",".join(map(repr, thetas)),
                     "--out", str(out)]) == 0
    arena = FockArena(2, 6)
    psi = fock(arena, (2, 1))
    expected = io.StringIO()
    writer = csv.writer(expected)
    writer.writerow(cli.SWEEP_COLUMNS)
    for theta in thetas:
        m = beam_splitter_matrix(theta, 0.3, 0.0)
        state = Mixture(arena, [1.0], [lift_unitary(m, arena).matrix @ psi])
        report = negativity_reports([(state, ((0,), (1,)))])[0]
        writer.writerow([theta, report.negativity, report.log_negativity,
                         report.min_pt_eigenvalue,
                         *map(mandel_q, state.photon_distributions())])
    with (out / "sweep.csv").open(newline="") as fh:
        assert fh.read() == expected.getvalue()


THREE_MODE_ENSEMBLE = json.dumps({"version": 1, "ensemble": [
    {"weight": 1.0, "alphas": [[0.3, 0.0], [0.1, 0.0], [0.2, 0.0]]}]})


@pytest.mark.parametrize(
    "argv, config_text",
    [
        (["--input", "ensemble"], "{not json"),
        (["--input", "ensemble"], None),  # the config file does not exist
        (["--input", "ensemble"], THREE_MODE_ENSEMBLE),
        (["--occupations", "1,x"], None),
        (["--occupations", "1,0,0"], None),
        (["--thetas", "nan"], None),
        (["--thetas", "inf"], None),
        (["--cutoff", "0"], None),
    ],
    ids=["malformed-json", "unreadable-config", "three-mode-ensemble",
         "non-integer-occupations", "wrong-length-occupations",
         "nan-theta", "inf-theta", "zero-cutoff"],
)
def test_sweep_bad_input_is_config_error(tmp_path, capsys, argv, config_text):
    cfg = tmp_path / "config.json"
    if config_text is not None:
        cfg.write_text(config_text)
    assert cli.main(["sweep", "--thetas", "0.5", *argv, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert "config error" in capsys.readouterr().err


def test_verify_summary_counts_flagged_trials_as_unclean(tmp_path, capsys):
    cfg = _write_config(tmp_path, n_trials=2, seed=0, n_modes=2, cutoff=10,
                        amplitude_bound=0.5, ppt_tol=1e-16)
    out = tmp_path / "strict"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    flagged = {f["trial"] for f in report["findings"]}
    n_clean = report["n_completed"] - len(flagged)
    assert f"verify: {n_clean}/2 trials clean, " in capsys.readouterr().out
    assert n_clean < 2


def test_verify_honours_leak_tol_in_trials(tmp_path):
    cfg = _write_config(tmp_path, n_trials=3, leak_tol=1e-3, cutoff=8,
                        amplitude_bound=1.0)
    out = tmp_path / "loose"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["n_retried"] == 0


def test_verify_trials_record_their_cutoff_and_retries(tmp_path):
    # a 3-mode config whose bound overflows cutoff 6 in some trials
    cfg = _write_config(tmp_path, n_trials=8, seed=0, n_modes=3, cutoff=6,
                        amplitude_bound=0.5)
    outs = [tmp_path / f"threads{t}" for t in (1, 2)]
    for out, threads in zip(outs, ("1", "2")):
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out),
                         "--threads", threads]) == 0
    assert (outs[0] / "trials.jsonl").read_bytes() == (outs[1] / "trials.jsonl").read_bytes()
    report = json.loads((outs[0] / "report.json").read_text())
    records = [json.loads(line) for line in (outs[0] / "trials.jsonl").read_text().splitlines()]
    assert report["n_retried"] > 0
    assert sum(r["attempts"] > 0 for r in records) == report["n_retried"]
    for r in records:
        assert r["cutoff"] == 6 + theoremlab.CUTOFF_STEP * r["attempts"]
        # the leak route 2 saw, recomputed from the record's own rows
        weights = np.array(r["input"]["weights"])
        alphas = np.array(r["input"]["alphas"]) @ [1.0, 1.0j]
        m = ModeUnitary(np.array(r["unitary"]["matrix"]) @ [1.0, 1.0j])
        rows = transform_coherent_exact([m], alphas, FockArena(3, r["cutoff"]))[0]
        assert r["leak"] == 1.0 - float(weights @ np.sum(np.abs(rows) ** 2, axis=1))
        assert r["leak"] <= LEAK_TOL
    timings = json.loads((outs[0] / "manifest.json").read_text())["timings_seconds"]
    trials = timings["trials"]
    assert trials["count"] == len(records) == 8
    assert 0.0 < trials["p50"] <= trials["max"] <= trials["total"]
    # per stage over the completed trials: the stages a trial runs, and no
    # stage of the earlier dense pipeline
    stages = timings["stages"]
    assert sorted(stages) == sorted(theoremlab.TRIAL_STAGES)
    assert stages.keys().isdisjoint({"density_assembly", "density_validation",
                                     "sector_exponential"})
    # one pt_spectrum sample per trial, covering all three cuts
    assert stages["pt_spectrum"]["count"] == stages["route2_transform"]["count"] == 8
    n_single = sum(len(r["input"]["weights"]) == 1 for r in records)
    assert stages["route3_gaussian"]["count"] == n_single
    timed = [v for v in stages.values() if v["count"]]
    assert all(0.0 < v["p50"] <= v["max"] <= v["total"] for v in timed)
    assert sum(v["total"] for v in timed) <= trials["total"]


def test_retries_are_sent_by_route_two_rows(tmp_path, monkeypatch):
    # the retrying config above: which leak check raised for each retry.
    # Route 2's check of its own output rows raises all three; rho_out's
    # weighted leak is never above the largest row leak, and route 1's rows
    # are built with no leak check at all.  A change in what sends a trial
    # to a larger cutoff shows here.
    raised = []

    def counted(name, check):
        def wrapped(*args, **kwargs):
            try:
                return check(*args, **kwargs)
            except TruncationError:
                raised.append(name)
                raise
        return wrapped

    for name in ("_check_rows", "Mixture"):
        monkeypatch.setattr(theoremlab, name, counted(name, getattr(theoremlab, name)))
    cfg = _write_config(tmp_path, n_trials=8, seed=0, n_modes=3, cutoff=6,
                        amplitude_bound=0.5)
    out = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["n_retried"] == len(raised) == 3
    assert raised == ["_check_rows"] * 3


def test_route_one_decides_no_retry(monkeypatch):
    # route 1's image scaled up leaks far past the budget at every cutoff
    # tried; the cross-check then disagrees, but every trial retries at the
    # cutoffs route 2 alone asks for
    cfg = theoremlab.CampaignConfig(n_trials=8, seed=0, n_modes=3, cutoff=6,
                                    amplitude_bound=0.5)
    plain = theoremlab.run_campaign(cfg)
    exact = theoremlab.transform_ensemble

    def inflated(ens, m):
        out = exact(ens, m)
        return CoherentEnsemble(out.n_modes, out.weights, 4.0 * out.alphas)

    monkeypatch.setattr(theoremlab, "transform_ensemble", inflated)
    moved = theoremlab.run_campaign(cfg)
    assert moved.n_retried == plain.n_retried == 3
    assert moved.n_overflow_failures == plain.n_overflow_failures == 0
    assert [(r.attempts, r.cutoff) for r in moved.records] == \
        [(r.attempts, r.cutoff) for r in plain.records]
    assert [(f["trial"], f["kind"]) for f in moved.findings] == [
        (i, "cross_pipeline_disagreement") for i in range(8)]


@pytest.mark.parametrize("n_modes, cutoff, cat", [
    (2, 10, None), (3, 6, None), (2, 10, 1.0), (3, 6, 0.5)],
    ids=["2-10", "3-6", "2-10-cat", "3-6-cat"])
def test_entangled_rows_at_the_pt_stage_are_ppt_violations(tmp_path, monkeypatch,
                                                           n_modes, cutoff, cat):
    # the PT stage of each trial sees a splitter's output for |1,0,...>, or
    # for the cat (|cat,0,...> + |-cat,0,...>)/N, in place of route 2's rows
    # (the cross-check still reads route 2's amplitudes): the stacked pass
    # must report it entangled on every cut
    m = (beam_splitter_matrix(np.pi / 4) if n_modes == 2
         else theoremlab.haar_unitary(3, np.random.default_rng(3)))
    seen = []

    def substituted(arena, weights, rows, leak_tol):
        Mixture(arena, weights, rows, leak_tol=leak_tol)  # route 2's leak check
        if cat is None:
            row = fock(arena, (1,) + (0,) * (arena.n_modes - 1))
        else:
            row = sum(coherent(arena, [sign * cat] + [0.0] * (arena.n_modes - 1))
                      for sign in (1.0, -1.0))
            row = row / np.linalg.norm(row)
        psi = passive._lift_rows([m], row[None], arena)[0, 0]
        seen.append(Mixture(arena, [1.0], [psi]))
        return seen[-1]

    monkeypatch.setattr(theoremlab, "Mixture", substituted)
    cfg = _write_config(tmp_path, n_trials=3, seed=5, n_modes=n_modes, cutoff=cutoff,
                        amplitude_bound=0.3)
    out = tmp_path / "verify"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_FINDING
    report = json.loads((out / "report.json").read_text())
    assert [(f["trial"], f["kind"]) for f in report["findings"]] == [
        (i, "ppt_violation") for i in range(3)]
    records = [json.loads(line) for line in (out / "trials.jsonl").read_text().splitlines()]
    assert len(seen) == len(records) == 3
    for state, record in zip(seen, records):
        assert len(record["bipartitions"]) == len(theoremlab.bipartitions(n_modes))
        for cut in record["bipartitions"]:
            dense = dense_pt_eigenvalues(state.weights, state.rows, state.arena,
                                         cut["modes_a"])
            assert abs(cut["min_pt_eigenvalue"] - dense[0]) <= cut["pt_bound"] + 1e-13
            assert cut["verdict"] == "entangled"


def test_parser_is_built_once_across_calls(tmp_path, monkeypatch, capsys):
    cli.build_parser.cache_clear()
    assert cli.main(["--version"]) == 0
    assert cli.main(["demo", "nosuch", "--out", str(tmp_path)]) == cli.EXIT_USAGE
    assert cli.main(["demo", "bell", "--out", str(tmp_path)]) == 0
    # the parser binds no command: one rebound after it was built still runs
    monkeypatch.setattr(cli, "cmd_demo", lambda args: cli.EXIT_FINDING)
    assert cli.main(["demo", "bell", "--out", str(tmp_path)]) == cli.EXIT_FINDING
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    capsys.readouterr()


def test_reused_parser_leaks_no_state(tmp_path):
    # one process through a usage error, --version, a verify, a sweep off
    # the default --phi0 and a bad config answers each call as a fresh
    # process does: same exit code, stdout, stderr and report bytes
    cfg = _write_config(tmp_path, n_trials=1, cutoff=6, amplitude_bound=0.5)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    runs = [["verify"],
            ["--version"],
            ["verify", "--config", str(cfg), "--out", "verify"],
            ["sweep", "--thetas", "0.3,0.9", "--phi0", "0.4", "--out", "sweep"],
            ["verify", "--config", str(bad), "--out", "bad"]]
    # the parser is built on the first call, not at import
    probe = ("import contextlib, io, json, sys; from bselab import cli\n"
             "assert cli.build_parser.cache_info().currsize == 0\n"
             "results = []\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    out, err = io.StringIO(), io.StringIO()\n"
             "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
             "        code = cli.main(argv)\n"
             "    results.append([code, out.getvalue(), err.getvalue()])\n"
             "print(json.dumps(results))")

    def run(argvs, cwd):
        cwd.mkdir()
        result = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)], cwd=cwd,
                                env=_child_env(), capture_output=True, text=True,
                                timeout=120, check=True)
        return json.loads(result.stdout.splitlines()[-1])

    def reports(cwd):
        return {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
                if p.is_file() and p.name != "manifest.json"}

    reused = run(runs, tmp_path / "reused")
    fresh = [run([argv], tmp_path / f"fresh{i}")[0] for i, argv in enumerate(runs)]
    assert [code for code, _, _ in reused] == [2, 0, 0, 0, 2]
    assert reused == fresh
    assert reports(tmp_path / "reused") == {
        name: data for i in range(len(runs))
        for name, data in reports(tmp_path / f"fresh{i}").items()}


def _child_env(**extra) -> dict:
    """Environment for a child interpreter that imports this bselab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **extra)


def test_cli_import_does_not_load_scipy_stats():
    probe = "import sys, bselab.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_scipy_linalg():
    probe = "import sys, bselab.cli; print('scipy.linalg' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def test_cli_loads_no_pool_statistics_or_masked_arrays(tmp_path):
    # the thread pool is imported only when a campaign starts one, and the
    # timing median is taken over a sorted list: concurrent.futures pulls in
    # logging and queue, statistics decimal and fractions, and np.median
    # numpy.ma, which costs more than the other two together
    cfg = _write_config(tmp_path, n_trials=2, cutoff=6, amplitude_bound=0.5)
    probe = ("import sys; from bselab import cli; "
             "heavy = ('concurrent.futures', 'logging', 'statistics', 'numpy.ma'); "
             "loaded = [m for m in heavy if m in sys.modules]; "
             "code = cli.main(['verify', '--config', sys.argv[1], '--out', sys.argv[2]]); "
             "print(loaded, code, [m for m in heavy if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe, str(cfg), str(tmp_path / "out")],
                            env=_child_env(), capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.splitlines()[-1] == "[] 0 []"


def test_commands_do_not_load_scipy(tmp_path):
    # bselab runs on numpy alone: no command imports any scipy module
    cfg = _write_config(tmp_path, n_trials=1, cutoff=6, amplitude_bound=0.5)
    ens = tmp_path / "ensemble.json"
    ens.write_text(json.dumps({"ensemble": [{"weight": 1.0, "alphas": [[0.5, 0.1], [0.0, 0.3]]}]}))
    runs = [["verify", "--config", str(cfg)],
            ["sweep", "--input", "ensemble", "--config", str(ens), "--thetas", "0.3"],
            ["demo", "bell"]]
    probe = ("import json, sys; from bselab import cli; "
             "codes = [cli.main(argv + ['--out', sys.argv[2] + str(i)]) "
             "for i, argv in enumerate(json.loads(sys.argv[1]))]; "
             "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    result = subprocess.run([sys.executable, "-c", probe, json.dumps(runs), str(tmp_path / "out")],
                            env=_child_env(), capture_output=True, text=True, timeout=120,
                            check=True)
    assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0, 0], []]


def test_verify_bytes_do_not_depend_on_blas_environment(tmp_path):
    # one 3-mode trial at cutoff 8 on K = 3 coherent rows runs the PT stage's
    # QR calls and eigensolves (at most K^2 = 9 wide, on the compressed
    # state) for three cuts, whose last bits may depend on the OpenBLAS
    # thread count unless bselab pins it
    cfg = _write_config(tmp_path, n_trials=1, seed=11, n_modes=3, cutoff=8,
                        amplitude_bound=0.5, ensemble=[
                            {"weight": 0.5, "alphas": [[0.3, 0.1], [-0.2, 0.25], [0.1, -0.3]]},
                            {"weight": 0.3, "alphas": [[-0.1, 0.3], [0.3, 0.0], [-0.25, 0.1]]},
                            {"weight": 0.2, "alphas": [[0.2, -0.2], [0.0, -0.3], [0.3, 0.2]]},
                        ])
    outputs = []
    for n in ("1", "2"):
        out = tmp_path / f"blas{n}"
        subprocess.run([sys.executable, "-m", "bselab.cli", "verify", "--config", str(cfg),
                        "--out", str(out)], env=_child_env(OPENBLAS_NUM_THREADS=n),
                       capture_output=True, timeout=300, check=True)
        outputs.append([(out / name).read_bytes() for name in ("report.json", "trials.jsonl")])
    assert outputs[0] == outputs[1]


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("BSE_OUT_DIR", str(target))
    assert cli.main(["demo", "bell"]) == 0
    assert (target / "report.json").exists()


@pytest.mark.parametrize("command", [["demo", "bell"], ["verify"], ["sweep"]],
                         ids=["demo", "verify", "sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("via_env", [False, True], ids=["option", "env"])
def test_out_dir_on_a_file_is_config_error(tmp_path, capsys, monkeypatch, command,
                                           under, via_env):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "run" if under else blocker
    argv = list(command)
    if command == ["verify"]:
        argv += ["--config", str(_write_config(tmp_path, n_trials=1, cutoff=8))]
    if via_env:
        monkeypatch.setenv("BSE_OUT_DIR", str(out))
    else:
        argv += ["--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "config error: cannot use output directory" in capsys.readouterr().err
    assert blocker.read_text() == ""


def test_missing_subcommand_is_usage_error():
    assert cli.main([]) == cli.EXIT_USAGE


def test_sweep_has_no_seed_option(tmp_path):
    assert cli.main(["sweep", "--seed", "5", "--out", str(tmp_path)]) == cli.EXIT_USAGE


# fuzzed inputs: small valid values, with one config field, one ensemble
# entry or one option now and then set to an odd value (wrong type, sign or
# range, or a non-finite number)
_ODD = st.sampled_from([None, True, "2", "x", -1, 0, 1.5, 1e200,
                        float("nan"), float("inf"), [], {}])
_CONFIG_FIELDS = {
    "n_trials": st.integers(0, 2),
    "cutoff": st.sampled_from([6, 5, 4, 2, 1]),
    "amplitude_bound": st.floats(0.01, 0.6),
    "seed": st.integers(0, 2**64),
    "n_modes": st.sampled_from([2, 3]),
    "max_ensemble_components": st.integers(1, 3),
    "unitary_source": st.sampled_from(["random_haar", "beam_splitter_grid"]),
    "threads": st.integers(1, 2),
    "ppt_tol": st.sampled_from([1e-8, 1e-16]),
    "leak_tol": st.sampled_from([1e-6, 1e-3]),
}


@st.composite
def _ensemble(draw):
    n_modes = draw(st.integers(1, 3))
    pair = st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)).map(list)
    comps = draw(st.lists(st.fixed_dictionaries(
        {"weight": st.floats(0.0, 1.0),
         "alphas": st.lists(pair, min_size=n_modes, max_size=n_modes)}),
        min_size=1, max_size=3))
    where = draw(st.sampled_from([None, "ensemble", "component", "weight", "alphas", "pair"]))
    odd = draw(_ODD)
    if where == "ensemble":
        return odd
    if where == "component":
        comps[0] = odd
    elif where in ("weight", "alphas"):
        comps[0][where] = odd
    elif where == "pair":
        comps[0]["alphas"][0] = draw(st.sampled_from(
            [[3.0, 3.0], [odd, 0.0], [0.1], [0.1, 0.0, 0.0], odd]))
    return comps


@st.composite
def _config_text(draw):
    kind = draw(st.sampled_from(["object"] * 4 + ["malformed", "array", "missing"]))
    if kind == "malformed":
        return '{"version": 1,'
    if kind == "array":
        return "[1, 2]"
    if kind == "missing":
        return None
    # n_trials, cutoff and amplitude_bound always present: their defaults
    # are a 200-trial, cutoff-14 campaign at bound 1
    required = ("n_trials", "cutoff", "amplitude_bound")
    payload = {"version": 1, **draw(st.fixed_dictionaries(
        {k: v for k, v in _CONFIG_FIELDS.items() if k in required},
        optional={k: v for k, v in _CONFIG_FIELDS.items() if k not in required}))}
    if draw(st.booleans()):
        payload["ensemble"] = draw(_ensemble())
    fields = ["version", "frobnicate", *_CONFIG_FIELDS]
    odd_field = draw(st.sampled_from([None] * len(fields) + fields))
    if odd_field is not None:
        payload[odd_field] = draw(_ODD)
    return json.dumps(payload)


_INT = st.sampled_from(["6", "4", "2", "1", "0"])
_ANGLE = st.sampled_from(["0", "0.3", "0.7853981633974483", "-1.2"])
_OPTIONS = {
    "verify": {"--seed": _INT, "--threads": st.sampled_from(["1", "2"]), "--cutoff": _INT},
    "sweep": {"--cutoff": _INT, "--phi0": _ANGLE,
              "--thetas": st.sampled_from(["", "0.3", "0,0.7853981633974483", ","]),
              "--input": st.sampled_from(["fock", "ensemble"]),
              "--occupations": st.sampled_from(["1,0", "0,0", "2,1", "6,0", "1", "1,0,0"])},
    "demo": {"--cutoff": _INT, "--theta": _ANGLE, "--phi1": _ANGLE},
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    if command == "demo":
        argv.append(draw(st.sampled_from(["bell", "inverse", "coherent-covariance", "bogus"])))
    options = {flag: draw(values) for flag, values in _OPTIONS[command].items()
               if draw(st.booleans())}
    odd_flag = draw(st.sampled_from([None] * 8 + sorted(_OPTIONS[command])))
    if odd_flag is not None:
        options[odd_flag] = draw(st.sampled_from(["-1", "x", "1.5", "nan", "inf", "", "1,x"]))
    # --flag=value, so that values starting with '-' stay values
    return argv + [f"{flag}={value}" for flag, value in options.items()]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(argv=_argv(), config_text=_config_text())
@example(argv=["demo", "bell", "--seed=-1"], config_text=None)
@example(argv=["verify"], config_text=json.dumps(
    {"version": 1, "n_trials": 1, "cutoff": 6, "amplitude_bound": 0.3, "ensemble": [1]}))
@example(argv=["sweep", "--input=ensemble"], config_text=json.dumps(
    {"ensemble": [{"weight": 1.0, "alphas": [["a", 0.0], [0.0, 0.0]]}]}))
def test_fuzzed_commands_exit_with_a_contract_code(argv, config_text):
    # every call returns a documented exit code and reports through a
    # message, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if config_text is not None:
            (root / "config.json").write_text(config_text)
        if argv[0] == "verify" or "--input=ensemble" in argv:
            argv = argv + [f"--config={root / 'config.json'}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + [f"--out={root / 'out'}"])
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_FINDING, cli.EXIT_NUMERIC)
    assert "Traceback" not in err.getvalue()
