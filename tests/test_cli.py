import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bselab import cli, theoremlab
from bselab.states import CoherentEnsemble


def _write_config(path: Path, **overrides) -> Path:
    payload = {"version": 1, "n_trials": 4, "seed": 7, "cutoff": 14}
    payload.update(overrides)
    cfg = path / "config.json"
    cfg.write_text(json.dumps(payload))
    return cfg


def test_demo_commands_pass(tmp_path, capsys):
    for name in ("vacuum", "bell", "inverse", "coherent-covariance"):
        out = tmp_path / name
        assert cli.main(["demo", name, "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "bselab"
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
    assert cli.main(["demo", "nosuch", "--out", str(tmp_path)]) == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [["bell", "--cutoff", "0"], ["bell", "--theta", "nan"], ["bell", "--phi1", "inf"],
     ["bell", "--cutoff", "1"], ["inverse", "--cutoff", "1"]],
    ids=["zero-cutoff", "nan-theta", "inf-phi1", "bell-cutoff-1", "inverse-cutoff-1"],
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
    lines = (out / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["ensemble_closure"] == "pass" for line in lines)


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
    ],
    ids=["zero-amplitude-bound", "zero-components", "fractional-n-trials",
         "bool-n-trials", "negative-seed", "float-n-modes", "fractional-threads",
         "negative-ppt-tol", "zero-leak-tol", "zero-cutoff"],
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


def test_verify_bytes_do_not_depend_on_blas_environment(tmp_path):
    # one 3-mode trial at cutoff 8 runs three dim-512 PT eigensolves, whose
    # last bits depend on the OpenBLAS thread count unless bselab pins it
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
    assert cli.main(["demo", "vacuum"]) == 0
    assert (target / "report.json").exists()


def test_missing_subcommand_is_usage_error():
    assert cli.main([]) == cli.EXIT_USAGE


def test_sweep_has_no_seed_option(tmp_path):
    assert cli.main(["sweep", "--seed", "5", "--out", str(tmp_path)]) == cli.EXIT_USAGE
