"""The benchmark's workloads: config generation from the seed and output checks.

A workload runs in cycles of `cycle` calls; a worker stops only at the end of
a cycle, so every run holds whole cycles. Imported by worker.py, after it has
put the checkout's src/ on the path.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
from bselab.witnesses import PPT_TOL

#: a classical (coherent-mixture) state has Mandel Q >= 0; bselab's WITNESS_TOL
MANDEL_Q_TOL = 1e-8


def _clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def output_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


class VerifyWorkload:
    """`bselab verify`. Call i is a campaign of its own: Haar unitaries from
    the campaign seed, and a classical ensemble the benchmark draws and pins
    through the config's "ensemble" key.

    Call i's ensemble has COMPONENTS[i mod 5] components: every cycle holds
    the campaign sampler's counts 1..4, with 3 twice so that the median call
    of a run falls inside one size instead of between two. Every mode
    amplitude has modulus bound/sqrt(2), the root mean square of the
    sampler's uniform-disk law, and a uniform random phase. The trial cost
    follows the component count and the photon number, so fixing both per
    call keeps the work of a run the same from seed to seed; the phases,
    weights and unitaries still change with it.
    """

    COMPONENTS = (1, 2, 3, 3, 4)
    cycle = len(COMPONENTS)

    def __init__(self, spec: dict, seed: int, run_dir: Path):
        self.spec, self.seed, self.run_dir = spec, seed, run_dir
        self.out = run_dir / "out"

    def config(self, i: int) -> dict:
        seq = np.random.SeedSequence([self.seed, i])
        rng = np.random.default_rng(seq)
        campaign = self.spec["campaign"]
        k = self.COMPONENTS[i % self.cycle]
        modulus = campaign["amplitude_bound"] / math.sqrt(2.0)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, campaign["n_modes"]))
        ensemble = [
            {"weight": float(w),
             "alphas": [[modulus * math.cos(p), modulus * math.sin(p)] for p in row]}
            for w, row in zip(rng.dirichlet(np.ones(k)), phases)
        ]
        return {"version": 1, "n_trials": self.spec["items_per_call"],
                "seed": int(seq.generate_state(1)[0]), **campaign, "ensemble": ensemble}

    def key(self, i: int) -> int:
        """Calls with the same key run the same config."""
        return i

    def argv(self, i: int) -> list[str]:
        path = self.run_dir / f"config-{i}.json"
        path.write_text(json.dumps(self.config(i), indent=2) + "\n")
        _clear(self.out)
        return ["verify", "--config", str(path), "--out", str(self.out),
                "--threads", str(self.spec["threads"])]

    def check(self, exit_code) -> tuple[int, int, str, float, int]:
        """(items, failed items, digest, PPT headroom, retried trials)."""
        n = self.spec["items_per_call"]
        report_path, trials_path = self.out / "report.json", self.out / "trials.jsonl"
        try:
            report = json.loads(report_path.read_text())
            records = [json.loads(line) for line in trials_path.read_text().splitlines()]
            digest = _digest(report_path, trials_path)
        except (OSError, ValueError):
            return n, n, "", math.nan, 0
        bad = {f.get("trial") for f in report["findings"]}
        consistent = (
            report["n_trials"] == n
            and report["n_completed"] + report["n_overflow_failures"] == n
            and len(records) == report["n_completed"]
            and (exit_code == 0) == (not bad)
        )
        failed = len(bad) if consistent else n
        tol = report["config"]["ppt_tol"]
        eigs = [bp["min_pt_eigenvalue"] for r in records for bp in r["bipartitions"]]
        headroom = (min(eigs) + tol) / tol if eigs else math.nan
        return n, failed, digest, headroom, report["n_retried"]


class SweepWorkload:
    """`bselab sweep --input ensemble` on one classical ensemble drawn from the
    seed (weights from the flat Dirichlet law, amplitudes uniform in the disk
    of the given radius). Every call repeats the same config."""

    cycle = 1

    def __init__(self, spec: dict, seed: int, run_dir: Path):
        self.spec, self.run_dir = spec, run_dir
        self.out = run_dir / "out"
        rng = np.random.default_rng(seed)
        k = spec["components"]
        weights = rng.dirichlet(np.ones(k))
        radii = spec["amplitude_bound"] * np.sqrt(rng.uniform(0.0, 1.0, size=(k, 2)))
        alphas = radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(k, 2)))
        self.ensemble = [
            {"weight": float(w), "alphas": [[float(a.real), float(a.imag)] for a in row]}
            for w, row in zip(weights, alphas)
        ]
        self.thetas = [float(t) for t in np.linspace(0.0, np.pi / 2.0, spec["items_per_call"])]
        self.config_path = run_dir / "config-sweep.json"
        self.config_path.write_text(
            json.dumps({"version": 1, "ensemble": self.ensemble}, indent=2) + "\n"
        )

    def config(self, i: int) -> dict:
        return {"ensemble": self.ensemble, "thetas": self.thetas,
                "cutoff": self.spec["cutoff"]}

    def key(self, i: int) -> int:
        return 0

    def argv(self, i: int) -> list[str]:
        _clear(self.out)
        return ["sweep", "--input", "ensemble", "--config", str(self.config_path),
                "--cutoff", str(self.spec["cutoff"]),
                "--thetas", ",".join(repr(t) for t in self.thetas),
                "--out", str(self.out)]

    def check(self, exit_code) -> tuple[int, int, str, float, int]:
        n = len(self.thetas)
        path = self.out / "sweep.csv"
        try:
            with path.open(newline="") as fh:
                rows = list(csv.DictReader(fh))
            digest = _digest(path)
            values = [{k: float(v) for k, v in row.items()} for row in rows]
        except (OSError, ValueError, TypeError):
            return n, n, "", math.nan, 0
        if exit_code != 0 or len(values) != n:
            return n, n, digest, math.nan, 0
        failed = sum(
            1 for row, theta in zip(values, self.thetas)
            if row["theta"] != theta
            or not all(math.isfinite(v) for v in row.values())
            or min(row["mandel_q_a"], row["mandel_q_b"]) < -MANDEL_Q_TOL
        )
        headroom = min((row["min_pt_eigenvalue"] + PPT_TOL) / PPT_TOL for row in values)
        return n, failed, digest, headroom, 0


KINDS = {"verify": VerifyWorkload, "sweep": SweepWorkload}
