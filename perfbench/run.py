"""The bselab benchmark: `bselab verify` and `bselab sweep`, driven through
`bselab.cli.main` the way a user drives the command.

Run from the repository root:

    python3 perfbench/run.py --workload verify-3m --seed 1 --seconds 28 --trace 0

The inputs (campaign configs, the sweep ensemble) are generated from --seed;
the program receives only the generated config files. A run is split over
WORKERS fresh interpreters started one after another (worker.py). Each
imports bselab.cli, which gives one set-up sample, and then runs calls back
to back (a closed loop, one client) for its share of --seconds. Several
short-lived processes average out the per-process BLAS scheduling luck that
one long process would carry through a whole run.

Every call is checked: exit code 0, a clean report (verify) or one sane row
per angle (sweep), and the same output digest whenever the same config runs
again. --trace 0 prints the end-to-end metrics; --trace 1 runs each config
once untraced and once traced (layers.py) and prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Details (platform, configs, per-call samples, spans) are written to
.perfbench_runs/<workload>/seed<seed>-trace<trace>/.

The benchmark sets no BLAS or OpenMP variable: it measures what a user of
`bselab verify` gets, and records the BLAS thread count in force.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

#: worker processes per run, one after another; items_per_s, cpu_s_per_item
#: and setup_s are medians over them
WORKERS = 4
#: a run gives up this long after --seconds, so that it ends within 180 s
RUN_SLACK_S = 140

# name -> (unit, better)
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "run_s_p50": ("s", "lower"),
    "cpu_s_per_item": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "ppt_headroom": ("1", "higher"),
}

NPROC = os.cpu_count() or 1

# Why these two: verify-3m (the shape of acceptance campaign 5) is where the
# sector transform, the dim-512 LAPACK work and the BLAS thread setting
# matter; sweep-ens runs the dense lift_unitary/apply_to_density path that
# campaigns never call, so a change to the sector transform alone should not
# move it.
WORKLOADS = {
    "verify-3m": {
        "kind": "verify", "items_per_call": 1, "threads": 1,
        "campaign": {"n_modes": 3, "cutoff": 8, "max_ensemble_components": 4,
                     "amplitude_bound": 0.5, "unitary_source": "random_haar"},
    },
    "sweep-ens": {
        "kind": "sweep", "items_per_call": 5, "threads": 1,
        "cutoff": 22, "components": 4, "amplitude_bound": 1.0,
    },
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no program source, a worker that
    failed or hung)."""


def _finite_min(values) -> float:
    return min((v for v in values if not math.isnan(v)), default=math.nan)


def run_workers(spec: dict, seed: int, seconds: float, trace: bool, run_dir: Path,
                workers: int):
    """Start the workers one after another; returns their result dicts and
    the set-up samples (spawn to `import bselab.cli` done)."""
    results, setup, first = [], [], 0
    deadline = time.monotonic() + seconds + RUN_SLACK_S
    for index in range(workers):
        job = {"spec": spec, "seed": seed, "first_call": first,
               "slice": seconds / workers, "trace": trace, "run_dir": str(run_dir),
               "index": index}
        spawned = time.monotonic()
        try:
            done = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                                  cwd=ROOT, stdout=subprocess.DEVNULL,
                                  timeout=max(deadline - spawned, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise SetupError(f"worker {index} still running after {exc.timeout:.0f} s") from exc
        if done.returncode != 0:
            raise SetupError(f"worker {index} exited with {done.returncode}")
        result = json.loads((run_dir / f"worker-{index}.json").read_text())
        setup.append(result["imported_at"] - spawned)
        first = result["next_call"]
        results.append(result)
    return results, setup


def run(workload: str, seed: int, seconds: float, trace: bool,
        items_per_call: int | None = None, workers: int = WORKERS) -> dict:
    """One benchmark run; returns the result object printed as the last line.
    `items_per_call` and `workers` shrink the run for the self-test."""
    if not (SRC / "bselab" / "cli.py").is_file():
        raise SetupError(f"no program source at {SRC}")
    spec = dict(WORKLOADS[workload])
    if items_per_call is not None:
        spec["items_per_call"] = items_per_call
    run_dir = RUNS / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    results, setup = run_workers(spec, seed, seconds, trace, run_dir, workers)
    calls = [c for r in results for c in r["calls"]]
    reference: dict[int, str] = {}
    for c in calls:  # a config that runs again must write the same outputs
        if c["digest"] != reference.setdefault(c["key"], c["digest"]) or not c["digest"]:
            c["failed"] = c["items"]
    attempted = sum(c["items"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    timed = [c for c in calls if c["timed"]]
    headroom = _finite_min(c["headroom"] for c in calls)

    if trace:
        untraced = {(c["worker"], c["index"]): c["wall"] for c in timed if not c["traced"]}
        traced = [
            {"wall": c["wall"], "untraced_wall": untraced[c["worker"], c["index"]],
             "items": c["items"] - c["failed"], "retried": c["retried"],
             "bytes": c["bytes"]}
            for c in timed if c["traced"]
        ]
        spans = [s for index in range(len(results))
                 for s in layers.read_spans(run_dir / f"spans-{index}.jsonl", index << 32)]
        values = layers.layer_metrics(traced, spans, spec["threads"])
        units = {k: u for k, (u, _) in layers.METRICS.items()}
        counts = {"workers": len(results), "traced calls": len(traced),
                  "items": sum(c["items"] for c in traced), "spans": len(spans)}
    else:
        per_worker = [[c for c in timed if c["worker"] == w] for w in range(len(results))]
        values = {
            "items_per_s": statistics.median(
                sum(c["items"] - c["failed"] for c in cs) / sum(c["wall"] for c in cs)
                for cs in per_worker
            ),
            "run_s_p50": statistics.median(c["wall"] for c in timed),
            "cpu_s_per_item": statistics.median(
                sum(c["cpu"] for c in cs) / sum(c["items"] for c in cs) for cs in per_worker
            ),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": max(r["maxrss_kib"] for r in results) / 1024.0,
            "ppt_headroom": headroom,
        }
        items = sum(c["items"] for c in timed)
        units = {k: u for k, (u, _) in END_TO_END.items()}
        counts = {"workers": len(results), "timed calls": len(timed), "items": items,
                  "setup samples": len(setup)}

    blas = results[0]["blas"]
    detail = {
        "workload": workload, "spec": spec, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "platform": {"nproc": NPROC, "affinity": len(os.sched_getaffinity(0)),
                     "python": platform.python_version(), "machine": platform.machine(),
                     "system": platform.platform(), "blas": blas},
        "configs": {k: v for r in results for k, v in r["configs"].items()},
        "calls": calls,
        "setup_samples_s": setup,
        "error_ratio": failed / attempted,
        "ppt_headroom": headroom,
        "untraced_targets": sorted({t for r in results for t in r.get("untraced_targets", [])}),
        "sample_counts": counts,
        "metrics": values,
    }
    (run_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n")

    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    print("BLAS threads in force: "
          + (", ".join(f"{b['library']}={b['num_threads']}" for b in blas["loaded"])
             or "unknown"))
    for name, value in values.items():
        print(f"  {name:44s} {value!r} {units[name]}")
    print(f"  {'error_ratio':44s} {detail['error_ratio']!r} fraction "
          f"({failed}/{attempted} items)")
    if trace:
        print(f"  {'ppt_headroom':44s} {headroom!r} 1")
    print("  digests " + " ".join(f"{k}:{d[:12]}" for k, d in sorted(reference.items())))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
