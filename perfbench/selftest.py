"""Self-test of the benchmark: each workload at tiny size, untraced and traced.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its unit
(end-to-end metrics untraced, per-layer metrics traced), that the traced and
untraced calls of each config write the same output digest, and that the
benchmark exits non-zero without a result in a directory holding only
BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import layers
import run

TINY = {"verify-3m": 1, "sweep-ens": 2}
WORKERS = 2
SEED = 7


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py defines", failures)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(declared[0] == {k: u for k, (u, _) in run.END_TO_END.items()},
          "end-to-end metrics match run.END_TO_END", failures)
    check(declared[1] == {k: u for k, (u, _) in layers.METRICS.items()},
          "per-layer metrics match layers.METRICS", failures)

    for workload, size in TINY.items():
        for trace in (0, 1):
            result = run.run(workload, SEED, 0, bool(trace), items_per_call=size,
                             workers=WORKERS)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == declared[trace],
                  f"{workload} trace {trace}: every metric emitted with its unit", failures)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace}: outputs correct", failures)
            if trace:
                detail = json.loads(
                    (run.RUNS / workload / f"seed{SEED}-trace1" / "result.json").read_text()
                )
                pairs: dict[int, set[str]] = {}
                for call in detail["calls"]:
                    pairs.setdefault(call["key"], set()).add(call["digest"])
                check(all(len(d) == 1 and "" not in d for d in pairs.values()),
                      f"{workload}: traced and untraced digests agree", failures)

    bare = run.RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-3m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "refuses a directory without the program", failures)
    shutil.rmtree(bare)

    print("selftest:", "FAILED " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
