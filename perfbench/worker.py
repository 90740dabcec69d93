"""One benchmark worker: a fresh interpreter that imports bselab.cli, runs one
untimed warm-up call and then whole cycles of calls until its time slice has
passed.

run.py starts the workers of a run one after another:

    python3 perfbench/worker.py '<job as JSON>'

The job holds the workload spec, seed, first call index, slice seconds, trace
flag, run directory and worker index.
The worker writes worker-<index>.json, and spans-<index>.jsonl when tracing,
into the run directory.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import bselab.cli  # noqa: E402  (first, so the set-up time covers exactly this)

# CLOCK_MONOTONIC on Linux is system-wide: run.py subtracts its spawn time
IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402


def invoke(main, argv: list[str]) -> tuple[object, float, float]:
    """(exit code or None if it raised, wall seconds, process CPU seconds)."""
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except Exception:  # an uncaught error fails the call, not the run
            traceback.print_exc()
            code = None
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    return code, wall, cpu


def blas_info() -> dict:
    """BLAS builds numpy and scipy report, and for every loaded OpenBLAS its
    version string and thread count in force (read, never set)."""
    import numpy as np
    import scipy

    info: dict = {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "env": {k: os.environ[k] for k in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                if k in os.environ},
    }
    for name, mod in (("numpy", np), ("scipy", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            info[f"{name}_build"] = {k: blas.get(k) for k in ("name", "version")}
        except (KeyError, TypeError, AttributeError):
            info[f"{name}_build"] = None
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        paths = []
    loaded = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                loaded.append({"library": Path(path).name,
                               "config": get_config().decode(errors="replace"),
                               "num_threads": get_threads()})
    info["loaded"] = loaded
    return info


def main() -> int:
    job = json.loads(sys.argv[1])
    if Path(bselab.cli.__file__).resolve().parent.parent != SRC:
        print(f"bselab imported from {bselab.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec, run_dir = job["spec"], Path(job["run_dir"])
    wl = workloads.KINDS[spec["kind"]](spec, job["seed"], run_dir)
    tracer = layers.Tracer() if job["trace"] else None
    calls = []

    def call(i: int, traced: bool, timed: bool) -> None:
        argv = wl.argv(i)
        if traced:
            tracer.install()
            try:
                code, wall, cpu = invoke(tracer.wrap("cli.main", bselab.cli.main), argv)
            finally:
                tracer.uninstall()
        else:
            code, wall, cpu = invoke(bselab.cli.main, argv)
        items, failed, digest, headroom, retried = wl.check(code)
        calls.append({
            "worker": job["index"], "index": i, "key": wl.key(i), "traced": traced,
            "timed": timed, "exit_code": code, "wall": wall, "cpu": cpu,
            "items": items, "failed": failed, "digest": digest, "headroom": headroom,
            "retried": retried, "bytes": workloads.output_bytes(wl.out),
        })

    # untimed warm-up: fills lazy imports and caches, and repeats call 0 in
    # every worker, so each config-0 digest is checked across processes
    call(0, False, False)
    i = job["first_call"]
    start = time.perf_counter()
    for cycles in itertools.count(1):
        for _ in range(wl.cycle):
            if job["trace"]:  # each config untraced and traced, alternating the order
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    call(i, traced, True)
            else:
                call(i, False, True)
            i += 1
        # stop at the cycle boundary nearest to the end of the slice
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles / 2 >= job["slice"]:
            break

    result = {
        "imported_at": IMPORTED_AT,
        "next_call": i,
        "calls": calls,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas": blas_info() if job["index"] == 0 else None,
        "configs": {wl.key(c["index"]): wl.config(c["index"]) for c in calls},
    }
    if tracer is not None:
        result["untraced_targets"] = tracer.missing
        layers.write_spans(run_dir / f"spans-{job['index']}.jsonl", tracer.spans)
    (run_dir / f"worker-{job['index']}.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
