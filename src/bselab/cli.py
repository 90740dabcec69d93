"""Command-line front end: demos, verification campaigns, parameter sweeps.

Exit codes are a stable contract:
  0  all assertions pass / zero findings
  2  usage or config error
  3  finding (theorem-surrogate tolerance breach or demo assertion failure)
  4  numeric/truncation failure beyond the retry budget

Outputs are machine-readable JSON (reports, trial streams) plus a run
manifest; numeric report content is byte-deterministic for a fixed
config and seed (timings and platform facts live only in the manifest).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import platform
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from ._blas import openblas_threads, single_threaded_blas
from .hilbert import LEAK_TOL, FockArena, Mixture, TruncationError
from .passive import _lift_rows, beam_splitter_matrix, transform_coherent_exact
from .states import CoherentEnsemble, _check_rows, coherent, fock
from .theoremlab import TRIAL_STAGES, CampaignConfig, run_campaign
from .witnesses import mandel_q, negativity_reports

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FINDING = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing

# a config file holds the format "version" and CampaignConfig's fields,
# with the manual ensemble under "ensemble"
_CAMPAIGN_FIELDS = (
    {f.name for f in fields(CampaignConfig)} - {"manual_ensemble"}
) | {"version", "ensemble"}


def _is_number(value) -> bool:
    """A JSON number: int or float, but not a boolean (bool subclasses int)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def parse_ensemble(entries) -> CoherentEnsemble:
    """Parse a manual ensemble: a list of {weight, alphas: [[re, im], ...]}."""
    if not isinstance(entries, list) or not entries:
        raise ConfigError("ensemble must be a non-empty list of components")
    weights, alphas = [], []
    for comp in entries:
        if not isinstance(comp, dict):
            raise ConfigError("each ensemble component must be an object")
        unknown = set(comp) - {"weight", "alphas"}
        if unknown:
            raise ConfigError(f"unknown ensemble component fields: {sorted(unknown)}")
        w = comp.get("weight")
        if not _is_number(w):
            raise ConfigError("each ensemble component needs a numeric weight")
        if w < 0:
            raise ConfigError(
                f"ensemble weight {w} is negative: a classical P-function "
                "requires all weights to be non-negative"
            )
        rows = comp.get("alphas")
        if not isinstance(rows, list) or not all(
            isinstance(p, list) and len(p) == 2
            and all(_is_number(x) for x in p) for p in rows
        ):
            raise ConfigError("alphas must be a list of numeric [re, im] pairs")
        weights.append(float(w))
        alphas.append([complex(p[0], p[1]) for p in rows])
    if len({len(a) for a in alphas}) != 1:
        raise ConfigError("all ensemble components must have the same mode count")
    try:
        return CoherentEnsemble(len(alphas[0]), np.array(weights), np.array(alphas))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_config_json(path: Path, allowed) -> dict:
    """A config file's JSON object, keys in ``allowed`` and any "version" 1, or ConfigError."""
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    if "version" in raw and not (_is_number(raw["version"]) and raw["version"] == 1):
        raise ConfigError("config must declare \"version\": 1")
    return raw


def load_campaign_config(path: Path, overrides: dict) -> CampaignConfig:
    raw = _read_config_json(path, _CAMPAIGN_FIELDS)
    if "version" not in raw:
        raise ConfigError("config must declare \"version\": 1")

    ensemble = None
    if "ensemble" in raw:
        ensemble = parse_ensemble(raw["ensemble"])
    kwargs = {k: raw[k] for k in raw if k not in ("version", "ensemble")}
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    if ensemble is not None:
        kwargs.setdefault("n_modes", ensemble.n_modes)
    try:
        return CampaignConfig(manual_ensemble=ensemble, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output plumbing


def resolve_out_dir(args) -> Path:
    path = Path(args.out or os.environ.get("BSE_OUT_DIR") or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_manifest(out_dir: Path, config_echo, timings: dict, files: list[str],
                   workers: int = 1) -> Path:
    manifest = {
        "tool": "bselab",
        "version": __version__,
        "config": config_echo,
        "platform": {
            "python": platform.python_version(),
            "system": platform.platform(),
            "numpy": np.__version__,
        },
        # the campaign's worker count is the run's only parallelism; every
        # loaded OpenBLAS is pinned to one thread while a command runs
        "parallelism": {"workers": workers, "openblas": openblas_threads()},
        "timings_seconds": timings,
        "outputs": files,
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


# ---------------------------------------------------------------------------
# demos


def _splitter_and_back(args, arena: FockArena):
    """|1,0>, its image under the splitter M of the demo flags, that image
    mapped back by M^-1, and the PT reports across the two modes of the
    image and of the way back, taken in one stacked pass."""
    m = beam_splitter_matrix(args.theta, args.phi0, args.phi1)
    psi_in = fock(arena, (1, 0))
    psi_fwd = _lift_rows([m], psi_in[None], arena)[0, 0]
    psi_back = _lift_rows([m.inverse()], psi_fwd[None], arena)[0, 0]
    forward, inverse = negativity_reports(
        [(Mixture(arena, [1.0], [psi]), ((0,), (1,))) for psi in (psi_fwd, psi_back)])
    return psi_in, psi_back, forward, inverse


def _demo_bell(args, arena: FockArena) -> dict:
    _, _, report, _ = _splitter_and_back(args, arena)
    # |1,0> maps to cos|10> + sin|01> up to phases: log-negativity
    # log2(1 + |sin 2 theta|) in closed form
    expected = float(np.log2(1.0 + abs(np.sin(2.0 * args.theta))))
    return {
        "demo": "bell",
        "theta": args.theta,
        "log_negativity": report.log_negativity,
        "expected_log_negativity": expected,
        "negativity": report.negativity,
        "min_pt_eigenvalue": report.min_pt_eigenvalue,
        "pass": bool(abs(report.log_negativity - expected) <= 1e-9),
    }


def _demo_inverse(args, arena: FockArena) -> dict:
    # the nonclassical input entangles, and the inverse splitter maps that
    # entangled state back to a product: nonclassicality does not force
    # entanglement
    psi_in, psi_back, forward, inverse = _splitter_and_back(args, arena)
    q_in = mandel_q(Mixture(arena, [1.0], [psi_in]).photon_distributions()[0])
    fidelity = float(abs(np.vdot(psi_in, psi_back)) ** 2)
    return {
        "demo": "inverse",
        "input_mandel_q": q_in,
        "forward_log_negativity": forward.log_negativity,
        "forward_negativity": forward.negativity,
        "inverse_negativity": inverse.negativity,
        "recovered_fidelity": fidelity,
        "pass": bool(inverse.negativity <= 1e-9 and fidelity >= 1.0 - 1e-9
                     and q_in <= -1.0 + 1e-12),
    }


def _demo_coherent_covariance(args, arena: FockArena) -> dict:
    rng = np.random.default_rng(0)
    m = beam_splitter_matrix(args.theta, args.phi0, args.phi1)
    alphas = [0.8 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / np.sqrt(2)
              for _ in range(10)]
    # each input row next to its target row, so the leak checks run in
    # the order of the pairs
    pairs = coherent(arena, [(a, a @ np.conj(m.matrix)) for a in alphas])
    rows = _lift_rows([m], pairs[:, 0], arena)[0]
    worst = min(1.0, *(float(abs(np.vdot(t, psi)) ** 2) for t, psi in zip(pairs[:, 1], rows)))
    return {"demo": "coherent-covariance", "theta": args.theta,
            "worst_fidelity": worst, "tolerance": 1e-6,
            "pass": worst >= 1.0 - 1e-6}


def _two_mode_arena(cutoff: int) -> FockArena:
    try:
        return FockArena(2, cutoff)
    except ValueError as exc:
        raise ConfigError(f"bad --cutoff value: {exc}") from exc


def cmd_demo(args) -> int:
    out_dir = resolve_out_dir(args)
    arena = _two_mode_arena(args.cutoff)
    if args.name in ("bell", "inverse") and arena.cutoff < 2:
        raise ConfigError(f"demo {args.name} starts from |1,0> and needs --cutoff >= 2")
    runners = {
        "bell": _demo_bell,
        "inverse": _demo_inverse,
        "coherent-covariance": _demo_coherent_covariance,
    }
    t0 = time.perf_counter()
    payload = runners[args.name](args, arena)
    elapsed = time.perf_counter() - t0

    report_path = out_dir / "report.json"
    write_json(report_path, payload)
    write_manifest(out_dir, {"demo": args.name, "cutoff": args.cutoff,
                             "theta": args.theta, "phi0": args.phi0, "phi1": args.phi1},
                   {"total": elapsed}, [str(report_path)])

    print(f"demo {args.name}: {'PASS' if payload['pass'] else 'FAIL'}")
    for key, value in payload.items():
        if key not in ("demo", "pass"):
            print(f"  {key:28s} {value}")
    return EXIT_OK if payload["pass"] else EXIT_FINDING


# ---------------------------------------------------------------------------
# verify


def _timing_summary(times: list[float]) -> dict:
    s, n = sorted(times), len(times)  # statistics.median's value, importing no numpy.ma
    return {"count": n, "total": sum(times), "max": max(times, default=None),
            "p50": (s[(n - 1) // 2] + s[n // 2]) / 2 if times else None}


def cmd_verify(args) -> int:
    out_dir = resolve_out_dir(args)
    overrides = {"seed": args.seed, "threads": args.threads, "cutoff": args.cutoff}
    cfg = load_campaign_config(Path(args.config), overrides)

    t0 = time.perf_counter()
    summary = run_campaign(cfg)
    elapsed = time.perf_counter() - t0

    trials_path = out_dir / "trials.jsonl"
    with trials_path.open("w") as fh:
        for record in summary.records:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")
    report_path = out_dir / "report.json"
    write_json(report_path, summary.to_json_dict())
    # completed trials, last attempt
    stages = {name: [t for r in summary.records for s, t in r.stage_times if s == name]
              for name in TRIAL_STAGES}
    timings = {
        "total": elapsed,
        "trials": _timing_summary([r.wall_time for r in summary.records]),
        "stages": {name: _timing_summary(times) for name, times in stages.items()},
    }
    write_manifest(out_dir, summary.config_echo, timings,
                   [str(report_path), str(trials_path)], workers=cfg.threads)

    flagged = {f["trial"] for f in summary.findings}
    n_clean = sum(1 for r in summary.records if r.seed not in flagged)
    print(f"verify: {n_clean}/{summary.n_trials} trials clean, "
          f"{len(summary.findings)} findings, "
          f"worst PT eigenvalue {summary.worst_ppt_min_eigenvalue}")
    if summary.n_overflow_failures:
        print(f"truncation overflow in {summary.n_overflow_failures} trials "
              f"after {cfg.cutoff}+retries", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK if summary.clean else EXIT_FINDING


# ---------------------------------------------------------------------------
# sweep

SWEEP_COLUMNS = [
    "theta",
    "negativity",
    "log_negativity",
    "min_pt_eigenvalue",
    "mandel_q_a",
    "mandel_q_b",
]


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{raw!r} is not a finite number")
    return value


def _parse_thetas(raw: str) -> list[float]:
    if raw.strip() == "":
        return []
    try:
        return [_finite_float(tok) for tok in raw.split(",")]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad --thetas value: {exc}") from exc


def cmd_sweep(args) -> int:
    out_dir = resolve_out_dir(args)
    thetas = _parse_thetas(args.thetas)
    arena = _two_mode_arena(args.cutoff)

    # route(unitaries, inputs, arena): the output amplitude rows after each
    # unitary, for the whole sweep at once; a Fock row goes through P U P, an
    # ensemble through the exact coherent transform a campaign trial uses
    if args.input == "fock":
        if args.config is not None:
            raise ConfigError("--config holds an ensemble and needs --input ensemble")
        try:
            occ = tuple(int(tok) for tok in (args.occupations or "1,0").split(","))
            psi = fock(arena, occ)
        except ValueError as exc:
            raise ConfigError(f"bad --occupations value: {exc}") from exc
        input_echo = {"kind": "fock", "occupations": list(occ)}
        weights, route, inputs = [1.0], _lift_rows, psi[None]
    else:
        if args.config is None:
            raise ConfigError("--input ensemble requires --config with an ensemble")
        if args.occupations is not None:
            raise ConfigError("--occupations is a Fock input and needs --input fock")
        # the flags carry the sweep's settings; its config holds the ensemble alone
        raw = _read_config_json(Path(args.config), {"version", "ensemble"})
        ens = parse_ensemble(raw.get("ensemble"))
        if ens.n_modes != arena.n_modes:
            raise ConfigError("sweep needs a two-mode ensemble")
        # a component that overflows alone is an error, even where a small
        # weight hides it in the mixture
        coherent(arena, ens.alphas)
        input_echo = {"kind": "ensemble", "components": ens.n_components}
        weights, inputs = ens.weights, ens.alphas
        def route(unitaries, alphas, arena):  # the rows; the tails go unread
            return transform_coherent_exact(unitaries, alphas, arena)[0]

    table = []
    t0 = time.perf_counter()
    unitaries = [beam_splitter_matrix(theta, args.phi0, args.phi1) for theta in thetas]
    outs = route(unitaries, inputs, arena)
    _check_rows(outs, LEAK_TOL)  # each output row alone, as a trial checks it
    states = [Mixture(arena, weights, out) for out in outs]
    reports = negativity_reports([(state, ((0,), (1,))) for state in states])
    for theta, state, report in zip(thetas, states, reports):
        p_a, p_b = state.photon_distributions()
        table.append([theta, report.negativity, report.log_negativity,
                      report.min_pt_eigenvalue, mandel_q(p_a), mandel_q(p_b)])
    elapsed = time.perf_counter() - t0

    sweep_path = out_dir / "sweep.csv"
    with sweep_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(table)
    write_manifest(out_dir, {"sweep_input": input_echo, "thetas": thetas,
                             "cutoff": args.cutoff},
                   {"total": elapsed}, [str(sweep_path)])
    print(f"sweep: wrote {len(table)} rows to {sweep_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: built on the first ``main`` call, then shared."""
    parser = argparse.ArgumentParser(
        prog="bselab",
        description="Beam-splitter separability laboratory: verify that "
        "classical inputs stay separable under passive transformations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a named demonstration")
    demo.add_argument("name", choices=["bell", "inverse", "coherent-covariance"])
    demo.add_argument("--theta", type=_finite_float, default=np.pi / 4)
    demo.add_argument("--phi0", type=_finite_float, default=0.0)
    demo.add_argument("--phi1", type=_finite_float, default=0.0)
    demo.add_argument("--cutoff", type=int, default=12)
    demo.add_argument("--out", help="output directory (or $BSE_OUT_DIR)")

    verify = sub.add_parser("verify", help="run a seeded verification campaign")
    verify.add_argument("--config", required=True, help="campaign config JSON")
    verify.add_argument("--out", help="output directory (or $BSE_OUT_DIR)")
    verify.add_argument("--seed", type=int, default=None, help="override config seed")
    verify.add_argument("--threads", type=int, default=None)
    verify.add_argument("--cutoff", type=int, default=None)

    sweep = sub.add_parser("sweep", help="sweep the splitter angle, emit CSV")
    sweep.add_argument("--thetas", default="", help="comma-separated angles (radians)")
    sweep.add_argument("--input", choices=["fock", "ensemble"], default="fock")
    sweep.add_argument("--occupations", help="Fock input occupations (default 1,0)")
    sweep.add_argument("--config", help="config JSON holding an ensemble")
    sweep.add_argument("--phi0", type=_finite_float, default=0.0)
    sweep.add_argument("--phi1", type=_finite_float, default=0.0)
    sweep.add_argument("--cutoff", type=int, default=12)
    sweep.add_argument("--out", help="output directory (or $BSE_OUT_DIR)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    # looked up per call, not bound into the shared parser, so that a command
    # rebound after the first call (a tracer's wrapper) is the one that runs
    command = {"demo": cmd_demo, "verify": cmd_verify, "sweep": cmd_sweep}[args.command]
    try:
        with single_threaded_blas():
            return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"config error: the Fock arena does not fit in memory, lower the cutoff: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except TruncationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
