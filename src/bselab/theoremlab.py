"""Verification harness for the classical-input / separable-output theorem.

Each trial runs three routes over the same input and mode unitary:

  1. the exact closed-form ensemble route (the constructive separability
     certificate: output weights stay the input weights, hence >= 0);
  2. the truncated Fock route (transform each coherent component sector by
     sector, PPT diagnostics on the weighted output rows);
  3. for single-component inputs (a coherent product, hence Gaussian), the
     covariance-matrix oracle: a classicality margin and the covariance PPT
     test of every bipartition.

Route 2 disagreeing with route 1 beyond the bound of the tail it drops is a
finding; an exact closure breach in route 1 would falsify the implementation
itself and is flagged as critical.  Truncation overflow is a third, distinct
failure channel and triggers a retry at a larger cutoff, not a finding.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from ._blas import single_threaded_blas
from .gaussian import apply_passive, gaussian_from_spec, is_classical, ppt_verdicts
from .hilbert import LEAK_TOL, FockArena, Mixture, TruncationError, _check_size
from .passive import (ModeUnitary, _sector_bounds, beam_splitter_matrix,
                      transform_coherent_exact, transform_ensemble)
from .states import (CoherentEnsemble, GaussianSpec, _check_rows, _coherent_rows,
                     coherent_leakage)
from .witnesses import PPT_TOL, EntanglementReport, negativity_reports

#: truncation-overflow retry policy
RETRY_BUDGET = 2
CUTOFF_STEP = 4
#: the stages a trial times, in order (``pt_spectrum`` once, over every
#: bipartition: their spectra share one stacked pass)
TRIAL_STAGES = ("route1_closed_form", "route2_transform", "pt_spectrum",
                "cross_check", "route3_gaussian")


def haar_unitary(n: int, rng: np.random.Generator) -> ModeUnitary:
    """Haar-distributed n x n unitary: QR of a complex Gaussian matrix with
    the R-diagonal phases folded back in (deterministic per rng state)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return ModeUnitary(q * (d / np.abs(d)))


def random_classical_ensemble(
    seed, n_modes: int, max_components: int, amplitude_bound: float
) -> CoherentEnsemble:
    """Random classical ensemble: component count uniform in 1..max,
    weights from the flat Dirichlet (symmetric simplex draw), amplitudes
    uniform in the complex disk of the given radius.  Deterministic per seed."""
    if max_components < 1 or amplitude_bound <= 0:
        raise ValueError("bounds must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    k = int(rng.integers(1, max_components + 1))
    weights = rng.dirichlet(np.ones(k))
    radii = amplitude_bound * np.sqrt(rng.uniform(0.0, 1.0, size=(k, n_modes)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, n_modes))
    return CoherentEnsemble(n_modes, weights, radii * np.exp(1j * phases))


def bipartitions(n_modes: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All mode bipartitions up to complement (1-vs-rest for n <= 3)."""
    modes = set(range(n_modes))
    out = []
    for bits in range(1, 2 ** (n_modes - 1)):
        part_a = tuple(m for m in range(n_modes) if bits >> m & 1)
        part_b = tuple(sorted(modes - set(part_a)))
        out.append((part_a, part_b))
    return out


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    input_description: dict
    unitary_description: dict
    ensemble_closure: str  # "pass" | "fail"
    ppt_min_eigenvalue: float
    # min over bipartitions of min_pt_eigenvalue - pt_bound + ppt_tol: the
    # margin above a ppt_violation
    ppt_headroom: float
    entanglement_reports: tuple[EntanglementReport, ...]
    cross_pipeline_max_dev: float
    gaussian_verdict: Optional[dict]
    wall_time: float
    cutoff: int
    leak: float  # route 2's 1 - sum_i w_i ||psi_i||^2 at this cutoff
    sector_tail: float  # the largest bound on P(N_i > n_i) route 2 drops
    attempts: int = 0  # retries at a larger cutoff before this record
    stage_times: tuple[tuple[str, float], ...] = ()  # (TRIAL_STAGES name, seconds)

    def to_json_dict(self) -> dict:
        """Serializable form; excludes wall_time and stage_times (timings
        live in the run manifest so reports stay byte-deterministic)."""
        return {
            "seed": self.seed,
            "cutoff": self.cutoff,
            "leak": self.leak,
            "attempts": self.attempts,
            "input": self.input_description,
            "unitary": self.unitary_description,
            "ensemble_closure": self.ensemble_closure,
            "ppt_min_eigenvalue": self.ppt_min_eigenvalue,
            "ppt_headroom": self.ppt_headroom,
            "bipartitions": [
                {
                    "modes_a": list(r.bipartition[0]),
                    "modes_b": list(r.bipartition[1]),
                    "min_pt_eigenvalue": r.min_pt_eigenvalue,
                    "negativity": r.negativity,
                    "log_negativity": r.log_negativity,
                    "pt_bound": r.pt_bound,
                    "verdict": r.verdict,
                }
                for r in self.entanglement_reports
            ],
            "cross_pipeline_max_dev": self.cross_pipeline_max_dev,
            "sector_tail": self.sector_tail,
            "gaussian": self.gaussian_verdict,
        }


def describe_ensemble(ens: CoherentEnsemble) -> dict:
    return {
        "kind": "coherent_ensemble",
        "weights": [float(w) for w in ens.weights],
        "alphas": [
            [[float(a.real), float(a.imag)] for a in row] for row in ens.alphas
        ],
    }


def describe_unitary(m: ModeUnitary, source: str) -> dict:
    return {
        "source": source,
        "matrix": [
            [[float(v.real), float(v.imag)] for v in row] for row in m.matrix
        ],
    }


def run_theorem_trial(
    ens: CoherentEnsemble,
    m: ModeUnitary,
    arena: FockArena,
    seed: int = 0,
    unitary_source: str = "explicit",
    ppt_tol: float = PPT_TOL,
    leak_tol: float = LEAK_TOL,
) -> TrialRecord:
    """One full verification trial; raises TruncationError on overflow.
    The record keeps the wall time of each stage it ran, in order."""
    if arena.n_modes < 2:
        raise ValueError("need at least 2 modes for a bipartition")
    t0 = mark = time.perf_counter()
    stage_times = []

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stage_times.append((name, now - mark))
        mark = now

    # route 1: exact closed-form certificate
    out_ens = transform_ensemble(ens, m)
    closure_ok = bool(
        np.array_equal(out_ens.weights, ens.weights) and np.all(out_ens.weights >= 0)
    )
    lap("route1_closed_form")

    # route 2: each coherent component through the lifted unitary, evaluated
    # sector-exactly and projected to the cutoff afterwards, so PPT
    # diagnostics measure the output state rather than lift boundary-clipping
    # noise.  Each output row's leak check sends a trial to a larger cutoff.
    amps = transform_coherent_exact([m], ens.alphas, arena)[0]
    _check_rows(amps, leak_tol)
    rho_out = Mixture(arena, ens.weights, amps, leak_tol=leak_tol)
    lap("route2_transform")
    cuts = bipartitions(arena.n_modes)
    reports = negativity_reports([(rho_out, bp) for bp in cuts], ppt_tol)
    lap("pt_spectrum")
    ppt_min = min(r.min_pt_eigenvalue for r in reports)
    headroom = min(r.min_pt_eigenvalue - r.pt_bound for r in reports) + ppt_tol

    # agreement per component at amplitude level; route 1's rows check no leak
    closed = _coherent_rows(out_ens.alphas, arena.occupation_table())
    cross_dev = float(np.abs(amps - closed).max())
    sector_tail = float(_sector_bounds(ens.alphas, arena)[1].max())
    lap("cross_check")

    # route 3: Gaussian oracle, when the input is a single coherent component
    gaussian_verdict = None
    if ens.n_components == 1:
        specs = [GaussianSpec("coherent", alpha=complex(a)) for a in ens.alphas[0]]
        g_out = apply_passive(gaussian_from_spec(specs), m)
        classical = is_classical(g_out)
        ppt = ppt_verdicts(g_out, [a for a, _ in cuts])
        gaussian_verdict = {
            "is_classical": classical.label,
            "classicality_margin": classical.margin,
            "bipartitions": [
                {"modes_a": list(a), "modes_b": list(b), "ppt_margin": v.margin,
                 "verdict": v.label}
                for (a, b), v in zip(cuts, ppt)
            ],
        }
        lap("route3_gaussian")

    return TrialRecord(
        seed=seed,
        input_description=describe_ensemble(ens),
        unitary_description=describe_unitary(m, unitary_source),
        ensemble_closure="pass" if closure_ok else "fail",
        ppt_min_eigenvalue=ppt_min,
        ppt_headroom=headroom,
        entanglement_reports=tuple(reports),
        cross_pipeline_max_dev=cross_dev,
        gaussian_verdict=gaussian_verdict,
        wall_time=time.perf_counter() - t0,
        cutoff=arena.cutoff,
        leak=rho_out.leak,
        sector_tail=sector_tail,
        stage_times=tuple(stage_times),
    )


@dataclass(frozen=True)
class CampaignConfig:
    n_trials: int = 200
    seed: int = 0
    n_modes: int = 2
    max_ensemble_components: int = 4
    amplitude_bound: float = 1.0
    cutoff: int = 14
    unitary_source: str = "random_haar"  # or "beam_splitter_grid"
    threads: int = 1
    ppt_tol: float = PPT_TOL
    leak_tol: float = LEAK_TOL
    manual_ensemble: Optional[CoherentEnsemble] = None

    def __post_init__(self) -> None:
        for name, least in (("n_trials", 0), ("seed", 0), ("n_modes", 1),
                            ("max_ensemble_components", 1), ("cutoff", 1), ("threads", 1)):
            _check_size(name, getattr(self, name), least)
        if self.n_modes < 2:
            raise ValueError("need at least 2 modes for a bipartition")
        if self.unitary_source not in ("random_haar", "beam_splitter_grid"):
            raise ValueError(f"unknown unitary source {self.unitary_source!r}")
        if self.unitary_source == "beam_splitter_grid" and self.n_modes != 2:
            raise ValueError("beam splitter grid requires exactly 2 modes")
        # the chained test also rejects NaN, which would make every
        # `x > tol` check below and in the trials false
        for name in ("amplitude_bound", "ppt_tol", "leak_tol"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 < value < np.inf):
                raise ValueError(f"{name} must be a finite positive number, not {value!r}")
        if self.manual_ensemble is not None and self.manual_ensemble.n_modes != self.n_modes:
            raise ValueError("manual ensemble mode count does not match config")
        FockArena(self.n_modes, self.cutoff)  # an arena numpy can index
        # truncation safety: the coherent tail at the amplitude bound must
        # fit the leak budget at the configured cutoff
        bound = self.amplitude_bound
        if self.manual_ensemble is not None:
            bound = max(bound, self.manual_ensemble.max_abs_alpha())
        leak = coherent_leakage(bound, self.cutoff)
        if leak > self.leak_tol:
            raise ValueError(
                f"cutoff {self.cutoff} is truncation-unsafe for |alpha| <= {bound}: "
                f"leakage {leak:.3e} > leak budget {self.leak_tol:.1e}"
            )


@dataclass(frozen=True)
class CampaignSummary:
    config_echo: dict
    n_trials: int
    n_completed: int
    n_retried: int
    n_overflow_failures: int
    worst_ppt_min_eigenvalue: Optional[float]
    worst_cross_pipeline_dev: Optional[float]
    worst_sector_tail: Optional[float]
    findings: tuple[dict, ...]
    records: tuple[TrialRecord, ...] = field(repr=False)

    @property
    def clean(self) -> bool:
        return not self.findings and self.n_overflow_failures == 0

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "n_trials": self.n_trials,
            "n_completed": self.n_completed,
            "n_retried": self.n_retried,
            "n_overflow_failures": self.n_overflow_failures,
            "worst_ppt_min_eigenvalue": self.worst_ppt_min_eigenvalue,
            "worst_cross_pipeline_dev": self.worst_cross_pipeline_dev,
            "worst_sector_tail": self.worst_sector_tail,
            "findings": list(self.findings),
        }


def _config_echo(cfg: CampaignConfig) -> dict:
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)
            if f.name != "manual_ensemble"}
    if cfg.manual_ensemble is not None:
        echo["ensemble"] = describe_ensemble(cfg.manual_ensemble)
    return echo


def _grid_splitter(i: int, n: int) -> ModeUnitary:
    theta = (i + 0.5) / n * (np.pi / 2.0)
    phi0 = 2.0 * np.pi * i / n
    phi1 = 4.0 * np.pi * i / n % (2.0 * np.pi)
    return beam_splitter_matrix(theta, phi0, phi1)


def _attempt_cutoffs(cfg: CampaignConfig) -> list[int]:
    """The cutoff of each attempt at a trial, CUTOFF_STEP apart from cfg.cutoff."""
    return [cfg.cutoff + a * CUTOFF_STEP for a in range(RETRY_BUDGET + 1)]


def _run_one(cfg: CampaignConfig, index: int, child_seed) -> TrialRecord | TruncationError:
    """Run trial `index` on one draw of its ensemble and unitary, retrying at
    larger cutoffs on truncation overflow: the record, carrying the cutoff it
    ran at and the retries it took, or the last attempt's TruncationError."""
    rng = np.random.default_rng(child_seed)
    ens = cfg.manual_ensemble
    if ens is None:
        ens = random_classical_ensemble(
            rng, cfg.n_modes, cfg.max_ensemble_components, cfg.amplitude_bound
        )
    if cfg.unitary_source == "random_haar":
        m = haar_unitary(cfg.n_modes, rng)
    else:
        m = _grid_splitter(index, max(cfg.n_trials, 1))
    for attempt, cutoff in enumerate(_attempt_cutoffs(cfg)):
        try:
            record = run_theorem_trial(
                ens, m, FockArena(cfg.n_modes, cutoff), seed=index,
                unitary_source=cfg.unitary_source, ppt_tol=cfg.ppt_tol,
                leak_tol=cfg.leak_tol,
            )
            return replace(record, attempts=attempt)
        except TruncationError as exc:
            overflow = exc
    return overflow


def _cross_pipeline_bound(record: TrialRecord, n_modes: int) -> float:
    """The largest ``cross_pipeline_max_dev`` of a sound route 2,
    sqrt(sector_tail) + (top + 2 n_modes) eps with top = n_modes (cutoff-1).
    Route 2 keeps component i up to sector n_i, so it misses route 1's row
    by P U Pi_{>n_i}|alpha_i>, each entry at most sqrt(P(N_i > n_i)) <=
    sqrt(tail_i), as P U is a contraction.  Roundoff: each rounding of a
    unit-scale factor of a row of norm <= 1 moves it by about eps; route 2
    rounds each block entry in each of the n <= top steps to sector n, and
    each route the n_modes single-mode factors of an amplitude."""
    top = n_modes * (record.cutoff - 1)
    return math.sqrt(record.sector_tail) + (top + 2 * n_modes) * np.finfo(float).eps


def run_campaign(cfg: CampaignConfig) -> CampaignSummary:
    """Run a seeded campaign; deterministic given (seed, config).

    Trials are independent; with threads > 1 they run on a thread pool and
    are aggregated in trial order, so the summary does not depend on the
    degree of parallelism.  BLAS runs single-threaded for the whole loop:
    the pool is the campaign's only parallelism, and the bytes of the PT
    eigenvalues do not depend on the host's core count.
    """
    trials = ([cfg] * cfg.n_trials, range(cfg.n_trials),
              np.random.SeedSequence(cfg.seed).spawn(cfg.n_trials))
    with single_threaded_blas():
        if cfg.threads == 1:
            outcomes = list(map(_run_one, *trials))
        else:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                outcomes = list(pool.map(_run_one, *trials))

    findings, overflow_failures, completed = [], [], []
    cutoffs = ", ".join(map(str, _attempt_cutoffs(cfg)))
    for i, record in enumerate(outcomes):
        if isinstance(record, TruncationError):
            overflow_failures.append({"trial": i, "kind": "truncation_overflow",
                                      "detail": f"cutoff {cutoffs}: {record}"})
            continue
        completed.append(record)
        if record.ensemble_closure != "pass":
            findings.append({"trial": i, "kind": "closure_breach_critical",
                             "detail": "ensemble weights changed"})
        if any(r.verdict == "entangled" for r in record.entanglement_reports):
            findings.append({"trial": i, "kind": "ppt_violation",
                             "detail": record.ppt_min_eigenvalue})
        if record.cross_pipeline_max_dev > _cross_pipeline_bound(record, cfg.n_modes):
            findings.append({"trial": i, "kind": "cross_pipeline_disagreement",
                             "detail": record.cross_pipeline_max_dev})
        if record.gaussian_verdict is not None:
            if record.gaussian_verdict["is_classical"] != "classical":
                findings.append({"trial": i, "kind": "gaussian_classicality_lost",
                                 "detail": record.gaussian_verdict})
            if any(cut["verdict"] != "separable"
                   for cut in record.gaussian_verdict["bipartitions"]):
                findings.append({"trial": i, "kind": "gaussian_simon_entangled",
                                 "detail": record.gaussian_verdict})

    return CampaignSummary(
        config_echo=_config_echo(cfg),
        n_trials=cfg.n_trials,
        n_completed=len(completed),
        n_retried=sum(1 for r in completed if r.attempts),
        n_overflow_failures=len(overflow_failures),
        worst_ppt_min_eigenvalue=min((r.ppt_min_eigenvalue for r in completed), default=None),
        worst_cross_pipeline_dev=max((r.cross_pipeline_max_dev for r in completed), default=None),
        worst_sector_tail=max((r.sector_tail for r in completed), default=None),
        findings=tuple(findings + overflow_failures),
        records=tuple(completed),
    )
