"""Per-layer tracing for the bselab benchmark, installed from outside the program.

Each traced function is replaced, for the duration of a traced invocation, by a
wrapper at the place its caller looks it up (for example
``bselab.theoremlab.transform_coherent_exact``, which is what ``run_theorem_trial``
calls). Nothing under ``src/`` is modified. Spans are held in memory as
``(id, name, start, end, parent, size)`` and written out when the worker ends.
A layer is the package module a span's name starts with.

Targets that a later version of the program no longer has are skipped and
listed in ``Tracer.missing``; their metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Optional

LAYERS = ("hilbert", "states", "passive", "gaussian", "witnesses", "theoremlab", "cli")

# (span name, module the caller looks the name up in, attribute)
TARGETS = (
    ("cli.cmd_verify", "bselab.cli", "cmd_verify"),
    ("cli.cmd_sweep", "bselab.cli", "cmd_sweep"),
    ("cli.load_campaign_config", "bselab.cli", "load_campaign_config"),
    ("cli.parse_ensemble", "bselab.cli", "parse_ensemble"),
    ("cli.write_json", "bselab.cli", "write_json"),
    ("cli.write_manifest", "bselab.cli", "write_manifest"),
    ("theoremlab.run_campaign", "bselab.cli", "run_campaign"),
    ("theoremlab.run_theorem_trial", "bselab.theoremlab", "run_theorem_trial"),
    ("passive.transform_ensemble", "bselab.theoremlab", "transform_ensemble"),
    ("passive.transform_coherent_exact", "bselab.theoremlab", "transform_coherent_exact"),
    ("passive.lift_unitary", "bselab.cli", "lift_unitary"),
    ("passive.apply_to_density", "bselab.cli", "apply_to_density"),
    ("passive.log_unitary", "bselab.passive", "log_unitary"),
    ("states.ensemble_to_density", "bselab.theoremlab", "ensemble_to_density"),
    ("states.ensemble_to_density", "bselab.cli", "ensemble_to_density"),
    ("states.coherent", "bselab.states", "coherent"),
    ("witnesses.negativity_report", "bselab.theoremlab", "negativity_report"),
    ("witnesses.negativity_report", "bselab.cli", "negativity_report"),
    ("witnesses.classicality_report", "bselab.theoremlab", "classicality_report"),
    ("witnesses.mandel_q", "bselab.witnesses", "mandel_q"),
    ("witnesses.mandel_q", "bselab.cli", "mandel_q"),
    ("witnesses.min_quadrature_variance", "bselab.witnesses", "min_quadrature_variance"),
    ("hilbert.partial_transpose", "bselab.witnesses", "partial_transpose"),
    ("hilbert.partial_trace", "bselab.witnesses", "partial_trace"),
    ("gaussian.gaussian_from_spec", "bselab.theoremlab", "gaussian_from_spec"),
    ("gaussian.apply_passive", "bselab.theoremlab", "apply_passive"),
    ("gaussian.is_classical", "bselab.theoremlab", "is_classical"),
    ("gaussian.simon_separable", "bselab.theoremlab", "simon_separable"),
)

# per-layer metrics: name -> (unit, better); the order is the report order
METRICS = {
    "theoremlab.trial_ms_p50": ("ms", "lower"),
    "theoremlab.trial_ms_p95": ("ms", "lower"),
    "theoremlab.pool_efficiency": ("1", "higher"),
    "theoremlab.retry_ratio": ("1", "lower"),
    "passive.transform_coherent_exact.self_s": ("s/item", "lower"),
    "passive.expm.calls_per_item": ("calls/item", "lower"),
    "passive.expm.self_s": ("s/item", "lower"),
    "passive.log_unitary.calls_per_item": ("calls/item", "lower"),
    "passive.lift_unitary.self_s": ("s/item", "lower"),
    "passive.apply_to_density.self_s": ("s/item", "lower"),
    "states.ensemble_to_density.self_s": ("s/item", "lower"),
    "states.coherent.calls_per_item": ("calls/item", "lower"),
    "hilbert.validate.calls_per_item": ("calls/item", "lower"),
    "hilbert.validate.self_s": ("s/item", "lower"),
    "hilbert.partial_transpose.self_s": ("s/item", "lower"),
    "hilbert.partial_trace.self_s": ("s/item", "lower"),
    "witnesses.negativity_report.self_s": ("s/item", "lower"),
    "witnesses.eig_dim3_per_item": ("dim3/item", "lower"),
    "witnesses.classicality_report.self_s": ("s/item", "lower"),
    "witnesses.mandel_q.self_s": ("s/item", "lower"),
    "gaussian.self_s": ("s/item", "lower"),
    "cli.load_config_s": ("s", "lower"),
    "cli.serialise_s": ("s", "lower"),
    "cli.bytes_written_per_item": ("B/item", "lower"),
    **{f"{layer}.share": ("1", "lower") for layer in LAYERS},
    "trace.overhead_ratio": ("1", "lower"),
    "trace.coverage": ("1", "higher"),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    size: Optional[int] = None  # dim of the state a witness call diagonalises

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ModuleView:
    """Stands in for a module inside one importer: overridden names resolve to
    the given objects, everything else to the real module."""

    def __init__(self, real, **overrides):
        self.__dict__.update(overrides)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size=None):
        """`fn` recording one span per call. A call on a pool thread with no
        open span of its own is parented to the span open on the main thread."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(
                    Span(span_id, name, start, end, parent, size(args) if size else None)
                )

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        self.missing = []
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            size = _rho_dim if name == "witnesses.negativity_report" else None
            self._patch(module, attr, self.wrap(name, fn, size))

        hilbert = importlib.import_module("bselab.hilbert")
        density = getattr(hilbert, "DensityOperator", None)
        if density is not None and "__post_init__" in vars(density):
            self._patch(density, "__post_init__",
                        self.wrap("hilbert.validate", density.__post_init__))
        else:
            self.missing.append("bselab.hilbert.DensityOperator.__post_init__")

        # scipy.linalg.expm as seen by passive, whichever way passive imports it
        passive = importlib.import_module("bselab.passive")
        if callable(getattr(passive, "expm", None)):
            self._patch(passive, "expm", self.wrap("passive.expm", passive.expm))
        elif hasattr(getattr(passive, "scipy", None), "linalg"):
            scipy = passive.scipy
            linalg = _ModuleView(
                scipy.linalg, expm=self.wrap("passive.expm", scipy.linalg.expm)
            )
            self._patch(passive, "scipy", _ModuleView(scipy, linalg=linalg))
        else:
            self.missing.append("bselab.passive scipy.linalg.expm")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _rho_dim(args) -> Optional[int]:
    arena = getattr(args[0], "arena", None) if args else None
    return getattr(arena, "total_dim", None)


# ---------------------------------------------------------------------------
# analysis


def _covered(interval: tuple[float, float], children: list[Span]) -> float:
    """Length of the union of the children's intervals inside `interval`."""
    lo, hi = interval
    pieces = sorted((max(c.start, lo), min(c.end, hi)) for c in children)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in pieces:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.id: s.duration - _covered((s.start, s.end), children.get(s.id, []))
        for s in spans
    }


def item_ids(spans: list[Span]) -> dict[int, Optional[int]]:
    """Span id -> id of the enclosing item span (a trial, or a sweep command)."""
    by_id = {s.id: s for s in spans}
    out: dict[int, Optional[int]] = {}
    for s in spans:
        cur: Optional[Span] = s
        while cur is not None and cur.name not in ("theoremlab.run_theorem_trial",
                                                   "cli.cmd_sweep"):
            cur = by_id.get(cur.parent) if cur.parent is not None else None
        out[s.id] = cur.id if cur is not None else None
    return out


def write_spans(path, spans: list[Span]) -> None:
    items = item_ids(spans)
    with open(path, "w") as fh:
        for s in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "item": items[s.id], "size": s.size}) + "\n")


def read_spans(path, offset: int) -> list[Span]:
    """Spans of one worker, ids shifted by `offset` so that the spans of
    several workers can be analysed together."""
    out = []
    with open(path) as fh:
        for line in fh:
            d = json.loads(line)
            parent = None if d["parent"] is None else d["parent"] + offset
            out.append(Span(d["id"] + offset, d["name"], d["start"], d["end"],
                            parent, d["size"]))
    return out


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(calls: list[dict], spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer metrics of the traced invocations.

    `calls` holds one dict per traced invocation with keys ``wall``,
    ``untraced_wall``, ``items``, ``retried`` and ``bytes``;
    `threads` is the campaign thread count. Self times are per completed
    item, summed over threads.
    """
    items = sum(c["items"] for c in calls) or 1
    wall = sum(c["wall"] for c in calls)
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_of(name: str) -> float:
        return sum(selfs[s.id] for s in by_name.get(name, []))

    def per_item(name: str) -> float:
        return self_of(name) / items

    def calls_per_item(name: str) -> float:
        return len(by_name.get(name, [])) / items

    trials = [s.duration for s in by_name.get("theoremlab.run_theorem_trial", [])]
    capacity = threads * sum(s.duration for s in by_name.get("theoremlab.run_campaign", []))

    by_id = {s.id: s for s in spans}
    config_names = ("cli.load_campaign_config", "cli.parse_ensemble")
    load = sum(
        s.duration for name in config_names for s in by_name.get(name, [])
        if s.parent is None or by_id.get(s.parent, s).name not in config_names
    )
    serialise = 0.0
    commands = by_name.get("cli.cmd_verify", []) + by_name.get("cli.cmd_sweep", [])
    compute_end: dict[int, float] = {}
    for s in spans:
        if s.parent is not None and s.layer != "cli":
            compute_end[s.parent] = max(compute_end.get(s.parent, s.end), s.end)
    for cmd in commands:
        serialise += cmd.end - compute_end.get(cmd.id, cmd.start)

    # where an item is a trial, coverage is the share of trial time spent in
    # traced calls below the trial; for a sweep, below the command
    roots = by_name.get("theoremlab.run_theorem_trial") or by_name.get("cli.cmd_sweep", [])
    root_time = sum(s.duration for s in roots)
    coverage = (1.0 - sum(selfs[s.id] for s in roots) / root_time) if root_time else 0.0

    out = {
        "theoremlab.trial_ms_p50": 1e3 * _percentile(trials, 50),
        "theoremlab.trial_ms_p95": 1e3 * _percentile(trials, 95),
        "theoremlab.pool_efficiency": sum(trials) / capacity if capacity else 0.0,
        "theoremlab.retry_ratio": sum(c["retried"] for c in calls) / items if trials else 0.0,
        "passive.transform_coherent_exact.self_s": per_item("passive.transform_coherent_exact"),
        "passive.expm.calls_per_item": calls_per_item("passive.expm"),
        "passive.expm.self_s": per_item("passive.expm"),
        "passive.log_unitary.calls_per_item": calls_per_item("passive.log_unitary"),
        "passive.lift_unitary.self_s": per_item("passive.lift_unitary"),
        "passive.apply_to_density.self_s": per_item("passive.apply_to_density"),
        "states.ensemble_to_density.self_s": per_item("states.ensemble_to_density"),
        "states.coherent.calls_per_item": calls_per_item("states.coherent"),
        "hilbert.validate.calls_per_item": calls_per_item("hilbert.validate"),
        "hilbert.validate.self_s": per_item("hilbert.validate"),
        "hilbert.partial_transpose.self_s": per_item("hilbert.partial_transpose"),
        "hilbert.partial_trace.self_s": per_item("hilbert.partial_trace"),
        "witnesses.negativity_report.self_s": per_item("witnesses.negativity_report"),
        "witnesses.eig_dim3_per_item": sum(
            (s.size or 0) ** 3 for s in by_name.get("witnesses.negativity_report", [])
        ) / items,
        "witnesses.classicality_report.self_s": per_item("witnesses.classicality_report"),
        "witnesses.mandel_q.self_s": per_item("witnesses.mandel_q"),
        "gaussian.self_s": sum(
            selfs[s.id] for s in spans if s.layer == "gaussian"
        ) / items,
        "cli.load_config_s": load / len(calls),
        "cli.serialise_s": serialise / len(calls),
        "cli.bytes_written_per_item": sum(c["bytes"] for c in calls) / items,
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = sum(selfs[s.id] for s in spans if s.layer == layer) / wall
    out["trace.overhead_ratio"] = wall / sum(c["untraced_wall"] for c in calls) - 1.0
    out["trace.coverage"] = coverage
    assert list(out) == list(METRICS)
    return out
