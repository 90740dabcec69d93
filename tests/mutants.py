"""Mutation runner: seed one-line faults into a copy of the package and check
that the test suite fails on each.

Each mutant replaces one exact snippet of one module under ``src/bselab``.
The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, applies the mutant there, runs ``pytest -x`` on the copy, and
prints the first failing test, which is the test that kills the mutant.  A
run that names no failing test (a collection error, a crash, a kill for
memory) is reported by its exit code and last stderr line.  A mutant that
every test passes survives, one whose run outlasts ``TIMEOUT_S`` is reported
as a timeout, and either makes the runner exit 1.  The working tree is
never modified.  ``test_api.py::test_every_mutant_applies_once``
is left out of each run: it checks that each snippet occurs once in the
unmutated tree, so it fails on every applied mutant and names no killer.

Usage, from the repository root (standard library only; the suite itself
needs pytest, hypothesis and scipy)::

    python tests/mutants.py            # every mutant
    python tests/mutants.py 5 13       # the mutants with these ids

pytest does not collect this file (its name does not match ``test_*.py``).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: seconds one mutated suite may run (the unmutated suite takes under a minute)
TIMEOUT_S = 600

# (id, module, snippet, replacement, fault); each snippet occurs exactly once
MUTANTS = [
    (1, "witnesses.py", "if min_eig - bound < -ppt_tol", "if min_eig + bound < -ppt_tol",
     "the PT verdict adds pt_bound instead of netting it"),
    (2, "theoremlab.py",
     "headroom = min(r.min_pt_eigenvalue - r.pt_bound for r in reports) + ppt_tol",
     "headroom = min(r.min_pt_eigenvalue for r in reports) + ppt_tol",
     "ppt_headroom ignores pt_bound"),
    (3, "gaussian.py", '"classical" if margin >= -VERDICT_TOL', '"classical" if margin >= -1e-3',
     "is_classical's band is -1e-3 instead of -VERDICT_TOL"),
    (4, "gaussian.py", '"separable" if m >= -VERDICT_TOL', '"separable" if m >= -1e-3',
     "ppt_verdicts' band is -1e-3 instead of -VERDICT_TOL"),
    (5, "hilbert.py", "if kept > 1.0 + 1e-12:", "if kept > 1.0 + 1e-3:",
     "Mixture's trace check allows 1 + 1e-3"),
    (6, "witnesses.py", "    keep[:, 0] = True\n", "",
     "_range_bases may drop every column of a basis"),
    (7, "witnesses.py", "budget = (PT_BOUND_SHARE * ppt_tol / 2.0) ** 2",
     "budget = PT_BOUND_SHARE * ppt_tol / 2.0",
     "the PT budget is not squared"),
    (8, "witnesses.py", "2.0 * math.sqrt(eps_a + eps_b)", "2.0 * math.sqrt(eps_a)",
     "the PT bound drops eps_B"),
    (9, "witnesses.py", "-eigs[eigs < 0].sum()", "-eigs[eigs < -1e-6].sum()",
     "the negativity drops small negative eigenvalues"),
    (10, "gaussian.py", "s = symplectic_image(m.matrix.conj().T)", "s = symplectic_image(m.matrix)",
     "route 3 maps by M instead of M^dag"),
    (11, "passive.py", "SECTOR_TAIL_EPS = 1e-20", "SECTOR_TAIL_EPS = 1e-14",
     "the sector tail is cut at 1e-14"),
    (12, "theoremlab.py", "CROSS_PIPELINE_TOL = 1e-7", "CROSS_PIPELINE_TOL = 1e-3",
     "the cross-pipeline tolerance is 1e-3"),
    (13, "states.py", "    _check_rows(amps, LEAK_TOL)\n    return amps.reshape(",
     "    return amps.reshape(",
     "coherent checks no row's leak"),
    (14, "states.py", "row *= column[mode, occ]", "row *= column[-1 - mode, occ]",
     "the coherent-row builder reads the modes in reverse"),
    (15, "cli.py", "_, _, report, _ = _splitter_and_back(args, arena)",
     "_, _, _, report = _splitter_and_back(args, arena)",
     "demo bell reads the inverse report"),
    (16, "cli.py", "psi_back = _lift_rows([m.inverse()], psi_fwd[None], arena)",
     "psi_back = _lift_rows([m], psi_fwd[None], arena)",
     "the inverse step lifts by M instead of M^-1"),
    (17, "cli.py", "    except MemoryError as exc:\n", "    except NotImplementedError as exc:\n",
     "main no longer maps MemoryError"),
    (18, "passive.py", "coef[:, None, :, columns]",
     "coef[:, None, :, columns.start - 1:columns.stop - 1]",
     "each sector reads the coefficients one column to the left"),
    (19, "passive.py", "out[..., plan.row_index] = np.concatenate(parts, axis=-1)[..., 0, :]",
     "out[..., plan.row_index[:-len(plan.sectors[-1][0])]]"
     " = np.concatenate(parts[:-1], axis=-1)[..., 0, :]",
     "the one scatter drops the last sector"),
    (20, "passive.py", "block = terms.sum(axis=0)", "block = terms[1:].sum(axis=0)",
     "each sector step drops mode 0's term"),
    (21, "passive.py", "(n + 1) / (n + 1 - mean) * math.exp(", "math.exp(",
     "the sector bound drops the factor (n+1)/(n+1-mean) and stops where the pmf fits"),
    (22, "passive.py", "lgamma(n + 1)) > SECTOR_TAIL_EPS:", "lgamma(n + 1)) >= SECTOR_TAIL_EPS:",
     "the sector bound skips a tail bound equal to SECTOR_TAIL_EPS"),
    (23, "states.py",
     "    for row, column in zip(rows, columns):\n"
     "        for mode, occ in enumerate(occupations.T):\n"
     "            row *= column[mode, occ]\n",
     "    rows = columns[:, np.arange(columns.shape[1]), occupations].prod(axis=-1)\n",
     "the coherent-row builder takes one reduce product over the whole stack"),
    (24, "passive.py", "amps[:, None, columns] @ np.swapaxes(block, -1, -2)[:, None]",
     "(amps[:, columns] @ np.swapaxes(block, -1, -2))[:, :, None]",
     "the applier takes one matmul over all K rows"),
    (25, "theoremlab.py", "    _check_rows(amps, leak_tol)\n", "    _check_rows(amps, 1.0)\n",
     "route 2's rows are checked against no leak budget"),
    (26, "theoremlab.py",
     "    closed = _coherent_rows(out_ens.alphas, arena.occupation_table())\n",
     "    closed = _coherent_rows(out_ens.alphas, arena.occupation_table())\n"
     "    _check_rows(closed, leak_tol)\n",
     "route 1's rows are checked against the leak budget and decide retries again"),
    (27, "states.py",
     "    for row, column in zip(rows, columns):\n"
     "        for mode, occ in enumerate(occupations.T):\n",
     "    for row, column in zip(rows, columns):\n"
     "        row[:] = column[0, occupations[:, 0]]\n"
     "        for mode, occ in enumerate(occupations.T[1:], 1):\n",
     "the coherent-row builder starts from mode 0's column, not from ones"),
    (28, "passive.py", "max(1, int(min(mean, top)))", "max(1, int(mean))",
     "the sector bound starts its walk past the arena's top sector"),
    (29, "hilbert.py", "if isinstance(n, bool) or not isinstance(n, (int, np.integer)):",
     "if isinstance(n, bool):",
     "encode truncates a non-integer occupation"),
    (30, "gaussian.py",
     "        if not set() < set(side) < set(range(g.n_modes)):\n"
     "            raise ValueError(\"each side A must be a non-empty proper subset of the modes\")\n",
     "", "ppt_verdicts takes any side"),
    (31, "cli.py", "_check_rows(outs, LEAK_TOL)", "_check_rows(outs, LEAK_TOL * 1e3)",
     "the sweep checks its output rows against a budget of 1e-3"),
    (32, "theoremlab.py", "[cfg.cutoff + a * CUTOFF_STEP for",
     "[cfg.cutoff + 0 * CUTOFF_STEP for", "every retry runs at the configured cutoff"),
    (33, "passive.py", "key[columns] - stride[mode[columns]]", "key[columns] - stride[0]",
     "each column's parent is looked up as if the column lowered mode 0"),
    (34, "passive.py", "if (top + 1) ** min(n_modes, 64) > np.iinfo(np.intp).max:", "if False:",
     "the sector plan keys tuples past intp"),
]


def run(mutant) -> tuple[str, str]:
    """(outcome, killing test or note) of one mutant on a fresh copy."""
    ident, module, snippet, replacement, _ = mutant
    with tempfile.TemporaryDirectory(prefix=f"mutant{ident}-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        path = copy / "src" / "bselab" / module
        text = path.read_text()
        if text.count(snippet) != 1:
            return "stale", f"snippet not found once in {module}"
        path.write_text(text.replace(snippet, replacement))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env.pop("PYTHONPATH", None)  # pyproject.toml points pytest at the copy's src
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
                 "--deselect", "tests/test_api.py::test_every_mutant_applies_once"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", f"no result in {TIMEOUT_S} s"
    if result.returncode == 0:
        return "survived", ""
    failed = re.search(r"^FAILED (\S+)", result.stdout, re.MULTILINE)
    if failed:
        return "killed", failed.group(1)
    # no failing test named: a collection error, a crash or a kill for memory
    lines = (result.stderr.strip() or result.stdout.strip() or "no output").splitlines()
    return "killed", f"exit {result.returncode}: {lines[-1]}"


def main(argv: list[str]) -> int:
    wanted = {int(a) for a in argv}
    survivors = 0
    for mutant in MUTANTS:
        if wanted and mutant[0] not in wanted:
            continue
        t0 = time.perf_counter()
        outcome, detail = run(mutant)
        survivors += outcome != "killed"
        print(f"{mutant[0]:>2} {outcome:<8} {time.perf_counter() - t0:6.1f} s  "
              f"{mutant[4]}{': ' + detail if detail else ''}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
