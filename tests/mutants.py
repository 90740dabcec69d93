"""Mutation runner: seed one-line faults into a copy of the package and check
that the test suite fails on each.

Each mutant replaces one exact snippet of one module under ``src/bselab``
and records its killer, the test that fails first on it.  The runner copies
``src/``, ``tests/`` and ``pyproject.toml`` to a temporary directory,
applies the mutant there and runs the killer alone.  When the killer fails,
it kills the mutant.  When it passes (or names no test), the runner runs
``pytest -x`` on the whole copy, as a full run would, prints the first
failing test, and flags the recorded killer as stale: the verdict is the
full suite's either way, since a failing killer fails the suite.  A run that
names no failing test (a collection error, a crash, a kill for memory) is
reported by its exit code and last stderr line.  A mutant that every test
passes survives, one whose run outlasts ``TIMEOUT_S`` is reported as a
timeout, and either makes the runner exit 1.  The working tree is never
modified.  ``test_api.py::test_every_mutant_applies_once`` is left out of
each full run: it checks that each snippet occurs once in the unmutated
tree, so it fails on every applied mutant and names no killer.

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

# (id, module, snippet, replacement, fault, killer); each snippet occurs
# exactly once
MUTANTS = [
    (1, "witnesses.py", "if min_eig - bound < -ppt_tol", "if min_eig + bound < -ppt_tol",
     "the PT verdict adds pt_bound instead of netting it",
     "tests/test_witnesses.py::test_verdict_nets_the_pt_bound[0.5-entangled]"),
    (2, "theoremlab.py",
     "headroom = min(r.min_pt_eigenvalue - r.pt_bound for r in reports) + ppt_tol",
     "headroom = min(r.min_pt_eigenvalue for r in reports) + ppt_tol",
     "ppt_headroom ignores pt_bound",
     "tests/test_cli.py::test_verify_clean_run"),
    (3, "gaussian.py", '"classical" if margin >= -VERDICT_TOL', '"classical" if margin >= -1e-3',
     "is_classical's band is -1e-3 instead of -VERDICT_TOL",
     "tests/test_gaussian.py::test_is_classical_band_is_verdict_tol[3e-10-nonclassical]"),
    (4, "gaussian.py", '"separable" if m >= -VERDICT_TOL', '"separable" if m >= -1e-3',
     "ppt_verdicts' band is -1e-3 instead of -VERDICT_TOL",
     "tests/test_gaussian.py::test_ppt_verdict_band_is_verdict_tol[6e-10-entangled]"),
    (5, "hilbert.py", "if kept > 1.0 + 1e-12:", "if kept > 1.0 + 1e-3:",
     "Mixture's trace check allows 1 + 1e-3",
     "tests/test_hilbert.py::test_mixture_validation"),
    (6, "witnesses.py", "    keep[:, 0] = True\n", "",
     "_range_bases may drop every column of a basis",
     "tests/test_witnesses.py::test_states_below_the_budget_keep_one_basis_column[2-4-0.0]"),
    (7, "witnesses.py", "budget = (PT_BOUND_SHARE * ppt_tol / 2.0) ** 2",
     "budget = PT_BOUND_SHARE * ppt_tol / 2.0",
     "the PT budget is not squared",
     "tests/test_witnesses.py::test_pup_lift_output_is_ppt_to_within_the_input_truncation"),
    (8, "witnesses.py", "2.0 * math.sqrt(eps_a + eps_b)", "2.0 * math.sqrt(eps_a)",
     "the PT bound drops eps_B",
     "tests/test_witnesses.py::test_compressed_pt_matches_dense_reference"),
    (9, "witnesses.py", "-eigs[eigs < 0].sum()", "-eigs[eigs < -1e-6].sum()",
     "the negativity drops small negative eigenvalues",
     "tests/test_witnesses.py::test_compressed_pt_matches_dense_reference"),
    (10, "gaussian.py", "s = symplectic_image(m.matrix.conj().T)", "s = symplectic_image(m.matrix)",
     "route 3 maps by M instead of M^dag",
     "tests/test_gaussian.py::test_coherent_mean_matches_ensemble_amplitude_map"),
    (11, "passive.py", "SECTOR_TAIL_EPS = 1e-20", "SECTOR_TAIL_EPS = 1e-14",
     "the sector tail is cut at 1e-14",
     "tests/test_acceptance.py::test_acceptance_4_two_mode_theorem_campaign"),
    (12, "theoremlab.py", "math.sqrt(record.sector_tail)", "math.sqrt(1e6 * record.sector_tail)",
     "the cross-pipeline bound is 1000 times loose",
     "tests/test_cli.py::test_cross_pipeline_tolerance_is_its_edge[2.0-True]"),
    (13, "states.py", "    _check_rows(amps, LEAK_TOL)\n    return amps.reshape(",
     "    return amps.reshape(",
     "coherent checks no row's leak",
     "tests/test_cli.py::test_sweep_ensemble_checks_each_input_component"),
    (14, "states.py", "rows *= columns[:, mode, occ]", "rows *= columns[:, -1 - mode, occ]",
     "the coherent-row builder reads the modes in reverse",
     "tests/test_acceptance.py::test_acceptance_3_coherent_covariance"),
    (15, "cli.py", "_, _, report, _ = _splitter_and_back(args, arena)",
     "_, _, _, report = _splitter_and_back(args, arena)",
     "demo bell reads the inverse report",
     "tests/test_acceptance.py::test_acceptance_6_entanglement_generation_benchmark"),
    (16, "cli.py", "psi_back = _lift_rows([m.inverse()], psi_fwd[None], arena)",
     "psi_back = _lift_rows([m], psi_fwd[None], arena)",
     "the inverse step lifts by M instead of M^-1",
     "tests/test_acceptance.py::test_acceptance_7_non_sufficiency"),
    (17, "cli.py", "    except MemoryError as exc:\n", "    except NotImplementedError as exc:\n",
     "main no longer maps MemoryError",
     "tests/test_cli.py::test_oversized_arena_is_config_error[demo-1e12-entries]"),
    (18, "passive.py", "coef[:, None, :, columns]",
     "coef[:, None, :, columns.start - 1:columns.stop - 1]",
     "each sector reads the coefficients one column to the left",
     "tests/test_acceptance.py::test_acceptance_4_two_mode_theorem_campaign"),
    (19, "passive.py", "out[..., plan.row_index] = prods[..., 0, :]",
     "out[..., plan.row_index[:-len(plan.sectors[-1][0])]]"
     " = prods[..., 0, :-len(plan.sectors[-1][0])]",
     "the one scatter drops the last sector",
     "tests/test_acceptance.py::test_acceptance_6_entanglement_generation_benchmark"),
    (20, "passive.py", "block = terms.sum(axis=0, out=next_block)",
     "block = terms[1:].sum(axis=0, out=next_block)",
     "each sector step drops mode 0's term",
     "tests/test_acceptance.py::test_acceptance_4_two_mode_theorem_campaign"),
    (21, "passive.py", "(n + 1) / (n + 1 - mean) * math.exp(", "math.exp(",
     "the sector bound drops the factor (n+1)/(n+1-mean) and stops where the pmf fits",
     "tests/test_passive.py::test_sector_tail_bound_is_sound_by_pdtrc"),
    (22, "passive.py", "_tail_bound(mean, n) > SECTOR_TAIL_EPS:",
     "_tail_bound(mean, n) >= SECTOR_TAIL_EPS:",
     "the sector bound skips a tail bound equal to SECTOR_TAIL_EPS",
     "tests/test_passive.py::test_sector_tail_bound_keeps_a_tail_equal_to_the_budget[1e-25-1]"),
    (23, "states.py",
     "    for mode, occ in enumerate(occupations.T):\n"
     "        rows *= columns[:, mode, occ]\n",
     "    rows = columns[:, np.arange(columns.shape[1]), occupations].prod(axis=-1)\n",
     "the coherent-row builder takes one reduce product over the whole stack",
     "tests/test_sector_core.py::test_exact_transform_properties"),
    (24, "passive.py",
     "np.matmul(amps[:, None, columns], block.transpose(1, 2, 0)[:, None],\n"
     "                  out=prods[..., start:start + len(occ)])",
     "np.matmul(amps[:, columns], block.transpose(1, 2, 0),\n"
     "                  out=prods[..., 0, start:start + len(occ)])",
     "the sector kernel applies each block in one matmul over all K rows",
     "tests/test_sector_core.py::test_lift_rows_is_the_dense_lift"),
    (25, "theoremlab.py", "    _check_rows(amps, leak_tol)\n", "    _check_rows(amps, 1.0)\n",
     "route 2's rows are checked against no leak budget",
     "tests/test_cli.py::test_verify_reports_truncation_overflow_by_name"),
    (26, "theoremlab.py",
     "    closed = _coherent_rows(out_ens.alphas, arena.occupation_table())\n",
     "    closed = _coherent_rows(out_ens.alphas, arena.occupation_table())\n"
     "    _check_rows(closed, leak_tol)\n",
     "route 1's rows are checked against the leak budget and decide retries again",
     "tests/test_cli.py::test_route_one_decides_no_retry"),
    (27, "states.py",
     "    for mode, occ in enumerate(occupations.T):\n",
     "    rows[:] = columns[:, 0, occupations[:, 0]]\n"
     "    for mode, occ in enumerate(occupations.T[1:], 1):\n",
     "the coherent-row builder starts from mode 0's column, not from ones",
     "tests/test_states.py::test_coherent_stack_is_its_single_rows"),
    (28, "passive.py", "max(1, int(min(mean, top)))", "max(1, int(mean))",
     "the sector bound starts its walk past the arena's top sector",
     "tests/test_passive.py::test_sector_tail_bound_is_sound_by_pdtrc"),
    (29, "hilbert.py", "if isinstance(n, bool) or not isinstance(n, (int, np.integer)):",
     "if isinstance(n, bool):",
     "encode truncates a non-integer occupation",
     "tests/test_hilbert.py::test_encode_rejects_non_integer_occupations"),
    (30, "gaussian.py",
     "        if not set() < set(side) < set(range(g.n_modes)):\n"
     "            raise ValueError(\"each side A must be a non-empty proper subset of the modes\")\n",
     "", "ppt_verdicts takes any side",
     "tests/test_gaussian.py::test_ppt_verdicts_rejects_a_side_that_is_no_cut[side0]"),
    (31, "cli.py", "_check_rows(outs, LEAK_TOL)", "_check_rows(outs, LEAK_TOL * 1e3)",
     "the sweep checks its output rows against a budget of 1e-3",
     "tests/test_cli.py::test_sweep_ensemble_checks_each_output_component"),
    (32, "theoremlab.py", "[cfg.cutoff + a * CUTOFF_STEP for",
     "[cfg.cutoff + 0 * CUTOFF_STEP for", "every retry runs at the configured cutoff",
     "tests/test_cli.py::test_verify_trials_record_their_cutoff_and_retries"),
    (33, "passive.py", "key[columns] - stride[mode[columns]]", "key[columns] - stride[0]",
     "each column's parent is looked up as if the column lowered mode 0",
     "tests/test_acceptance.py::test_acceptance_2_conjugation_law"),
    (34, "passive.py", "if (top + 1) ** min(n_modes, 64) > np.iinfo(np.intp).max:", "if False:",
     "the sector plan keys tuples past intp",
     "tests/test_sector_core.py::test_sector_plan_rejects_tuples_numpy_cannot_key"),
    (35, "passive.py", "amps[plan.sector > n_max[:, None]] = 0.0",
     "amps[plan.sector >= n_max[:, None]] = 0.0",
     "the exact transform zeroes each component's last kept sector",
     "tests/test_acceptance.py::test_acceptance_4_two_mode_theorem_campaign"),
    (36, "passive.py", "block = terms.sum(axis=0, out=next_block)",
     "block = terms.sum(axis=0, out=next_block)"
     " * np.exp(1e-9j * (occ.sum(axis=1)[0] >= 4) * np.arange(terms.shape[-1]))",
     "each block from sector 4 up is off by the phase e^{i 1e-9 j} on its column j",
     "tests/test_acceptance.py::test_acceptance_4_two_mode_theorem_campaign"),
    (37, "theoremlab.py", "sector_tail = float(tails.max())", "sector_tail = float(tails.min())",
     "the trial records the smallest tail route 2 drops, not the largest",
     "tests/test_theoremlab.py::test_trial_sector_tail_is_the_largest_tail_route_two_drops"),
    (39, "passive.py", "if key != self.key or len(self.views) < len(plan.sectors):",
     "if len(self.views) < len(plan.sectors):",
     "the scratch keeps its views for another (n_modes, cutoff, T)",
     "tests/test_sector_core.py::test_interleaved_shapes_give_their_bytes_alone"),
    (40, "passive.py", "views = _scratch.sector_views(", "views = _Scratch().sector_views(",
     "the sector kernel builds a fresh scratch on every call",
     "tests/test_sector_core.py::test_a_thread_reuses_its_scratch"),
    (41, "passive.py", "block = terms.sum(axis=0, out=next_block)",
     "block = terms.sum(axis=0, out=next_block)"
     " * np.exp(1e-4j * (occ.sum(axis=1)[0] >= 2) * np.arange(terms.shape[-1]))",
     "each block from sector 2 up is off by the phase e^{i 1e-4 j} on its column j",
     "tests/test_cli.py::test_sweep_ppt_violation_of_a_classical_ensemble_is_a_finding"),
    (42, "passive.py", "mode, inside = cols.argmax(axis=1),", "mode, inside = (cols > 0).argmax(axis=1),",
     "each column lowers its first occupied mode, not its most occupied one",
     "tests/test_sector_core.py::test_sector_blocks_stay_unitary_on_big_sectors"),
    (43, "states.py", "if np.any(w < 0):", "if np.any(w < -1e-3):",
     "an ensemble forgives weights down to -1e-3",
     "tests/test_cli.py::test_verify_rejects_negative_weight"),
]


def _pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    """``pytest -x`` on ``args`` in the mutated copy, BLAS on one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)  # pyproject.toml points pytest at the copy's src
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def run(mutant) -> tuple[str, str, bool]:
    """(outcome, killing test or note, whether the recorded killer is stale)
    of one mutant on a fresh copy."""
    ident, module, snippet, replacement, _, killer = mutant
    with tempfile.TemporaryDirectory(prefix=f"mutant{ident}-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        path = copy / "src" / "bselab" / module
        text = path.read_text()
        if text.count(snippet) != 1:
            return "stale", f"snippet not found once in {module}", False
        path.write_text(text.replace(snippet, replacement))
        try:
            result = _pytest(copy, killer)
            # exit 0: the killer passed; 4 or 5: it names no test of the copy
            stale = result.returncode in (0, 4, 5)
            if stale:
                result = _pytest(copy, "--deselect",
                                 "tests/test_api.py::test_every_mutant_applies_once")
        except subprocess.TimeoutExpired:
            return "timeout", f"no result in {TIMEOUT_S} s", False
    if result.returncode == 0:
        return "survived", "", stale
    failed = re.search(r"^FAILED (\S+)", result.stdout, re.MULTILINE)
    if failed:
        return "killed", failed.group(1), stale
    # no failing test named: a collection error, a crash or a kill for memory
    lines = (result.stderr.strip() or result.stdout.strip() or "no output").splitlines()
    return "killed", f"exit {result.returncode}: {lines[-1]}", stale


def main(argv: list[str]) -> int:
    wanted = {int(a) for a in argv}
    survivors, stale_killers, start = 0, [], time.perf_counter()
    for mutant in MUTANTS:
        if wanted and mutant[0] not in wanted:
            continue
        t0 = time.perf_counter()
        outcome, detail, stale = run(mutant)
        survivors += outcome != "killed"
        if stale:
            stale_killers.append(mutant[0])
            detail += f" (stale killer: {mutant[5]} passed)"
        print(f"{mutant[0]:>2} {outcome:<8} {time.perf_counter() - t0:6.1f} s  "
              f"{mutant[4]}{': ' + detail if detail else ''}", flush=True)
    print(f"{survivors} not killed, stale killers {stale_killers or 'none'}, "
          f"{time.perf_counter() - start:.0f} s in all")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
