import ast
import inspect
from pathlib import Path

import bselab
from mutants import MUTANTS

# The public API, pinned: removing a name, or exporting a new one, has to
# be done here on purpose.
PUBLIC_API = [
    "CampaignConfig",
    "CampaignSummary",
    "CoherentEnsemble",
    "EntanglementReport",
    "FockArena",
    "GaussianSpec",
    "GaussianState",
    "Mixture",
    "ModeUnitary",
    "TrialRecord",
    "TruncationError",
    "apply_passive",
    "beam_splitter_matrix",
    "coherent",
    "fock",
    "gaussian",
    "gaussian_from_spec",
    "haar_unitary",
    "hilbert",
    "is_classical",
    "mandel_q",
    "negativity_reports",
    "passive",
    "ppt_verdicts",
    "random_classical_ensemble",
    "run_campaign",
    "run_theorem_trial",
    "squeezed_vacuum",
    "states",
    "theoremlab",
    "thermal",
    "transform_coherent_exact",
    "transform_ensemble",
    "witnesses",
]


def test_public_api_is_pinned():
    assert sorted(bselab.__all__) == PUBLIC_API


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (``__future__`` aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_src_has_no_unused_imports():
    # the package __init__ imports to re-export: __all__ is read off dir()
    modules = sorted(Path(bselab.__file__).parent.glob("*.py"))
    unused = [hit for path in modules if path.name != "__init__.py"
              for hit in _unused_imports(path)]
    assert unused == []


def _defined_and_read(path: Path) -> tuple[dict[str, int], set[str]]:
    """Private and UPPER_CASE names a module defines at its top level (dunders
    aside), and every name it reads, bare or as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in nodes if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("__"):
                continue
            if name.startswith("_") or name.isupper():
                defined[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return defined, read


def test_src_reads_every_private_name_and_constant():
    # a private helper or a tolerance that no code in src/ reads is an orphan:
    # delete it, or move it to the tests that still need it
    modules = sorted(Path(bselab.__file__).parent.glob("*.py"))
    scanned = {path.name: _defined_and_read(path) for path in modules}
    read = set().union(*(names for _, names in scanned.values()))
    orphans = [f"{name}:{line}: {defined}" for name, (defs, _) in scanned.items()
               for defined, line in defs.items() if defined not in read]
    assert orphans == []


#: public functions that no src/ code calls yet: the single-mode probe
#: states of the squeezed and thermal comparison planned in ROADMAP item 5
NO_SRC_CALLER = ["squeezed_vacuum", "thermal"]


def test_every_public_function_has_a_src_caller():
    # the public API is what src/ and users need: a public function that no
    # code in src/ reads is a one-item wrapper or an orphan, so delete it
    # (or name the planned caller above)
    modules = sorted(Path(bselab.__file__).parent.glob("*.py"))
    read = set().union(*(_defined_and_read(path)[1] for path in modules))
    public = [name for name in bselab.__all__ if inspect.isfunction(getattr(bselab, name))]
    assert sorted(set(public) - read) == NO_SRC_CALLER


def test_every_mutant_applies_once():
    # a refactor that moves a mutant's snippet leaves the mutant stale; the
    # runner (tests/mutants.py) would only say so after minutes
    ids = [ident for ident, *_ in MUTANTS]
    assert len(ids) == len(set(ids))
    src = Path(bselab.__file__).parent
    stale = [ident for ident, module, snippet, *_ in MUTANTS
             if (src / module).read_text().count(snippet) != 1]
    assert stale == []
