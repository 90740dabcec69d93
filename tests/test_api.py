import ast
from pathlib import Path

import bselab

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
    "negativity_report",
    "passive",
    "random_classical_ensemble",
    "run_campaign",
    "run_theorem_trial",
    "simon_separable",
    "squeezed_vacuum",
    "states",
    "theoremlab",
    "thermal",
    "transform_coherent_exact",
    "transform_ensemble",
    "vacuum",
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
