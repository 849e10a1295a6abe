"""Every top-level function and class of ``concerto`` is named by the code
that runs: by another part of the package or by the benchmark. Code only
the tests call belongs in ``tests/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# names kept although nothing in the package or the benchmark calls them
ALLOWED = {
    "assemble_pieces": "the paper's data pieces (scenes split into view subsets)",
    "lora_probe": "the paper's low-rank-adapter probe",
    "zero_shot_segment": "the paper's zero-shot segmentation probe",
    "fit_pca": "the paper's feature visualisation",
    "colorize": "the paper's feature visualisation",
    "export_ply": "the paper's feature visualisation",
    "op_sum": "the tape's scalar reduction, which the gradient checks reduce by",
}


def _names(node) -> set:
    """Every name ``node`` mentions: variables, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(alias.name.split(".")[-1] for alias in sub.names)
    return out


def unnamed_definitions() -> list:
    package = sorted((ROOT / "src" / "concerto").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in package + bench}
    # names per top-level statement, so a definition's own body can be left out
    uses = [(path, stmt, _names(stmt)) for path, tree in trees.items() for stmt in tree.body]
    unnamed = []
    for path in package:
        for stmt in trees[path].body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not any(stmt.name in names for _p, other, names in uses if other is not stmt):
                unnamed.append(stmt.name)
    return unnamed


def test_every_definition_is_named_outside_itself():
    # equality also keeps the allowlist from outliving what it excuses
    assert sorted(unnamed_definitions()) == sorted(ALLOWED)
