"""Every top-level function and class of ``concerto`` is named by the code
that runs: by another part of the package or by the benchmark. Code only
the tests call belongs in ``tests/``. Likewise every defaulted parameter of
a public function is passed by some call in that code: a default nobody
overrides is a constant."""

import ast
from collections import defaultdict
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


# defaulted parameters kept although no call in the package or the benchmark
# passes them
UNPASSED_ALLOWED = {
    "train(resume_from)": "the bit-exact resume tests check it",
    "train(stop_at_step)": "the resume tests simulate an interruption with it",
    "load_all_samples(split)": "it reads back the splits that save_dataset(splits=) records",
    "zero_shot_segment(gt)": "zero_shot_segment is kept as a paper probe (ALLOWED)",
}


def _parse():
    """The package's source paths, and the parsed package and benchmark
    sources by path."""
    package = sorted((ROOT / "src" / "concerto").glob("*.py"))
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    return package, {path: ast.parse(path.read_text(), filename=str(path))
                     for path in package + bench}


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
    package, trees = _parse()
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


def _passes(call: ast.Call, position, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name`` (at ``position`` when it
    can be given positionally): by keyword, by position, or through ``*``/``**``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed_defaults() -> list:
    package, trees = _parse()
    calls = defaultdict(list)  # called name -> calls, however the callee is reached
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls[name].append(node)
    unpassed = []
    for path in package:
        for stmt in trees[path].body:
            if not isinstance(stmt, ast.FunctionDef) or stmt.name.startswith("_"):
                continue
            args = stmt.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for position, name in defaulted:
                if not any(_passes(c, position, name) for c in calls[stmt.name]):
                    unpassed.append(f"{stmt.name}({name})")
    return unpassed


def test_every_default_is_passed_somewhere():
    assert sorted(unpassed_defaults()) == sorted(UNPASSED_ALLOWED)
