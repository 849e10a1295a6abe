"""Every top-level function and class of ``concerto`` is named by the code
that runs: by another part of the package or by the benchmark, and so is
every method and property of its classes. Code only the tests call belongs
in ``tests/``. A module-level name a module assigns is read by that module,
or imported or reached as an attribute by the package or the benchmark.
Likewise every defaulted parameter of a public function is passed by some
call in that code, every parameter of a package function or lambda is read
by its body, and every field of a config dataclass is set by some code or
test: a default nobody overrides is a constant."""

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


def unreached_members() -> list:
    """Non-dunder methods and properties of the package's classes that no
    attribute access in the package or the benchmark reaches."""
    package, trees = _parse()
    reached = {node.attr for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)}
    return [f"{cls.name}.{fn.name}" for path in package for cls in trees[path].body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not (fn.name.startswith("__") and fn.name.endswith("__"))
            and fn.name not in reached]


def test_every_member_is_reached():
    assert unreached_members() == []


def unread_assignments(package, trees) -> list:
    """Non-dunder top-level names a package module assigns but never reads,
    and that no package or benchmark code imports or reaches as an
    attribute, as ``module.name``."""
    outside = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                outside.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                outside.add(node.attr)
    unread = []
    for path in package:
        known = outside | {node.id for node in ast.walk(trees[path])
                           if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for stmt in trees[path].body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            unread += [f"{path.stem}.{node.id}" for target in targets
                       for node in ast.walk(target) if isinstance(node, ast.Name)
                       and not (node.id.startswith("__") and node.id.endswith("__"))
                       and node.id not in known]
    return unread


def test_every_assigned_name_is_read():
    assert unread_assignments(*_parse()) == []


def test_an_unread_constant_is_caught():
    # a constant left behind by the code that read it
    package, trees = _parse()
    views = ROOT / "src" / "concerto" / "views.py"
    trees[views] = ast.parse(views.read_text() + "\nLOCAL_RETRIES = 8\n")
    assert unread_assignments(package, trees) == ["views.LOCAL_RETRIES"]


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


def unread_parameters() -> list:
    """Parameters of the package's functions and lambdas, nested ones too,
    that their body never reads; names starting with ``_`` are left out."""
    package, trees = _parse()
    unread = []
    for path in package:
        for fn in ast.walk(trees[path]):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            body = fn.body if isinstance(fn, ast.FunctionDef) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", "<lambda>")
            unread += [f"{name}({p})" for p in params
                       if not p.startswith("_") and p not in read]
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == []


def _config_fields(package, trees) -> dict:
    """Field names of every ``*Config``, ``*Spec`` and ``LossWeights``
    dataclass of the package, in declaration order, by class name."""
    fields = {}
    for path in package:
        for stmt in trees[path].body:
            if isinstance(stmt, ast.ClassDef) and (
                    stmt.name.endswith(("Config", "Spec")) or stmt.name == "LossWeights"):
                fields[stmt.name] = [s.target.id for s in stmt.body
                                     if isinstance(s, ast.AnnAssign)
                                     and isinstance(s.target, ast.Name)]
    return fields


def unset_config_fields() -> list:
    """Config fields no code sets: neither a call to the class (by keyword or
    position), nor a string key of a dict literal, nor a keyword of a
    ``dict(...)`` call or of a call to a function taking ``**kwargs``."""
    package, trees = _parse()
    fields = _config_fields(package, trees)
    tests = [ast.parse(p.read_text(), filename=str(p))
             for p in sorted((ROOT / "tests").glob("*.py"))]
    nodes = [node for tree in [*trees.values(), *tests] for node in ast.walk(tree)]
    takes_kwargs = {n.name for n in nodes
                    if isinstance(n, ast.FunctionDef) and n.args.kwarg is not None}
    loose = set()                   # names set for whichever class reads them
    by_class = defaultdict(set)     # class name -> fields its calls set
    for node in nodes:
        if isinstance(node, ast.Dict):
            loose.update(k.value for k in node.keys
                         if isinstance(k, ast.Constant) and isinstance(k.value, str))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        keywords = {kw.arg for kw in node.keywords if kw.arg is not None}
        if name == "dict" or name in takes_kwargs:
            loose |= keywords
        if name in fields:
            by_class[name] |= keywords
            by_class[name].update(fields[name][:len(node.args)])
    return [f"{cls}.{f}" for cls, names in fields.items() for f in names
            if f not in loose and f not in by_class[cls]]


def test_every_config_field_is_set_somewhere():
    # tests count as setters here: they vary a hyperparameter on purpose to
    # isolate a behaviour; a field that nothing sets is a constant
    assert unset_config_fields() == []
