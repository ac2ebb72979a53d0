"""Source hygiene checks that need no linter: stdlib ``ast`` and ``re`` only."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gfinv"
# where a name counts as used: the package, its tests and the benchmark,
# which wraps some functions by name
USERS = ("src", "tests", "perfbench")


def _imported_names(tree: ast.Module):
    """(bound name, line) for every import; ``from __future__`` is exempt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _used_names(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as "Guard" name a type without a Name node
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation is not None]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns]
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":      # re-exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        unused += [f"{path.relative_to(SRC)}:{line}: {name}"
                   for name, line in _imported_names(tree) if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_every_module_level_definition_is_named_somewhere():
    words = re.compile(r"\w+")
    sources = {path: path.read_text(encoding="utf-8")
               for d in USERS for path in sorted((ROOT / d).rglob("*.py"))}
    named = Counter(w for text in sources.values() for w in words.findall(text))
    unused = []
    for path, text in sources.items():
        if not path.is_relative_to(SRC) or path.name == "__init__.py":
            continue
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if named[node.name] == words.findall(own).count(node.name):
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not unused, "defined but never named elsewhere:\n" + "\n".join(unused)


def test_every_algebra_re_export_is_imported_through_the_package():
    """A name that ``gfinv/algebra/__init__.py`` re-exports is imported
    from ``gfinv.algebra`` (``.algebra`` inside the package) by some module
    outside the algebra package: a re-export that nothing reads is dead."""
    init = SRC / "algebra" / "__init__.py"
    exported = {name for name, _ in _imported_names(ast.parse(init.read_text(encoding="utf-8")))}
    imported = set()
    for d in USERS:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path.is_relative_to(SRC / "algebra"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
                        ("gfinv.algebra", 0), ("algebra", 1)):
                    imported |= {alias.name for alias in node.names}
    assert sorted(exported - imported) == []


def test_no_module_level_definition_serves_only_the_tests():
    """What only tests call lives in ``tests/support.py``: every module-level
    definition of a ``src/gfinv`` module is named by another part of the
    package or by the benchmark.  The ``__init__.py`` re-exports do not count."""
    words = re.compile(r"\w+")
    modules = {path: path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"}
    named = Counter(w for text in modules.values() for w in words.findall(text))
    named.update(w for path in sorted((ROOT / "perfbench").rglob("*.py"))
                 for w in words.findall(path.read_text(encoding="utf-8")))
    test_only = []
    for path, text in modules.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = "\n".join(lines[node.lineno - 1:node.end_lineno])
            if named[node.name] == words.findall(own).count(node.name):
                test_only.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not test_only, "named only by tests:\n" + "\n".join(test_only)


def test_one_time_limit_serves_every_layer():
    """``gfinv.time_limit`` holds the one deadline: no function takes a
    ``deadline`` parameter, and no module reads the clock but the package
    root, which checks the deadline, and ``cli.py``, for its ``timing``
    fields."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arg) and node.arg == "deadline":
                found.append(f"{name}:{node.lineno}: a parameter named deadline")
            clock = (isinstance(node, ast.Attribute) and node.attr == "monotonic"
                     or isinstance(node, ast.alias) and node.name == "monotonic")
            if clock and name not in ("__init__.py", "cli.py"):
                found.append(f"{name}:{node.lineno}: time.monotonic")
    assert not found, "threaded deadlines:\n" + "\n".join(found)


def test_one_lexer_serves_both_grammars():
    """Only ``algebra/gfexpr.py``, whose lexer reads closed forms and programs,
    imports ``re``: a second tokenizer would."""
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Import) and any(a.name == "re" for a in node.names)
                    or isinstance(node, ast.ImportFrom) and node.module == "re"):
                importers.append(path.relative_to(SRC).as_posix())
    assert importers == ["algebra/gfexpr.py"]


def test_only_sympy_is_imported_inside_a_function():
    """Every gfinv module is imported at the top of the module that uses it.
    Only ``_factor_poly`` imports inside its body: sympy, which only stage 4
    of the solver needs, costs about 0.3 s to load."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.relative_to(SRC).as_posix(), node.name, name)
                          for name, _ in _imported_names(node)]
    assert found == [("synthesis.py", "_factor_poly", "sympy"),
                     ("synthesis.py", "_factor_poly", "_sort_gens")]


NAMED_DISTRIBUTIONS = {"Bernoulli", "Geometric", "UniformRange", "Dirac", "RawPgf",
                       "bernoulli", "geometric", "uniform", "dirac"}


def test_only_the_parser_knows_the_named_distributions():
    """A draw is its pgf: the named distributions are sugar that ``program.py``
    rewrites, and no other module names one, as a class or as a builder.  A
    name counts bare or read off the program module (``P.dirac``), so the
    oracle's point mass ``SparseMeasure.dirac`` does not."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "program.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        program = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if alias.name == "program"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in program:
                name = node.attr
            else:
                continue
            if name in NAMED_DISTRIBUTIONS:
                found.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}: {name}")
    assert not found, "named distributions outside the parser:\n" + "\n".join(found)


def test_the_shift_classifier_has_a_case_for_every_kind():
    """``oracle.shift_moduli`` names every statement and guard class that
    ``program.py`` puts in its ``Statement`` and ``Guard`` unions, so that a
    new kind cannot silently count as a shift (the classifier raises on a
    kind it does not name)."""
    kinds = set()
    for node in ast.parse((SRC / "program.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and \
                getattr(node.targets[0], "id", None) in ("Statement", "Guard"):
            kinds |= {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)}
    kinds.discard("Union")
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    classifier = next(n for n in tree.body
                      if isinstance(n, ast.FunctionDef) and n.name == "shift_moduli")
    named = {n.attr for n in ast.walk(classifier)
             if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "P"}
    assert len(kinds) == 15 and kinds <= named, sorted(kinds - named)


def test_the_oracle_and_the_semantics_import_nothing_from_each_other():
    """The Kleene oracle is the differential ground truth of the closed-form
    semantics, so neither borrows from the other: the numerator filter has
    its own guard evaluator."""
    found = []
    for name, other in (("semantics", "oracle"), ("oracle", "semantics")):
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            if any(m.split(".")[-1] == other for m in modules):
                found.append(f"{name}.py:{node.lineno}")
    assert not found, "cross imports:\n" + "\n".join(found)
