"""Every public module-level function and class of the package has a caller.

A name defined in ``src/clusterperm/<module>.py`` counts as used when a name
or attribute of that spelling appears in ``src/clusterperm`` outside its own
definition, or a name, attribute or string constant in ``perfbench/*.py``
reads it (the benchmark's tracer names its targets by string, e.g.
"BiSeries.shift_t").  Imports are not uses, so the exports of
``__init__.py`` do not count.  A name only the tests call is dead weight:
delete it, or move the part a test needs into the tests.

Each name also has one home: ``from .module import name`` inside the package
names the module that defines it, so no module re-exports a sibling's name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "clusterperm"


def _uses(tree, strings=False) -> set[str]:
    """Identifiers the tree reads, plus the dotted parts of its strings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def unused_public_names() -> list[str]:
    """``module.name`` of every public def or class with no use, sorted."""
    defs, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            named = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if named and not stmt.name.startswith("_"):
                defs.append((path.stem, stmt.name, _uses(stmt)))
            else:
                used |= _uses(stmt)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        used |= _uses(ast.parse(path.read_text(encoding="utf-8")), strings=True)
    return sorted(
        f"{module}.{name}" for module, name, _ in defs
        if name not in used
        and not any(name in own for m, n, own in defs if (m, n) != (module, name))
    )


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []


def _defined_names(tree) -> set[str]:
    """Module-level def, class and assignment targets."""
    out = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


def imports_from_elsewhere() -> list[str]:
    """``importer: from .module import name`` for every sibling import whose
    module does not define the name, sorted."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    defined = {module: _defined_names(tree) for module, tree in trees.items()}
    return sorted(
        f"{importer}: from .{node.module} import {alias.name}"
        for importer, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name not in defined[node.module]
    )


def test_sibling_imports_name_the_defining_module():
    assert imports_from_elsewhere() == []
