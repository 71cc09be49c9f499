"""The package's public surface: every name `norden` exports, and every public
module-level function, class and constant of its modules, is one that the
engine itself reads, so the package holds no wrapper that only tests call."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "norden"


def _exported_names() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used_names(node: ast.AST) -> set[str]:
    """Every name read or referenced as an attribute under `node`; a `def`
    or `class` statement that only defines a name does not count."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The public names a module-level statement defines: a function, a class
    or the plain names an assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def test_every_exported_name_is_used_by_the_engine():
    exported = _exported_names()
    assert len(exported) >= 40
    used = set().union(
        *(_used_names(tree) for name, tree in _modules().items() if name != "__init__.py")
    )
    assert sorted(exported - used) == []


def test_every_public_module_level_name_is_read_outside_its_definition():
    """A public function, class or constant counts as used when a statement
    of the package other than its own definition reads it.  Methods are not
    covered."""
    statements = [
        (name, stmt) for name, tree in _modules().items() for stmt in tree.body
    ]
    reads = [_used_names(stmt) for _, stmt in statements]
    defined, unread = 0, []
    for k, (module, stmt) in enumerate(statements):
        for name in _defined_names(stmt):
            defined += 1
            if not any(name in r for j, r in enumerate(reads) if j != k):
                unread.append(f"{module}: {name}")
    assert defined >= 80
    assert unread == []
