"""The package's public surface: every name `norden` exports is one that the
engine itself uses, so the public API holds no wrapper that only tests call."""

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


def _used_names(path: Path) -> set[str]:
    """Every name read or referenced as an attribute in one module; a `def`
    or `class` statement that only defines a name does not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_every_exported_name_is_used_by_the_engine():
    exported = _exported_names()
    assert len(exported) >= 40
    used = set().union(
        *(_used_names(p) for p in SRC.glob("*.py") if p.name != "__init__.py")
    )
    assert sorted(exported - used) == []
