"""Source hygiene: every module under src/ reads what it imports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _unused_imports(source: str) -> list[str]:
    """The names a module imports but never reads, as 'line N: name'.  A
    name that __all__ lists is read: the module re-exports it."""
    tree = ast.parse(source)
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: (kv[1], kv[0])) if name not in read]


def test_no_module_under_src_has_an_unused_import():
    unused = {}
    for path in sorted(SRC.rglob("*.py")):
        found = _unused_imports(path.read_text())
        if found:
            unused[str(path.relative_to(SRC))] = found
    assert unused == {}


def test_the_check_finds_unused_imports():
    # known-false controls, and the forms that do count as read
    assert _unused_imports("import os.path\nfrom typing import List, Optional\nx: Optional[int] = None\n") == [
        "line 1: os",
        "line 2: List",
    ]
    assert _unused_imports("from .engine import Player as P\n") == ["line 1: P"]
    assert _unused_imports("from __future__ import annotations\nimport os.path\nos.path.join('a')\n") == []
    assert _unused_imports("from .engine import Player\n__all__ = ['Player']\n") == []
