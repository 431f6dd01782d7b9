"""Source hygiene checks that need nothing beyond the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "xtrsim"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation such as "CountMinSketch" reads its names too.
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_detected():
    assert unused_imports("import heapq\nimport os\nos.getcwd()\n") == ["line 1: heapq"]
    assert unused_imports("from a import b as c\nx: 'c'\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_no_module_imports_a_name_it_never_uses():
    # Every module, __init__.py too: the package root re-exports nothing.
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {p.name: found for p in modules if (found := unused_imports(p.read_text()))}
    assert unused == {}
