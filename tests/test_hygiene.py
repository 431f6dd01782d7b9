"""Source hygiene checks that need nothing beyond the standard library."""

from __future__ import annotations

import ast
import re
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


# The sketch's hash and its slot memo live in cms.py alone: a second copy, or
# a second slot cache in the limiter or the router, could place keys
# elsewhere than the sketch does without any output showing it.
HASH_NAMES = re.compile(
    r"\b(_HASH_PRIME|_row_coefficients|_row_hash|_slots|_hash_slots|_slot_memo|_SLOT_MEMO_CAP)\b")


def test_hash_names_are_detected():
    assert HASH_NAMES.findall("from .cms import _row_hash, _HASH_PRIME\n") == \
        ["_row_hash", "_HASH_PRIME"]
    assert HASH_NAMES.findall("cms._row_coefficients(seed, 0)\n_row_hashes = 1\n") == \
        ["_row_coefficients"]


def test_slot_memo_names_are_detected():
    assert HASH_NAMES.findall("slots = self._sketch._slots(source)\n") == ["_slots"]
    assert HASH_NAMES.findall("memo = sketch._slot_memo\nif len(memo) >= cms._SLOT_MEMO_CAP:\n") \
        == ["_slot_memo", "_SLOT_MEMO_CAP"]
    assert HASH_NAMES.findall("self._hash_slots(key)\n") == ["_hash_slots"]
    # Python's own __slots__ and longer names are not the sketch's.
    assert HASH_NAMES.findall("__slots__ = ()\n_slots_seen = 0\n") == []


def test_only_cms_names_the_sketch_hash():
    named = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "cms.py" and (found := HASH_NAMES.findall(p.read_text()))}
    assert named == {}
