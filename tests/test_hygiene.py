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


# The sketch's hash and its slot placement live in cms.py alone: a second
# copy in the limiter or the router could place keys elsewhere than the
# sketch does without any output showing it.
HASH_NAMES = re.compile(r"\b(_HASH_PRIME|_row_coefficients|_row_hash|_hash_slots)\b")


def test_hash_names_are_detected():
    assert HASH_NAMES.findall("from .cms import _row_hash, _HASH_PRIME\n") == \
        ["_row_hash", "_HASH_PRIME"]
    assert HASH_NAMES.findall("cms._row_coefficients(seed, 0)\n_row_hashes = 1\n") == \
        ["_row_coefficients"]


def test_slot_memo_names_are_detected():
    assert HASH_NAMES.findall("self._hash_slots(key)\n") == ["_hash_slots"]
    # Python's own __slots__ and longer names are not the sketch's.
    assert HASH_NAMES.findall("__slots__ = ()\n_hash_slots_seen = 0\n") == []


def test_only_cms_names_the_sketch_hash():
    named = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "cms.py" and (found := HASH_NAMES.findall(p.read_text()))}
    assert named == {}


# cli.py writes every output file: a second writer elsewhere would escape
# its mapping of a failed write to exit code 2.
WRITE_METHODS = {"write_text", "write_bytes"}


def file_writes(source: str) -> list[str]:
    """Calls that write a file: write_text, write_bytes, or an open whose
    mode is not read-only. Code inside string constants is not parsed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in WRITE_METHODS:
            found.append(f"line {node.lineno}: {name}")
        elif name == "open":
            # The builtin takes the path first; Path.open takes the mode first.
            modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes):
                found.append(f"line {node.lineno}: open")
    return found


def test_file_writes_are_detected():
    assert file_writes("Path(p).write_text(s)\nout.write_bytes(b)\n") == \
        ["line 1: write_text", "line 2: write_bytes"]
    assert file_writes("open(p, 'w')\nopen(p, mode='ab')\npath.open('r+')\nopen(p, m)\n") == \
        ["line 1: open", "line 2: open", "line 3: open", "line 4: open"]
    # Reads, and writing code that is only text in a string, are not writes.
    assert file_writes("open(p)\nopen(p, 'rb', newline='')\npath.open()\n"
                       "SCRIPT = 'open(p, \"w\").write_text(s)'\n") == []


def test_only_cli_writes_files():
    writes = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
              if p.name != "cli.py" and (found := file_writes(p.read_text()))}
    assert writes == {}


def lines_outside(source: str, home: str | None, matches) -> list[int]:
    """Lines of the nodes that `matches` accepts outside the function named `home`."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == home
        if not inside and matches(node):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def binary_op(node: ast.AST, op: type) -> ast.AST | None:
    """The right operand of `a <op> b` or `a <op>= b`, or None for any other node."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, op):
        return node.right if isinstance(node, ast.BinOp) else node.value
    return None


# Every interval aligned to time zero is numbered by cache.window_index: a
# window kept any other way, such as by a start time summed from intervals,
# can roll at other times than `now // period` at a non-dyadic period.
def floor_divisions(source: str, home: str | None = None) -> list[str]:
    """`//` and `//=` outside the function named `home`, by line."""
    return [f"line {line}: //" for line in
            lines_outside(source, home, lambda node: binary_op(node, ast.FloorDiv) is not None)]


def test_floor_divisions_are_detected():
    assert floor_divisions("n = t // p\nn //= 2\ndef f(a):\n    return a // 3\n", "f") == \
        ["line 1: //", "line 2: //"]
    index = "def window_index(now, period):\n    return int(now // period)\n"
    assert floor_divisions(index, "window_index") == []
    assert floor_divisions(index) == ["line 2: //"]
    # Text in a string and true division are not floor division.
    assert floor_divisions("s = 'now // period'\nx = a / b\n") == []


def test_only_window_index_floor_divides():
    divisions = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
                 if (found := floor_divisions(p.read_text(),
                                              "window_index" if p.name == "cache.py" else None))}
    assert divisions == {}


# The sketch has one hash, cms._row_hash, for the scalar and the vector paths:
# a second reduction mod p is a second copy of the hash, which a change to the
# hash (a key, wider keys) would have to find and keep in step.
def prime_reductions(source: str, home: str | None = None) -> list[str]:
    """`% _HASH_PRIME` and `%= _HASH_PRIME` outside the function named `home`, by line."""

    def matches(node: ast.AST) -> bool:
        modulus = binary_op(node, ast.Mod)
        return getattr(modulus, "id", getattr(modulus, "attr", None)) == "_HASH_PRIME"

    return [f"line {line}: % _HASH_PRIME" for line in lines_outside(source, home, matches)]


def test_prime_reductions_are_detected():
    hashes = ("def _row_hash(h, x):\n    h %= _HASH_PRIME\n    return h % _HASH_PRIME\n"
              "slot = (b + a * key) % _HASH_PRIME % width\nh = x % cms._HASH_PRIME\n")
    assert prime_reductions(hashes, "_row_hash") == \
        ["line 4: % _HASH_PRIME", "line 5: % _HASH_PRIME"]
    assert len(prime_reductions(hashes)) == 4
    # Other moduli, and the prime used any other way, are not a reduction by it.
    assert prime_reductions("c = h % width\na = randrange(1, _HASH_PRIME)\n"
                            "s = 'x % _HASH_PRIME'\n") == []


def test_only_row_hash_reduces_mod_the_hash_prime():
    reductions = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
                  if (found := prime_reductions(p.read_text(),
                                                "_row_hash" if p.name == "cms.py" else None))}
    assert reductions == {}
