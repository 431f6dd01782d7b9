"""Source hygiene checks: what the package's modules may and may not contain."""

from __future__ import annotations

import ast
import builtins
import importlib
import re
from dataclasses import fields
from pathlib import Path
from typing import Collection

from xtrsim.workloads import ROLES
from xtrsim.xtr import Tally

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


# cli.main maps a ValueError (a bad input) to exit 1 and an OSError (a failed
# read or write) to exit 2. A failure of any other type would escape it as a
# traceback, and an exception class of the package's own is a second name for
# one of the two that no caller needs.
RAISABLE = {"ValueError", "OSError"}
BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def foreign_failures(source: str) -> list[str]:
    """Classes that derive from an exception, and raises of a type outside
    RAISABLE, by line; a bare `raise` re-raises and is allowed."""

    def name(node: ast.AST | None) -> str | None:
        if isinstance(node, ast.Call):
            node = node.func
        return name_of(node)

    exceptions = set(BUILTIN_EXCEPTIONS)
    found = []
    nodes = sorted((n for n in ast.walk(ast.parse(source))
                    if isinstance(n, (ast.ClassDef, ast.Raise))), key=lambda n: n.lineno)
    for node in nodes:
        if isinstance(node, ast.ClassDef):
            bases = {name(base) for base in node.bases}
            if bases & exceptions or any(str(b).endswith(("Error", "Exception")) for b in bases):
                exceptions.add(node.name)
                found.append(f"line {node.lineno}: class {node.name}")
        elif node.exc is not None and name(node.exc) not in RAISABLE:
            found.append(f"line {node.lineno}: raise {name(node.exc)}")
    return found


def test_foreign_failures_are_detected():
    allowed = ("def f(x):\n    if x:\n        raise ValueError(f'bad {x}') from None\n"
               "    try:\n        g()\n    except OSError as exc:\n"
               "        raise OSError(f'cannot read: {exc}') from exc\n"
               "    except KeyError:\n        raise\n")
    assert foreign_failures(allowed) == []
    strays = ("class Bad(ValueError):\n    pass\nclass Worse(Bad):\n    pass\n"
              "class Io(Exception):\n    pass\nclass Lib(errors.LibError):\n    pass\n"
              "raise OverflowError('full')\nraise Bad\nraise errors.Mismatch('x')\n"
              "raise exc from None\n")
    assert foreign_failures(strays) == [
        "line 1: class Bad", "line 3: class Worse", "line 5: class Io", "line 7: class Lib",
        "line 9: raise OverflowError", "line 10: raise Bad", "line 11: raise Mismatch",
        "line 12: raise exc"]
    # Other classes, and a raise that is only text in a string, are not failures.
    assert foreign_failures("class P(argparse.ArgumentParser):\n    pass\n"
                            "class C:\n    x: int\ns = 'raise KeyError'\n") == []


def test_the_package_raises_only_value_and_os_errors():
    foreign = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
               if (found := foreign_failures(p.read_text()))}
    assert foreign == {}


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


def lines_outside(source: str, homes: Collection[str | None], matches) -> list[int]:
    """Lines of the nodes that `matches` accepts outside the functions named in `homes`."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in homes
        if not inside and matches(node):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def name_of(node: ast.AST | None) -> str | None:
    """The name a Name or Attribute node reads, or None for any other node."""
    return getattr(node, "id", getattr(node, "attr", None))


def binary_op(node: ast.AST, op: type) -> ast.AST | None:
    """The right operand of `a <op> b` or `a <op>= b`, or None for any other node."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, op):
        return node.right if isinstance(node, ast.BinOp) else node.value
    return None


# Every interval aligned to time zero is numbered by cache.window_index: a
# window kept any other way, such as by a start time summed from intervals,
# can roll at other times than `now // period` at a non-dyadic period. The
# one other floor division is cms._column's, of a sketch hash by a width,
# not of a time by a period: numpy has a vector loop for `//` by a scalar
# and none for `%`, so the column is h - (h // width) * width.
FLOOR_DIVISION_HOMES = {"cache.py": "window_index", "cms.py": "_column"}


def floor_divisions(source: str, home: str | None = None) -> list[str]:
    """`//` and `//=` outside the function named `home`, by line."""
    return [f"line {line}: //" for line in
            lines_outside(source, {home}, lambda node: binary_op(node, ast.FloorDiv) is not None)]


def test_floor_divisions_are_detected():
    assert floor_divisions("n = t // p\nn //= 2\ndef f(a):\n    return a // 3\n", "f") == \
        ["line 1: //", "line 2: //"]
    index = "def window_index(now, period):\n    return int(now // period)\n"
    assert floor_divisions(index, "window_index") == []
    assert floor_divisions(index) == ["line 2: //"]
    # Text in a string and true division are not floor division.
    assert floor_divisions("s = 'now // period'\nx = a / b\n") == []


def test_only_window_index_and_the_column_reduction_floor_divide():
    divisions = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
                 if (found := floor_divisions(p.read_text(), FLOOR_DIVISION_HOMES.get(p.name)))}
    assert divisions == {}


# The sketch has one hash, cms._row_hash, for the scalar and the vector paths:
# a second reduction mod p is a second copy of the hash, which a change to the
# hash (a key, wider keys) would have to find and keep in step.
def prime_reductions(source: str, home: str | None = None) -> list[str]:
    """`% _HASH_PRIME` and `%= _HASH_PRIME` outside the function named `home`, by line."""

    def matches(node: ast.AST) -> bool:
        modulus = binary_op(node, ast.Mod)
        return name_of(modulus) == "_HASH_PRIME"

    return [f"line {line}: % _HASH_PRIME" for line in lines_outside(source, {home}, matches)]


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


# cms.py reduces twice: _row_hash mod p and _column mod the width. A third
# `%` or `//`, or the same reduction spelled as a call, is a second hash or a
# second column reduction that the scalar and vector paths could disagree on.
REDUCING_CALLS = {"divmod", "floor", "floor_divide", "fmod", "mod", "remainder"}


def stray_reductions(source: str) -> list[str]:
    """`%`, `//`, their augmented forms and calls in REDUCING_CALLS, by line,
    except `% _HASH_PRIME` whose innermost function is `_row_hash` and anything
    whose innermost function is `_column`."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if function != "_column":
            for op, sign in ((ast.Mod, "%"), (ast.FloorDiv, "//")):
                right = binary_op(node, op)
                by_prime = name_of(right) == "_HASH_PRIME"
                if right is not None and not (function == "_row_hash" and by_prime):
                    found.append(f"line {node.lineno}: {sign}")
            if isinstance(node, ast.Call):
                name = name_of(node.func)
                if name in REDUCING_CALLS:
                    found.append(f"line {node.lineno}: {name}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_stray_reductions_are_detected():
    homes = ("def _row_hash(h):\n    h %= _HASH_PRIME\n    return h % _HASH_PRIME\n"
             "def _column(h, w):\n    c = h // w\n    return h - c * w if c else h % w\n")
    assert stray_reductions(homes) == []
    strays = ("def _row_hash(h, w):\n    return h % _HASH_PRIME % w\n"
              "def _columns(h, w):\n    return h % w\n"
              "def flagged(h, w):\n    h //= w\n    return np.floor_divide(h, w)\n"
              "q, r = divmod(h, w)\nr = np.remainder(h, w) + np.mod(h, w) + np.fmod(h, w)\n"
              "q = np.floor(h / w)\n")
    assert stray_reductions(strays) == [
        "line 2: %", "line 4: %", "line 6: //", "line 7: floor_divide", "line 8: divmod",
        "line 9: remainder", "line 9: mod", "line 9: fmod", "line 10: floor"]
    # The home is the function itself, not one defined inside it; text in a
    # string and true division are not reductions.
    assert stray_reductions("def _column(h, w):\n    def f():\n        return h // w\n"
                            "s = 'h % w'\nx = h / w\n") == ["line 3: //"]


def test_cms_reduces_only_in_row_hash_and_column():
    assert stray_reductions((PACKAGE / "cms.py").read_text()) == []


# A role is one of the two strings of workloads.ROLES, which are also the
# Tally's field names: a role spelled out anywhere else is a second
# vocabulary that a renamed or added role would miss.
def role_literals(source: str, home: str | None = None) -> list[str]:
    """String constants "legit" and "attacker", by line, outside docstrings and
    outside the value assigned to the name `home`."""
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.body and isinstance(node.body[0], ast.Expr):
                exempt.add(id(node.body[0].value))
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == home
                                                  for t in node.targets):
            exempt.update(map(id, ast.walk(node.value)))
    found = sorted((node.lineno, node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and node.value in ("legit", "attacker")
                   and id(node) not in exempt)
    return [f"line {line}: {value!r}" for line, value in found]


def test_role_literals_are_detected():
    source = ('ROLES = LEGIT, ATTACKER = ("legit", "attacker")\n'
              'def f(role="legit"):\n    """attacker"""\n    return role == \'attacker\'\n'
              'n = {"legit": 1}\n')
    assert role_literals(source, "ROLES") == \
        ["line 2: 'legit'", "line 4: 'attacker'", "line 5: 'legit'"]
    assert len(role_literals(source)) == 5
    # A docstring, a longer string, a field named after a role and an
    # f-string's other text are not a role spelled out.
    assert role_literals('"""legit"""\ns = "legit_hit_rate"\nm.legit += 1\n'
                         'c = f"{name}_attacker"\n') == []


def test_only_workloads_roles_spells_a_role():
    spelled = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
               if (found := role_literals(p.read_text(),
                                          "ROLES" if p.name == "workloads.py" else None))}
    assert spelled == {}
    assert tuple(f.name for f in fields(Tally)) == ROLES


# Cells are uint16 and a source is flagged above the threshold, whatever the
# config. LimiterConfig keeps the two fields that once chose otherwise only
# because config_hash reads its repr; they are init=False, so nothing sets
# them. A cell-width parameter or a read of either field anywhere else
# would be the retired option coming back.
RETIRED_KNOBS = {"cell_width_bytes", "strict_threshold"}
CELL_WIDTH_PARAM = re.compile(r"cell.*(width|bytes)|(width|bytes).*cell")


def retired_knob_uses(source: str) -> list[str]:
    """Names and strings equal to a retired knob, and parameters named after a
    cell width, by line, other than LimiterConfig's fields and strings in its body."""
    tree = ast.parse(source)
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "LimiterConfig":
            allowed.update(id(node.target) if isinstance(node, ast.AnnAssign) else id(node)
                           for node in ast.walk(cls)
                           if isinstance(node, (ast.AnnAssign, ast.Constant)))
    found = []
    for node in ast.walk(tree):
        name = (getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "arg", None) or getattr(node, "value", None))
        if not isinstance(name, str) or id(node) in allowed:
            continue
        if name in RETIRED_KNOBS or (isinstance(node, ast.arg) and CELL_WIDTH_PARAM.search(name)):
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_retired_knob_uses_are_detected():
    source = ('class LimiterConfig:\n'
              '    """strict_threshold"""\n'
              '    cell_width_bytes: int = 2\n'
              '    def __post_init__(self):\n'
              '        getattr(self, "strict_threshold")\n'
              '        self.strict_threshold\n'
              'def f(sketch, cell_width_bytes=2, *, bytes_per_cell=1, width=3):\n'
              '    return g(strict_threshold=True, w=c.cell_width_bytes, s="cell_width_bytes")\n')
    assert retired_knob_uses(source) == [
        "line 6: strict_threshold", "line 7: bytes_per_cell", "line 7: cell_width_bytes",
        "line 8: cell_width_bytes", "line 8: cell_width_bytes", "line 8: strict_threshold"]
    # A docstring or a longer name that mentions a knob is not a use of it.
    assert retired_knob_uses('"""Drops cell_width_bytes."""\nstrict_threshold_seen = 0\n') == []


def test_cell_width_and_threshold_rule_live_only_in_limiter_configs_pinned_fields():
    uses = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
            if (found := retired_knob_uses(p.read_text()))}
    assert uses == {}


# An address is checked by cache.check_address alone: five hand-written range
# tests once behaved three ways (one took bools, one any int, one masked
# first). MapCache.lookup keeps the predicate inline, as it runs once per
# packet, and calls check_address only to raise.
ADDRESS_RANGE_HOMES = {"cache.py": ("check_address", "lookup")}


def address_range_tests(source: str, homes: Collection[str] = ()) -> list[str]:
    """Comparisons with `_FULL_MASK` or `1 << ADDRESS_BITS`, and right shifts by
    `ADDRESS_BITS`, outside the functions named in `homes`, by line."""

    def bound(node: ast.AST) -> bool:
        return name_of(node) == "_FULL_MASK" or name_of(binary_op(node, ast.LShift)) == \
            "ADDRESS_BITS"

    def matches(node: ast.AST) -> bool:
        if isinstance(node, ast.Compare):
            return any(map(bound, [node.left, *node.comparators]))
        return name_of(binary_op(node, ast.RShift)) == "ADDRESS_BITS"

    return [f"line {line}: address range" for line in lines_outside(source, homes, matches)]


def test_address_range_tests_are_detected():
    source = ("def check_address(v, name):\n    if not 0 <= v <= _FULL_MASK:\n"
              "        raise ValueError(name)\n"
              "a = v < 1 << ADDRESS_BITS\nb = v < 0 or v >> ADDRESS_BITS\n"
              "c = v > cache._FULL_MASK\n")
    assert address_range_tests(source, ("check_address",)) == \
        ["line 4: address range", "line 5: address range", "line 6: address range"]
    assert len(address_range_tests(source)) == 4
    # Building the masks, masking, other shifts and text in a string are not range tests.
    assert address_range_tests("_FULL_MASK = (1 << ADDRESS_BITS) - 1\nm = v & _FULL_MASK\n"
                               "k = 1 << (ADDRESS_BITS - n)\nw = v >> 30\n"
                               "s = 'v <= _FULL_MASK'\n") == []


def test_only_check_address_and_the_lookup_test_the_address_range():
    tests = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if (found := address_range_tests(p.read_text(), ADDRESS_RANGE_HOMES.get(p.name, ())))}
    assert tests == {}


# Each kind of value has one rule in cache.py, whose message starts as below:
# a bound spelled out by hand elsewhere, even with the rule's words, is a
# second rule that can drift from it (the 37 such checks tested no type). A
# class named after "must be a" is a hand-written check_type (nine once were).
RULE_WORDS = re.compile(r"must be (>= |finite and > 0|one of|of type |an? [A-Z])")
RULE_HOMES = {"cache.py": ("check_count", "check_positive", "check_type")}


def rule_words(source: str, homes: Collection[str] = ()) -> list[str]:
    """String constants, f-string parts included, holding RULE_WORDS outside
    the functions named in `homes`, by line."""

    def matches(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str) \
            and RULE_WORDS.search(node.value) is not None

    return [f"line {line}: rule words" for line in lines_outside(source, homes, matches)]


def test_rule_words_are_detected():
    source = ('def check_count(name, value, low):\n'
              '    raise ValueError(f"{name} must be >= {low}")\n'
              'a = f"n must be >= {low}, got {n}"\nb = "x must be finite and > 0"\n'
              'c = f"{name} must be one of {allowed}"\n')
    assert rule_words(source, ("check_count",)) == \
        ["line 3: rule words", "line 4: rule words", "line 5: rule words"]
    assert len(rule_words(source)) == 4
    # Other bounds and words are not the rules'.
    assert rule_words('a = "counts must all be >= 1"\nb = "t must be finite and >= 0"\n'
                      'c = "must be <= 5"\nd = "n must be an int"\n') == []


def test_check_type_words_are_detected():
    source = ('def check_type(name, value, cls):\n'
              '    raise ValueError(f"{name} must be of type {cls.__name__}")\n'
              'a = f"config must be an XtrConfig, got {config!r}"\n'
              'b = f"stream must be a Stream, got {type(stream).__name__}"\n'
              'c = "dims must be of type SketchDims"\n')
    assert rule_words(source, ("check_type",)) == \
        ["line 3: rule words", "line 4: rule words", "line 5: rule words"]
    # A lower-case noun is no class: "a list of" and "a pair" are other checks' words.
    assert rule_words('a = "must be a list of SketchDims"\nb = "must be a pair lo,hi"\n') == []


def test_only_the_rules_spell_their_words():
    spelled = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
               if (found := rule_words(p.read_text(), RULE_HOMES.get(p.name, ())))}
    assert spelled == {}


# A field with one allowed value is fixed, not checked: it is an init=False
# field, which no constructor, replace() or CLI key can set. A check_choice
# of one value is such a field kept settable.
def one_value_choices(source: str, constants: dict[str, object] | None = None) -> list[str]:
    """Calls of check_choice, by line, whose `allowed` holds one value: a
    literal, a name bound to one in `constants`, or a loop variable bound to
    one in a row of a literal the loop runs over."""
    constants = constants or {}
    found = []

    def sizes(node: ast.AST | None, rows: dict[str, list[ast.AST]]) -> list[int]:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return [len(node.elts)]
        if isinstance(node, ast.Name) and node.id in rows:
            return [size for row in rows[node.id] for size in sizes(row, {})]
        value = constants.get(name_of(node))
        return [len(value)] if isinstance(value, (tuple, list, set, frozenset, dict)) else []

    def visit(node: ast.AST, rows: dict[str, list[ast.AST]]) -> None:
        if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple) \
                and isinstance(node.iter, (ast.Tuple, ast.List)):
            names = [name_of(target) for target in node.target.elts]
            literal = [row.elts for row in node.iter.elts
                       if isinstance(row, ast.Tuple) and len(row.elts) == len(names)]
            rows = {**rows, **{name: [row[i] for row in literal] for i, name in enumerate(names)}}
        if isinstance(node, ast.Call) and name_of(node.func) == "check_choice":
            allowed = node.args[2] if len(node.args) > 2 else next(
                (k.value for k in node.keywords if k.arg == "allowed"), None)
            if 1 in sizes(allowed, rows):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, rows)

    visit(ast.parse(source), {})
    return [f"line {line}: one value" for line in found]


def test_one_value_choices_are_detected():
    # The form the six fixed fields once took, beside a literal, a keyword and a constant.
    source = ('for name, allowed in (("cache_policy", POLICIES), ("dest_mode", ("shared",)),\n'
              '                      ("source_key", (None,))):\n'
              '    check_choice(name, getattr(self, name), allowed)\n'
              'check_choice("width", self.width, (2,))\n'
              'cache.check_choice("flag", flag, allowed=[True])\n'
              'check_choice("mode", mode, ONLY)\n')
    assert one_value_choices(source, {"ONLY": ("x",), "POLICIES": ("lru", "lfu-aging")}) == [
        "line 3: one value", "line 4: one value", "line 5: one value", "line 6: one value"]
    # Two or more values, and a name nothing binds, are a choice.
    assert one_value_choices('for name, allowed in (("a", (1, 2)), ("b", POLICIES)):\n'
                             '    check_choice(name, 1, allowed)\n'
                             'check_choice("c", c, (True, False))\ncheck_choice("d", d, X)\n',
                             {"POLICIES": ("lru", "lfu-aging")}) == []


def test_no_choice_allows_one_value():
    choices = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
               if (found := one_value_choices(p.read_text(), vars(
                   importlib.import_module(f"xtrsim.{p.stem}"))))}
    assert choices == {}


# Every table the package writes is formatted by experiment.csv_text: the four
# formats it replaced wrote a float by `!r`, `repr` or `str`, which part ways
# on a numpy scalar. A `",".join` anywhere else is a second table format.
CSV_JOIN_HOMES = {"experiment.py": ("csv_text",)}


def csv_joins(source: str, homes: Collection[str] = ()) -> list[str]:
    """Calls of `",".join` outside the functions named in `homes`, by line."""

    def matches(node: ast.AST) -> bool:
        joiner = getattr(getattr(node, "func", None), "value", None)
        return isinstance(node, ast.Call) and name_of(node.func) == "join" \
            and isinstance(joiner, ast.Constant) and joiner.value == ","

    return [f"line {line}: join" for line in lines_outside(source, homes, matches)]


def test_csv_joins_are_detected():
    source = ('def csv_text(header, rows):\n    return ",".join(header)\n'
              'a = ",".join(row)\nb = ",".join(str(v) for v in row) + "\\n"\n')
    assert csv_joins(source, ("csv_text",)) == ["line 3: join", "line 4: join"]
    assert len(csv_joins(source)) == 3
    # Another separator, a join by name and text in a string are not the format.
    assert csv_joins('a = " ".join(w)\nb = sep.join(w)\nc = str.join(",", w)\n'
                     's = \'",".join(row)\'\n') == []


def test_only_csv_text_joins_a_table_row():
    joins = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if (found := csv_joins(p.read_text(), CSV_JOIN_HOMES.get(p.name, ())))}
    assert joins == {}


# Each output row carries the config_hash of the config that made it, and the
# hash is taken in experiment.py alone: a canonical hash (one that moves the
# pinned digests) then changes in one module, beside every table.
def config_hash_calls(source: str) -> list[str]:
    """Calls of a function named `config_hash`, by line."""
    return [f"line {line}: config_hash" for line in lines_outside(
        source, (), lambda node: isinstance(node, ast.Call) and name_of(node.func) == "config_hash")]


def test_config_hash_calls_are_detected():
    assert config_hash_calls("h = config_hash(c)\nrow = [experiment.config_hash(c)]\n") == \
        ["line 1: config_hash", "line 2: config_hash"]
    # Importing it, reading a run's field and text in a string are not calls.
    assert config_hash_calls("from .experiment import config_hash\nh = run.config_hash\n"
                             "s = 'config_hash(c)'\n") == []


def test_only_experiment_takes_a_config_hash():
    calls = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "experiment.py" and (found := config_hash_calls(p.read_text()))}
    assert calls == {}


# A packet's fate is recorded once, in the XtrMetrics counter it moves. An
# outcome enum, or a value returned by the router's per-packet and per-reply
# calls, is a second record that no caller reads and whose names drift from
# the counters' (one once named the nonces the pending table no longer keeps).
ENUM_BASES = {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}
COUNTED_CALLS = ("step", "deliver_reply")


def second_records(source: str) -> list[str]:
    """Enum subclasses, and returns of a value other than None inside the
    functions named in COUNTED_CALLS, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and {name_of(b) for b in node.bases} & ENUM_BASES:
            found.append((node.lineno, f"class {node.name}"))
        elif isinstance(node, ast.FunctionDef) and node.name in COUNTED_CALLS:
            found += [(ret.lineno, f"return in {node.name}") for ret in ast.walk(node)
                      if isinstance(ret, ast.Return) and ret.value is not None
                      and not (isinstance(ret.value, ast.Constant) and ret.value.value is None)]
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_second_records_are_detected():
    source = ("class Outcome(enum.Enum):\n    SENT = 'sent'\n"
              "class Kind(IntEnum):\n    A = 1\n"
              "class Xtr:\n    def step(self, now):\n        if now:\n            return SENT\n"
              "        return\n    def deliver_reply(self, entry, now):\n        return True\n")
    assert second_records(source) == [
        "line 1: class Outcome", "line 3: class Kind", "line 8: return in step",
        "line 11: return in deliver_reply"]
    # A bare return, `return None`, another function's value and another class are not records.
    assert second_records("class Tally:\n    legit: int = 0\ndef step(now):\n    return None\n"
                          "def run(stream):\n    return metrics\n") == []


def test_a_packets_fate_is_recorded_only_in_its_counter():
    assert second_records((PACKAGE / "xtr.py").read_text()) == []


# The router, the CLI and the generators stay single-threaded: only the
# sweep's two lanes, in cms.flagged_by_dims, run on a second thread. The
# benchmark's tracer keeps one span stack for the whole process, so the
# helper lane must call no function that benchmarks/layers.py wraps.
THREAD_MODULES = {"threading", "_thread", "concurrent", "multiprocessing"}
LAYERS = PACKAGE.parent.parent / "benchmarks" / "layers.py"


def thread_imports(source: str) -> list[str]:
    """Imports of a module that starts threads or processes, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.partition(".")[0] in THREAD_MODULES]
    return found


def test_thread_imports_are_detected():
    assert thread_imports("import threading\nfrom concurrent.futures import ThreadPoolExecutor\n"
                          "import os, multiprocessing.pool\n") == [
        "line 1: threading", "line 2: concurrent.futures", "line 3: multiprocessing.pool"]
    assert thread_imports("from .cache import threading\nimport threadpoolctl\n") == []


def test_only_cms_starts_a_thread():
    found = {p.name: imports for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "cms.py" and (imports := thread_imports(p.read_text()))}
    assert found == {}


def wrapped_names(layers_source: str) -> set[str]:
    """The function names the tracer wraps: the third item of each
    (span, owner, name, counter) entry in benchmarks/layers.py."""
    return {node.elts[2].value for node in ast.walk(ast.parse(layers_source))
            if isinstance(node, ast.Tuple) and len(node.elts) == 4
            and all(isinstance(node.elts[i], ast.Constant) and isinstance(node.elts[i].value, str)
                    for i in (0, 2))}


def lane_calls(source: str) -> dict[str, set[str]]:
    """For each function handed to a thread (the first argument of a
    `submit` call), the names it calls, through the module's own functions."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    lanes = {name_of(node.args[0]) for node in ast.walk(tree)
             if isinstance(node, ast.Call) and name_of(node.func) == "submit" and node.args}
    calls = {}
    for lane in lanes:
        seen, todo = set(), [lane]
        while todo:
            for node in ast.walk(functions.get(todo.pop(), ast.Pass())):
                if isinstance(node, ast.Call) and (called := name_of(node.func)) not in seen:
                    seen.add(called)
                    todo.append(called)
        calls[lane] = seen
    return calls


def test_lane_calls_and_wrapped_names_are_detected():
    source = ("def lane(h):\n    return helper(h) + np.bincount(h)\n"
              "def helper(h):\n    return self.step(h)\n"
              "def run(pool):\n    pool.submit(lane, 1)\n")
    assert lane_calls(source) == {"lane": {"helper", "bincount", "step"}}
    assert wrapped_names('OUTER = [("xtr.run", Xtr, "run", None), ("a", b)]\n') == {"run"}


def test_the_helper_lane_calls_nothing_the_tracer_wraps():
    wrapped = wrapped_names(LAYERS.read_text())
    assert {"run_sweep", "step", "add_counts", "estimate_many"} <= wrapped
    calls = lane_calls((PACKAGE / "cms.py").read_text())
    assert set(calls) == {"_place"}
    assert "_column" in calls["_place"] and not calls["_place"] & wrapped


# The one second process is run_attack's: experiment._both_arms forks a child
# for each seed's undefended arm, reaps it and is the child's only way out. A
# fork anywhere else could copy a process while the sweep's helper lane holds
# a lock, and an `os._exit` elsewhere would skip the caller's cleanup.
PROCESS_CALLS = {"fork", "_exit", "waitpid"}
PROCESS_HOMES = {"experiment.py": ("_both_arms",)}


def process_calls(source: str, homes: Collection[str] = ()) -> list[str]:
    """Uses of `os.fork`, `os._exit` and `os.waitpid`, imports of them
    included, outside the functions named in `homes`, by line."""

    def matches(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return name_of(node.value) == "os" and node.attr in PROCESS_CALLS
        return isinstance(node, ast.ImportFrom) and node.module == "os" and \
            any(alias.name in PROCESS_CALLS for alias in node.names)

    return [f"line {line}: process call" for line in lines_outside(source, homes, matches)]


def test_process_calls_are_detected():
    source = ("def _both_arms(arm):\n    if os.fork() == 0:\n        os._exit(0)\n"
              "    os.waitpid(pid, 0)\n"
              "from os import fork\npid = os.fork()\nos._exit(1)\nf = os.waitpid\n")
    assert process_calls(source, ("_both_arms",)) == \
        [f"line {line}: process call" for line in (5, 6, 7, 8)]
    assert len(process_calls(source)) == 7
    # Other os calls, another module's fork and text in a string are not process calls.
    assert process_calls("import os\nos.pipe()\nos.close(3)\nsocket.fork()\n"
                         "from os import path\ns = 'os.fork()'\n") == []


def test_only_both_arms_forks_exits_or_reaps_a_process():
    calls = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if (found := process_calls(p.read_text(), PROCESS_HOMES.get(p.name, ())))}
    assert calls == {}


# The windows live in the limiters and the cache. The router's audit books
# each admission under `window_index`, the number the source limiter's window
# rolls on, and keeps no window of its own that could roll at another time.
def window_uses(source: str) -> list[str]:
    """Names, attributes and imports of `TumblingWindow`, by line."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        else:
            names = [name_of(node)]
        lines += [node.lineno for name in names if name == "TumblingWindow"]
    return [f"line {line}: TumblingWindow" for line in sorted(lines)]


def test_window_uses_are_detected():
    source = ("from .cache import TumblingWindow\nimport cache.TumblingWindow\n"
              "w = cache.TumblingWindow(1.0)\nclass Xtr:\n    window: TumblingWindow\n")
    assert window_uses(source) == [f"line {line}: TumblingWindow" for line in (1, 2, 3, 5)]
    # A word in a string and another window name are not uses.
    assert window_uses("'''a TumblingWindow'''\nfrom .cache import window_index\n") == []


def test_the_router_keeps_no_window_of_its_own():
    assert window_uses((PACKAGE / "xtr.py").read_text()) == []


# Hex text has one form, the builtin `hex()`: the trace file, the cache trace
# and the error messages write an address alike, and on the cache trace's
# line per packet the builtin is the cheaper call. It writes what the `#x`
# spec writes for every int >= 0.
HEX_SPEC = re.compile(r"#.*[xX]$")


def hex_specs(source: str) -> list[str]:
    """Format specs with `#` and a hex type, in f-strings and `format` calls, by line."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FormattedValue) and node.format_spec is not None:
            spec = "".join(str(part.value) for part in node.format_spec.values
                           if isinstance(part, ast.Constant))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "format" and len(node.args) == 2
              and isinstance(node.args[1], ast.Constant)):
            spec = str(node.args[1].value)
        else:
            continue
        if HEX_SPEC.search(spec):
            lines.append(node.lineno)
    return [f"line {line}: #x" for line in sorted(lines)]


def test_hex_specs_are_detected():
    source = ('a = f"{dst:#x}"\nb = f"{p[0]:#034x}/{p[1]}"\nc = format(v, "#X")\n'
              'd = f"{now} {v:>#20x} miss"\n')
    assert hex_specs(source) == [f"line {line}: #x" for line in (1, 2, 3, 4)]
    # The builtin, other specs and the words in a string are not the spec.
    assert hex_specs('a = f"{hex(dst)}"\nb = f"{v:x}"\nc = f"{t!r} {n:08d}"\n'
                     'd = format(v, "x")\ne = "{:#x}"\n') == []


def test_hex_text_is_written_only_by_the_builtin():
    specs = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if (found := hex_specs(p.read_text()))}
    assert specs == {}
