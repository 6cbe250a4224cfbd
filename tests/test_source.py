"""Source hygiene: every module under src/ reads what it imports, keeps no
strong cache at module level, and defines no function or class that nothing
reads; the engine and the strategies read no enum member in a function
body."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


# A module-level container built by one of these forms is strong: what a
# function puts in it lives as long as the module.  A weakref.WeakKeyDictionary
# is no such form.
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_CONTAINER_NODES = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_MUTATORS = {"setdefault", "append", "add", "update", "extend", "insert", "__setitem__"}


def _is_container(node) -> bool:
    if isinstance(node, _CONTAINER_NODES):
        return True
    func = getattr(node, "func", None)
    return isinstance(node, ast.Call) and (getattr(func, "id", None) or getattr(func, "attr", None)) in _CONTAINER_CALLS


def _mutated_module_containers(source: str) -> list[str]:
    """The module-level dicts, lists and sets a function fills, as
    'line N: name', where N is the line of the filling statement: an item
    assignment or one of _MUTATORS called on the name.  A function that
    binds the name locally fills its own container, not the module's."""
    tree = ast.parse(source)
    containers = set()
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        if getattr(stmt, "value", None) is not None and _is_container(stmt.value):
            containers.update(t.id for t in targets if isinstance(t, ast.Name))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        params = func.args
        local = {a.arg for a in params.posonlyargs + params.args + params.kwonlyargs + [params.vararg, params.kwarg] if a}
        local.update(n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
        local.difference_update(name for n in ast.walk(func) if isinstance(n, ast.Global) for name in n.names)
        for node in ast.walk(func):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                owner = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                owner = node.func.value
            else:
                continue
            if isinstance(owner, ast.Name) and owner.id in containers and owner.id not in local:
                found.add((node.lineno, owner.id))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_no_module_under_src_fills_a_module_level_container():
    filled = {}
    for path in sorted(SRC.rglob("*.py")):
        found = _mutated_module_containers(path.read_text())
        if found:
            filled[str(path.relative_to(SRC))] = found
    assert filled == {}


def test_the_check_finds_filled_module_level_containers():
    # a known-false control: a strong memo, filled in the three usual ways
    flagged = (
        "_MEMO = {}\n"
        "_SEEN: set = set()\n"
        "def f(g, k):\n"
        "    _MEMO[g] = k\n"
        "    _MEMO.setdefault(g, []).append(k)\n"
        "    _SEEN.add(g)\n"
    )
    assert _mutated_module_containers(flagged) == ["line 4: _MEMO", "line 5: _MEMO", "line 6: _SEEN"]
    # weak keys, reads, module-level set-up and a local of the same name pass
    passing = (
        "import weakref\n"
        "_ROWS = weakref.WeakKeyDictionary()\n"
        "_TABLE = {'a': 1}\n"
        "_TABLE['b'] = 2\n"
        "def f(g):\n"
        "    _ROWS.setdefault(g, {})[0] = 1\n"
        "    return _TABLE['a']\n"
        "def h():\n"
        "    _TABLE = {}\n"
        "    _TABLE['c'] = 3\n"
        "    return _TABLE\n"
    )
    assert _mutated_module_containers(passing) == []


def _definitions(source: str) -> dict[str, int]:
    """The module-level functions and classes of a module, by name, with
    their lines."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node.lineno for node in ast.parse(source).body if isinstance(node, defs)}


def _names_read(source: str) -> set[str]:
    """Every name a module reads: a bare name, an attribute, or a name it
    imports.  A definition's own name is none of these."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name for alias in node.names)
    return read


def _dead_definitions(defining: str, read: set[str]) -> list[str]:
    """The module-level functions and classes of defining whose names are
    not in read, as 'line N: name'."""
    return [f"line {line}: {name}" for name, line in _definitions(defining).items() if name not in read]


def test_every_function_and_class_under_src_is_read():
    sources = {path: path.read_text() for top in ("src", "tests", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))}
    read = set().union(*map(_names_read, sources.values()))
    dead = {}
    for path, source in sources.items():
        if path.is_relative_to(SRC):
            found = _dead_definitions(source, read)
            if found:
                dead[str(path.relative_to(SRC))] = found
    assert dead == {}


def test_the_check_finds_dead_definitions():
    # a known-false control: a helper and a class nothing reads
    defining = "def used():\n    pass\n\ndef helper():\n    pass\n\nclass Orphan:\n    pass\n"
    assert _dead_definitions(defining, _names_read("from .m import used\n")) == ["line 4: helper", "line 7: Orphan"]
    # a call, an attribute and an import each count as a read
    assert _dead_definitions(defining, _names_read("used()\nm.helper\nfrom .m import Orphan\n")) == []
    # and so does a read in the defining module itself
    reading = defining + "x = helper() or Orphan\n"
    assert _dead_definitions(reading, _names_read(reading)) == ["line 1: used"]


# CPython 3.11's EnumType defines a Python-level __getattr__, so a read such
# as Player.ALICE costs several times a module global: the per-move code of
# these modules reads the members through module-level aliases instead.
_ENUMS = {"Player", "RuleVariant"}
_ALIASED = ("eternal_coloring/engine.py", "eternal_coloring/strategies.py")


def _enum_reads_in_function_bodies(source: str) -> list[str]:
    """The attribute reads on Player or RuleVariant inside a function body,
    as 'line N: Enum.attr'.  Module-level code and a function's default
    arguments run once, so they may read them."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for stmt in func.body if isinstance(func.body, list) else [func.body]:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in _ENUMS:
                    found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_engine_and_strategies_read_no_enum_member_in_a_function_body():
    reads = {}
    for name in _ALIASED:
        found = _enum_reads_in_function_bodies((SRC / name).read_text())
        if found:
            reads[name] = found
    assert reads == {}


def test_the_check_finds_enum_reads_in_function_bodies():
    # a known-false control: _place's mover flip as it read before the
    # aliases, and the same read in a method and a lambda
    flagged = (
        "def _place(state, v, c):\n"
        "    state.to_move = Player.BOB if state.to_move is Player.ALICE else Player.ALICE\n"
        "class GameState:\n"
        "    def greedy_applies(self):\n"
        "        return self.variant is RuleVariant.GREEDY_BOTH\n"
        "bob_to_move = lambda state: state.to_move is Player.BOB\n"
    )
    assert _enum_reads_in_function_bodies(flagged) == [
        "line 2: Player.ALICE",
        "line 2: Player.BOB",
        "line 5: RuleVariant.GREEDY_BOTH",
        "line 6: Player.BOB",
    ]
    # module-level aliases, default arguments, annotations and member
    # attributes pass
    passing = (
        "ALICE, BOB = Player.ALICE, Player.BOB\n"
        "def play(variant: RuleVariant = RuleVariant.STANDARD, mover: Player = Player.ALICE):\n"
        "    return BOB if mover is ALICE else variant.value\n"
    )
    assert _enum_reads_in_function_bodies(passing) == []
