"""Every name that a module of the package or of the tests imports is used,
every parameter of a package function is read, every function, class and
method of the package is referenced from the package or the benchmark, and
no module of the package copies out the values of a choice tuple by hand.

A name counts as used when it is read anywhere in the same file, a
parameter when it is read anywhere in its function's body (nested
functions included); the checks are by name, not by scope.  No linter is
assumed to be installed.
"""

import argparse
import ast
import importlib
from pathlib import Path

import pytest

from ttcloc import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/ttcloc/*.py"))
BENCH = sorted(ROOT.glob("bench/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never read, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_guard_sees_unused_names():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nimport x.y\nprint(np, e, x)\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_parameters(source: str) -> list[str]:
    """Parameters that their function's body never reads, with their lines.

    ``self``, ``cls``, names starting with ``_`` and the parameters of
    dunder methods, whose signatures a protocol fixes, are exempt; so are
    lambdas.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _is_dunder(node.name):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, *filter(None, (args.vararg, args.kwarg))]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for param in params:
            name = param.arg
            if name not in read and name not in ("self", "cls") and not name.startswith("_"):
                found.append(f"{node.name}({name}) (line {node.lineno})")
    return found


def test_guard_sees_unread_parameters():
    source = (
        "def f(a, b, _c, *args, d=1, **kw):\n    return a + kw['x']\n"
        "class K:\n    def m(self, x):\n        def inner():\n            return x\n        return inner\n"
        "    def __exit__(self, *exc):\n        pass\n"
        "def g(y):\n    y = 2\n    return lambda z: 0\n"
    )
    assert unread_parameters(source) == ["f(b) (line 1)", "f(d) (line 1)", "f(args) (line 1)", "g(y) (line 10)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced_definitions(defining: dict[str, str], referring: dict[str, str]) -> list[str]:
    """Functions, classes and methods defined in the ``defining`` sources
    whose name no source of either mapping (file name to text) reads, as
    ``file:line name``.

    A name is read as a variable, as an attribute, or as a string equal to
    it (``getattr`` by name, as the benchmark's span table does).  Dunders,
    which a protocol calls, are exempt.
    """
    definitions, read = [], set()
    for name, source in [*defining.items(), *referring.items()]:
        for node in ast.walk(ast.parse(source)):
            if name in defining and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _is_dunder(node.name):
                    definitions.append((f"{name}:{node.lineno}", node.name))
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and type(node.value) is str:
                read.add(node.value)
    return [f"{where} {defined}" for where, defined in definitions if defined not in read]


def test_guard_sees_unreferenced_definitions():
    defining = (
        "def used():\n    pass\ndef unused():\n    pass\n"
        "class K:\n    def __len__(self):\n        return 0\n    def prop(self):\n        pass\n"
        "    def named(self):\n        pass\n"
    )
    referring = "from m import K\nK().prop\nused()\ngetattr(K, 'named')\n"
    assert unreferenced_definitions({"m.py": defining}, {"r.py": referring}) == ["m.py:3 unused"]
    assert unreferenced_definitions({"m.py": defining}, {}) == ["m.py:1 used", "m.py:3 unused", "m.py:5 K", "m.py:8 prop", "m.py:10 named"]


def test_every_package_definition_is_referenced():
    """References from the tests do not count: code that only tests reach is dead."""
    sources = lambda paths: {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    assert unreferenced_definitions(sources(PACKAGE), sources(BENCH)) == []


def _strings(node) -> frozenset | None:
    """The members of a tuple or list literal of strings; None for any other node."""
    if isinstance(node, (ast.Tuple, ast.List)) and node.elts:
        if all(isinstance(e, ast.Constant) and type(e.value) is str for e in node.elts):
            return frozenset(e.value for e in node.elts)
    return None


def copied_choices(source: str, choices, declared=()) -> list[str]:
    """Tuple and list literals whose strings are exactly the members of one
    of the tuples ``choices``, with their lines.

    The first module-level assignment of a tuple's members to a name in
    ``declared`` is its declaration and is exempt.  A literal holding only
    some of a tuple's members is a subset, which is legal.
    """
    tree = ast.parse(source)
    members = {frozenset(choice) for choice in choices}
    exempt, declared_members = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and getattr(node.targets[0], "id", None) in declared:
            strings = _strings(node.value)
            if strings in members and strings not in declared_members:
                declared_members.add(strings)
                exempt.add(node.value)
    return [
        f"line {node.lineno}: {sorted(_strings(node))}"
        for node in ast.walk(tree)
        if _strings(node) in members and node not in exempt
    ]


def test_guard_sees_copied_choices():
    source = (
        'KINDS = ("a", "b", "c")\nCOPY = ("c", "b", "a")\nKINDS = ("a", "b", "c")\n'
        'for k in ["b", "a", "c"]:\n    pair = ("a", "b")\n    more = ("a", "b", "c", "d")\n'
        'def f():\n    KINDS = ("a", "b", "c")\n'
    )
    found = copied_choices(source, [("a", "b", "c")], declared={"KINDS"})
    assert found == [f"line {n}: ['a', 'b', 'c']" for n in (2, 3, 4, 8)]


def flag_choices() -> list:
    """The choices of every flag of every subcommand: the declared choice tuples."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [a.choices for parser in sub.choices.values() for a in parser._actions if isinstance(a.choices, (tuple, list))]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_hand_copied_choices(path):
    choices = flag_choices()
    module = importlib.import_module(f"ttcloc.{path.stem}")
    declared = {name for name, value in vars(module).items() if any(value is choice for choice in choices)}
    assert copied_choices(path.read_text(encoding="utf-8"), choices, declared) == []
