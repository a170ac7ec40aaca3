"""Every name a telesim module imports is used in that module, and no
handler catches everything.

A deletion that leaves its import behind fails here. ``__init__.py`` is
left out, since its imports are the package's re-exports, and so are
``from __future__`` imports, which bind no name a module reads. A name read
only inside a quoted annotation counts as unused: every module postpones
its annotations, so none needs quoting. A bare ``except``, an ``except
Exception`` or an ``except BaseException`` fails too: a handler names the
errors it means to turn into a message, so a fault elsewhere still surfaces.
Only ``Tape.number`` appends to a coefficient tape's ``nodes``, ``ops`` or
``dependent``, so an instruction is numbered, valued and bounded one way.
No telesim dataclass has a method that ``dataclasses`` compiled from a
string: each takes its methods from ``coeff.Record``, written once, so
importing the package compiles none (a namedtuple's are not looked at).
"""

import ast
import importlib
import inspect
from dataclasses import dataclass, is_dataclass
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "telesim"


def _unused_imports(source: str) -> dict[str, int]:
    """Each name the imports of source bind and its code never reads, with
    the line that binds it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_a_module_uses_every_name_it_imports(path):
    unused = _unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\nfrom m import a, b as c\n"
              "def f(x: c) -> None:\n    return a, sys.argv\n")
    assert _unused_imports(source) == {"os": 2}


_CATCH_ALL = {"Exception", "BaseException"}


def _catch_all_handlers(source: str) -> list[int]:
    """The line of each handler in source that is bare or names Exception or
    BaseException, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(kind is None or isinstance(kind, ast.Name) and kind.id in _CATCH_ALL
                   for kind in caught):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_module_catches_everything(path):
    lines = _catch_all_handlers(path.read_text())
    assert not lines, f"{path.name} has catch-all handlers at lines {lines}"


def test_a_catch_all_handler_is_found():
    source = ("try:\n    f()\nexcept ValueError:\n    pass\nexcept (KeyError, Exception):\n    pass\n"
              "try:\n    g()\nexcept BaseException:\n    pass\nexcept:\n    raise\n")
    assert _catch_all_handlers(source) == [5, 9, 11]


_TAPE_LISTS = {"nodes", "ops", "dependent"}


def _numbering_sites(source: str) -> list[tuple[str, int]]:
    """Each function of source, by qualified name, and line that appends to,
    extends or adds to an attribute named nodes, ops or dependent, directly
    or through a local name bound to one."""
    sites = []

    def listed(node, aliases):
        return (isinstance(node, ast.Attribute) and node.attr in _TAPE_LISTS
                or isinstance(node, ast.Name) and node.id in aliases)

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                aliases = set()
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            pairs = (zip(target.elts, sub.value.elts) if isinstance(target, ast.Tuple)
                                     and isinstance(sub.value, ast.Tuple) else [(target, sub.value)])
                            aliases.update(t.id for t, v in pairs if isinstance(t, ast.Name) and listed(v, ()))
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in ("append", "extend", "insert") and listed(sub.func.value, aliases)
                            or isinstance(sub, ast.AugAssign) and listed(sub.target, aliases)):
                        sites.append((prefix + node.name, sub.lineno))

    visit(ast.parse(source).body, "")
    return sorted(sites)


def test_only_tape_number_numbers_an_instruction():
    sites = {(path.name, name) for path in MODULES for name, _ in _numbering_sites(path.read_text())}
    assert sites == {("coeff.py", "Tape.number")}


def test_a_numbering_site_is_found():
    source = ("class T:\n    def number(self):\n        self.nodes.append(1)\n"
              "    def other(self):\n        dep, x = self.dependent, 1\n        dep.append(0)\n"
              "        self.ops += [1]\n"
              "def f(tape):\n    nodes = tape.nodes\n    nodes.extend([1])\n    tape.keys.append(1)\n")
    assert _numbering_sites(source) == [("T.number", 3), ("T.other", 6), ("T.other", 7), ("f", 10)]


def _generated_methods(cls: type) -> list[str]:
    """The names in cls's own namespace of the functions compiled from a
    string, as ``dataclasses`` compiles the methods it writes (its ``repr``
    behind a recursion guard that keeps the original as ``__wrapped__``)."""
    return sorted(name for name, value in vars(cls).items()
                  if getattr(getattr(inspect.unwrap(value), "__code__", None), "co_filename", None) == "<string>")


def test_no_dataclass_has_generated_methods():
    generated = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("telesim" if path.stem == "__init__" else f"telesim.{path.stem}")
        generated += [value.__qualname__ for value in vars(module).values()
                      if isinstance(value, type) and value.__module__ == module.__name__
                      and is_dataclass(value) and _generated_methods(value)]
    assert not generated, f"dataclasses with generated methods: {sorted(generated)}"


def test_a_generated_method_is_found():
    @dataclass(frozen=True)
    class Point:
        x: int

        def norm(self):
            return abs(self.x)

    assert _generated_methods(Point) == ["__delattr__", "__eq__", "__hash__", "__init__", "__repr__", "__setattr__"]
