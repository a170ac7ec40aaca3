"""Every name a telesim module imports is used in that module, and no
handler catches everything.

A deletion that leaves its import behind fails here. ``__init__.py`` is
left out, since its imports are the package's re-exports, and so are
``from __future__`` imports, which bind no name a module reads. A name read
only inside a quoted annotation counts as unused: every module postpones
its annotations, so none needs quoting. A bare ``except``, an ``except
Exception`` or an ``except BaseException`` fails too: a handler names the
errors it means to turn into a message, so a fault elsewhere still surfaces.
"""

import ast
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
