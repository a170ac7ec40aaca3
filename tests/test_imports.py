"""Every name a telesim module imports is used in that module.

A deletion that leaves its import behind fails here. ``__init__.py`` is
left out, since its imports are the package's re-exports, and so are
``from __future__`` imports, which bind no name a module reads. A name read
only inside a quoted annotation counts as unused: every module postpones
its annotations, so none needs quoting.
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
