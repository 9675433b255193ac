"""No module of the package imports a name it never reads.

The repository runs no linter, so this check parses each ``src/ocokit``
module (``__init__.py``, whose imports are the public API, aside) with the
standard library's ``ast``: every name an import binds must be read
somewhere in the module, as a ``Name`` in load context (``np`` in
``np.zeros`` counts).  ``from __future__`` imports bind nothing.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ocokit"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unread_imports(source: str) -> list[str]:
    """The names imports in ``source`` bind that nothing in it reads, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:  # import a.b binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unread_import():
    assert "learners.py" in MODULES, PACKAGE
    source = "import math\nimport os.path\nfrom numpy import array as arr, zeros\nzeros(os)\n"
    assert _unread_imports(source) == ["line 1: math", "line 3: arr"]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    assert _unread_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
