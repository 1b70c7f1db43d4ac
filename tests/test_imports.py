"""Every name a module of the package imports at module level is used in it.
The check walks each module's syntax tree. A statement whose first line
carries ``# noqa: F401`` is exempt: ``cli`` imports names that the benchmark
patches. So is the package ``__init__``, whose imports are its API."""

import ast
from pathlib import Path

import quantitize


def _imported(tree, lines):
    """(line, name) for each name bound by a module-level import, also in
    ``if`` and ``try`` blocks, but not ``from __future__``."""
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                found.append((node.lineno, name))
    return found


def unused_imports(source):
    """(line, name) for each module-level import name ``source`` never reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in _imported(tree, source.splitlines())
            if name not in used]


def test_every_module_level_import_is_used():
    found = {}
    for path in sorted(Path(quantitize.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            unused = unused_imports(path.read_text(encoding="utf-8"))
            if unused:
                found[path.stem] = unused
    assert found == {}


def test_the_check_sees_unused_names_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "from typing import TYPE_CHECKING, Optional\n"
              "from .errors import DataError as Bad  # noqa: F401\n"
              "if TYPE_CHECKING:\n"
              "    import requests\n"
              "def f(x: Optional[int]):\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == [(2, "math"), (7, "requests")]
