"""Static scan for unused module-level imports in the package.

No linter ships with the test environment, so an AST scan stands in for
flake8's F401: a name bound by a module-level import must be read somewhere
in the module (annotations included) or be listed in ``__all__``.  A line
that carries ``# noqa: F401`` is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "levyrep"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each module-level import binding never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, node.end_lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [
        (start, name)
        for start, end, name in bound
        if name not in used
        and not any("noqa: F401" in lines[i - 1] for i in range(start, end + 1))
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys\n"
        "from math import pi, tau\n"
        "from json import dumps  # noqa: F401\n"
        "def f(x: tau) -> None:\n"
        "    print(sys.argv)\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "pi")]
