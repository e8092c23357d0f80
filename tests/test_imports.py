"""Every module-level import of the library is used by its module."""

import ast
from pathlib import Path

import pytest

import nilorbits

SOURCES = sorted(Path(nilorbits.__file__).parent.glob("*.py"))


def unused_imports(text):
    """The names that the module-level imports of ``text`` bind and the
    module never reads, with their line numbers.  An import marked
    ``# noqa: F401`` is a deliberate re-export and is skipped."""
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert list(unused_imports(path.read_text())) == []


def test_guard_flags_unused_and_skips_marked_imports():
    text = ("from __future__ import annotations\n"
            "import os.path\n"
            "from operator import le, lt\n"
            "from math import pi  # noqa: F401\n"
            "def f(a, b):\n"
            "    return lt(a, b)\n")
    assert list(unused_imports(text)) == [(2, "os"), (3, "le")]
