"""Every module-level name the library defines is named somewhere else."""

import ast
import io
import re
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "nilorbits"
READERS = ("src", "tests", "perfbench")
WORD = re.compile(r"[A-Za-z_]\w*")


def definitions(text):
    """The module-level functions, classes and constants of ``text`` that
    are not dunder names, each with the first and last line of its
    definition."""
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([node.lineno] + [d.lineno
                                         for d in node.decorator_list])
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            first = node.lineno
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, first, node.end_lineno


def uses(text):
    """Each word of ``text`` outside comments, as a name or inside a string,
    with the lines of the tokens that hold it."""
    out = defaultdict(set)
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type != tokenize.COMMENT:
            for word in WORD.findall(tok.string):
                out[word].add(tok.start[0])
    return out


def unused_names(library, readers):
    """The (module, name) pairs of the ``library`` files' definitions that
    no reader file names outside the definition itself; both arguments map
    a path to its text."""
    read = {path: uses(text) for path, text in readers.items()}
    for path, text in library.items():
        for name, first, last in definitions(text):
            lines = [line for reader, words in read.items()
                     for line in words.get(name, ())
                     if reader != path or not first <= line <= last]
            if not lines:
                yield Path(path).stem, name


def test_every_library_name_is_used():
    readers = {path: path.read_text() for top in READERS
               for path in sorted((ROOT / top).rglob("*.py"))}
    library = {path: text for path, text in readers.items()
               if path.parent == LIBRARY}
    assert list(unused_names(library, readers)) == []


def test_guard_flags_unnamed_and_skips_named():
    lib = ("LIMIT = 3\n"
           "TABLE: dict = {}\n"
           "__version__ = '1'\n"
           "def f(n):\n"
           "    return f(n - 1) if n else LIMIT  # TABLE\n"
           "@staticmethod\n"
           "def g():\n"
           "    pass\n"
           "class K:\n"
           "    pass\n")
    user = "from lib import K\nNAMES = ('g',)\n"
    readers = {"lib.py": lib, "user.py": user}
    assert list(unused_names({"lib.py": lib}, readers)) == \
        [("lib", "TABLE"), ("lib", "f")]
