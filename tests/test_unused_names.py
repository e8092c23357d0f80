"""Every module-level name the library and the test helpers define is read
somewhere else, and every public one of the library by the library or the
benchmark, unless it is documented API that only the tests read."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "nilorbits"
READERS = ("src", "tests", "perfbench")
RUNTIME = ("src", "perfbench")
DOTTED = re.compile(r"(?:[A-Za-z_]\w*\.)*([A-Za-z_]\w*)")

# Public names that only the tests read, each with the reason it stays.
DOCUMENTED_API = {
    "duality.pi_mu": "the paper's parity-selected subpartitions",
    "faithful.is_edge_case": "the paper's edge cases of the construction",
    "wavefront.wf_lower_bound_holds": "the paper's lower bound for the "
                                      "wavefront set",
    "springer.orbit_of_symbol": "the checked public form of the kernel "
                                "_orbit_of_rows, compared with "
                                "oracles.orbit_of_symbol_by_symbol",
    "symbols.monotonic_representative": "the checked public form of the "
                                        "kernel _monotonic_rows, compared "
                                        "with oracles.monotonic_"
                                        "representative_by_symbol",
    "symbols.normalize": "the checked public form of the kernel _stripped, "
                         "compared with oracles.normalize_by_steps",
    "partitions.canonical_pair": "the checked public form of the kernel "
                                 "_ordered_pair, the order of type-D pairs "
                                 "in oracles.d_irreps and the sign-twist "
                                 "test",
}


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
    """Each name that the code of ``text`` reads, with the lines that read
    it: a name, an attribute, an imported name, or a string that is the name
    or ends in ``.name`` (as the benchmark tracer's tables name functions).
    Words in comments and docstrings do not count."""
    out = defaultdict(set)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            word = node.id
        elif isinstance(node, ast.Attribute):
            word = node.attr
        elif isinstance(node, ast.alias):
            word = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and (dotted := DOTTED.fullmatch(node.value)):
            word = dotted.group(1)
        else:
            continue
        out[word].add(node.lineno)
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


def sources(tops):
    """The text of every Python file under the top-level directories."""
    return {path: path.read_text() for top in tops
            for path in sorted((ROOT / top).rglob("*.py"))}


def test_every_library_name_is_used():
    """Names of the library and of the test helpers (the modules under
    ``tests`` that are not test files)."""
    readers = sources(READERS)
    library = {path: text for path, text in readers.items()
               if path.parent == LIBRARY or path.parent == ROOT / "tests"
               and not path.name.startswith("test_")}
    assert list(unused_names(library, readers)) == []


def test_public_names_are_read_by_the_runtime_or_documented():
    """A public name that neither the library nor the benchmark reads is
    documented API, or it belongs with the tests; and a documented name
    still exists and is still read only by the tests."""
    runtime = sources(RUNTIME)
    library = {path: text for path, text in runtime.items()
               if path.parent == LIBRARY}
    test_only = {f"{module}.{name}"
                 for module, name in unused_names(library, runtime)
                 if not name.startswith("_")}
    assert sorted(test_only - DOCUMENTED_API.keys()) == []
    assert sorted(DOCUMENTED_API.keys() - test_only) == []


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
           "    pass\n"
           "def h():\n"
           "    pass\n"
           "def m():\n"
           "    pass\n")
    user = ('"""Calls h."""\n'
            "from lib import K\n"
            "NAMES = ('g', 'lib.m')\n")
    readers = {"lib.py": lib, "user.py": user}
    assert list(unused_names({"lib.py": lib}, readers)) == \
        [("lib", "TABLE"), ("lib", "f"), ("lib", "h")]
