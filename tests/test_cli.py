import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from cli_contract import CONTRACT
from nilorbits import cli
from nilorbits import duality as du
from nilorbits import faithful as fa
from nilorbits import partitions as P
from nilorbits import springer as sp
from nilorbits import symbols as S
from nilorbits import wavefront as wf


def run(*argv):
    buf = io.StringIO()
    code = cli.run(list(argv), stream=buf)
    return code, buf.getvalue()


VERBS = ("collapse", "dual", "special", "markable", "reduce", "springer",
         "family", "jinduce", "restrict-mult", "sbar", "ds", "da", "lea",
         "wf", "wf-wrep", "faithful", "verify-faithful", "exceptional",
         "enumerate")


def run_json(*argv):
    code, text = run(*argv, "--mode", "structured")
    return code, [json.loads(line) for line in text.splitlines()]


# a README command line whose comment is its answer: a truth value, or a
# partition, marked orbit or number in the text syntax
README_ANSWER = re.compile(r"(nilorbits .+?)\s+# (true|false|[-0-9^,| ]+)")


def test_readme_answers_are_the_cli_output():
    """Each README command line whose comment is its answer prints exactly
    that answer, run in process."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [m.groups() for m in map(README_ANSWER.fullmatch,
                                     readme.read_text().splitlines()) if m]
    assert len(lines) == 11
    for command, answer in lines:
        assert run(*shlex.split(command)[1:]) == (0, answer + "\n"), command


def test_readme_tour_runs():
    """README's Python block runs in a fresh namespace, and each trailing
    comment that is an answer is the value of its line: a Python literal is
    equal to it, ``MarkedOrbit <text>`` names its class and its text; any
    other comment is prose."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string[1:].strip() for tok in
                tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace, checked = {}, 0
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md",
                                 "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
        comment = comments.get(node.end_lineno, "")
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            name, _, text = comment.partition(" ")
            if name != "MarkedOrbit":
                continue
            assert isinstance(node, ast.Expr), comment
            assert (type(value).__name__, str(value)) == (name, text)
        else:
            assert isinstance(node, ast.Expr), comment
            assert value == expected, comment
        checked += 1
    assert checked == 5


@pytest.mark.parametrize("argv, code, out, err", CONTRACT,
                         ids=[" ".join(argv) for argv, *_ in CONTRACT])
def test_contract_row(capsys, monkeypatch, argv, code, out, err):
    """Each row of the CLI contract, run in process, gives exactly its exit
    code, standard output and standard error, with the default rank bound;
    each structured line parses back through ``object_of`` and re-serialises
    through ``record_of`` to the same line."""
    monkeypatch.delenv("NILORBITS_MAX_RANK", raising=False)
    assert cli.run(list(argv)) == code
    assert capsys.readouterr() == (out, err)
    if "structured" in argv:
        for line in out.splitlines():
            rec = cli.record_of(cli.object_of(json.loads(line)))
            assert json.dumps(rec, sort_keys=True) == line


def test_contract_rows_are_distinct():
    assert len({argv for argv, *_ in CONTRACT}) == len(CONTRACT) == 61


def _bad_table(tmp_path):
    path = tmp_path / "tampered.txt"
    path.write_text("# sha256: deadbeef\nF4|A_2|11110|B4|7,1,1\n")
    return str(path)


def _binary_table(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe\x00bad")
    return str(path)


@pytest.mark.parametrize("argv", (
    lambda tmp: ("exceptional", "F4", "A_2", "--table",
                 str(tmp / "missing.txt")),
    lambda tmp: ("exceptional", "F4", "A_2", "--table", _bad_table(tmp)),
    lambda tmp: ("verify-faithful", "-t", "C", "3,3,1", "--witness-file",
                 str(tmp / "no-such-dir" / "witnesses.txt")),
    lambda tmp: ("exceptional", "F4", "A1", "--table", _binary_table(tmp)),
), ids=("missing-table", "bad-checksum", "unwritable-witness-file",
        "non-utf8-table"))
def test_bad_files_exit_2(tmp_path, capsys, argv):
    """Missing, corrupt or unwritable files are violated preconditions:
    exit 2 with a one-line message, never a traceback."""
    code, _ = run(*argv(tmp_path))
    err = capsys.readouterr().err
    assert code == cli.EXIT_PRECONDITION
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_long_skew_shape_is_counted():
    """The Littlewood-Richardson count keeps its own stack, so a skew shape
    of 1,250 cells, more than the interpreter's recursion limit, is
    answered."""
    assert run("restrict-mult", "-t", "C", "-n", "2500", "-k", "1250",
               "2500;-", "1250;-", "1250;-") == (0, "1\n")


def test_too_deep_input_exits_2(capsys, monkeypatch):
    """A computation that recurses past the interpreter's limit is a
    violated precondition, not a crash."""
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(sp, "restriction_multiplicity", too_deep)
    code, _ = run("restrict-mult", "-t", "C", "-k", "1", "-n", "3",
                  "2,1;-", "1;-", "1,1;-")
    err = capsys.readouterr().err
    assert code == cli.EXIT_PRECONDITION
    assert err.startswith("precondition violated:") and "too large" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("error, reason", (
    (MemoryError, ""),
    (RecursionError, " (it exceeds the recursion limit)"),
), ids=("memory", "recursion"))
def test_too_large_messages(capsys, monkeypatch, error, reason):
    """Running out of memory is a violated precondition too; only a
    recursion error names its limit."""
    def too_large(*args):
        raise error

    monkeypatch.setattr(P, "dual", too_large)
    code, _ = run("dual", "-t", "B", "3,1,1")
    err = capsys.readouterr().err
    assert code == cli.EXIT_PRECONDITION
    assert err == ("precondition violated: the input is too large for this "
                   f"computation{reason}\n")


def _python_m(module, *argv, stdout=subprocess.PIPE, **environ):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, **environ)
    return subprocess.run([sys.executable, "-m", module, *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=60)


def test_module_entry_point():
    """``python -m nilorbits.cli`` runs the command line."""
    proc = _python_m("nilorbits.cli", "enumerate", "-t", "B", "-n", "1")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["3", "1^3"]


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ("dual", "-t", "B", "3,1,1"),
    # about 25 kB, more than the output buffer holds
    ("enumerate", "-t", "B", "-n", "12", "--mode", "structured")])
def test_full_output_device_exits_2(argv, unbuffered):
    """An answer that cannot be written is a violated precondition: with
    standard output on ``/dev/full`` the process exits 2 with one line on
    standard error, not a traceback, whether the write fails while the
    answer is printed or only when the buffer is flushed."""
    with open("/dev/full", "w") as full:
        proc = _python_m("nilorbits", *argv, stdout=full,
                         PYTHONUNBUFFERED=unbuffered)
    assert proc.returncode == cli.EXIT_PRECONDITION
    assert proc.stderr == \
        "precondition violated: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not hasattr(os, "pipe"), reason="needs os.pipe")
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [
    ("dual", "-t", "B", "3,1,1"),
    ("enumerate", "-t", "B", "-n", "12", "--mode", "structured"),
    # exits 1 when the pipe stays open
    ("verify-faithful", "-t", "B", "-n", "6", "--no-twist")])
def test_closed_pipe_exits_2(argv, unbuffered):
    """A reader that closed the pipe makes standard output unwritable: the
    process exits 2 with one line on standard error, not a traceback, and
    that exit takes precedence over a failed verification's exit 1."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python_m("nilorbits", *argv, stdout=write_end,
                         PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_PRECONDITION
    assert proc.stderr == "precondition violated: [Errno 32] Broken pipe\n"


def test_no_twist_control_exits_1():
    """The verification of the closed-pipe case fails when its output can
    be written."""
    proc = _python_m("nilorbits", "verify-faithful", "-t", "B", "-n", "6",
                     "--no-twist")
    assert proc.returncode == cli.EXIT_VERIFY


def _loaded_after_import(modules, probes):
    """Which of ``probes`` are in ``sys.modules`` after importing
    ``modules`` in a fresh ``python -S``, where no ``site`` step imports
    anything first."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            f"import {', '.join(modules)}; "
            f"print(*[p for p in {list(probes)!r} if p in sys.modules])")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_leaves_hashlib_out():
    """Importing the CLI imports none of hashlib and importlib.resources
    (only reading an exceptional table needs them), json (only structured
    output does) and logging (the library logs only through a loaded
    ``logging``); importing the library does not import logging.  Neither
    imports dataclasses or inspect: the value types are ``_record``
    classes."""
    assert _loaded_after_import(
        ["nilorbits.cli"],
        ["hashlib", "importlib.resources", "json", "logging", "dataclasses",
         "inspect"]) == []
    library = [f"nilorbits.{name}" for name in (
        "partitions", "symbols", "springer", "duality", "faithful",
        "wavefront")]
    assert _loaded_after_import(
        library, ["logging", "dataclasses", "inspect"]) == []


def test_package_entry_point():
    """``python -m nilorbits`` runs the same command line."""
    argv = ("enumerate", "-t", "B", "-n", "1")
    proc = _python_m("nilorbits", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == _python_m("nilorbits.cli", *argv).stdout


@pytest.mark.parametrize("value, code", (("abc", cli.EXIT_PRECONDITION),
                                         ("-1", cli.EXIT_PRECONDITION),
                                         ("", cli.EXIT_OK),
                                         ("13", cli.EXIT_OK)))
@pytest.mark.parametrize("verb", ("verify-faithful", "enumerate"))
def test_rank_bound_environment(capsys, monkeypatch, verb, value, code):
    """A malformed or negative NILORBITS_MAX_RANK is a violated
    precondition; an empty one means the default bound, and a valid one is
    the bound: rank 13 is enumerated under 13, rank 14 refused."""
    monkeypatch.setenv("NILORBITS_MAX_RANK", value)
    assert run(verb, "-t", "C", "-n", "3")[0] == code
    if value == "13":
        assert run(verb, "-t", "B", "-n", "14") == \
            (cli.EXIT_PRECONDITION, "")
        assert capsys.readouterr().err == ("precondition violated: rank 14 "
                                           "exceeds the enumeration bound 13\n")
        if verb == "enumerate":
            code, out = run(verb, "-t", "B", "-n", "13")
            assert code == cli.EXIT_OK and len(out.splitlines()) == 602


def test_verify_witness_file(tmp_path):
    path = tmp_path / "witnesses.txt"
    code, out = run("verify-faithful", "-t", "C", "3,3,1",
                    "--witness-file", str(path))
    assert code == 0
    body = path.read_text()
    assert "condition-i=true" in body and "<-" in body
    # the file holds the text report, in either output mode
    assert body == out
    run("verify-faithful", "-t", "C", "3,3,1", "--mode", "structured",
        "--witness-file", str(path))
    assert path.read_text() == body


def test_structured_outputs_roundtrip():
    code, recs = run_json("dual", "-t", "B", "3,1,1")
    assert code == 0 and cli.object_of(recs[0]) == (2, 2)
    code, recs = run_json("da", "-t", "B", "2,1,1")
    assert cli.object_of(recs[0]) == du.d_A_triv((2, 1, 1), "B")
    code, recs = run_json("enumerate", "-t", "D", "-n", "2")
    objs = [cli.object_of(r) for r in recs]
    assert objs == P.enumerate_orbits("D", 2)
    code, recs = run_json("wf", "-t", "C", "--az-dual-orbit", "5")
    assert cli.object_of(recs[0]) == wf.wf_iwahori_real((5,), "C")
    code, recs = run_json("wf-wrep", "-t", "B", "1;1")
    assert cli.object_of(recs[0]) == wf.wf_of_wrep(
        sp.WeylIrrep("B", 2, (1,), (1,)))
    code, recs = run_json("exceptional", "F4", "B_2")
    assert cli.object_of(recs[0]) == fa.exceptional_lookup("F4", "B_2")
    code, recs = run_json("exceptional", "E6", "A_2")
    assert recs == [{"kind": "use_default"}]
    assert cli.object_of(recs[0]) == fa.USE_DEFAULT
    code, recs = run_json("faithful", "-t", "C", "3,3,1")
    assert cli.object_of(recs[0]) == fa.faithful_pair((3, 3, 1), "C")
    code, recs = run_json("verify-faithful", "-t", "D", "-n", "4")
    assert [cli.object_of(r) for r in recs] == fa.verify_all("D", 4)


def test_record_roundtrip_all_kinds():
    samples = [
        (3, 1, 1),
        P.DecoratedPartition((2, 2), 1),
        du.MarkedOrbit("B", (3, 1, 1), (3, 1)),
        sp.WeylIrrep("D", 2, (1,), (1,), 1),
        S.Symbol((0, 2), (1,), "a"),
        S.DecoratedSymbol(S.Symbol((1,), (1,), "a"), 1),
        sp.family_of(sp.WeylIrrep("B", 2, (1,), (1,))),
        wf.wf_iwahori_real((5,), "C"),
        fa.exceptional_lookup("E8", "E_8(b_4)"),
        fa.USE_DEFAULT,
        fa.faithful_pair((3, 3, 1), "C"),
        fa.faithful_pair(P.DecoratedPartition((2, 2), 1), "D"),
        fa.verify_faithful((2, 1, 1), "B"),
        fa.verify_faithful(P.DecoratedPartition((4, 4), 1), "D"),
        fa.verify_faithful((3, 3, 1), "C", apply_sgn_twist=False),
        True,
        7,
    ]
    kinds = set()
    for obj in samples:
        rec = cli.record_of(obj)
        rebuilt = cli.object_of(json.loads(json.dumps(rec)))
        assert rebuilt == obj, rec
        kinds.add(rec["kind"])
    assert kinds == {kind for kind, *_ in cli._RECORDS}


def test_record_refusals_name_the_value():
    obj = object()
    with pytest.raises(TypeError) as exc:
        cli.record_of(obj)
    assert str(exc.value) == f"no structured form for {obj!r}"
    with pytest.raises(TypeError) as exc:
        cli.record_of("use-defaults")
    assert str(exc.value) == "no structured form for 'use-defaults'"
    with pytest.raises(ValueError) as exc:
        cli.object_of({"kind": "nope"})
    assert str(exc.value) == "unknown record kind 'nope'"


def test_irrep_record_refuses_bad_decoration():
    rec = cli.record_of(sp.WeylIrrep("B", 1, (1,), ()))
    rec["decoration"] = 9
    with pytest.raises(P.PartitionError):
        cli.object_of(rec)


BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _population(monkeypatch):
    """The benchmark's CLI population, in its fixed order, with the default
    rank bound."""
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.delenv("NILORBITS_MAX_RANK", raising=False)
    from cli_queries import population
    return population()


def test_cli_population_matches_recorded_digests(monkeypatch):
    """Every query of the benchmark's CLI population, run in process, gives
    the exit code and standard output recorded in perfbench/digests.json
    (sha256 of ``f"{code}\\n{stdout}"``, keyed by the shell-quoted argv)."""
    with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["cli_queries"]
    queries = _population(monkeypatch)
    assert len(queries) == len(recorded) == 488
    wrong = []
    for query in queries:
        code, out = run(*query.argv)
        got = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
        if got != recorded[query.key]:
            wrong.append((query.key, code, out))
    assert not wrong, wrong[:3]


def test_cli_population_records_roundtrip(monkeypatch):
    """Every record a structured query of the benchmark's CLI population
    prints parses back through ``object_of`` to a value with the same
    record."""
    records = []
    for query in _population(monkeypatch):
        if "structured" in query.argv:
            records += [json.loads(line)
                        for line in run(*query.argv)[1].splitlines()]
    assert len(records) == 602
    wrong = [rec for rec in records
             if cli.record_of(cli.object_of(rec)) != rec]
    assert not wrong, wrong[:3]


def _parsed(parser, argv):
    """The namespace ``parser`` gives ``argv``, with its result function
    read by ``__code__`` (each parser makes its own lambdas), or the
    usage error it raises."""
    try:
        args = vars(parser.parse_args(list(argv)))
    except cli.UsageError as exc:
        return "usage error", str(exc)
    return {**args, "compute": args["compute"].__code__}


def test_single_verb_parser_parses_the_population_alike(monkeypatch):
    """The parser of a query's verb alone gives every query of the
    benchmark's CLI population the namespace, or the usage error, of the
    parser of all verbs."""
    full = cli.build_parser()
    errors = 0
    for query in _population(monkeypatch):
        got = _parsed(cli.build_parser(query.argv[0]), query.argv)
        assert got == _parsed(full, query.argv), query.key
        errors += isinstance(got, tuple)
    assert errors == 3  # -t E, enumerate without -n, frobnicate


def _help(parser, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("verb", VERBS)
def test_single_verb_parser_help_is_unchanged(verb):
    single = _help(cli.build_parser(verb), [verb, "--help"])
    assert single == _help(cli.build_parser(), [verb, "--help"])
    assert single.startswith(f"usage: nilorbits {verb} [-h]")


def test_parser_of_no_declared_verb_has_every_verb(capsys):
    """``-h``, no arguments and an unknown verb get the parser of all 19
    verbs, with their help, usage error and exit code."""
    with pytest.raises(SystemExit) as exc:
        cli.run(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: nilorbits [-h]")
    assert "{" + ",".join(VERBS) + "}" in out
    assert all(f"\n    {verb} " in out for verb in VERBS)
    assert cli.run([]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == \
        "usage error: the following arguments are required: verb\n"
    assert cli.run(["frobnicate", "-t", "B", "1"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument verb: invalid choice: "
                          "'frobnicate' (choose from ")
    assert [verb for verb in VERBS if verb in err] == list(VERBS)
