"""Command-line front end.

Every pipeline stage is a subcommand; ``--mode structured`` prints
self-describing JSON records (one per line) that round-trip through
``object_of``, which reads every kind that ``record_of`` writes: each kind
is declared once.  Exit codes: 0 success, 1 failed verification, 2 violated
precondition (an input too large to compute included), 64 malformed
arguments.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import duality as du
from . import faithful as fa
from . import partitions as pt
from . import springer as sp
from . import symbols as sy
from . import wavefront as wf
from .partitions import DecoratedPartition, PartitionError, format_partition
from .springer import AmbiguousDecorationError
from .symbols import SymbolError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PRECONDITION = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_partition(text: str):
    try:
        return pt.parse_partition(text)
    except PartitionError as exc:
        raise UsageError(str(exc)) from exc


def _bare_partition(text: str):
    return pt.bare(_parse_partition(text))


def _parse_pair(text: str):
    """``first;second`` with optional braces and a ``:0``/``:1`` suffix."""
    body = text.strip()
    kappa = 0
    if body.endswith((":0", ":1")):
        kappa = int(body[-1])
        body = body[:-2]
    body = body.strip("{}()")
    if ";" not in body:
        raise UsageError(f"a bipartition is written first;second, got {text!r}")
    first, second = body.split(";", 1)
    return _bare_partition(first), _bare_partition(second), kappa


def _parse_irrep(text: str, letter: str) -> sp.WeylIrrep:
    first, second, kappa = _parse_pair(text)
    return sp.WeylIrrep(letter, sum(first) + sum(second), first, second, kappa)


def _parse_marked(text: str, letter: str) -> du.MarkedOrbit:
    if "|" not in text:
        raise UsageError(f"a marked orbit is written orbit|marking, got {text!r}")
    orbit, marking = text.split("|", 1)
    return du.MarkedOrbit(letter, _bare_partition(orbit),
                          _bare_partition(marking))


# ---------------------------------------------------------------------------
# structured records: one (kind, class, writer, reader) entry per kind; the
# writer gives every field of the record but "kind", the reader the object

def _rows(obj) -> dict:
    return {"rows": [list(obj.top), list(obj.bottom)]}


def _symbol_fields(sym: sy.Symbol) -> dict:
    return {**_rows(sym), "row_kind": sym.kind, "defect": sym.defect}


def _symbol(rec) -> sy.Symbol:
    return sy.Symbol(*map(tuple, rec["rows"]), rec["row_kind"])


def _faithful_pair(rec) -> fa.FaithfulPair:
    letter, rank = rec["letter"], rec["rank"]
    return fa.FaithfulPair(
        letter, rank, sp.PseudoLeviShape(letter, rec["node"], rank),
        tuple(map(object_of, rec["families"])),
        tuple(map(tuple, rec["orbit_pair"])), rec["provenance"])


def _report(rec) -> fa.FaithfulnessReport:
    # the record holds no pair: it is rebuilt from the orbit
    letter, orbit = rec["letter"], rec["orbit"]
    return fa.FaithfulnessReport(
        orbit, letter, fa.faithful_pair(pt.parse_partition(orbit), letter),
        rec["condition_i"], rec["condition_ii"],
        tuple(map(tuple, rec["witnesses"])))


_RECORDS = (
    ("bool", bool, lambda b: {"value": b}, lambda r: bool(r["value"])),
    ("int", int, lambda i: {"value": i}, lambda r: int(r["value"])),
    ("partition", tuple, lambda lam: {"parts": list(lam)},
     lambda r: tuple(r["parts"])),
    ("decorated_partition", DecoratedPartition,
     lambda d: {"parts": list(d.parts), "decoration": d.kappa},
     lambda r: DecoratedPartition(tuple(r["parts"]), r["decoration"])),
    ("marked_orbit", du.MarkedOrbit,
     lambda m: {"letter": m.letter, "orbit": list(m.orbit),
                "marking": list(m.marking),
                "decoration_undetermined": m.decoration_undetermined},
     lambda r: du.MarkedOrbit(r["letter"], tuple(r["orbit"]),
                              tuple(r["marking"]))),
    ("irrep", sp.WeylIrrep,
     lambda w: {"letter": w.letter, "rank": w.rank, "first": list(w.first),
                "second": list(w.second), "decoration": w.kappa},
     lambda r: sp.WeylIrrep(r["letter"], r["rank"], tuple(r["first"]),
                            tuple(r["second"]), r["decoration"])),
    ("symbol", sy.Symbol, _symbol_fields, _symbol),
    ("decorated_symbol", sy.DecoratedSymbol,
     lambda d: {**_symbol_fields(d.sym), "decoration": d.kappa},
     lambda r: sy.DecoratedSymbol(_symbol(r), r["decoration"])),
    ("family", sp.FamilyId,
     lambda f: {"letter": f.letter, "rank": f.rank, **_rows(f),
                "decoration": f.kappa},
     lambda r: sp.FamilyId(r["letter"], r["rank"], *map(tuple, r["rows"]),
                           r["decoration"])),
    ("wavefront", wf.WavefrontResult,
     lambda w: {"canonical_unramified": record_of(w.canonical_unramified),
                "algebraic": list(w.algebraic)},
     lambda r: wf.WavefrontResult(object_of(r["canonical_unramified"]),
                                  tuple(r["algebraic"]))),
    ("exceptional_entry", fa.ExceptionalEntry,
     lambda e: {"group": e.group, "orbit_label": e.dual_orbit_label,
                "node_mask": e.node_mask, "factor_type": e.factor_type,
                "family_orbit": e.family_orbit},
     lambda r: fa.ExceptionalEntry(r["group"], r["orbit_label"],
                                   r["node_mask"], r["factor_type"],
                                   r["family_orbit"])),
    # a sentinel string, matched by equality: it stands for its own class
    ("use_default", fa.USE_DEFAULT, lambda _: {}, lambda _: fa.USE_DEFAULT),
    ("faithful_pair", fa.FaithfulPair,
     lambda p: {"letter": p.letter, "rank": p.rank, "node": p.shape.k,
                "provenance": p.provenance,
                "families": list(map(record_of, p.families)),
                "orbit_pair": list(map(list, p.orbit_pair))},
     _faithful_pair),
    ("faithfulness_report", fa.FaithfulnessReport,
     lambda r: {"letter": r.letter, "orbit": r.orbit,
                "condition_i": r.condition_i, "condition_ii": r.condition_ii,
                "witnesses": list(map(list, r.witnesses))},
     _report),
)
_WRITERS = {cls: (kind, write) for kind, cls, write, _ in _RECORDS}
_READERS = {kind: read for kind, _, _, read in _RECORDS}


def record_of(obj) -> dict:
    """The record of ``obj``, found by its exact class (so a bool is never
    an int), or by equality for ``USE_DEFAULT``."""
    key = obj if obj == fa.USE_DEFAULT else type(obj)
    if key not in _WRITERS:
        raise TypeError(f"no structured form for {obj!r}")
    kind, write = _WRITERS[key]
    return {"kind": kind, **write(obj)}


def object_of(record: dict):
    kind = record["kind"]
    if kind not in _READERS:
        raise ValueError(f"unknown record kind {kind!r}")
    return _READERS[kind](record)


class _Out:
    def __init__(self, mode: str, stream):
        self.mode = mode
        self.stream = stream

    def emit(self, obj, text: str | None = None):
        if self.mode == "structured":
            import json  # here, like faithful's hashlib: text skips it
            print(json.dumps(record_of(obj), sort_keys=True), file=self.stream)
        else:
            print(_text_of(obj) if text is None else text, file=self.stream)


def _text_of(obj) -> str:
    """``true``/``false``, a partition's exponent notation, else ``str``."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, tuple):
        return format_partition(obj)
    return str(obj)


def _opt(*names, **kwargs):
    """An argument of a verb, as ``add_argument`` takes it."""
    return names, kwargs


def _add_verb(sub, verb, help, compute, *arguments, typed=True, rank=False,
              node=False, own_output=False) -> None:
    p = sub.add_parser(verb, help=help)
    if typed:
        p.add_argument("-t", "--type", required=True, dest="letter",
                       choices=("B", "C", "D"))
    if rank:
        p.add_argument("-n", "--rank", type=int, required=True)
    if node:
        p.add_argument("-k", "--node", type=int, required=True)
    p.add_argument("--mode", choices=("text", "structured"), default="text")
    for spec in arguments:
        names, kwargs = ((spec,), {}) if isinstance(spec, str) else spec
        p.add_argument(*names, **kwargs)
    p.set_defaults(compute=compute, own_output=own_output)


def build_parser(verb: str | None = None) -> _Parser:
    """One ``add`` per verb: help, result function, arguments; each element
    of a list result is emitted on its own, and an ``own_output`` function
    prints for itself and returns the exit code.

    When ``verb`` is a declared verb, only its subparser is built: it parses
    an argument list led by ``verb`` as the full parser does.  Otherwise
    (``-h``, no verb, an unknown one) every verb's is, so help and usage
    errors name them all."""
    parser = _Parser(prog="nilorbits", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    declared = {}

    def add(name, *declaration, **options):
        declared[name] = declaration, options

    add("collapse", "largest type partition below the input",
        lambda a: pt.collapse(_bare_partition(a.partition), a.letter),
        "partition")
    add("dual", "duality map on orbit partitions",
        lambda a: pt.dual(_parse_partition(a.partition), a.letter),
        "partition")
    add("special", "is the orbit special",
        lambda a: pt.is_special(_parse_partition(a.partition), a.letter),
        "partition")
    add("markable", "markable parts of an orbit",
        lambda a: pt.markable_parts(_bare_partition(a.partition), a.letter),
        "partition")
    add("reduce", "canonical reduced marking of a subpartition",
        lambda a: pt.reduction(_bare_partition(a.orbit),
                               _bare_partition(a.mu), a.letter),
        "orbit", "mu")
    add("springer", "Springer symbol and character of an orbit", _springer,
        "partition", _opt("--side", choices=("group", "dual"),
                          default="group"), own_output=True)
    add("family", "family of an irreducible character", _family,
        "bipartition", _opt("--members", action="store_true"),
        own_output=True)
    add("jinduce", "truncated induction of a special factor pair",
        lambda a: sp.j_induce(*_shaped(a)),
        "factor1", "factor2", rank=True, node=True)
    add("restrict-mult", "multiplicity of a factor pair in a restriction",
        lambda a: sp.restriction_multiplicity(*_shaped(a, character=True)),
        "character", "factor1", "factor2", rank=True, node=True)
    add("sbar", "marked orbit of a pseudo-Levi orbit pair",
        lambda a: du.sbar(_bare_partition(a.mu), _bare_partition(a.nu),
                          a.letter),
        "mu", "nu")
    add("ds", "Sommers dual of a pseudo-Levi orbit pair",
        lambda a: du.d_S(_bare_partition(a.mu), _bare_partition(a.nu),
                         a.letter),
        "mu", "nu")
    add("da", "Achar dual of a trivially marked dual orbit",
        lambda a: du.d_A_triv(_parse_partition(a.partition), a.letter),
        "partition")
    add("lea", "compare two marked orbits in the Achar order",
        lambda a: du.le_A(_parse_marked(a.left, a.letter),
                          _parse_marked(a.right, a.letter)),
        "left", "right")
    add("wf", "wavefront set from an involution-dual orbit",
        lambda a: wf.wf_iwahori_real(_parse_partition(a.orbit), a.letter),
        _opt("--az-dual-orbit", required=True, dest="orbit"))
    add("wf-wrep", "wavefront set of an irreducible character",
        lambda a: wf.wf_of_wrep(_parse_irrep(a.bipartition, a.letter)),
        "bipartition")
    add("faithful", "shape and family attached to a dual orbit",
        lambda a: fa.faithful_pair(_parse_partition(a.partition), a.letter),
        "partition")
    add("verify-faithful", "check both faithfulness conditions", _verify,
        _opt("partition", nargs="?"), _opt("-n", "--rank", type=int),
        _opt("--no-twist", action="store_true",
             help="negative control: drop the sign twist"),
        _opt("--witness-file"), own_output=True)
    add("exceptional", "faithful pair data for an exceptional group",
        lambda a: fa.exceptional_lookup(a.group, a.label, a.table_path),
        _opt("group", choices=("G2", "F4", "E6", "E7", "E8")), "label",
        _opt("--table", dest="table_path"), typed=False)
    add("enumerate", "all orbits of the type and rank",
        lambda a: pt.enumerate_orbits(a.letter, a.rank), rank=True)
    for name, (declaration, options) in declared.items():
        if verb not in declared or name == verb:
            _add_verb(sub, name, *declaration, **options)
    return parser


def _shaped(args, character=False):
    """The arguments of ``j_induce``, led by the character for
    ``restriction_multiplicity``; parsed shape first, factor pairs last."""
    shape = sp.PseudoLeviShape(args.letter, args.node, args.rank)
    lead = (_parse_irrep(args.character, args.letter),) if character else ()
    (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
    f1, s1, k1 = _parse_pair(args.factor1)
    f2, s2, k2 = _parse_pair(args.factor2)
    return (*lead, shape, sp.WeylIrrep(y, p, f1, s1, k1),
            sp.WeylIrrep(x, q, f2, s2, k2))


def _springer(args, out: _Out) -> int:
    lam = _parse_partition(args.partition)
    conv = args.letter if args.side == "group" else pt.dual_letter(args.letter)
    symbol = sp.springer_symbol(lam, conv)
    bare = symbol.sym if isinstance(symbol, sy.DecoratedSymbol) else symbol
    rep = sp.rep_of_orbit(lam, conv, args.letter)
    out.emit(symbol, f"{sy.render(bare)}\ncharacter {rep}")
    return EXIT_OK


def _family(args, out: _Out) -> int:
    fid = sp.family_of(_parse_irrep(args.bipartition, args.letter))
    members = sp.family_members(fid) if args.members else []
    if out.mode == "structured":
        for obj in [fid, *members]:
            out.emit(obj)
    else:
        out.emit(fid, f"family {fid}" + (
            "  members: " + " ".join(map(str, members)) if members else ""))
    return EXIT_OK


def _verify(args, out: _Out) -> int:
    if (args.partition is None) == (args.rank is None):
        raise UsageError("verify-faithful needs a partition or --rank")
    twist = not args.no_twist
    if args.partition is not None:
        reports = [fa.verify_faithful(_parse_partition(args.partition),
                                      args.letter, twist)]
    else:
        reports = fa.verify_all(args.letter, args.rank, twist)
    lines = []
    for rep in reports:
        lines.append(f"{rep.letter} {rep.orbit}: condition-i="
                     f"{_text_of(rep.condition_i)} condition-ii="
                     f"{_text_of(rep.condition_ii)} "
                     f"[{'ok' if rep.ok else 'FAIL'}] {rep.pair}")
        for e_label, f_label in rep.witnesses:
            lines.append(f"    {e_label} <- {f_label if f_label else 'NO WITNESS'}")
    body = "\n".join(lines)
    if args.witness_file:
        with open(args.witness_file, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    if out.mode == "structured":
        for rep in reports:
            out.emit(rep)
    else:
        print(body, file=out.stream)
    return EXIT_OK if all(rep.ok for rep in reports) else EXIT_VERIFY


def run(argv, stream=None) -> int:
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        out = _Out(args.mode, stream or sys.stdout)
        if args.own_output:
            code = args.compute(args, out)
        else:
            result = args.compute(args)
            for obj in result if isinstance(result, list) else [result]:
                out.emit(obj)
            code = EXIT_OK
        out.stream.flush()  # a failed write raises here, not at exit
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PartitionError, SymbolError, AmbiguousDecorationError,
            fa.TableError, OSError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (RecursionError, OverflowError, MemoryError) as exc:
        why = " (it exceeds the recursion limit)" \
            if isinstance(exc, RecursionError) else ""
        print("precondition violated: the input is too large for this "
              f"computation{why}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError:  # ``run`` reported it; the flush at exit would exit 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
