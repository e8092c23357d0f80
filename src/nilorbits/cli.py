"""Command-line front end.

Every pipeline stage is a subcommand; ``--mode structured`` prints
self-describing JSON records (one per line) that round-trip through
``object_of``.  Exit codes: 0 success, 1 failed verification, 2 violated
precondition, 64 malformed arguments.
"""

from __future__ import annotations

import argparse
import json
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
# structured records

def record_of(obj) -> dict:
    if isinstance(obj, bool):
        return {"kind": "bool", "value": obj}
    if isinstance(obj, int):
        return {"kind": "int", "value": obj}
    if isinstance(obj, tuple):
        return {"kind": "partition", "parts": list(obj)}
    if isinstance(obj, DecoratedPartition):
        return {"kind": "decorated_partition", "parts": list(obj.parts),
                "decoration": obj.kappa}
    if isinstance(obj, du.MarkedOrbit):
        return {"kind": "marked_orbit", "letter": obj.letter,
                "orbit": list(obj.orbit), "marking": list(obj.marking),
                "decoration_undetermined": obj.decoration_undetermined}
    if isinstance(obj, sp.WeylIrrep):
        return {"kind": "irrep", "letter": obj.letter, "rank": obj.rank,
                "first": list(obj.first), "second": list(obj.second),
                "decoration": obj.kappa}
    if isinstance(obj, sy.Symbol):
        return {"kind": "symbol", "rows": [list(obj.top), list(obj.bottom)],
                "row_kind": obj.kind, "defect": obj.defect}
    if isinstance(obj, sy.DecoratedSymbol):
        rec = record_of(obj.sym)
        rec["kind"] = "decorated_symbol"
        rec["decoration"] = obj.kappa
        return rec
    if isinstance(obj, sp.FamilyId):
        return {"kind": "family", "letter": obj.letter, "rank": obj.rank,
                "rows": [list(obj.top), list(obj.bottom)],
                "decoration": obj.kappa}
    if isinstance(obj, wf.WavefrontResult):
        return {"kind": "wavefront",
                "canonical_unramified": record_of(obj.canonical_unramified),
                "algebraic": list(obj.algebraic)}
    if isinstance(obj, fa.ExceptionalEntry):
        return {"kind": "exceptional_entry", "group": obj.group,
                "orbit_label": obj.dual_orbit_label,
                "node_mask": obj.node_mask, "factor_type": obj.factor_type,
                "family_orbit": obj.family_orbit}
    if obj == fa.USE_DEFAULT:
        return {"kind": "use_default"}
    if isinstance(obj, fa.FaithfulPair):
        return {"kind": "faithful_pair", "letter": obj.letter,
                "rank": obj.rank, "node": obj.shape.k,
                "provenance": obj.provenance,
                "families": [record_of(f) for f in obj.families],
                "orbit_pair": [list(obj.orbit_pair[0]),
                               list(obj.orbit_pair[1])]}
    raise TypeError(f"no structured form for {obj!r}")


def object_of(record: dict):
    kind = record["kind"]
    if kind == "bool":
        return bool(record["value"])
    if kind == "int":
        return int(record["value"])
    if kind == "partition":
        return tuple(record["parts"])
    if kind == "decorated_partition":
        return DecoratedPartition(tuple(record["parts"]), record["decoration"])
    if kind == "marked_orbit":
        return du.MarkedOrbit(record["letter"], tuple(record["orbit"]),
                              tuple(record["marking"]))
    if kind == "irrep":
        return sp.WeylIrrep(record["letter"], record["rank"],
                            tuple(record["first"]), tuple(record["second"]),
                            record["decoration"])
    if kind == "symbol":
        top, bottom = record["rows"]
        return sy.Symbol(tuple(top), tuple(bottom), record["row_kind"])
    if kind == "decorated_symbol":
        top, bottom = record["rows"]
        return sy.DecoratedSymbol(sy.Symbol(tuple(top), tuple(bottom),
                                            record["row_kind"]),
                                  record["decoration"])
    if kind == "family":
        top, bottom = record["rows"]
        return sp.FamilyId(record["letter"], record["rank"], tuple(top),
                           tuple(bottom), record["decoration"])
    if kind == "wavefront":
        marked = object_of(record["canonical_unramified"])
        return wf.WavefrontResult(marked, tuple(record["algebraic"]))
    if kind == "exceptional_entry":
        return fa.ExceptionalEntry(record["group"], record["orbit_label"],
                                   record["node_mask"], record["factor_type"],
                                   record["family_orbit"])
    if kind == "use_default":
        return fa.USE_DEFAULT
    raise ValueError(f"unknown record kind {kind!r}")


class _Out:
    def __init__(self, mode: str, stream):
        self.mode = mode
        self.stream = stream

    def emit(self, obj, text: str | None = None):
        if self.mode == "structured":
            print(json.dumps(record_of(obj), sort_keys=True), file=self.stream)
        else:
            print(text if text is not None else str(obj), file=self.stream)


def build_parser() -> _Parser:
    parser = _Parser(prog="nilorbits", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, *, typed=True, rank=False, node=False, **kwargs):
        p = sub.add_parser(name, **kwargs)
        if typed:
            p.add_argument("-t", "--type", required=True, dest="letter",
                           choices=("B", "C", "D"))
        if rank:
            p.add_argument("-n", "--rank", type=int, required=True)
        if node:
            p.add_argument("-k", "--node", type=int, required=True)
        p.add_argument("--mode", choices=("text", "structured"),
                       default="text")
        return p

    add("collapse", help="largest type partition below the input") \
        .add_argument("partition")
    add("dual", help="duality map on orbit partitions") \
        .add_argument("partition")
    add("special", help="is the orbit special") \
        .add_argument("partition")
    add("markable", help="markable parts of an orbit") \
        .add_argument("partition")
    p = add("reduce", help="canonical reduced marking of a subpartition")
    p.add_argument("orbit")
    p.add_argument("mu")
    p = add("springer", help="Springer symbol and character of an orbit")
    p.add_argument("partition")
    p.add_argument("--side", choices=("group", "dual"), default="group")
    p = add("family", help="family of an irreducible character")
    p.add_argument("bipartition")
    p.add_argument("--members", action="store_true")
    p = add("jinduce", rank=True, node=True,
            help="truncated induction of a special factor pair")
    p.add_argument("factor1")
    p.add_argument("factor2")
    p = add("restrict-mult", rank=True, node=True,
            help="multiplicity of a factor pair in a restriction")
    p.add_argument("character")
    p.add_argument("factor1")
    p.add_argument("factor2")
    p = add("sbar", help="marked orbit of a pseudo-Levi orbit pair")
    p.add_argument("mu")
    p.add_argument("nu")
    p = add("ds", help="Sommers dual of a pseudo-Levi orbit pair")
    p.add_argument("mu")
    p.add_argument("nu")
    add("da", help="Achar dual of a trivially marked dual orbit") \
        .add_argument("partition")
    p = add("lea", help="compare two marked orbits in the Achar order")
    p.add_argument("left")
    p.add_argument("right")
    p = add("wf", help="wavefront set from an involution-dual orbit")
    p.add_argument("--az-dual-orbit", required=True, dest="orbit")
    p = add("wf-wrep", help="wavefront set of an irreducible character")
    p.add_argument("bipartition")
    add("faithful", help="shape and family attached to a dual orbit") \
        .add_argument("partition")
    p = add("verify-faithful", help="check both faithfulness conditions")
    p.add_argument("partition", nargs="?")
    p.add_argument("-n", "--rank", type=int)
    p.add_argument("--no-twist", action="store_true",
                   help="negative control: drop the sign twist")
    p.add_argument("--witness-file")
    p = add("exceptional", typed=False,
            help="faithful pair data for an exceptional group")
    p.add_argument("group", choices=("G2", "F4", "E6", "E7", "E8"))
    p.add_argument("label")
    p.add_argument("--table", dest="table_path")
    add("enumerate", rank=True, help="all orbits of the type and rank")
    return parser


def _shape(args) -> sp.PseudoLeviShape:
    return sp.PseudoLeviShape(args.letter, args.node, args.rank)


def _factor_irreps(args, shape):
    (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
    f1, s1, k1 = _parse_pair(args.factor1)
    f2, s2, k2 = _parse_pair(args.factor2)
    return (sp.WeylIrrep(y, p, f1, s1, k1), sp.WeylIrrep(x, q, f2, s2, k2))


def _run(args, out: _Out) -> int:
    verb = args.verb
    if verb == "collapse":
        got = pt.collapse(_bare_partition(args.partition), args.letter)
        out.emit(got, format_partition(got))
    elif verb == "dual":
        got = pt.dual(_parse_partition(args.partition), args.letter)
        out.emit(got, format_partition(got))
    elif verb == "special":
        got = pt.is_special(_parse_partition(args.partition), args.letter)
        out.emit(got, "true" if got else "false")
    elif verb == "markable":
        got = pt.markable_parts(_bare_partition(args.partition), args.letter)
        out.emit(got, format_partition(got))
    elif verb == "reduce":
        got = pt.reduction(_bare_partition(args.orbit),
                           _bare_partition(args.mu), args.letter)
        out.emit(got, format_partition(got))
    elif verb == "springer":
        lam = _parse_partition(args.partition)
        conv = args.letter if args.side == "group" else \
            pt.dual_letter(args.letter)
        symbol = sp.springer_symbol(lam, conv)
        rendered = sy.render(symbol.sym if isinstance(
            symbol, sy.DecoratedSymbol) else symbol)
        first, second, kappa = sp.springer_bipartition(lam, conv)
        rep = sp.WeylIrrep(args.letter, sum(first) + sum(second), first,
                           second, kappa)
        out.emit(symbol, rendered + f"\ncharacter {rep}")
    elif verb == "family":
        rep = _parse_irrep(args.bipartition, args.letter)
        fid = sp.family_of(rep)
        if args.mode == "structured":
            out.emit(fid)
            if args.members:
                for member in sp.family_members(fid):
                    out.emit(member)
        else:
            line = f"family {fid}"
            if args.members:
                line += "  members: " + " ".join(
                    str(m) for m in sp.family_members(fid))
            out.emit(fid, line)
    elif verb == "jinduce":
        shape = _shape(args)
        rep1, rep2 = _factor_irreps(args, shape)
        got = sp.j_induce(shape, rep1, rep2)
        out.emit(got, str(got))
    elif verb == "restrict-mult":
        shape = _shape(args)
        rep = _parse_irrep(args.character, args.letter)
        rep1, rep2 = _factor_irreps(args, shape)
        got = sp.restriction_multiplicity(rep, shape, rep1, rep2)
        out.emit(got, str(got))
    elif verb == "sbar":
        got = du.sbar(_bare_partition(args.mu), _bare_partition(args.nu),
                      args.letter)
        out.emit(got, str(got))
    elif verb == "ds":
        got = du.d_S(_bare_partition(args.mu), _bare_partition(args.nu),
                     args.letter)
        out.emit(got, format_partition(got))
    elif verb == "da":
        got = du.d_A_triv(_parse_partition(args.partition), args.letter)
        out.emit(got, str(got))
    elif verb == "lea":
        got = du.le_A(_parse_marked(args.left, args.letter),
                      _parse_marked(args.right, args.letter))
        out.emit(got, "true" if got else "false")
    elif verb == "wf":
        got = wf.wf_iwahori_real(_parse_partition(args.orbit), args.letter)
        out.emit(got, str(got))
    elif verb == "wf-wrep":
        rep = _parse_irrep(args.bipartition, args.letter)
        got = wf.wf_of_wrep(rep)
        out.emit(got, str(got))
    elif verb == "faithful":
        got = fa.faithful_pair(_parse_partition(args.partition), args.letter)
        out.emit(got, str(got))
    elif verb == "verify-faithful":
        return _run_verify(args, out)
    elif verb == "exceptional":
        got = fa.exceptional_lookup(args.group, args.label, args.table_path)
        out.emit(got, str(got))
    elif verb == "enumerate":
        for lam in pt.enumerate_orbits(args.letter, args.rank):
            out.emit(lam, format_partition(lam))
    else:  # pragma: no cover
        raise UsageError(f"unknown verb {verb!r}")
    return EXIT_OK


def _run_verify(args, out: _Out) -> int:
    if (args.partition is None) == (args.rank is None):
        raise UsageError("verify-faithful needs a partition or --rank")
    twist = not args.no_twist
    if args.partition is not None:
        reports = [fa.verify_faithful(_parse_partition(args.partition),
                                      args.letter, twist)]
    else:
        reports = fa.verify_all(args.letter, args.rank, twist)
    lines = []
    ok = True
    for rep in reports:
        status = "ok" if rep.ok else "FAIL"
        lines.append(f"{rep.letter} {rep.orbit}: condition-i="
                     f"{str(rep.condition_i).lower()} condition-ii="
                     f"{str(rep.condition_ii).lower()} [{status}] "
                     f"{rep.pair}")
        for e_label, f_label in rep.witnesses:
            lines.append(f"    {e_label} <- {f_label if f_label else 'NO WITNESS'}")
        if not rep.ok:
            ok = False
    body = "\n".join(lines)
    if args.witness_file:
        with open(args.witness_file, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    if out.mode == "structured":
        for rep in reports:
            print(json.dumps({
                "kind": "faithfulness_report", "letter": rep.letter,
                "orbit": rep.orbit, "condition_i": rep.condition_i,
                "condition_ii": rep.condition_ii,
                "witnesses": [list(w) for w in rep.witnesses]},
                sort_keys=True), file=out.stream)
    else:
        print(body, file=out.stream)
    return EXIT_OK if ok else EXIT_VERIFY


def run(argv, stream=None) -> int:
    stream = stream or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = _Out(args.mode, stream)
    try:
        return _run(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PartitionError, SymbolError, AmbiguousDecorationError,
            fa.TableError, OSError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
