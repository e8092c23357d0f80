"""Construction and exhaustive verification of restriction-faithful pairs.

For a dual-side orbit, faithfulness means: some maximal pseudo-Levi shape
and family of its Weyl group hit the Achar dual of the orbit (condition i),
and every irreducible character with that dual-side Springer support meets
the sign-twisted family in restriction (condition ii).  The construction
routes through the parity-selected subpartition of the transpose; edge
shapes and orbits with a unique character fall back to the full diagram.
Exceptional groups are served from a shipped table.
"""

from __future__ import annotations

from itertools import product

from . import duality as du
from . import partitions as pt
from . import springer as sp
from .duality import _orbit
from .partitions import (DecoratedPartition, Partition, PartitionError,
                         dual_letter, format_partition, is_very_even)
# perfbench/tracer.py's self-test reaches it through this binding
from .partitions import is_type_partition  # noqa: F401

USE_DEFAULT = "use-default"


class TableError(ValueError):
    """Raised when an exceptional table is not UTF-8 text, fails its
    checksum or has a malformed row."""


def is_edge_case(lam, letter: str) -> tuple[bool, str]:
    """Shapes whose second subpartition is too small or too large to sit on
    a product shape: a single largest part over an odd run and then even
    runs (with the top gap even), and the two smallest type-D duals."""
    return _edge_case(_orbit(lam, letter), letter)


def _edge_case(bare: Partition, letter: str) -> tuple[bool, str]:
    # ``is_edge_case`` of an orbit that has already been checked
    if letter == "C":
        return False, "type C has no edge shapes"
    if letter == "D" and bare in ((1, 1), (3, 1)):
        return True, "second subpartition fills all but a rank-one slot"
    values = sorted(set(bare), reverse=True)
    mults = list(map(bare.count, values))
    # the run below the largest part may consist of zeros
    if len(values) == 1 and mults[0] == 1 and values[0] % 2 == 0:
        return True, "second subpartition is a pair of ones"
    if len(values) >= 2 and mults[0] == 1 and mults[1] % 2 == 1 \
            and all(m % 2 == 0 for m in mults[2:]) \
            and (values[0] - values[1]) % 2 == 0:
        return True, "second subpartition is a pair of ones"
    return False, "not an edge shape"


@pt._record
class FaithfulPair:
    """A shape with a family of its Weyl group, plus the orbit pair the
    family sits over."""

    letter: str
    rank: int
    shape: sp.PseudoLeviShape
    families: tuple[sp.FamilyId, sp.FamilyId]
    orbit_pair: tuple[Partition, Partition]
    provenance: str

    def __str__(self) -> str:
        where = "full diagram" if self.shape.full else str(self.shape)
        return (f"[{where}] families ({self.families[0]}, "
                f"{self.families[1]}) over "
                f"({format_partition(self.orbit_pair[0])} ; "
                f"{format_partition(self.orbit_pair[1])}) ({self.provenance})")


@pt._memo
def _family_of_orbit(orbit, letter: str) -> sp.FamilyId:
    """Family of the character E(orbit, 1) of a factor of type ``letter``,
    from its Springer rows; one derivation per factor orbit and process."""
    bare = pt.bare(orbit)
    kappa = orbit.kappa if isinstance(orbit, DecoratedPartition) else 0
    return sp._family_of_rows(*sp._staircase(bare, letter), letter,
                              sum(bare) // 2, kappa)


def _matching_dual_decoration(lam, d: Partition) -> int:
    """Decoration of the type-D dual orbit ``d`` whose sign-twisted
    character matches the unique character over ``lam``: the decoration of
    ``lam`` itself, checked by direct comparison."""
    kappa = lam.kappa if isinstance(lam, DecoratedPartition) else 0
    target = sp.rep_of_orbit(lam, "D", "D")
    twisted = sp.sgn_twist(sp.rep_of_orbit(DecoratedPartition(d, kappa),
                                           "D", "D"))
    if twisted != target:
        raise PartitionError(
            f"{format_partition(d)}:{kappa} does not twist onto {target}; "
            f"decoration transport convention is inconsistent")
    return kappa


def _route(lam, letter: str):
    """Both entry points' one path: the pair for an orbit, the orbit (a
    bare one sorted), its Achar dual and its dual fibre.  The fibre is read
    first, and its check is the orbit's only one; the Achar dual and the
    second parity subpartition mu of the transpose, whose reduction marks
    it and decides the single-character route, come from one Achar-dual
    kernel call.  The full diagram is the pair ((), Achar dual) on node 0."""
    bare = pt.as_partition(pt.bare(lam))
    lam = lam if isinstance(lam, DecoratedPartition) else bare
    fiber = sp.dual_fiber(lam, letter)
    target, mu = du._d_A_of_orbit(letter, bare)
    d = target.orbit
    edge, _reason = _edge_case(bare, letter)
    # the full diagram hits the Achar dual only when the marking is empty
    if edge or letter == "D" and is_very_even(bare) or \
            target.marking == () and len(fiber) == 1:
        kappa = _matching_dual_decoration(lam, d) \
            if letter == "D" and is_very_even(d) else 0
        mu, nu = (), DecoratedPartition(d, kappa)
        provenance = "edge-case" if edge else "unique-representation"
    else:
        nu = pt.subtract(d, mu)
        if letter == "D" and is_very_even(nu):
            raise sp.AmbiguousDecorationError(
                f"second factor {format_partition(nu)} of the construction "
                f"for {format_partition(bare)} is very even; its family is "
                f"not determined without decoration transport")
        provenance = "general-construction"
    bare_nu = pt.bare(nu)
    shape = du.pair_shape(mu, bare_nu, letter)
    y, x = shape.factor_letters
    pair = FaithfulPair(letter, shape.rank, shape,
                        (_family_of_orbit(mu, y), _family_of_orbit(nu, x)),
                        (mu, bare_nu), provenance)
    return pair, lam, target, fiber


def faithful_pair(lam, letter: str) -> FaithfulPair:
    """Shape and family for the orbit, routed by its kind: very even or
    single-character orbits use the full diagram, edge shapes use the full
    diagram, everything else the parity-subpartition product shape."""
    return _route(lam, letter)[0]


@pt._record
class FaithfulnessReport:
    """Both faithfulness conditions for one dual-side orbit, the pair they
    were checked on, and one witness entry per character of its dual
    fibre (``None`` where no pool member was found)."""

    orbit: str
    letter: str
    pair: FaithfulPair
    condition_i: bool
    condition_ii: bool
    witnesses: tuple[tuple[str, str | None], ...]

    @property
    def ok(self) -> bool:
        return self.condition_i and self.condition_ii


@pt._memo
def _sorted_members(fid: sp.FamilyId,
                    apply_sgn_twist: bool) -> tuple[sp.WeylIrrep, ...]:
    """The witness pool of one family, built once per process; the members
    are frozen, so every orbit over the family shares them.  The twisted
    pool is dealt as the family of the twists."""
    if apply_sgn_twist:
        fid = sp._twisted_family(fid)
    return tuple(sorted(sp.family_members(fid),
                        key=lambda m: (m.first, m.second, m.kappa)))


def verify_faithful(lam, letter: str, apply_sgn_twist: bool = True) -> FaithfulnessReport:
    """Check both faithfulness conditions for one dual-side orbit.

    Condition (i): the image of the constructed orbit pair equals the Achar
    dual of the orbit.  Condition (ii): every character with this dual-side
    Springer support meets the (sign-twisted) family pool in restriction;
    the first pool member with positive multiplicity is recorded as the
    witness.  The pool is the product of the two families, each sorted by
    (first, second, kappa).  On the full diagram the first family is the
    trivial character of the empty factor, and a character meets the pool
    exactly when it is a member of the second family: when its own twist
    lies in the family, so no second pool is built.
    ``apply_sgn_twist=False`` drops the twist and serves as a negative
    control."""
    pair, lam, target, fiber = _route(lam, letter)
    # every pair from ``_route`` fits its shape: ``pair_shape`` has checked it
    image = du._image(*pair.orbit_pair, letter)
    condition_i = image == target

    members1 = _sorted_members(pair.families[0], apply_sgn_twist)
    if pair.shape.full:
        (empty,) = members1
    else:
        members2 = _sorted_members(pair.families[1], apply_sgn_twist)
    witnesses = []
    condition_ii = True
    for rep in fiber:
        found = None
        if pair.shape.full:
            fid = sp._family_of_twist(rep.letter, rep.rank, rep.first,
                                      rep.second, rep.kappa) \
                if apply_sgn_twist else sp.family_of(rep)
            if fid == pair.families[1]:
                found = f"{empty} x {rep}"
        else:
            # a fresh product per character: the scan stops at the first hit
            for f1, f2 in product(members1, members2):
                if sp.restriction_multiplicity(rep, pair.shape, f1, f2) > 0:
                    found = f"{f1} x {f2}"
                    break
        witnesses.append((str(rep), found))
        if found is None:
            condition_ii = False
    return FaithfulnessReport(format_partition(lam), letter, pair,
                              condition_i, condition_ii, tuple(witnesses))


def verify_all(letter: str, rank: int, apply_sgn_twist: bool = True):
    """Reports for every dual-side orbit of the type at the given rank."""
    co = dual_letter(letter)
    out = []
    for lam in pt.enumerate_orbits(co, rank):
        out.append(verify_faithful(lam, letter, apply_sgn_twist))
    return out


# ---------------------------------------------------------------------------
# exceptional groups: shipped table and label catalogs

@pt._record
class ExceptionalEntry:
    """One row of the shipped exceptional-group table."""

    group: str
    dual_orbit_label: str
    node_mask: str
    factor_type: str
    family_orbit: str

    def __str__(self) -> str:
        return (f"{self.group} {self.dual_orbit_label}: nodes {self.node_mask}"
                f" type {self.factor_type}, family orbit {self.family_orbit}")


def _normalize_label(label: str) -> str:
    return label.replace("_", "").replace(" ", "")


_CATALOG = {
    "G2": ("0", "A1", "A1~", "G2(a1)", "G2"),
    "F4": ("0", "A1", "A1~", "A1+A1~", "A2", "A2~", "A2+A1~", "B2",
           "A2~+A1", "C3(a1)", "F4(a3)", "B3", "C3", "F4(a2)", "F4(a1)",
           "F4"),
    "E6": ("0", "A1", "2A1", "3A1", "A2", "A2+A1", "2A2", "A2+2A1",
           "2A2+A1", "A3", "A3+A1", "D4(a1)", "A4", "D4", "A4+A1", "A5",
           "D5(a1)", "E6(a3)", "D5", "E6(a1)", "E6"),
    "E7": ("0", "A1", "2A1", "(3A1)''", "(3A1)'", "4A1", "A2", "A2+A1",
           "A2+2A1", "A2+3A1", "A3", "2A2", "2A2+A1", "(A3+A1)''",
           "(A3+A1)'", "D4(a1)", "A3+2A1", "D4", "D4(a1)+A1", "A3+A2",
           "A4", "A3+A2+A1", "(A5)''", "D4+A1", "A4+A1", "D5(a1)", "A4+A2",
           "(A5)'", "A5+A1", "D5(a1)+A1", "D6(a2)", "E6(a3)", "D5",
           "E7(a5)", "A6", "D5+A1", "D6(a1)", "E7(a4)", "D6", "E6(a1)",
           "E6", "E7(a3)", "E7(a2)", "E7(a1)", "E7"),
    "E8": ("0", "A1", "2A1", "3A1", "4A1", "A2", "A2+A1", "A2+2A1",
           "A2+3A1", "A3", "2A2", "2A2+A1", "A3+A1", "D4(a1)", "D4",
           "2A2+2A1", "A3+2A1", "D4(a1)+A1", "A3+A2", "A4", "A3+A2+A1",
           "D4+A1", "D4(a1)+A2", "A4+A1", "2A3", "D5(a1)", "A4+2A1",
           "A4+A2", "A5", "D5(a1)+A1", "A4+A2+A1", "D4+A2", "E6(a3)",
           "D5", "A4+A3", "A5+A1", "D5(a1)+A2", "D6(a2)", "E6(a3)+A1",
           "E7(a5)", "D5+A1", "E8(a7)", "A6", "D6(a1)", "A6+A1", "E7(a4)",
           "E6(a1)", "D5+A2", "D6", "E6", "D7(a2)", "A7", "E6(a1)+A1",
           "E7(a3)", "E8(b6)", "D7(a1)", "E6+A1", "E7(a2)", "E8(a6)",
           "D7", "E8(b5)", "E7(a1)", "E8(a5)", "E8(b4)", "E7", "E8(a4)",
           "E8(a3)", "E8(a2)", "E8(a1)", "E8"),
}

def _catalog_key(label: str) -> str:
    """Catalog labels use X~ for the short-root classes; accept ~X too."""
    flat = _normalize_label(label)
    if flat.startswith("~"):
        flat = flat[1:] + "~"
    return flat


def load_exceptional_table(path: str | None = None) -> list[ExceptionalEntry]:
    """Parse and checksum the shipped table (once per process) or an
    override file (on every call)."""
    if path is None:
        return list(_shipped_table())
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise TableError(f"table {path} is not UTF-8 text") from None
    return _parse_table(text)


@pt._memo
def _shipped_table() -> tuple[ExceptionalEntry, ...]:
    # imported here, like hashlib below, so that the CLI import skips it
    from importlib import resources
    return tuple(_parse_table(resources.files("nilorbits").joinpath(
        "exceptional_tables.txt").read_text()))


def _parse_table(text: str) -> list[ExceptionalEntry]:
    # imported here, so that a CLI process that reads no table skips it
    import hashlib
    claimed = None
    body = []
    for line in text.splitlines():
        if line.startswith("# sha256:"):
            claimed = line.split(":", 1)[1].strip()
        elif line.startswith("#") or not line.strip():
            continue
        else:
            body.append(line)
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
    if claimed != digest:
        raise TableError(f"exceptional table checksum mismatch: file says "
                         f"{claimed}, content hashes to {digest}")
    out = []
    for line in body:
        fields = line.split("|")
        if len(fields) != 5:
            raise TableError(f"exceptional table row {line!r} has "
                             f"{len(fields)} fields, expected 5")
        out.append(ExceptionalEntry(*fields))
    return out


def exceptional_lookup(group: str, dual_orbit_label: str,
                       path: str | None = None):
    """Table row for the orbit, or ``use-default`` for every other valid
    orbit label (always for G2 and E6)."""
    if group not in _CATALOG:
        raise PartitionError(f"group must be one of "
                             f"{', '.join(sorted(_CATALOG))}, got {group!r}")
    key = _catalog_key(dual_orbit_label)
    valid = {_catalog_key(v) for v in _CATALOG[group]}
    if key not in valid:
        raise PartitionError(
            f"unknown orbit label {dual_orbit_label!r} for {group}; valid "
            f"labels: {', '.join(_CATALOG[group])}")
    for entry in load_exceptional_table(path):
        if entry.group == group and \
                _catalog_key(entry.dual_orbit_label) == key:
            return entry
    return USE_DEFAULT
