"""Springer correspondence, families and induction for the classical Weyl
groups.

Irreducible characters of the hyperoctahedral group of rank n are indexed by
ordered bipartitions of n; those of the even-signed permutation group by
unordered bipartitions, decorated when the halves agree.  The recipes below
translate a nilpotent-orbit partition into the a-symbol class of its Springer
character with trivial local system, and back.

Public entry points check their arguments; internal producers use the
trusted path: the character table behind ``irreps``, class and family
members and sign twists, built from pairs already canonical with the right
total, skip ``WeylIrrep``'s checks.  ``springer_support`` reads the orbit
in one pass on rows, and dual fibres, families and family members go from
rows to characters: none of them builds an intermediate symbol.
"""

from __future__ import annotations

from operator import le, sub

from . import partitions as pt
from . import symbols as sy
from .partitions import (DecoratedPartition, Partition, PartitionError,
                         as_partition, dual_letter, format_partition,
                         is_type_partition)
from .symbols import DecoratedSymbol, Symbol, SymbolError


class AmbiguousDecorationError(ValueError):
    """Raised when an operation would need the decoration bookkeeping that
    is deliberately not modelled (very even orbits, degenerate pairs)."""


@pt._record
class WeylIrrep:
    """An irreducible character avatar: ordered bipartition for types B and
    C, unordered decorated bipartition for type D (canonical order, larger
    half first)."""

    letter: str
    rank: int
    first: Partition
    second: Partition
    kappa: int = 0

    def __post_init__(self):
        if self.letter not in pt.LETTERS:
            raise PartitionError(f"bad type letter {self.letter!r}")
        if self.kappa not in (0, 1):
            raise PartitionError(f"decoration must be 0 or 1, got "
                                 f"{self.kappa}")
        first, second, kappa = _canonical_halves(
            self.letter, as_partition(self.first), as_partition(self.second),
            self.kappa)
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "kappa", kappa)
        if sum(self.first) + sum(self.second) != self.rank:
            raise PartitionError(
                f"bipartition {self} has total "
                f"{sum(self.first) + sum(self.second)}, expected {self.rank}")

    @property
    def degenerate(self) -> bool:
        return self.letter == "D" and self.first == self.second and \
            bool(self.first)

    _lifts = None  # filled by ``_fill_lifts`` outside the fields

    def __str__(self) -> str:
        body = f"{_half_text(self.first)};{_half_text(self.second)}"
        if self.letter == "D":
            return f"{{{body}}}:{self.kappa}" if self.degenerate else \
                f"{{{body}}}"
        return f"({body})"


@pt._memo
def _half_text(half: Partition) -> str:
    # ``format_partition`` of a canonical half, once per half and process
    return format_partition(half)


def _canonical_halves(letter: str, first: Partition, second: Partition,
                      kappa: int) -> tuple[Partition, Partition, int]:
    # ``WeylIrrep``'s fields from canonical halves: in type D the halves in
    # ``_ordered_pair`` order, a decoration only when degenerate
    if letter != "D":
        return first, second, 0
    first, second = pt._ordered_pair(first, second)
    return first, second, kappa if first == second and first else 0


def _fill_lifts(rep: WeylIrrep) -> tuple[tuple[int, Partition, Partition], ...]:
    """``rep._lifts``: its signed-group lifts as (size of first half, first,
    second).  A type-D character with distinct halves lifts to the two
    orderings; a degenerate one induces irreducibly to its single ordered
    pair, for either decoration, so restriction is exact per decoration."""
    size = sum(rep.first)
    lifts = ((size, rep.first, rep.second),)
    if rep.letter == "D" and rep.first != rep.second:
        lifts += ((rep.rank - size, rep.second, rep.first),)
    object.__setattr__(rep, "_lifts", lifts)
    return lifts


def _irrep(letter: str, rank: int, first: Partition, second: Partition,
           kappa: int) -> WeylIrrep:
    # the trusted ``WeylIrrep`` of canonical partitions with total ``rank``
    return pt._trusted(WeylIrrep, letter, rank,
                       *_canonical_halves(letter, first, second, kappa))


def irreps(letter: str, rank: int) -> list[WeylIrrep]:
    """All irreducible character avatars of the rank-n group of the type,
    as a fresh list.  The characters themselves are built once per group
    and process and shared by every call, so what they cache (their
    restriction lifts) is computed once."""
    return list(_irreps(letter, rank))


@pt._memo
def _irreps(letter: str, rank: int) -> tuple[WeylIrrep, ...]:
    # the first character goes through ``WeylIrrep``'s checks (a bad letter
    # above all); the rest have canonical halves of total ``rank``
    out: list[WeylIrrep] = []
    parts = [tuple(pt.integer_partitions(a)) for a in range(rank + 1)]
    for a in range(rank + 1):
        for i, lam in enumerate(parts[a]):
            for j, mu in enumerate(parts[rank - a]):
                if letter == "D" and (2 * a - rank, i) > (0, j):
                    continue  # type D has dealt it as (mu, lam)
                degenerate = letter == "D" and lam == mu and lam
                for kappa in (0, 1) if degenerate else (0,):
                    make = _irrep if out else WeylIrrep
                    out.append(make(letter, rank, lam, mu, kappa))
    return tuple(out)


def sgn_twist(rep: WeylIrrep) -> WeylIrrep:
    """Tensor with the sign character on the avatar level."""
    a, b, kappa = sy.sgn_twist_pair(rep.first, rep.second, rep.letter,
                                    rep.kappa)
    # transposes of canonical partitions, with the total of ``rep``
    return _irrep(rep.letter, rep.rank, a, b, kappa)


def rep_asymbol(rep: WeylIrrep, k: int | None = None) -> Symbol:
    """Ordered a-symbol of the avatar (underlined row order for type D)."""
    return sy.symbol_of_pair(rep.first, rep.second, rep.letter, "a", k)


def _staircase(lam, letter: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The Springer recipe's a-symbol rows: pad the parts with a 0 to odd
    length for B and C and even length for D, add 0, 1, 2, ... in increasing
    order and split the entries by parity, halved, odd entries on top
    except in type C.  A negative part is refused as ``Symbol`` refuses the
    rows."""
    padded = sorted(lam)
    if len(padded) % 2 != (letter != "D"):
        padded = [0] + padded
    entries = [v + i for i, v in enumerate(padded)]
    odd = tuple([(e - 1) // 2 for e in entries if e % 2])
    even = tuple([e // 2 for e in entries if e % 2 == 0])
    rows = (even, odd) if letter == "C" else (odd, even)
    if min(lam, default=0) < 0:
        sy._check_rows(*rows)
    return rows


def springer_symbol(lam, letter: str):
    """a-symbol class of the Springer character with trivial local system
    over the orbit ``lam``: pad the parts to the type's length parity, add
    0, 1, 2, ... and split by parity.  Returns an ordered symbol for B and C
    and a decorated symbol for D."""
    kappa = lam.kappa if isinstance(lam, DecoratedPartition) else 0
    lam = pt.bare(lam)
    pt.assert_type_partition(lam, letter)
    sym = Symbol(*_staircase(lam, letter), "a")
    return DecoratedSymbol(sym, kappa) if letter == "D" else sym


def springer_bipartition(lam, letter: str) -> tuple[Partition, Partition, int]:
    """Bipartition avatar of the Springer character of ``lam``, read from
    the rows of ``springer_symbol`` after its refusals: the rows are
    underlined in type D, where the decoration stays only on equal rows."""
    pt.assert_type_partition(pt.bare(lam), letter)
    top, bottom = _staircase(pt.bare(lam), letter)
    if letter == "D" and sum(top) < sum(bottom):
        top, bottom = bottom, top
    return (*sy._pair_of_rows(top, bottom, "a", letter),
            lam.kappa if isinstance(lam, DecoratedPartition) and
            top == bottom else 0)


def rep_of_orbit(lam, conv_letter: str, ambient_letter: str) -> WeylIrrep:
    """The character E(lam, 1) computed in the given symbol convention and
    wrapped as a character of the ambient group."""
    first, second, kappa = springer_bipartition(lam, conv_letter)
    rank = sum(first) + sum(second)
    return WeylIrrep(ambient_letter, rank, first, second, kappa)


def _orbit_from_rows(xi, eta, letter: str):
    merged = sorted([2 * x + 1 for x in xi] + [2 * y for y in eta])
    parts = list(map(sub, merged, range(len(merged))))
    if not all(map(le, [0] + parts, parts)):  # 0 <= parts[0] <= parts[1]...
        return None
    lam = as_partition(parts)
    try:
        if not is_type_partition(lam, letter):
            return None
    except PartitionError:
        return None
    return lam


def _orbit_of_rows(top, bottom, letter: str) -> Partition:
    # the Springer recipe inverted on the rows of an undecorated a-symbol:
    # the bare orbit, refused with the symbol (top;bottom) in the message
    if letter == "D":
        options = {_orbit_from_rows(top, bottom, "D"),
                   _orbit_from_rows(bottom, top, "D")}
        options.discard(None)
        if len(options) != 1:
            raise SymbolError(f"{pt._trusted(Symbol, top, bottom, 'a')} "
                              f"does not invert to a unique D-partition "
                              f"(got {options})")
        return options.pop()
    lam = _orbit_from_rows(top, bottom, "B") if letter == "B" else \
        _orbit_from_rows(bottom, top, "C")
    if lam is None:
        raise SymbolError(f"{pt._trusted(Symbol, top, bottom, 'a')} is not "
                          f"a Springer-recipe symbol of type {letter}")
    return lam


def springer_support(rep: WeylIrrep, side: str = "group"):
    """The orbit whose Springer character class contains the avatar: returns
    a partition for B/C conventions, a decorated partition for D.

    ``side="group"`` uses the convention of the ambient type, ``side="dual"``
    the convention of the dual type.  One pass on rows, building no symbol:
    the avatar's minimal s-symbol rows, dealt into the monotonic rows, give
    the a-rows (column j loses j, and the C lead on the bottom row), and
    those the orbit.  That size need not be minimal for the monotonic
    bipartition, but a padding column only adds zero parts."""
    if side not in ("group", "dual"):
        raise PartitionError(f"side must be 'group' or 'dual', got {side!r}")
    conv = rep.letter if side == "group" else dual_letter(rep.letter)
    top, bottom = sy._rows_of_pair(rep.first, rep.second, conv, "s")
    return _support_of_entries(tuple(sorted(top + bottom)), conv, rep.kappa)


def _support_of_entries(entries, conv: str, kappa: int):
    # ``springer_support`` from the sorted entries of a character's minimal
    # s-symbol in convention ``conv`` and its decoration (0 unless the
    # character is degenerate): all it reads of the character, and the same
    # for its whole similarity class; the convention fixes the defect
    top, bottom = sy._monotonic_rows(entries, int(conv != "D"), "s", conv)
    _, lead = sy._stair("s", conv)
    a_top = list(map(sub, top, range(len(top))))
    a_bottom = list(map(sub, bottom, range(lead, lead + len(bottom))))
    # rows of a monotonic s-symbol step by at least 2, so the a-rows
    # increase and a part, an a-row entry less its column, is least first
    if min(a_top[:1] + a_bottom[:1], default=0) < 0:
        raise SymbolError(f"{pt._trusted(Symbol, top, bottom, 's')} is not "
                          f"in the image of a bipartition")
    if conv != "D":
        return _orbit_of_rows(a_top, a_bottom, conv)
    # the underlined row order, as ``DecoratedSymbol`` stores it; the
    # decoration stays only on a degenerate character's very even orbit
    if sum(a_top) < sum(a_bottom):
        a_top, a_bottom = a_bottom, a_top
    lam = _orbit_of_rows(a_top, a_bottom, "D")
    return pt._trusted(DecoratedPartition, lam,
                       kappa if pt.is_very_even(lam) else 0)


def dual_fiber(lam, letter: str) -> list[WeylIrrep]:
    """All characters of the rank-n type-``letter`` group whose dual-side
    Springer support is ``lam``: the similarity class of its dual-side
    s-symbol, refused and dealt as by ``enumerate_class``, on rows.  The
    orbit's one check is its Springer pair's; the s-rows of that pair, at
    the size that holds the whole class, are dealt once per unordered
    type-D pair, and the characters share the orbit's total."""
    conv = dual_letter(letter)
    first, second, kappa = springer_bipartition(lam, conv)
    k = max(sy.min_size_pair(first, second, conv),
            len(pt.bare(lam)) // 2 + 1)
    top, bottom = sy._rows_of_pair(first, second, conv, "s", k)
    sy._monotonic_rows(sorted(top + bottom), len(top) - len(bottom), "s",
                       conv)
    rank = sum(first) + sum(second)
    return [_irrep(letter, rank, *sy._pair_of_rows(t, b, "s", conv), kappa)
            for t, b in sy._deals(top, bottom, "s", conv, unordered=True)]


def is_special_rep(rep: WeylIrrep) -> bool:
    """Special characters are the ones with a monotonic a-symbol."""
    return sy.is_monotonic(rep_asymbol(rep))


@pt._record
class FamilyId:
    """Canonical name of a family: the minimal monotonic a-symbol of the
    class, plus the decoration for a degenerate type-D class."""

    letter: str
    rank: int
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    kappa: int = 0

    def __str__(self) -> str:
        body = f"({','.join(map(str, self.top))};" \
               f"{','.join(map(str, self.bottom))})"
        if self.letter == "D" and self.top == self.bottom and self.top:
            return f"{body}:{self.kappa}"
        return body


def family_of(rep: WeylIrrep) -> FamilyId:
    return _family_of_rows(
        *sy._rows_of_pair(rep.first, rep.second, rep.letter, "a"),
        rep.letter, rep.rank, rep.kappa)


def _family_of_rows(top, bottom, letter: str, rank: int,
                    kappa: int) -> FamilyId:
    # the family of a-symbol rows at any size: the normalized monotonic
    # deal of the sorted entries.  In type D the deal puts the larger entry
    # of each column on top, so it is underlined
    top, bottom = sy._stripped(*sy._monotonic_rows(
        tuple(sorted(top + bottom)), len(top) - len(bottom), "a", letter),
        "a", letter)
    return FamilyId(letter, rank, top, bottom,
                    kappa if top == bottom and top else 0)


def family_members(fid: FamilyId) -> list[WeylIrrep]:
    """The complete family: the characters of all a-symbols similar to the
    family's monotonic a-symbol, refused and dealt as by
    ``similar_symbols`` (plus the decoration rule in type D), on rows.
    Each unordered type-D pair is dealt once; a deal keeps the defect, so
    rows not of the type's shape have no member."""
    sy._check_rows(fid.top, fid.bottom)
    members = [_irrep(fid.letter, fid.rank,
                      *sy._pair_of_rows(t, b, "a", fid.letter), fid.kappa)
               for t, b in sy._deals(fid.top, fid.bottom, "a", fid.letter,
                                     unordered=True)]
    if members:  # the checks of a character, of the type and the total
        WeylIrrep(fid.letter, fid.rank, members[0].first, members[0].second,
                  fid.kappa)
    return members


def _twisted_family(fid: FamilyId) -> FamilyId:
    # the family of the sign twists of a checked family's members: the twist
    # permutes the families (Lusztig, *Characters of reductive groups over a
    # finite field*, 1984), so it is the family of the special member's twist
    special = _irrep(fid.letter, fid.rank,
                     *sy._pair_of_rows(fid.top, fid.bottom, "a", fid.letter),
                     fid.kappa)
    return family_of(sgn_twist(special))


@pt._record
class PseudoLeviShape:
    """Maximal pseudo-Levi shape: delete node k of the extended diagram of
    the rank-n type.  The factor types are D_k x B_(n-k) for B, C_k x C_(n-k)
    for C and D_k x D_(n-k) for D; the shapes with k = 1 (and k = n-1 in
    type D) degenerate to the whole algebra and carry no product structure."""

    letter: str
    k: int
    rank: int

    def __post_init__(self):
        if self.letter not in pt.LETTERS:
            raise PartitionError(f"bad type letter {self.letter!r}")
        if not 0 <= self.k <= self.rank:
            raise PartitionError(f"node index {self.k} outside 0..{self.rank}")
        # the factor letters and ranks outside the fields; None if degenerate
        object.__setattr__(self, "_factors", None if self.degenerate else (
            ("D", "B") if self.letter == "B" else (self.letter, self.letter),
            (self.k, self.rank - self.k)))

    @property
    def degenerate(self) -> bool:
        if self.letter == "B":
            return self.k == 1
        if self.letter == "D":
            return self.rank >= 2 and self.k in (1, self.rank - 1)
        return False

    @property
    def factor_letters(self) -> tuple[str, str]:
        return self._product()[0]

    @property
    def factor_ranks(self) -> tuple[int, int]:
        return self._product()[1]

    def _product(self) -> tuple[tuple[str, str], tuple[int, int]]:
        if self._factors is None:
            raise PartitionError(
                f"shape {self} is the whole algebra, not a product")
        return self._factors

    @property
    def full(self) -> bool:
        """True for the shape whose first factor is trivial (the finite
        diagram itself)."""
        return self.k == 0

    def __str__(self) -> str:
        if self.degenerate:
            return f"{self.letter}{self.rank} (node {self.k}, degenerate)"
        y, x = self.factor_letters
        return f"{y}{self.k} x {x}{self.rank - self.k}"


def product_shapes(letter: str, rank: int) -> list[PseudoLeviShape]:
    """All maximal shapes with a genuine two-factor product structure."""
    return [s for s in (PseudoLeviShape(letter, k, rank)
                        for k in range(rank + 1)) if not s.degenerate]


def _factor_check(shape: PseudoLeviShape, r1: WeylIrrep, r2: WeylIrrep) -> None:
    (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
    if (r1.letter, r1.rank) != (y, p) or (r2.letter, r2.rank) != (x, q):
        raise PartitionError(
            f"factors ({r1.letter}{r1.rank}, {r2.letter}{r2.rank}) do not "
            f"match the shape {shape}")


def j_induce(shape: PseudoLeviShape, rep1: WeylIrrep, rep2: WeylIrrep,
             k: int | None = None) -> WeylIrrep:
    """Truncated induction of a special pair through symbol addition: the
    dual-type s-symbol of the result is the entrywise sum of the factor
    a-symbols at the common size ``k`` (the minimal one by default), the
    first factor shrieked in type B.  The result does not depend on ``k``."""
    _factor_check(shape, rep1, rep2)
    if not (is_special_rep(rep1) and is_special_rep(rep2)):
        raise PartitionError(
            f"truncated induction through symbol addition needs special "
            f"factors, got {rep1} and {rep2}")
    conv_out = dual_letter(shape.letter)
    k_min = max(sy.min_size_pair(rep1.first, rep1.second, rep1.letter),
                sy.min_size_pair(rep2.first, rep2.second, rep2.letter), 1)
    if k is None:
        k = k_min
    elif k < k_min:
        raise PartitionError(f"size {k} is below the minimal common "
                             f"size {k_min}")
    a1 = rep_asymbol(rep1, k=k)
    a2 = rep_asymbol(rep2, k=k)
    if shape.letter == "B":
        a1 = sy.shriek(a1)
    total = sy.add(a1, a2)
    if not (sy.is_type_symbol(total, conv_out) and
            sy.symbol_size(total, conv_out) == shape.rank):
        raise PartitionError(f"the sum {total} of the symbols of {rep1} and "
                             f"{rep2} at size {k} is not a {conv_out}"
                             f"{shape.rank} symbol")
    f, s = sy.pair_of_symbol(total, conv_out)
    if conv_out == "D" and f == s and f:
        sy._log(__name__, "DEBUG", "induced symbol %s has equal rows; "
                "returning decoration 0", total)
    return WeylIrrep(shape.letter, shape.rank, f, s)


def _inside(nu: Partition, lam: Partition) -> bool:
    """True if the diagram of nu lies inside the diagram of lam."""
    return len(nu) <= len(lam) and all(map(le, nu, lam))


def _strip(lam: Partition, nu: Partition, row: bool) -> int:
    """1 if lam/nu, for nu inside lam, is a horizontal strip (``row``: no
    two cells in a column) or a vertical strip (no two cells in a row)."""
    if row:
        return int(len(lam) <= len(nu) + 1 and all(map(le, lam[1:], nu)))
    return int(max(map(sub, lam, nu + (0,) * (len(lam) - len(nu))),
                   default=0) <= 1)


@pt._memo
def lr_coefficient(mu1: Partition, mu2: Partition, mu: Partition) -> int:
    """Littlewood-Richardson coefficient: the number of lattice-word skew
    tableaux of shape mu/mu1 and content mu2.  When either factor is empty,
    one row or one column it is 0 or 1 by Pieri's rule (the coefficient is
    symmetric in the factors); otherwise it is counted by a depth-first
    search.  Memoised per process, so the arguments must be hashable
    (tuples)."""
    mu1, mu2, mu = as_partition(mu1), as_partition(mu2), as_partition(mu)
    if sum(mu1) + sum(mu2) != sum(mu):
        raise PartitionError(
            f"sizes must add up: |{format_partition(mu1)}| + "
            f"|{format_partition(mu2)}| != |{format_partition(mu)}|")
    if not _inside(mu1, mu):
        return 0
    if len(mu2) < 2 or mu2[0] == 1:
        return _strip(mu, mu1, len(mu2) < 2)
    if len(mu1) < 2 or mu1[0] == 1:
        return _strip(mu, mu2, len(mu1) < 2) if _inside(mu2, mu) else 0
    rows, m = len(mu), len(mu2)
    inner = mu1 + (0,) * (rows - len(mu1))
    cells = [(r, c) for r in range(rows) for c in range(mu[r] - 1, inner[r] - 1, -1)]
    fill = [[0] * part for part in mu]
    # counts[v] is how often v is placed; counts[0] exceeds every count
    counts = [len(cells)] + [0] * m
    # depth first over the cells in order, on its own stack so that the
    # recursion limit does not bound the number of cells: ``placed`` holds
    # the value and the largest candidate of each cell filled so far, and
    # ``v`` up to ``hi`` are the candidates left for the next cell; the
    # first cell read can only hold 1
    total, placed, v, hi = 0, [], 1, 1
    while True:
        # a candidate whose content is used up, or that would stop the
        # reverse reading word from being a lattice word, is skipped
        while v <= hi and (counts[v] >= mu2[v - 1] or
                           counts[v] >= counts[v - 1]):
            v += 1
        if v <= hi:
            r, c = cells[len(placed)]
            fill[r][c] = v
            counts[v] += 1
            placed.append((v, hi))
            if len(placed) < len(cells):
                # above the entry over the cell, and at most the entry to
                # its right (which is at most the number of values) and the
                # row number
                r, c = cells[len(placed)]
                v = fill[r - 1][c] + 1 if r and c >= inner[r - 1] else 1
                hi = min(fill[r][c + 1] if c + 1 < mu[r] else m, r + 1)
                continue
            total += 1
        elif not placed:
            return total
        v, hi = placed.pop()
        counts[v] -= 1
        v += 1


def restriction_multiplicity(rep: WeylIrrep, shape: PseudoLeviShape,
                             rep1: WeylIrrep, rep2: WeylIrrep) -> int:
    """Multiplicity of the factor pair in the restriction of ``rep`` to the
    shape, as a sum of products of Littlewood-Richardson coefficients over
    the hyperoctahedral lifts of the type-D factors, read off each
    character's ``_lifts`` (filled on first use) and the shape's
    ``_factors``; a split whose sizes do not add up contributes nothing,
    and the second coefficient is only looked up when the first is non-zero.

    Refused, in this order: a character of another group than the shape's
    ambient group, a degenerate shape, factors of other groups than the
    shape's (all ``PartitionError``), and a degenerate ambient character
    (very even dual support; ``AmbiguousDecorationError``), whose
    restriction is not determined by the underlying pair alone."""
    if rep.letter != shape.letter or rep.rank != shape.rank:
        raise PartitionError(f"{rep} is not a character of the ambient "
                             f"group of {shape}")
    (y, x), (p, q) = shape._factors or shape._product()
    if rep1.letter != y or rep1.rank != p or rep2.letter != x or \
            rep2.rank != q:
        _factor_check(shape, rep1, rep2)
    if rep.letter == "D" and rep.degenerate:
        raise AmbiguousDecorationError(
            f"{rep} has very even dual support; restriction is not resolved "
            f"per decoration")
    size, lam, mu = (rep._lifts or _fill_lifts(rep))[0]
    total = 0
    for s1, a1, b1 in rep1._lifts or _fill_lifts(rep1):
        for s2, a2, b2 in rep2._lifts or _fill_lifts(rep2):
            if s1 + s2 != size:
                continue
            c = lr_coefficient(a1, a2, lam)
            if c:
                total += c * lr_coefficient(b1, b2, mu)
    return total
