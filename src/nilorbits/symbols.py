"""Two-row integer symbols attached to bipartitions.

An s-symbol has rows increasing in steps of at least 2, an a-symbol has
strictly increasing rows.  For the hyperoctahedral types the defect
(top length minus bottom length) is 1; for type D it is 0 and the two rows
are unordered, with a decoration in {0, 1} when they coincide.

Two equivalences matter: ``shift`` equivalence (written elsewhere with a
squiggly double tilde) prepends a normalized column to both rows and is the
identity on the underlying bipartition; ``similar`` symbols share the
multiset of entries at a common size.  Similarity classes of s-symbols
collect the characters with a fixed Springer support, similarity classes of
a-symbols are the families.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations, product

from .partitions import (Partition, as_partition, canonical_pair,
                         format_partition)

log = logging.getLogger(__name__)


class SymbolError(ValueError):
    """Raised when an argument violates a symbol-level precondition."""


@dataclass(frozen=True)
class Symbol:
    """An ordered two-row symbol; ``kind`` is "s" (gap 2) or "a" (gap 1)."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in ("s", "a"):
            raise SymbolError(f"kind must be 's' or 'a', got {self.kind!r}")
        for row in (self.top, self.bottom):
            if row and row[0] < 0:
                raise SymbolError(f"negative entry in {row}")
            if any(row[i + 1] <= row[i] for i in range(len(row) - 1)):
                raise SymbolError(f"row {row} is not strictly increasing")

    def gap_ok(self) -> bool:
        """Rows increase in steps of at least 2 (automatic for a-symbols)."""
        gap = 2 if self.kind == "s" else 1
        return all(row[i + 1] - row[i] >= gap
                   for row in (self.top, self.bottom)
                   for i in range(len(row) - 1))

    @property
    def defect(self) -> int:
        return len(self.top) - len(self.bottom)

    def entries(self) -> tuple[int, ...]:
        """Multiset of all entries, sorted."""
        return tuple(sorted(self.top + self.bottom))

    def swapped(self) -> "Symbol":
        return Symbol(self.bottom, self.top, self.kind)

    def __str__(self) -> str:
        row = lambda r: ",".join(map(str, r))
        return f"({row(self.top)};{row(self.bottom)})"


def underline(sym: Symbol) -> Symbol:
    """Row order used for defect-0 symbols: larger row sum on top, ties
    keeping the given order."""
    if sum(sym.top) >= sum(sym.bottom):
        return sym
    return sym.swapped()


@dataclass(frozen=True)
class DecoratedSymbol:
    """Unordered defect-0 symbol with a decoration, stored underlined.  The
    decoration is normalized to 0 unless the rows are equal."""

    sym: Symbol
    kappa: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sym", underline(self.sym))
        if self.sym.defect != 0:
            raise SymbolError("a decorated symbol must have defect 0")
        if self.kappa not in (0, 1):
            raise SymbolError(f"decoration must be 0 or 1, got {self.kappa}")
        if self.sym.top != self.sym.bottom:
            object.__setattr__(self, "kappa", 0)

    @property
    def degenerate(self) -> bool:
        return self.sym.top == self.sym.bottom

    def __str__(self) -> str:
        body = "{%s;%s}" % (",".join(map(str, self.sym.top)),
                            ",".join(map(str, self.sym.bottom)))
        return f"{body}:{self.kappa}" if self.degenerate else body


def _rho(row, step: int, shift: int) -> int:
    return sum(v - step * i - shift for i, v in enumerate(row))


def symbol_size(sym: Symbol, letter: str) -> int:
    """The integer n with sym attached to a rank-n group of the given type."""
    step = 2 if sym.kind == "s" else 1
    shift = 1 if (sym.kind == "s" and letter == "C") else 0
    return _rho(sym.top, step, 0) + _rho(sym.bottom, step, shift)


def has_type_shape(sym: Symbol, letter: str) -> bool:
    """Defect 1 for B and C (s-symbols of type C also need a positive first
    bottom entry), defect 0 for D; row gaps are not checked."""
    if letter in ("B", "C"):
        if sym.defect != 1:
            return False
        if letter == "C" and sym.kind == "s" and sym.bottom \
                and sym.bottom[0] == 0:
            return False
        return True
    return sym.defect == 0


def is_type_symbol(sym: Symbol, letter: str) -> bool:
    """Type shape plus the row-gap rule of the kind."""
    return sym.gap_ok() and has_type_shape(sym, letter)


def assert_type_symbol(sym: Symbol, letter: str) -> None:
    if not is_type_symbol(sym, letter):
        raise SymbolError(f"{sym} is not a valid type-{letter} "
                          f"{sym.kind}-symbol")


def pad_once(sym: Symbol, letter: str) -> Symbol:
    """One shift-equivalence step up (adds one column)."""
    step = 2 if sym.kind == "s" else 1
    lead = 1 if (sym.kind == "s" and letter == "C") else 0
    return Symbol((0,) + tuple(v + step for v in sym.top),
                  (lead,) + tuple(v + step for v in sym.bottom), sym.kind)


def strip_once(sym: Symbol, letter: str):
    """One shift-equivalence step down, or None when already minimal."""
    step = 2 if sym.kind == "s" else 1
    lead = 1 if (sym.kind == "s" and letter == "C") else 0
    if not sym.top or not sym.bottom:
        return None
    if sym.top[0] != 0 or sym.bottom[0] != lead:
        return None
    return Symbol(tuple(v - step for v in sym.top[1:]),
                  tuple(v - step for v in sym.bottom[1:]), sym.kind)


def normalize(sym: Symbol, letter: str) -> Symbol:
    """Minimal representative of the shift class."""
    while True:
        smaller = strip_once(sym, letter)
        if smaller is None:
            return sym
        sym = smaller


def at_size(sym: Symbol, letter: str, k: int) -> Symbol:
    """The shift-class representative with bottom row of length k."""
    sym = normalize(sym, letter)
    if len(sym.bottom) > k:
        raise SymbolError(f"no representative with bottom length {k}; "
                          f"the minimal one has {len(sym.bottom)}")
    while len(sym.bottom) < k:
        sym = pad_once(sym, letter)
    return sym


def shift_equal(s1: Symbol, s2: Symbol, letter: str) -> bool:
    return normalize(s1, letter) == normalize(s2, letter)


def similar(s1: Symbol, s2: Symbol, letter: str) -> bool:
    """Equal entry multisets once brought to a common size."""
    if s1.kind != s2.kind:
        raise SymbolError("cannot compare symbols of different kinds")
    k = max(len(normalize(s1, letter).bottom), len(normalize(s2, letter).bottom))
    return at_size(s1, letter, k).entries() == at_size(s2, letter, k).entries()


def similar_decorated(d1: DecoratedSymbol, d2: DecoratedSymbol, letter: str = "D") -> bool:
    """Type-D similarity: degenerate symbols also need equal decorations."""
    if d1.degenerate != d2.degenerate:
        return similar(d1.sym, d2.sym, letter)
    if d1.degenerate and d1.kappa != d2.kappa:
        return False
    return similar(d1.sym, d2.sym, letter)


def bar(sym: Symbol) -> tuple[int, ...]:
    """Interleaved reading: top first for defect 1, bottom first for
    defect 0."""
    if sym.defect == 1:
        first, second = sym.top, sym.bottom
    elif sym.defect == 0:
        first, second = sym.bottom, sym.top
    else:
        raise SymbolError(f"no interleaving for defect {sym.defect}")
    out = []
    for i in range(len(sym.top) + len(sym.bottom)):
        row = first if i % 2 == 0 else second
        out.append(row[i // 2])
    return tuple(out)


def is_monotonic(sym: Symbol) -> bool:
    b = bar(underline(sym) if sym.defect == 0 else sym)
    return all(b[i] <= b[i + 1] for i in range(len(b) - 1))


def monotonic_representative(sym: Symbol, letter: str) -> Symbol:
    """The monotonic member of the similarity class at the same size:
    sort all entries and deal them alternately into the two rows."""
    values = sym.entries()
    if sym.defect == 1:
        top = values[0::2]
        bottom = values[1::2]
    elif sym.defect == 0:
        bottom = values[0::2]
        top = values[1::2]
    else:
        raise SymbolError(f"no monotonic form for defect {sym.defect}")
    out = Symbol(tuple(top), tuple(bottom), sym.kind)
    assert_type_symbol(out, letter)
    return out


@dataclass(frozen=True)
class Block:
    """One block of the refinement: a repeated pair or an interval of
    consecutive entries, with its top-row and bottom-row sub-sequences."""

    values: tuple[int, ...]
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    tag: str  # "pair" or "interval"


def refinement(sym: Symbol, letter: str) -> tuple[Block, ...]:
    """Decompose the interleaving of a monotonic symbol into repeated pairs
    (extracted first) and maximal intervals of consecutive entries."""
    if not is_monotonic(sym):
        raise SymbolError(f"{sym} is not monotonic")
    order = underline(sym) if sym.defect == 0 else sym
    labelled = [(v, "t") for v in order.top] + \
               [(v, "b") for v in order.bottom]
    labelled.sort(key=lambda p: p[0])
    blocks: list[Block] = []
    rest: list[tuple[int, str]] = []
    i = 0
    while i < len(labelled):
        if i + 1 < len(labelled) and labelled[i][0] == labelled[i + 1][0]:
            pair = labelled[i:i + 2]
            blocks.append(Block((labelled[i][0],) * 2,
                                tuple(v for v, r in pair if r == "t"),
                                tuple(v for v, r in pair if r == "b"),
                                "pair"))
            i += 2
        else:
            rest.append(labelled[i])
            i += 1
    run: list[tuple[int, str]] = []
    for item in rest + [(None, "")]:
        if run and (item[0] is None or item[0] != run[-1][0] + 1):
            blocks.append(Block(tuple(v for v, _ in run),
                                tuple(v for v, r in run if r == "t"),
                                tuple(v for v, r in run if r == "b"),
                                "interval"))
            run = []
        if item[0] is not None:
            run.append(item)
    blocks.sort(key=lambda blk: blk.values[0])
    return tuple(blocks)


def flips(sym: Symbol, letter: str, flip_set) -> Symbol:
    """Swap the top and bottom sub-sequences of the blocks in ``flip_set``
    (1-based indices); the result must remain a symbol of the type."""
    blocks = refinement(sym, letter)
    chosen = set(flip_set)
    bad = [i for i in chosen if not 1 <= i <= len(blocks)]
    if bad:
        raise SymbolError(f"no block with index {bad[0]}")
    top: list[int] = []
    bottom: list[int] = []
    for i, blk in enumerate(blocks, start=1):
        a, b = (blk.bottom, blk.top) if i in chosen else (blk.top, blk.bottom)
        top.extend(a)
        bottom.extend(b)
    out = Symbol(tuple(top), tuple(bottom), sym.kind)
    if not has_type_shape(out, letter):
        odd = [i for i in sorted(chosen)
               if len(blocks[i - 1].top) != len(blocks[i - 1].bottom)]
        culprit = odd[-1] if odd else (sorted(chosen) or [0])[0]
        raise SymbolError(f"flipping {sorted(chosen)} breaks the type-{letter}"
                          f" constraints (index {culprit})")
    return out


def enumerate_class(sym: Symbol, letter: str, k: int | None = None) -> list[Symbol]:
    """All s-symbols of the letter similar to sym at size k: the blocks of
    the monotonic representative's refinement dealt between the rows, each
    block but a pair in either orientation, keeping the deals with the shape
    of the type.  a-symbol classes are enumerated by ``similar_symbols``."""
    if k is not None:
        sym = at_size(sym, letter, k)
    mono = monotonic_representative(sym, letter)
    orientations = [((blk.top, blk.bottom),) if blk.tag == "pair" else
                    ((blk.top, blk.bottom), (blk.bottom, blk.top))
                    for blk in refinement(mono, letter)]
    deals = (Symbol(tuple(v for top, _ in deal for v in top),
                    tuple(v for _, bottom in deal for v in bottom), sym.kind)
             for deal in product(*orientations))
    return sorted((s for s in deals if has_type_shape(s, letter)),
                  key=lambda s: (s.top, s.bottom))


def similar_symbols(sym: Symbol, letter: str, k: int | None = None) -> list[Symbol]:
    """The family of an a-symbol: all a-symbols of the letter with the same
    entry multiset at size k, sorted by rows.  A repeated entry sits in both
    rows and the single entries are dealt between the rows in every way that
    keeps the row lengths.  s-symbols are refused; their classes come from
    ``enumerate_class``."""
    if sym.kind != "a":
        raise SymbolError(f"{sym} is an s-symbol; enumerate its class with "
                          f"enumerate_class")
    if k is not None:
        sym = at_size(sym, letter, k)
    if not has_type_shape(sym, letter):
        return []
    entries = set(sym.top) | set(sym.bottom)
    both = set(sym.top) & set(sym.bottom)
    # combinations() yields the dealt top entries in lexicographic order, and
    # merging the same repeated entries into each keeps that order
    return [Symbol(tuple(sorted(both.union(dealt))),
                   tuple(sorted(entries.difference(dealt))), "a")
            for dealt in combinations(sorted(entries - both),
                                      len(sym.top) - len(both))]


def add(s1: Symbol, s2: Symbol) -> Symbol:
    """Entrywise sum of rows; shapes must match."""
    if len(s1.top) != len(s2.top) or len(s1.bottom) != len(s2.bottom):
        raise SymbolError(f"shape mismatch: {s1} + {s2}")
    return Symbol(tuple(a + b for a, b in zip(s1.top, s2.top)),
                  tuple(a + b for a, b in zip(s1.bottom, s2.bottom)), "s")


def shriek(sym: Symbol) -> Symbol:
    """Defect-0 a-symbol to defect-1 a-symbol: prepend 0 on top and shift
    every entry up by one."""
    if sym.kind != "a" or sym.defect != 0:
        raise SymbolError(f"shriek needs a defect-0 a-symbol, got {sym}")
    return Symbol((0,) + tuple(v + 1 for v in sym.top),
                  tuple(v + 1 for v in sym.bottom), "a")


def _padded_ascending(lam: Partition, length: int) -> tuple[int, ...]:
    if len(lam) > length:
        raise SymbolError(f"partition {lam} has more than {length} parts")
    return tuple([0] * (length - len(lam)) + sorted(lam))


def min_size_pair(first: Partition, second: Partition, letter: str) -> int:
    """Smallest bottom length k admitting a symbol of the pair."""
    if letter == "D":
        return max(len(first), len(second))
    return max(len(first) - 1, len(second), 0)


def symbol_of_pair(first: Partition, second: Partition, letter: str,
                   kind: str, k: int | None = None) -> Symbol:
    """The symbol of an ordered bipartition: rows are the ascending
    zero-padded parts plus 0, step, 2*step, ...; type-C s-symbols add one to
    the bottom row.  ``k`` is the bottom length (minimal when omitted)."""
    kmin = min_size_pair(first, second, letter)
    if k is None:
        k = kmin
    if k < kmin:
        raise SymbolError(f"bottom length {k} below the minimum {kmin}")
    step = 2 if kind == "s" else 1
    lead = 1 if (kind == "s" and letter == "C") else 0
    top_len = k if letter == "D" else k + 1
    lam = _padded_ascending(first, top_len)
    mu = _padded_ascending(second, k)
    return Symbol(tuple(v + step * i for i, v in enumerate(lam)),
                  tuple(v + step * i + lead for i, v in enumerate(mu)), kind)


def pair_of_symbol(sym: Symbol, letter: str) -> tuple[Partition, Partition]:
    """Inverse of ``symbol_of_pair`` on the same row order."""
    step = 2 if sym.kind == "s" else 1
    lead = 1 if (sym.kind == "s" and letter == "C") else 0
    first = [v - step * i for i, v in enumerate(sym.top)]
    second = [v - step * i - lead for i, v in enumerate(sym.bottom)]
    if any(v < 0 for v in first + second):
        raise SymbolError(f"{sym} is not in the image of a bipartition")
    return as_partition(first), as_partition(second)


def sgn_twist_pair(first: Partition, second: Partition, letter: str,
                   kappa: int = 0):
    """Avatar of the sign twist: (lam, mu) -> (mu^t, lam^t) for the
    hyperoctahedral types; unordered transposed pair for type D, where the
    decoration of a degenerate pair is carried through unchanged."""
    from .partitions import transpose
    if letter in ("B", "C"):
        return transpose(second), transpose(first), 0
    if first == second:
        log.info("sign twist of a degenerate type-D pair %s keeps its "
                 "decoration %d by convention", format_partition(first), kappa)
        return transpose(first), transpose(second), kappa
    a, b = canonical_pair(transpose(first), transpose(second))
    return a, b, kappa if a == b else 0


def render(sym: Symbol) -> str:
    """Two-row staggered text rendering in the matrix layout."""
    if sym.defect not in (0, 1):
        raise SymbolError(f"no rendering for defect {sym.defect}")
    width = max((len(str(v)) for v in sym.top + sym.bottom), default=1)
    gap = " " * width
    fmt = lambda v: str(v).rjust(width)
    if sym.defect == 1:
        top = gap.join(fmt(v) for v in sym.top)
        bottom = gap + gap.join(fmt(v) for v in sym.bottom)
    else:
        top = gap + gap.join(fmt(v) for v in sym.top)
        bottom = gap.join(fmt(v) for v in sym.bottom)
    return top + "\n" + bottom
