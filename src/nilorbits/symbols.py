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

Public entry points check their arguments; internal producers use the
trusted path: the class and family members and monotonic representatives
dealt here from checked symbols skip ``Symbol``'s row check.  The row
helpers (the class kernel, the monotonic deal, shift normalization and the
inverse of the staircase) also serve the springer layer, which goes from
rows to characters with no intermediate symbol.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass
from itertools import chain, combinations, product
from operator import le, lt, sub

from . import partitions as pt
from .partitions import (Partition, as_partition, format_partition,
                         transpose)

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
            if not all(map(lt, row, row[1:])):
                raise SymbolError(f"row {row} is not strictly increasing")

    def gap_ok(self) -> bool:
        """Rows increase in steps of at least 2 (automatic for a-symbols)."""
        gap = 2 if self.kind == "s" else 1
        for row in (self.top, self.bottom):
            for x, y in zip(row, row[1:]):
                if y - x < gap:
                    return False
        return True

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


def _stair(kind: str, letter: str) -> tuple[int, int]:
    # the staircase under a symbol's rows: the step between its columns and
    # the first entry of its bottom row (the top row starts at 0)
    return (2, int(letter == "C")) if kind == "s" else (1, 0)


def _pair_of_rows(top, bottom, kind: str, letter: str):
    # the rows less their staircase, read backwards without zeros: the
    # bipartition when the rows step by at least the kind's gap, as those
    # of the Springer recipe and of ``_class_rows`` do, with no sort
    step, lead = _stair(kind, letter)
    first = list(map(sub, top, range(0, step * len(top), step)))
    second = list(map(sub, bottom, range(lead, lead + step * len(bottom),
                                         step)))
    return (tuple(filter(None, reversed(first))),
            tuple(filter(None, reversed(second))))


def symbol_size(sym: Symbol, letter: str) -> int:
    """The integer n with sym attached to a rank-n group of the given type."""
    return sum(map(sum, _pair_of_rows(sym.top, sym.bottom, sym.kind, letter)))


def has_type_shape(sym: Symbol, letter: str) -> bool:
    """Defect 1 for B and C (s-symbols of type C also need a positive first
    bottom entry), defect 0 for D; row gaps are not checked."""
    return _has_type_shape(sym.top, sym.bottom, sym.kind, letter)


def _has_type_shape(top, bottom, kind: str, letter: str) -> bool:
    # ``has_type_shape`` on rows
    if letter in ("B", "C"):
        return len(top) == len(bottom) + 1 and not (
            letter == "C" and kind == "s" and bottom and bottom[0] == 0)
    return len(top) == len(bottom)


def is_type_symbol(sym: Symbol, letter: str) -> bool:
    """Type shape plus the row-gap rule of the kind."""
    return sym.gap_ok() and has_type_shape(sym, letter)


def pad_once(sym: Symbol, letter: str) -> Symbol:
    """One shift-equivalence step up (adds one column)."""
    step, lead = _stair(sym.kind, letter)
    return Symbol((0,) + tuple(v + step for v in sym.top),
                  (lead,) + tuple(v + step for v in sym.bottom), sym.kind)


def normalize(sym: Symbol, letter: str) -> Symbol:
    """Minimal representative of the shift class."""
    return Symbol(*_stripped(sym.top, sym.bottom, sym.kind, letter), sym.kind)


def _stripped(top, bottom, kind: str, letter: str):
    # ``normalize`` on rows: the leading columns on the staircase, (0; lead),
    # (step; lead + step), ..., taken off, and the rest shifted down
    step, lead = _stair(kind, letter)
    strip = 0
    for column in zip(top, bottom):
        if column != (step * strip, lead + step * strip):
            break
        strip += 1
    if not strip:  # no new rows: fewer short-lived tuples, less peak memory
        return top, bottom
    return (tuple(v - step * strip for v in top[strip:]),
            tuple(v - step * strip for v in bottom[strip:]))


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
    return pt._trusted(Symbol, *_monotonic_rows(sym.entries(), sym.defect,
                                                sym.kind, letter), sym.kind)


def _monotonic_rows(entries, defect: int, kind: str, letter: str):
    # ``monotonic_representative`` on the sorted entries of a symbol of the
    # defect: the dealt (top, bottom), checked as a type-``letter`` symbol
    if defect == 1:
        top, bottom = entries[0::2], entries[1::2]
    elif defect == 0:
        bottom, top = entries[0::2], entries[1::2]
    else:
        raise SymbolError(f"no monotonic form for defect {defect}")
    # an entry occurs at most once per row, so the dealt rows increase; the
    # neighbours in a row are two apart in ``entries``
    gap = 2 if kind == "s" else 1
    if not (all(map(le, [v + gap for v in entries], entries[2:])) and
            _has_type_shape(top, bottom, kind, letter)):
        raise SymbolError(f"{pt._trusted(Symbol, top, bottom, kind)} is not "
                          f"a valid type-{letter} {kind}-symbol")
    return top, bottom


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
    both, runs = _split(order.top, order.bottom, "s")
    top = set(order.top)
    blocks = [Block((v, v), (v,), (v,), "pair") for v in both]
    blocks += [Block(run, tuple(v for v in run if v in top),
                     tuple(v for v in run if v not in top), "interval")
               for run in runs]
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


def _split(top, bottom, kind: str):
    # the entries in both rows, and the other entries in blocks, least
    # first: each entry alone for a-symbols, the maximal runs of consecutive
    # entries for s-symbols, whose rows step by 2, so a run alternates
    # between the rows
    both = set(top).intersection(bottom)
    blocks: list[tuple[int, ...]] = []
    for v in sorted(set(top).symmetric_difference(bottom)):
        if kind == "s" and blocks and blocks[-1][-1] == v - 1:
            blocks[-1] += (v,)
        else:
            blocks.append((v,))
    return sorted(both), blocks


def _class_rows(top, bottom, kind: str, letter: str):
    # the rows of the kind-symbols of the letter similar to (top, bottom),
    # at its size, sorted: the entries in both rows stay there and each
    # block alternates between the rows; an odd block starting on top adds
    # one to the defect and one starting below takes one away, so the odd
    # blocks on top are chosen to keep the defect, and an even block starts
    # on either row
    both, blocks = _split(top, bottom, kind)
    ways = [((blk[0::2], blk[1::2]), (blk[1::2], blk[0::2]))
            for blk in blocks]
    odd = [w for w, blk in zip(ways, blocks) if len(blk) % 2]
    even = [w for w, blk in zip(ways, blocks) if not len(blk) % 2]
    out = []
    for ups in combinations(range(len(odd)),
                            (len(odd) + len(top) - len(bottom)) // 2):
        fixed = [w[j not in ups] for j, w in enumerate(odd)]
        for deal in product(*even):
            deal_top, deal_bottom = both[:], both[:]
            for up, down in chain(fixed, deal):
                deal_top += up
                deal_bottom += down
            deal_top.sort()
            deal_bottom.sort()
            if _has_type_shape(deal_top, deal_bottom, kind, letter):
                out.append((tuple(deal_top), tuple(deal_bottom)))
    return sorted(out)


def enumerate_class(sym: Symbol, letter: str, k: int | None = None) -> list[Symbol]:
    """All symbols of the letter and kind of sym similar to it at size k,
    sorted by rows, after the refusals of ``monotonic_representative``:
    the entries in both rows stay there, and each block of the other
    entries (a maximal run of consecutive entries for s-symbols, whose rows
    step by 2, a single entry for a-symbols) alternates between the rows,
    in the orientations that keep the defect and the type's shape."""
    if k is not None:
        sym = at_size(sym, letter, k)
    _monotonic_rows(sym.entries(), sym.defect, sym.kind, letter)
    return [pt._trusted(Symbol, top, bottom, sym.kind)
            for top, bottom in _class_rows(sym.top, sym.bottom, sym.kind,
                                           letter)]


def similar_symbols(sym: Symbol, letter: str, k: int | None = None) -> list[Symbol]:
    """The family of an a-symbol: all a-symbols of the letter with the same
    entry multiset at size k, sorted by rows, or none when sym lacks the
    type's shape.  A repeated entry sits in both rows and the single entries
    are dealt between the rows in every way that keeps the row lengths.
    s-symbols are refused; their classes come from ``enumerate_class``."""
    if sym.kind != "a":
        raise SymbolError(f"{sym} is an s-symbol; enumerate its class with "
                          f"enumerate_class")
    if k is not None:
        sym = at_size(sym, letter, k)
    if not has_type_shape(sym, letter):
        return []
    return [pt._trusted(Symbol, top, bottom, "a")
            for top, bottom in _class_rows(sym.top, sym.bottom, "a", letter)]


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
    return Symbol(*_rows_of_pair(first, second, letter, kind, k), kind)


def _rows_of_pair(first: Partition, second: Partition, letter: str,
                  kind: str, k: int | None = None):
    # ``symbol_of_pair``'s (top, bottom)
    kmin = min_size_pair(first, second, letter)
    if k is None:
        k = kmin
    if k < kmin:
        raise SymbolError(f"bottom length {k} below the minimum {kmin}")
    step, lead = _stair(kind, letter)
    top_len = k if letter == "D" else k + 1
    lam = _padded_ascending(first, top_len)
    mu = _padded_ascending(second, k)
    return (tuple(map(operator.add, lam, range(0, step * top_len, step))),
            tuple(map(operator.add, mu, range(lead, lead + step * k, step))))


def pair_of_symbol(sym: Symbol, letter: str) -> tuple[Partition, Partition]:
    """Inverse of ``symbol_of_pair`` on the same row order."""
    first, second = _pair_of_rows(sym.top, sym.bottom, sym.kind, letter)
    if min(first + second, default=0) < 0:
        raise SymbolError(f"{sym} is not in the image of a bipartition")
    return as_partition(first), as_partition(second)


def sgn_twist_pair(first: Partition, second: Partition, letter: str,
                   kappa: int = 0):
    """Avatar of the sign twist: (lam, mu) -> (mu^t, lam^t) for the
    hyperoctahedral types; unordered transposed pair for type D, where the
    decoration of a degenerate pair is carried through unchanged."""
    if letter in ("B", "C"):
        return transpose(second), transpose(first), 0
    if first == second:
        log.info("sign twist of a degenerate type-D pair %s keeps its "
                 "decoration %d by convention", format_partition(first), kappa)
        return transpose(first), transpose(second), kappa
    a, b = pt._ordered_pair(transpose(first), transpose(second))
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
