"""Two-row integer symbols attached to bipartitions.

An s-symbol has rows increasing in steps of at least 2, an a-symbol has
strictly increasing rows.  For the hyperoctahedral types the defect
(top length minus bottom length) is 1; for type D it is 0 and the two rows
are unordered, with a decoration in {0, 1} when they coincide.

Two equivalences matter: ``shift`` equivalence (written elsewhere with a
squiggly double tilde) prepends a normalized column to both rows and is the
identity on the underlying bipartition; similar symbols share the
multiset of entries at a common size.  Similarity classes of s-symbols
collect the characters with a fixed Springer support, similarity classes of
a-symbols are the families.

Public entry points check their arguments; internal producers use the
trusted path: the class and family members dealt here from checked
symbols skip ``Symbol``'s row check.  The row helpers (the class kernel,
the monotonic deal, the rows of a pair and the inverse of the staircase)
also serve the springer layer, which goes from rows to characters with no
intermediate symbol.
"""

from __future__ import annotations

import operator
import sys
from bisect import bisect
from itertools import count
from operator import le, lt, sub

from . import partitions as pt
from .partitions import (Partition, as_partition, format_partition,
                         transpose)


def _log(name: str, level: str, msg: str, *args) -> None:
    """``logging.getLogger(name).log`` at the level named ``level`` (such as
    ``"INFO"``), for the caller, made only when ``logging`` is loaded and
    the logger is enabled for the level; a callable in ``args`` is called
    for its value only then.  The library does not import ``logging``: no
    handler or level can be set without importing it, so while it is not
    loaded every debug or info record would be dropped anyway."""
    logging = sys.modules.get("logging")
    if logging is None:
        return
    logger = logging.getLogger(name)
    levelno = getattr(logging, level)
    if logger.isEnabledFor(levelno):
        logger.log(levelno, msg, *[arg() if callable(arg) else arg
                                   for arg in args], stacklevel=2)


class SymbolError(ValueError):
    """Raised when an argument violates a symbol-level precondition."""


def _check_rows(top, bottom) -> None:
    # ``Symbol``'s row checks, top row first, building no symbol
    for row in (top, bottom):
        if row and row[0] < 0:
            raise SymbolError(f"negative entry in {row}")
        if not all(map(lt, row, row[1:])):
            raise SymbolError(f"row {row} is not strictly increasing")


@pt._record
class Symbol:
    """An ordered two-row symbol; ``kind`` is "s" (gap 2) or "a" (gap 1)."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in ("s", "a"):
            raise SymbolError(f"kind must be 's' or 'a', got {self.kind!r}")
        _check_rows(self.top, self.bottom)

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


@pt._record
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
    # of the Springer recipe and of ``_deals`` do, with no sort
    step, lead = _stair(kind, letter)
    first = list(map(sub, top, range(0, step * len(top), step)))
    second = list(map(sub, bottom, range(lead, lead + step * len(bottom),
                                         step)))
    return (tuple(filter(None, reversed(first))),
            tuple(filter(None, reversed(second))))


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


def _monotonic_rows(entries, defect: int, kind: str, letter: str):
    # the monotonic member of a similarity class: the sorted entries of the
    # defect dealt alternately into (top, bottom), checked for ``letter``
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


@pt._record
class Block:
    """One block of the refinement: a repeated pair or an interval of
    consecutive entries, with its top-row and bottom-row sub-sequences."""

    values: tuple[int, ...]
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    tag: str  # "pair" or "interval"


def refinement(sym: Symbol) -> tuple[Block, ...]:
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
    blocks = refinement(sym)
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


def _deals(top, bottom, kind: str, letter: str, unordered: bool = False):
    # the rows of the kind-symbols of the letter similar to (top, bottom),
    # at its size, sorted: the entries in both rows stay there and each
    # block alternates between the rows.  An odd block starting on top adds
    # one to the defect and one starting below takes one away, so as many
    # odd blocks start on top as keep the defect; an even block starts on
    # either row.  Rows without the type's shape deal nothing, and type-C
    # s-rows never start the bottom row at 0.  ``unordered`` deals each
    # unordered pair of type-D rows once: the first single entry on top.
    # The blocks are dealt least first, each joined to the run of entries
    # in both rows below it, so every row comes out increasing; starting a
    # block on top gives the smaller top row from there on, and the top rows
    # all have one length, so dealing that way first deals in order
    if len(top) - len(bottom) != (letter in ("B", "C")):
        return []
    both, blocks = _split(top, bottom, kind)
    type_c_s = kind == "s" and letter == "C"
    if type_c_s and both[:1] == [0]:
        return []
    # the first block starts on top
    first_up = unordered and letter == "D" or \
        type_c_s and bool(blocks) and blocks[0][0] == 0
    left = sum(len(blk) % 2 for blk in blocks)
    need = (left + len(top) - len(bottom)) // 2
    deals = [((), (), 0)]  # rows so far, odd blocks started on top
    taken = 0
    for blk in blocks:
        run = tuple(both[taken:bisect(both, blk[0])])
        taken += len(run)
        up, down = run + blk[0::2], run + blk[1::2]
        odd = len(blk) % 2
        left -= odd
        dealt = []
        for t, b, ups in deals:
            if ups + odd <= need:
                dealt.append((t + up, b + down, ups + odd))
            if ups + left >= need and not first_up:
                dealt.append((t + down, b + up, ups))
        deals = dealt
        first_up = False
    run = tuple(both[taken:])
    return [(t + run, b + run) for t, b, _ in deals]


def enumerate_class(sym: Symbol, letter: str) -> list[Symbol]:
    """All symbols of the letter and kind of sym similar to it at its size,
    sorted by rows, after the refusals of the monotonic deal:
    the entries in both rows stay there, and each block of the other
    entries (a maximal run of consecutive entries for s-symbols, whose rows
    step by 2, a single entry for a-symbols) alternates between the rows,
    in the orientations that keep the defect and the type's shape."""
    _monotonic_rows(sym.entries(), sym.defect, sym.kind, letter)
    return [pt._trusted(Symbol, top, bottom, sym.kind)
            for top, bottom in _deals(sym.top, sym.bottom, sym.kind, letter)]


def similar_symbols(sym: Symbol, letter: str) -> list[Symbol]:
    """The family of an a-symbol: all a-symbols of the letter with the same
    entry multiset at its size, sorted by rows, or none when sym lacks the
    type's shape.  A repeated entry sits in both rows and the single entries
    are dealt between the rows in every way that keeps the row lengths.
    s-symbols are refused; their classes come from ``enumerate_class``."""
    if sym.kind != "a":
        raise SymbolError(f"{sym} is an s-symbol; enumerate its class with "
                          f"enumerate_class")
    if not has_type_shape(sym, letter):
        return []
    return [pt._trusted(Symbol, top, bottom, "a")
            for top, bottom in _deals(sym.top, sym.bottom, "a", letter)]


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
    lam = [0] * (top_len - len(first)) + sorted(first)
    mu = [0] * (k - len(second)) + sorted(second)
    return (tuple(map(operator.add, lam, range(0, step * top_len, step))),
            tuple(map(operator.add, mu, range(lead, lead + step * k, step))))


def _s_entries(first: Partition, second: Partition, letter: str):
    # ``_rows_of_pair``'s minimal s-rows of decreasing halves as one sorted
    # tuple, in one pass: each half's zero padding, then its parts ascending,
    # column j adding 2j, and the bottom row starting at the type-C lead
    k = min_size_pair(first, second, letter)
    lead, pad = int(letter == "C"), k + (letter != "D") - len(first)
    low = lead + 2 * (k - len(second))
    entries = [*range(0, 2 * pad, 2),
               *map(operator.add, reversed(first), count(2 * pad, 2)),
               *range(lead, low, 2),
               *map(operator.add, reversed(second), count(low, 2))]
    entries.sort()
    return tuple(entries)


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
        _log(__name__, "INFO", "sign twist of a degenerate type-D pair %s "
             "keeps its decoration %d by convention",
             lambda: format_partition(first), kappa)
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
