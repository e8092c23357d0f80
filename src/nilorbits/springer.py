"""Springer correspondence, families and induction for the classical Weyl
groups.

Irreducible characters of the hyperoctahedral group of rank n are indexed by
ordered bipartitions of n; those of the even-signed permutation group by
unordered bipartitions, decorated when the halves agree.  The recipes below
translate a nilpotent-orbit partition into the a-symbol class of its Springer
character with trivial local system, and back.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import partitions as pt
from . import symbols as sy
from .partitions import (DecoratedPartition, Partition, PartitionError,
                         as_partition, dual_letter, format_partition,
                         is_type_partition)
from .symbols import DecoratedSymbol, Symbol, SymbolError

log = logging.getLogger(__name__)

_MAX_COMMON_SIZE = 64


class AmbiguousDecorationError(ValueError):
    """Raised when an operation would need the decoration bookkeeping that
    is deliberately not modelled (very even orbits, degenerate pairs)."""


@dataclass(frozen=True)
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
        first, second, kappa = self.first, self.second, self.kappa
        if self.letter == "D":
            first, second = pt.canonical_pair(first, second)
            if first != second or not first:
                kappa = 0
        else:
            first, second = as_partition(first), as_partition(second)
            kappa = 0
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "kappa", kappa)
        if sum(self.first) + sum(self.second) != self.rank:
            raise PartitionError(
                f"bipartition {self} has total "
                f"{sum(self.first) + sum(self.second)}, expected {self.rank}")
        if kappa not in (0, 1):
            raise PartitionError(f"decoration must be 0 or 1, got {kappa}")

    @property
    def degenerate(self) -> bool:
        return self.letter == "D" and self.first == self.second and \
            bool(self.first)

    def __str__(self) -> str:
        body = f"{format_partition(self.first)};{format_partition(self.second)}"
        if self.letter == "D":
            return f"{{{body}}}:{self.kappa}" if self.degenerate else \
                f"{{{body}}}"
        return f"({body})"


def irreps(letter: str, rank: int) -> list[WeylIrrep]:
    """All irreducible character avatars of the rank-n group of the type."""
    out = []
    seen = set()
    for a in range(rank + 1):
        for lam in pt.integer_partitions(a):
            for mu in pt.integer_partitions(rank - a):
                if letter == "D":
                    if lam == mu and lam:
                        for kappa in (0, 1):
                            rep = WeylIrrep(letter, rank, lam, mu, kappa)
                            if rep not in seen:
                                seen.add(rep)
                                out.append(rep)
                        continue
                rep = WeylIrrep(letter, rank, lam, mu)
                if rep not in seen:
                    seen.add(rep)
                    out.append(rep)
    return out


def trivial_rep(letter: str, rank: int) -> WeylIrrep:
    return WeylIrrep(letter, rank, (rank,) if rank else (), ())


def sign_rep(letter: str, rank: int) -> WeylIrrep:
    return WeylIrrep(letter, rank, (), (1,) * rank)


def sgn_twist(rep: WeylIrrep) -> WeylIrrep:
    """Tensor with the sign character on the avatar level."""
    a, b, kappa = sy.sgn_twist_pair(rep.first, rep.second, rep.letter,
                                    rep.kappa)
    return WeylIrrep(rep.letter, rep.rank, a, b, kappa)


def rep_asymbol(rep: WeylIrrep, convention: str | None = None,
                k: int | None = None) -> Symbol:
    """Ordered a-symbol of the avatar (underlined row order for type D)."""
    convention = convention or rep.letter
    return sy.symbol_of_pair(rep.first, rep.second, convention, "a", k)


def rep_ssymbol(rep: WeylIrrep, convention: str | None = None,
                k: int | None = None) -> Symbol:
    """Ordered s-symbol of the avatar (underlined row order for type D)."""
    convention = convention or rep.letter
    return sy.symbol_of_pair(rep.first, rep.second, convention, "s", k)


def _parity_split(entries) -> tuple[tuple[int, ...], tuple[int, ...]]:
    odd = tuple(sorted((e - 1) // 2 for e in entries if e % 2))
    even = tuple(sorted(e // 2 for e in entries if e % 2 == 0))
    return odd, even


def springer_symbol(lam, letter: str):
    """a-symbol class of the Springer character with trivial local system
    over the orbit ``lam``: pad the parts to the type's length parity, add
    0, 1, 2, ... and split by parity.  Returns an ordered symbol for B and C
    and a decorated symbol for D."""
    kappa = 0
    if isinstance(lam, DecoratedPartition):
        kappa = lam.kappa
        lam = lam.parts
    if not is_type_partition(lam, letter):
        raise PartitionError(f"{format_partition(lam)} is not a "
                             f"{letter}-partition")
    want_odd_length = letter in ("B", "C")
    padded = sorted(lam)
    if len(padded) % 2 != (1 if want_odd_length else 0):
        padded = [0] + padded
    entries = [v + i for i, v in enumerate(padded)]
    xi, eta = _parity_split(entries)
    if letter == "B":
        assert len(xi) == len(eta) + 1
        return Symbol(xi, eta, "a")
    if letter == "C":
        assert len(eta) == len(xi) + 1
        return Symbol(eta, xi, "a")
    assert len(xi) == len(eta)
    return DecoratedSymbol(Symbol(xi, eta, "a"), kappa)


def springer_bipartition(lam, letter: str) -> tuple[Partition, Partition, int]:
    """Bipartition avatar of the Springer character of ``lam``."""
    sym = springer_symbol(lam, letter)
    if letter == "D":
        first, second = sy.pair_of_symbol(sym.sym, "D")
        return first, second, sym.kappa
    first, second = sy.pair_of_symbol(sym, letter)
    return first, second, 0


def rep_of_orbit(lam, conv_letter: str, ambient_letter: str) -> WeylIrrep:
    """The character E(lam, 1) computed in the given symbol convention and
    wrapped as a character of the ambient group."""
    first, second, kappa = springer_bipartition(lam, conv_letter)
    rank = sum(first) + sum(second)
    return WeylIrrep(ambient_letter, rank, first, second, kappa)


def _orbit_from_rows(xi, eta, letter: str):
    merged = sorted([2 * x + 1 for x in xi] + [2 * y for y in eta])
    parts = [v - i for i, v in enumerate(merged)]
    if any(p < 0 for p in parts) or \
            any(parts[i] > parts[i + 1] for i in range(len(parts) - 1)):
        return None
    lam = as_partition(parts)
    try:
        if not is_type_partition(lam, letter):
            return None
    except PartitionError:
        return None
    return lam


def orbit_of_symbol(alpha, letter: str):
    """Invert the Springer recipe on an a-symbol class representative."""
    if letter == "D":
        if isinstance(alpha, DecoratedSymbol):
            kappa, alpha = alpha.kappa, alpha.sym
        else:
            kappa = 0
        options = {_orbit_from_rows(alpha.top, alpha.bottom, "D"),
                   _orbit_from_rows(alpha.bottom, alpha.top, "D")}
        options.discard(None)
        if len(options) != 1:
            raise SymbolError(f"{alpha} does not invert to a unique "
                              f"D-partition (got {options})")
        return DecoratedPartition(options.pop(), kappa)
    if letter == "B":
        lam = _orbit_from_rows(alpha.top, alpha.bottom, "B")
    else:
        lam = _orbit_from_rows(alpha.bottom, alpha.top, "C")
    if lam is None:
        raise SymbolError(f"{alpha} is not a Springer-recipe symbol "
                          f"of type {letter}")
    return lam


def springer_support(rep: WeylIrrep, side: str = "group"):
    """The orbit whose Springer character class contains the avatar: returns
    a partition for B/C conventions, a decorated partition for D.

    ``side="group"`` uses the convention of the ambient type, ``side="dual"``
    the convention of the dual type."""
    conv = rep.letter if side == "group" else dual_letter(rep.letter)
    ssym = rep_ssymbol(rep, conv)
    mono = sy.monotonic_representative(ssym, conv)
    first, second = sy.pair_of_symbol(mono, conv)
    alpha = sy.symbol_of_pair(first, second, conv, "a")
    if conv == "D":
        kappa = rep.kappa if rep.degenerate else 0
        return orbit_of_symbol(DecoratedSymbol(alpha, kappa), "D")
    return orbit_of_symbol(alpha, conv)


def collapse_symbol(lam: Partition, kappa: int = 0) -> DecoratedSymbol:
    """a-symbol class of the Springer character of the D-collapse of the
    transpose-compatible C-partition ``lam``, read off without computing the
    collapse: pad to even length, add 0, 1, 2, ... and split by parity."""
    if not is_type_partition(lam, "C"):
        raise PartitionError(f"{format_partition(lam)} is not a C-partition")
    if not is_type_partition(pt.transpose(lam), "D"):
        raise PartitionError(f"transpose of {format_partition(lam)} is not "
                             f"a D-partition")
    padded = sorted(lam)
    if len(padded) % 2:
        padded = [0] + padded
    entries = [v + i for i, v in enumerate(padded)]
    xi, eta = _parity_split(entries)
    assert len(xi) == len(eta)
    return DecoratedSymbol(Symbol(xi, eta, "a"), kappa)


def dual_fiber(lam, letter: str, k: int | None = None) -> list[WeylIrrep]:
    """All characters of the rank-n type-``letter`` group whose dual-side
    Springer support is ``lam``: the similarity class of its dual-side
    s-symbol, enumerated by ``enumerate_class``."""
    conv = dual_letter(letter)
    first, second, kappa = springer_bipartition(lam, conv)
    rank = sum(first) + sum(second)
    if k is None:
        k = max(sy.min_size_pair(first, second, conv),
                len(pt.bare(lam)) // 2 + 1)
    ssym = sy.symbol_of_pair(first, second, conv, "s", k)
    return _irreps_of_symbols(sy.enumerate_class(ssym, conv), conv,
                              letter, rank, kappa)


def _irreps_of_symbols(symbols, conv: str, letter: str, rank: int,
                       kappa: int) -> list[WeylIrrep]:
    """The distinct characters whose symbols in the ``conv`` convention are
    listed, in order of first appearance; ``WeylIrrep`` keeps the decoration
    only on a degenerate type-D pair."""
    return list(dict.fromkeys(
        WeylIrrep(letter, rank, *sy.pair_of_symbol(sym, conv), kappa)
        for sym in symbols))


def is_special_rep(rep: WeylIrrep) -> bool:
    """Special characters are the ones with a monotonic a-symbol."""
    return sy.is_monotonic(rep_asymbol(rep))


@dataclass(frozen=True)
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
    alpha = rep_asymbol(rep)
    mono = sy.monotonic_representative(alpha, rep.letter)
    mono = sy.normalize(mono, rep.letter)
    if rep.letter == "D":
        mono = sy.underline(mono)
    kappa = rep.kappa if rep.degenerate else 0
    return FamilyId(rep.letter, rep.rank, mono.top, mono.bottom, kappa)


def family_members(fid: FamilyId) -> list[WeylIrrep]:
    """The complete family: the characters of all a-symbols similar to the
    family's monotonic a-symbol, enumerated by ``similar_symbols`` (plus the
    decoration rule in type D)."""
    base = Symbol(fid.top, fid.bottom, "a")
    return _irreps_of_symbols(sy.similar_symbols(base, fid.letter),
                              fid.letter, fid.letter, fid.rank, fid.kappa)


def special_rep(fid: FamilyId) -> WeylIrrep:
    """The unique special member of the family."""
    base = Symbol(fid.top, fid.bottom, "a")
    f, s = sy.pair_of_symbol(base, fid.letter)
    if fid.letter == "D":
        return WeylIrrep(fid.letter, fid.rank, f, s, fid.kappa)
    return WeylIrrep(fid.letter, fid.rank, f, s)


def same_family(r1: WeylIrrep, r2: WeylIrrep) -> bool:
    if (r1.letter, r1.rank) != (r2.letter, r2.rank):
        raise PartitionError(f"characters of different groups: {r1} vs {r2}")
    return family_of(r1) == family_of(r2)


@dataclass(frozen=True)
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

    @property
    def degenerate(self) -> bool:
        if self.letter == "B":
            return self.k == 1
        if self.letter == "D":
            return self.rank >= 2 and self.k in (1, self.rank - 1)
        return False

    @cached_property
    def factor_letters(self) -> tuple[str, str]:
        self._assert_product()
        return ("D", "B") if self.letter == "B" else \
            (self.letter, self.letter)

    @cached_property
    def factor_ranks(self) -> tuple[int, int]:
        self._assert_product()
        return self.k, self.rank - self.k

    def _assert_product(self) -> None:
        if self.degenerate:
            raise PartitionError(
                f"shape {self} is the whole algebra, not a product")

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


def full_shape(letter: str, rank: int) -> PseudoLeviShape:
    return PseudoLeviShape(letter, 0, rank)


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
    a-symbols at a common size, the first factor shrieked in type B.  The
    starting size ``k`` is bumped until the sum is a symbol of the dual
    type; the result does not depend on it."""
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
    while k < _MAX_COMMON_SIZE:
        a1 = rep_asymbol(rep1, k=k)
        a2 = rep_asymbol(rep2, k=k)
        if shape.letter == "B":
            a1 = sy.shriek(a1)
        total = sy.add(a1, a2)
        if sy.is_type_symbol(total, conv_out) and \
                sy.symbol_size(total, conv_out) == shape.rank:
            f, s = sy.pair_of_symbol(total, conv_out)
            if conv_out == "D" and f == s and f:
                log.debug("induced symbol %s has equal rows; returning "
                          "decoration 0", total)
            return WeylIrrep(shape.letter, shape.rank, f, s)
        k += 1
    raise PartitionError(f"no common symbol size below {_MAX_COMMON_SIZE} "
                         f"for {rep1} and {rep2}")


@lru_cache(maxsize=None)
def lr_coefficient(mu1: Partition, mu2: Partition, mu: Partition) -> int:
    """Littlewood-Richardson coefficient: the number of lattice-word skew
    tableaux of shape mu/mu1 and content mu2, counted directly.  Memoised
    per process, so the arguments must be hashable (tuples)."""
    mu1, mu2, mu = as_partition(mu1), as_partition(mu2), as_partition(mu)
    if sum(mu1) + sum(mu2) != sum(mu):
        raise PartitionError(
            f"sizes must add up: |{format_partition(mu1)}| + "
            f"|{format_partition(mu2)}| != |{format_partition(mu)}|")
    if len(mu1) > len(mu) or any(a > b for a, b in zip(mu1, mu)):
        return 0
    rows = len(mu)
    inner = tuple(mu1) + (0,) * (rows - len(mu1))
    cells = [(r, c) for r in range(rows) for c in range(mu[r] - 1, inner[r] - 1, -1)]
    content = list(mu2)
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (len(content) + 1)

    def count_from(i: int) -> int:
        if i == len(cells):
            return 1
        r, c = cells[i]
        total = 0
        for v in range(1, len(content) + 1):
            if counts[v] >= content[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # reverse reading word must stay a lattice word
            right = filling.get((r, c + 1))
            if right is not None and v > right:
                continue
            above = filling.get((r - 1, c))
            if r > 0 and c < inner[r - 1]:
                above = 0
            if above is not None and v <= above:
                continue
            filling[(r, c)] = v
            counts[v] += 1
            total += count_from(i + 1)
            counts[v] -= 1
            del filling[(r, c)]
        return total

    return count_from(0)


def _lifts(rep: WeylIrrep) -> list[tuple[Partition, Partition]]:
    """Signed-group lifts of a factor character.  A type-D character with
    distinct halves lifts to the two orderings; a degenerate one induces
    irreducibly to its single ordered pair, for either decoration, so the
    multiplicity formula below is exact per decoration."""
    if rep.letter == "D" and rep.first != rep.second:
        return [(rep.first, rep.second), (rep.second, rep.first)]
    return [(rep.first, rep.second)]


def restriction_multiplicity(rep: WeylIrrep, shape: PseudoLeviShape,
                             rep1: WeylIrrep, rep2: WeylIrrep) -> int:
    """Multiplicity of the factor pair in the restriction of ``rep`` to the
    shape, as a sum of products of Littlewood-Richardson coefficients over
    the hyperoctahedral lifts of the type-D factors.

    A degenerate ambient character (very even dual support) is refused: its
    restriction is not determined by the underlying pair alone."""
    if (rep.letter, rep.rank) != (shape.letter, shape.rank):
        raise PartitionError(f"{rep} is not a character of the ambient "
                             f"group of {shape}")
    _factor_check(shape, rep1, rep2)
    if rep.letter == "D" and rep.degenerate:
        raise AmbiguousDecorationError(
            f"{rep} has very even dual support; restriction is not resolved "
            f"per decoration")
    total = 0
    size = sum(rep.first)
    for a1, b1 in _lifts(rep1):
        for a2, b2 in _lifts(rep2):
            if sum(a1) + sum(a2) != size:
                continue  # size-mismatched splits contribute nothing
            total += lr_coefficient(a1, a2, rep.first) * \
                lr_coefficient(b1, b2, rep.second)
    return total
