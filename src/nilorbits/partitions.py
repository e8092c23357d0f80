"""Partitions with parity constraints, collapses, duality and markings.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ``()``.  A type letter B, C, D selects a parity rule:

* B-partitions have total ``2n + 1`` and every even part occurs with even
  multiplicity (orbits in so(2n+1)),
* C-partitions have total ``2n`` and every odd part occurs with even
  multiplicity (orbits in sp(2n)),
* D-partitions have total ``2n`` and every even part occurs with even
  multiplicity (orbits in so(2n)); very even partitions carry a decoration
  in {0, 1} distinguishing the two orbits with the same partition.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import lru_cache

Partition = tuple[int, ...]

LETTERS = ("B", "C", "D")

_ENUM_BOUND_ENV = "NILORBITS_MAX_RANK"
DEFAULT_ENUM_BOUND = 12


class PartitionError(ValueError):
    """Raised when an argument violates a partition-level precondition."""


def enum_bound() -> int:
    """Rank guard for exhaustive enumerations (env override NILORBITS_MAX_RANK,
    a non-negative integer; an empty value means unset)."""
    raw = os.environ.get(_ENUM_BOUND_ENV)
    if not raw:
        return DEFAULT_ENUM_BOUND
    try:
        bound = int(raw)
    except ValueError:
        bound = -1
    if bound < 0:
        raise PartitionError(f"{_ENUM_BOUND_ENV} must be a non-negative "
                             f"integer, got {raw!r}")
    return bound


def as_partition(parts) -> Partition:
    """Canonicalize an iterable of part sizes: sort decreasing, drop zeros."""
    out = sorted((int(p) for p in parts), reverse=True)
    while out and out[-1] == 0:
        out.pop()
    if out and out[-1] < 0:
        raise PartitionError(f"negative part {out[-1]} is not allowed")
    return tuple(out)


def multiplicity(lam: Partition, x: int) -> int:
    """Number of parts of lam equal to x."""
    return sum(1 for p in lam if p == x)


def height(lam: Partition, x: int) -> int:
    """Number of parts of lam that are >= x."""
    return sum(1 for p in lam if p >= x)


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (flip the Young diagram across the diagonal)."""
    if not lam:
        return ()
    return tuple(height(lam, j) for j in range(1, lam[0] + 1))


def union(lam: Partition, mu: Partition) -> Partition:
    """Multiset union: multiplicities add."""
    return as_partition(lam + mu)


def ordered_union(lam: Partition, mu: Partition) -> Partition:
    """Concatenation union; requires min part of lam >= max part of mu."""
    if lam and mu and lam[-1] < mu[0]:
        raise PartitionError(
            f"ordered union needs min(first)={lam[-1]} >= max(second)={mu[0]}")
    return lam + mu


def contains(lam: Partition, mu: Partition) -> bool:
    """True if mu is a subpartition of lam (multiplicity-wise)."""
    return all(multiplicity(lam, x) >= multiplicity(mu, x) for x in set(mu))


def subtract(lam: Partition, mu: Partition) -> Partition:
    """The unique nu with lam = union(mu, nu); requires mu contained in lam."""
    for x in set(mu):
        if multiplicity(lam, x) < multiplicity(mu, x):
            raise PartitionError(f"part {x} of the subtrahend exceeds its "
                                 f"multiplicity in {format_partition(lam)}")
    out = list(lam)
    for p in mu:
        out.remove(p)
    return tuple(out)


def raise_first(lam: Partition) -> Partition:
    """Add one box to the first row: (l1+1, l2, ...)."""
    if not lam:
        return (1,)
    return (lam[0] + 1,) + lam[1:]


def lower_last(lam: Partition) -> Partition:
    """Remove one box from the last row: (l1, ..., lk - 1)."""
    if not lam:
        raise PartitionError("cannot lower a part of the empty partition")
    out = lam[:-1] + (lam[-1] - 1,)
    return out if out[-1] > 0 else out[:-1]


def dominance_le(lam: Partition, mu: Partition) -> bool:
    """True iff lam <= mu in the dominance order (equal totals required)."""
    if sum(lam) != sum(mu):
        raise PartitionError(
            f"dominance compares equal totals, got {sum(lam)} != {sum(mu)}")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l > total_m:
            return False
    return True


def dual_letter(letter: str) -> str:
    """Type of the Langlands dual algebra: B <-> C, D <-> D."""
    _check_letter(letter)
    return {"B": "C", "C": "B", "D": "D"}[letter]


def _check_letter(letter: str) -> None:
    if letter not in LETTERS:
        raise PartitionError(f"type letter must be one of B, C, D, got {letter!r}")


def _check_total(lam: Partition, letter: str) -> None:
    total = sum(lam)
    if letter == "B" and total % 2 == 0:
        raise PartitionError(f"a B-partition has odd total, got {total}")
    if letter in ("C", "D") and total % 2 == 1:
        raise PartitionError(f"a {letter}-partition has even total, got {total}")


def rank_of(lam: Partition, letter: str) -> int:
    """Rank n with |lam| = 2n+1 (B) or 2n (C, D)."""
    _check_letter(letter)
    _check_total(lam, letter)
    return sum(lam) // 2


def is_type_partition(lam: Partition, letter: str) -> bool:
    """Parity test: B/D need even parts of even multiplicity, C needs odd
    parts of even multiplicity.  The total must have the parity of the type."""
    _check_letter(letter)
    _check_total(lam, letter)
    bad = 0 if letter in ("B", "D") else 1
    return all(multiplicity(lam, x) % 2 == 0
               for x in set(lam) if x % 2 == bad)


def is_very_even(lam: Partition) -> bool:
    """All parts even, each with even multiplicity."""
    return all(p % 2 == 0 for p in lam) and \
        all(multiplicity(lam, x) % 2 == 0 for x in set(lam))


def collapse(lam: Partition, letter: str) -> Partition:
    """Largest partition of the given type dominated by lam.

    The constrained-parity parts (even for B/D, odd for C) are paired off in
    decreasing order, padding with a trailing 0 when their number is odd;
    an unequal pair (a, b) becomes (a-1, b+1).
    """
    _check_letter(letter)
    _check_total(lam, letter)
    bad = 0 if letter in ("B", "D") else 1
    keep = tuple(p for p in lam if p % 2 != bad)
    fix = [p for p in lam if p % 2 == bad]
    if len(fix) % 2:
        fix.append(0)
    out = list(keep)
    for i in range(0, len(fix), 2):
        a, b = fix[i], fix[i + 1]
        if a == b:
            out += [a, b]
        else:
            out += [a - 1, b + 1]
    result = as_partition(out)
    if not is_type_partition(result, letter):
        raise AssertionError(f"collapse produced a non-{letter}-partition "
                             f"{result} from {lam}")
    return result


def is_special(lam, letter: str) -> bool:
    """Parity criterion for special orbits.

    Counting runs of unconstrained-parity parts delimited by the
    constrained-parity parts (written in decreasing order):

    * B: every run of odd parts between consecutive even parts has even
      length, and the run of odd parts above the largest even part has odd
      length (no even part counts as an even part equal to 0),
    * C: every run of even parts between consecutive odd parts has even
      length, and the run of even parts above the largest odd part has even
      length (vacuous when there is no odd part),
    * D: as B but the top run must have even length.

    Decorated input is accepted; both decorations of a very even partition
    are special.
    """
    lam = bare(lam)
    _check_letter(letter)
    if not is_type_partition(lam, letter):
        raise PartitionError(f"{format_partition(lam)} is not a {letter}-partition")
    delim = 1 if letter == "C" else 0  # parity of the delimiting parts
    runs = []
    current = 0
    seen_delim = False
    for p in lam:
        if p % 2 == delim:
            runs.append(current)
            current = 0
            seen_delim = True
        else:
            current += 1
    if letter == "C":
        if not seen_delim:
            return True
        return all(r % 2 == 0 for r in runs)
    # B and D: parts below the smallest even part are unconstrained, and a
    # missing even part acts as an even part equal to 0.
    if not seen_delim:
        runs.append(current)
    top = runs[0]
    between = runs[1:]
    want_top = 1 if letter == "B" else 0
    return top % 2 == want_top and all(r % 2 == 0 for r in between)


def dual(lam, letter: str):
    """Order-reversing duality onto the special partitions of the dual type.

    B -> C by transpose, lower, C-collapse; C -> B by transpose, raise,
    B-collapse; D -> D by transpose and D-collapse.  The decoration of a very
    even type-D image is not computed: the result is a bare partition.
    """
    lam = bare(lam)
    _check_letter(letter)
    if not is_type_partition(lam, letter):
        raise PartitionError(f"{format_partition(lam)} is not a {letter}-partition")
    if letter == "B":
        return collapse(lower_last(transpose(lam)), "C")
    if letter == "C":
        return collapse(raise_first(transpose(lam)), "B")
    return collapse(transpose(lam), "D")


def self_dual(lam: Partition, letter: str) -> Partition:
    """Duality within the same type: transpose followed by the same-type
    collapse.  Used for orbits of pseudo-Levi factors."""
    _check_letter(letter)
    if not is_type_partition(lam, letter):
        raise PartitionError(f"{format_partition(lam)} is not a {letter}-partition")
    return collapse(transpose(lam), letter)


def integer_partitions(total: int, bound: int | None = None):
    """All partitions of ``total`` with parts at most ``bound``, decreasing."""
    if total == 0:
        yield ()
        return
    top = total if bound is None else min(bound, total)
    for first in range(top, 0, -1):
        for rest in integer_partitions(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def type_partitions(letter: str, rank: int) -> tuple[Partition, ...]:
    """All bare X-partitions of the given rank, decreasing-lex ordered."""
    _check_letter(letter)
    total = 2 * rank + 1 if letter == "B" else 2 * rank
    out = [lam for lam in integer_partitions(total)
           if is_type_partition(lam, letter)]
    out.sort(reverse=True)
    return tuple(out)


def enumerate_orbits(letter: str, rank: int, bound: int | None = None):
    """All orbit avatars for the type: bare partitions for B and C, decorated
    partitions for D (very even ones appear once per decoration)."""
    if rank < 0:
        raise PartitionError(f"rank must be non-negative, got {rank}")
    limit = enum_bound() if bound is None else bound
    if rank > limit:
        raise PartitionError(
            f"rank {rank} exceeds the enumeration bound {limit}")
    if letter != "D":
        return list(type_partitions(letter, rank))
    out = []
    for lam in type_partitions("D", rank):
        if is_very_even(lam):
            out.append(DecoratedPartition(lam, 0))
            out.append(DecoratedPartition(lam, 1))
        else:
            out.append(DecoratedPartition(lam, 0))
    return out


def markable_parts(lam: Partition, letter: str) -> Partition:
    """Parts x (listed decreasing, once each) that can carry a marking:

    * B: x odd with odd height,
    * C: x even with even height,
    * D: x odd with even height.
    """
    _check_letter(letter)
    if not is_type_partition(lam, letter):
        raise PartitionError(f"{format_partition(lam)} is not a {letter}-partition")
    want = {"B": (1, 1), "C": (0, 0), "D": (1, 0)}[letter]
    return tuple(x for x in sorted(set(lam), reverse=True)
                 if (x % 2, height(lam, x) % 2) == want)


def reduction(lam: Partition, mu: Partition, letter: str) -> Partition:
    """Canonical reduced marking r_lam(mu): the markable part x_i is kept
    exactly when ht_mu(x_i) - ht_mu(x_{i+1}) is odd, x_{i+1} being the next
    larger markable part (height 0 beyond the largest)."""
    marks = markable_parts(lam, letter)  # decreasing
    asc = tuple(reversed(marks))
    kept = []
    for i, x in enumerate(asc):
        upper = height(mu, asc[i + 1]) if i + 1 < len(asc) else 0
        if (height(mu, x) - upper) % 2 == 1:
            kept.append(x)
    return as_partition(kept)


@dataclass(frozen=True)
class DecoratedPartition:
    """A partition with a decoration in {0, 1}; the decoration is only
    meaningful when the partition is very even and is normalized to 0
    otherwise."""

    parts: Partition
    kappa: int = 0

    def __post_init__(self):
        object.__setattr__(self, "parts", as_partition(self.parts))
        if self.kappa not in (0, 1):
            raise PartitionError(f"decoration must be 0 or 1, got {self.kappa}")
        if not is_very_even(self.parts):
            object.__setattr__(self, "kappa", 0)

    @property
    def very_even(self) -> bool:
        return is_very_even(self.parts)

    def __str__(self) -> str:
        body = format_partition(self.parts)
        return f"{body}:{self.kappa}" if self.very_even else body


def bare(lam) -> Partition:
    """The partition underneath a possibly decorated one."""
    return lam.parts if isinstance(lam, DecoratedPartition) else lam


def canonical_pair(first, second) -> tuple[Partition, Partition]:
    """Canonical order for an unordered pair: larger total first, ties broken
    lexicographically (largest first)."""
    a, b = as_partition(first), as_partition(second)
    if (sum(a), a) < (sum(b), b):
        a, b = b, a
    return a, b


@dataclass(frozen=True)
class UnorderedBipartition:
    """Unordered decorated pair of partitions; the avatar of an irreducible
    character of an even-signed permutation group.  The decoration is only
    meaningful when the halves are equal and is normalized to 0 otherwise."""

    first: Partition
    second: Partition
    kappa: int = 0

    def __post_init__(self):
        a, b = canonical_pair(self.first, self.second)
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)
        if self.kappa not in (0, 1):
            raise PartitionError(f"decoration must be 0 or 1, got {self.kappa}")
        if self.first != self.second:
            object.__setattr__(self, "kappa", 0)

    @property
    def total(self) -> int:
        return sum(self.first) + sum(self.second)

    @property
    def degenerate(self) -> bool:
        return self.first == self.second

    def __str__(self) -> str:
        body = f"{{{format_partition(self.first)},{format_partition(self.second)}}}"
        return f"{body}:{self.kappa}" if self.degenerate else body


_PART_TOKEN = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str):
    """Parse ``"3^2,1"`` into (3, 3, 1); ``"-"`` and ``""`` are the empty
    partition; a ``":0"``/``":1"`` suffix yields a decorated partition."""
    text = text.strip()
    kappa = None
    if ":" in text:
        text, _, tail = text.partition(":")
        if tail not in ("0", "1"):
            raise PartitionError(f"decoration must be :0 or :1, got :{tail}")
        kappa = int(tail)
    parts: list[int] = []
    if text not in ("", "-"):
        for token in text.split(","):
            m = _PART_TOKEN.match(token.strip())
            if not m:
                raise PartitionError(f"cannot parse partition token {token!r}")
            value, power = int(m.group(1)), int(m.group(2) or 1)
            parts.extend([value] * power)
    lam = as_partition(parts)
    if kappa is None:
        return lam
    return DecoratedPartition(lam, kappa)


def format_partition(lam: Partition) -> str:
    """Canonical text form with exponent collapsing, ``"-"`` when empty."""
    if isinstance(lam, DecoratedPartition):
        return str(lam)
    if not lam:
        return "-"
    chunks = []
    for x in sorted(set(lam), reverse=True):
        m = multiplicity(lam, x)
        chunks.append(f"{x}^{m}" if m > 1 else f"{x}")
    return ",".join(chunks)
