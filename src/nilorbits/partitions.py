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

The primitives are single passes over C-level builtins (``list.count``,
``sorted``, ``map`` with ``operator``), not one Python-level scan per part.
What they assume of their input:

* ``as_partition`` canonicalises any iterable (sorted decreasing, zeros
  dropped, negative parts refused), and so do ``union``,
  ``parse_partition`` and ``DecoratedPartition``;
* ``height``, ``is_type_partition``, ``is_very_even``, ``format_partition``,
  ``contains``, ``subtract``, ``markable_parts`` and ``reduction`` take a
  tuple or list in any order, zeros and negative parts included (``subtract``
  and ``reduction`` refuse a second argument that ``contains`` rejects);
* ``transpose`` takes a tuple or list in any order and reads ``lam[0]``
  as the number of columns;
* the rest (``dominance_le``, ``raise_first``, ``lower_last``,
  ``collapse``, ``is_special``, ``dual``) expect a canonical partition: a
  decreasing tuple without zeros.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from itertools import accumulate, repeat
from operator import attrgetter, ge, le, mod

Partition = tuple[int, ...]

LETTERS = ("B", "C", "D")
_DUAL_LETTERS = {"B": "C", "C": "B", "D": "D"}

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
    out = sorted(map(int, parts), reverse=True)
    if out and out[-1] <= 0:
        if out[-1] < 0:
            raise PartitionError(f"negative part {out[-1]} is not allowed")
        del out[out.index(0):]
    return tuple(out)


def height(lam: Partition, x: int) -> int:
    """Number of parts of lam that are >= x."""
    return len([p for p in lam if p >= x])


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (flip the Young diagram across the diagonal):
    column j has height(lam, j) boxes, for j = 1, ..., lam[0]."""
    if not lam:
        return ()
    cols = []
    below = 0
    # in increasing order, the first copy of a part has as many parts from
    # it to the end as its height
    parts = sorted(lam)
    for rows, part in zip(range(len(parts), 0, -1), parts):
        if part > below:
            cols += [rows] * (part - below)
            below = part
    return tuple(cols[:max(lam[0], 0)])


def union(lam: Partition, mu: Partition) -> Partition:
    """Multiset union: multiplicities add."""
    return as_partition(lam + mu)


def contains(lam: Partition, mu: Partition) -> bool:
    """True if mu is a subpartition of lam (multiplicity-wise)."""
    parts = set(mu)
    return all(map(ge, map(lam.count, parts), map(mu.count, parts)))


def subtract(lam: Partition, mu: Partition) -> Partition:
    """The unique nu with lam = union(mu, nu); requires mu contained in lam."""
    for x in set(mu):
        if lam.count(x) < mu.count(x):
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
    """True iff lam <= mu in the dominance order (equal totals required):
    every running total of lam is at most mu's.  Stopping at the shorter
    partition is exact: past mu's end its running totals are the common
    total, and at lam's end lam's already exceeds a longer mu's."""
    if (total := sum(lam)) != sum(mu):
        raise PartitionError(
            f"dominance compares equal totals, got {total} != {sum(mu)}")
    return all(map(le, accumulate(lam), accumulate(mu)))


def dual_letter(letter: str) -> str:
    """Type of the Langlands dual algebra: B <-> C, D <-> D."""
    _check_letter(letter)
    return _DUAL_LETTERS[letter]


def _check_letter(letter: str) -> None:
    if letter not in LETTERS:
        raise PartitionError(f"type letter must be one of B, C, D, got {letter!r}")


def _check_total(lam: Partition, letter: str) -> None:
    total = sum(lam)
    if letter == "B" and total % 2 == 0:
        raise PartitionError(f"a B-partition has odd total, got {total}")
    if letter in ("C", "D") and total % 2 == 1:
        raise PartitionError(f"a {letter}-partition has even total, got {total}")


def is_type_partition(lam: Partition, letter: str) -> bool:
    """Parity test: B/D need even parts of even multiplicity, C needs odd
    parts of even multiplicity.  The total must have the parity of the type."""
    _check_letter(letter)
    _check_total(lam, letter)
    bad = 0 if letter in ("B", "D") else 1
    # each value occurs an even number of times exactly when the sorted
    # parts pair off
    fix = [p for p in lam if p % 2 == bad]
    fix.sort()
    return fix[::2] == fix[1::2]


def assert_type_partition(lam: Partition, letter: str) -> None:
    if not is_type_partition(lam, letter):
        raise PartitionError(f"{format_partition(lam)} is not a "
                             f"{letter}-partition")


def is_very_even(lam: Partition) -> bool:
    """All parts even, each with even multiplicity."""
    parts = sorted(lam)
    return not any(map(mod, parts, repeat(2))) and parts[::2] == parts[1::2]


def collapse(lam: Partition, letter: str) -> Partition:
    """Largest partition of the given type dominated by lam.

    The constrained-parity parts (even for B/D, odd for C) are paired off in
    decreasing order, padding with a trailing 0 when their number is odd;
    an unequal pair (a, b) becomes (a-1, b+1).
    """
    _check_letter(letter)
    _check_total(lam, letter)
    result = _collapse(lam, letter)
    if not is_type_partition(result, letter):
        raise AssertionError(f"collapse produced a non-{letter}-partition "
                             f"{result} from {lam}")
    return result


def _collapse(parts: Partition, letter: str) -> Partition:
    # ``collapse`` with no check of the letter, the total or the result
    bad = 0 if letter in ("B", "D") else 1
    out = [p for p in parts if p % 2 != bad]
    fix = [p for p in parts if p % 2 == bad]
    if len(fix) % 2:
        fix.append(0)
    for a, b in zip(fix[::2], fix[1::2]):
        out += (a, b) if a == b else (a - 1, b + 1)
    out.sort(reverse=True)
    # only a padded pair (1, 0) of type C leaves a zero part
    return tuple(out) if not out or out[-1] > 0 else as_partition(out)


def is_special(lam, letter: str) -> bool:
    """Parity criterion for special orbits, in one pass over the parts in
    decreasing order: each constrained-parity part (even for B and D, odd
    for C) needs a number of unconstrained-parity parts above it that is
    odd for B and even for C and D.  A missing even part of B or D needs no
    case of its own: the parity of the total settles it.  Decorated input
    is accepted; both decorations of a very even partition are special."""
    lam = bare(lam)
    assert_type_partition(lam, letter)
    bad = 1 if letter == "C" else 0
    want = 1 if letter == "B" else 0
    above = 0  # the unconstrained-parity parts read so far
    for p in lam:
        if p % 2 != bad:
            above += 1
        elif above % 2 != want:
            return False
    return True


def dual(lam, letter: str):
    """Order-reversing duality onto the special partitions of the dual type.

    B -> C by transpose, lower, C-collapse; C -> B by transpose, raise,
    B-collapse; D -> D by transpose and D-collapse.  The decoration of a very
    even type-D image is not computed: the result is a bare partition.
    """
    lam = bare(lam)
    assert_type_partition(lam, letter)
    return _dual_of_transpose(transpose(lam), letter)


def _dual_of_transpose(t: Partition, letter: str) -> Partition:
    # ``dual`` of a checked ``letter``-partition whose transpose is ``t``
    if letter != "D":
        t = lower_last(t) if letter == "B" else raise_first(t)
    return _collapse(t, _DUAL_LETTERS[letter])


def integer_partitions(total: int):
    """All partitions of ``total``, decreasing."""
    return _paired_partitions(total, total, None)


def type_partitions(letter: str, rank: int) -> tuple[Partition, ...]:
    """All bare X-partitions of the given rank, decreasing-lex ordered,
    generated directly: a constrained-parity part (even for B and D, odd
    for C) is always placed together with its twin."""
    _check_letter(letter)
    total = 2 * rank + 1 if letter == "B" else 2 * rank
    return tuple(_paired_partitions(total, total, 1 if letter == "C" else 0))


def _paired_partitions(total: int, bound: int, bad: int | None):
    # the partitions of ``total`` into parts at most ``bound``, those of
    # parity ``bad`` (none when None) in pairs, decreasing-lex ordered
    if total == 0:
        yield ()
    for first in range(min(bound, total), 0, -1):
        twin = (first, first) if first % 2 == bad else (first,)
        if len(twin) * first <= total:
            for rest in _paired_partitions(total - len(twin) * first, first,
                                           bad):
                yield twin + rest


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
    assert_type_partition(lam, letter)
    return _markable_parts(lam, letter)


def _markable_parts(lam: Partition, letter: str) -> Partition:
    # ``markable_parts`` of a checked ``letter``-partition
    want = {"B": (1, 1), "C": (0, 0), "D": (1, 0)}[letter]
    out = []
    ht = 0  # the height of x: the parts counted so far, all >= x
    for x in sorted(set(lam), reverse=True):
        ht += lam.count(x)
        if (x % 2, ht % 2) == want:
            out.append(x)
    return tuple(out)


def reduction(lam: Partition, mu: Partition, letter: str) -> Partition:
    """Canonical reduced marking r_lam(mu): the markable part x_i is kept
    exactly when ht_mu(x_i) - ht_mu(x_{i+1}) is odd, x_{i+1} being the next
    larger markable part (height 0 beyond the largest).  ``mu`` must be a
    subpartition of ``lam``."""
    assert_type_partition(lam, letter)
    if not contains(lam, mu):
        raise PartitionError(f"{format_partition(mu)} is not a subpartition "
                             f"of {format_partition(lam)}")
    return _reduction(lam, mu, letter)


def _reduction(lam: Partition, mu: Partition, letter: str) -> Partition:
    # ``reduction`` on a checked ``letter``-partition, of any ``mu``
    kept = []
    upper = 0
    for x in _markable_parts(lam, letter):  # decreasing
        ht = height(mu, x)
        if (ht - upper) % 2 == 1:
            kept.append(x)
        upper = ht
    return as_partition(kept)


class FrozenFieldError(AttributeError):
    """Raised on assigning to or deleting a field of a frozen value."""


def _record(cls):
    """Make ``cls`` a frozen, hashable value type over the fields annotated
    in its body (two or more), in that order, as ``dataclass(frozen=True)``
    would, but with no code compiled at import time.  The class gets:

    * ``__init__``, which takes the fields positionally or by keyword, with
      the class attributes of the same names as defaults (those fields come
      last), and then calls ``__post_init__`` if the class defines one
      (looked up on each call);
    * ``__repr__`` in the form ``Name(field=value, ...)``;
    * ``__eq__`` between objects of the same class, and ``__hash__``, both
      over the tuple of field values;
    * ``__setattr__`` and ``__delattr__``, which raise ``FrozenFieldError``;
    * ``__match_args__``, the field names in order, which ``_trusted``
      reads too.

    Derived values live in private attributes set with ``object.__setattr__``,
    never through ``__dict__`` as a cached property does: on CPython 3.11 a
    ``__dict__`` write slows every later attribute load (``BENCH_22.json``)."""
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    count = len(names)
    required = count - len(defaults)
    if tuple(defaults) != names[required:]:
        raise TypeError(f"{cls.__name__}: fields with defaults must come last")
    values = attrgetter(*names)
    positions = tuple(enumerate(names))
    post_init = hasattr(cls, "__post_init__")
    setattr_ = object.__setattr__

    def bind(args, kwargs):
        # the field values of a call that leaves defaulted fields out,
        # names fields or passes the wrong number of values
        bound = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > count or bound.keys() != set(names) or \
                not kwargs.keys().isdisjoint(names[:len(args)]):
            raise TypeError(f"{cls.__name__}() takes the fields "
                            f"{', '.join(names)}, each once")
        return [bound[name] for name in names]

    # the fields are set one by one in field order, so instances share
    # dict keys; indexing ``args`` is faster here than a ``zip``
    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for i, name in positions:
            setattr_(self, name, args[i])
        if post_init:
            self.__post_init__()

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                f"{', '.join(map('{}={!r}'.format, names, values(self)))})")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise FrozenFieldError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenFieldError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__,
                   __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@_record
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


def _trusted(cls, *values):
    """The ``_record`` class ``cls`` with ``values`` as its fields, made
    without ``__post_init__`` (nor what it derives, as a shape's factors),
    for internal producers whose values are already checked and canonical.
    Every field needs a value, defaulted ones too.  Fields are set one by
    one in field order, as ``__init__`` does, so instances share dict keys."""
    names = cls.__match_args__
    if len(values) != len(names):
        raise ValueError(f"{cls.__name__} needs {len(names)} values, got "
                         f"{len(values)}")
    obj = object.__new__(cls)
    for name, value in zip(names, values):
        object.__setattr__(obj, name, value)
    return obj


_MEMOS = []


def _memo(fn):
    """``fn`` behind an unbounded ``functools.lru_cache``, registered on
    ``_MEMOS`` with the library's other per-process memos; the wrapper
    itself is returned, so a call costs what an ``lru_cache`` call costs."""
    memo = lru_cache(maxsize=None)(fn)
    _MEMOS.append(memo)
    return memo


def _clear_memos() -> None:
    """Empty every registered memo."""
    for memo in _MEMOS:
        memo.cache_clear()


def bare(lam) -> Partition:
    """The partition underneath a possibly decorated one."""
    return lam.parts if isinstance(lam, DecoratedPartition) else lam


def _ordered_pair(a: Partition, b: Partition) -> tuple[Partition, Partition]:
    # two canonical partitions, larger total first, then the larger one
    return (b, a) if (sum(a), a) < (sum(b), b) else (a, b)


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
        m = lam.count(x)
        chunks.append(f"{x}^{m}" if m > 1 else f"{x}")
    return ",".join(chunks)
