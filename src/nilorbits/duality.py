"""Duality maps on marked orbits.

A marked orbit is a partition together with its canonical reduced marking, a
subpartition supported on the markable parts with multiplicities at most one.
Marked orbits are the combinatorial avatars of pairs (orbit, conjugacy class
in Lusztig's canonical quotient); the reduction is a complete invariant in
the classical types, so no group-theoretic model is kept.

Public entry points check their arguments; internal producers use the
trusted path: the Achar duals and ``sbar`` images built here from checked
orbits skip ``MarkedOrbit``'s check that the marking is reduced.
"""

from __future__ import annotations

from itertools import accumulate, groupby, repeat, zip_longest

from . import partitions as pt
from . import springer as sp
from .partitions import (Partition, PartitionError, dual_letter,
                         format_partition, is_very_even)


@pt._record
class MarkedOrbit:
    """An orbit partition with its canonical reduced marking."""

    letter: str
    orbit: Partition
    marking: Partition

    def __post_init__(self):
        object.__setattr__(self, "orbit", pt.as_partition(self.orbit))
        object.__setattr__(self, "marking", pt.as_partition(self.marking))
        # reduced by definition: the marking is its own reduction, which
        # checks the orbit first and then that the marking is a subpartition
        reduced = pt.reduction(self.orbit, self.marking, self.letter)
        if reduced != self.marking:
            raise PartitionError(
                f"marking {format_partition(self.marking)} is not reduced on "
                f"{format_partition(self.orbit)} (its reduction is "
                f"{format_partition(reduced)})")

    # outside the fields: ``le_A``'s key, and an Achar dual's Sommers dual
    _achar_key = _sommers = None

    @property
    def decoration_undetermined(self) -> bool:
        """Very even type-D orbits stand for two decorated orbits whose
        decoration transport is not modelled."""
        return self.letter == "D" and is_very_even(self.orbit)

    def __str__(self) -> str:
        return f"{format_partition(self.orbit)} | " \
               f"{format_partition(self.marking)}"


def pair_shape(mu: Partition, nu: Partition, letter: str) -> sp.PseudoLeviShape:
    """The maximal pseudo-Levi shape carrying the orbit pair (mu, nu), with
    the factor memberships checked."""
    mu, nu = pt.as_partition(mu), pt.as_partition(nu)
    if sum(mu) % 2:
        raise PartitionError(f"first factor total {sum(mu)} must be even")
    p = sum(mu) // 2
    tail = sum(nu) - (1 if letter == "B" else 0)
    if tail < 0 or tail % 2:
        raise PartitionError(
            f"second factor total {sum(nu)} has the wrong parity for "
            f"type {letter}")
    n = p + tail // 2
    shape = sp.PseudoLeviShape(letter, p, n)
    if shape.degenerate:
        raise PartitionError(f"pair ({format_partition(mu)}, "
                             f"{format_partition(nu)}) sits on the "
                             f"degenerate shape {shape}")
    y, x = shape.factor_letters
    pt.assert_type_partition(mu, y)
    pt.assert_type_partition(nu, x)
    return shape


def sbar(mu: Partition, nu: Partition, letter: str) -> MarkedOrbit:
    """Image of the pseudo-Levi orbit pair: the union of the factors, marked
    by the reduction of the first factor."""
    pair_shape(mu, nu, letter)
    return _image(mu, nu, letter)


def _image(mu: Partition, nu: Partition, letter: str) -> MarkedOrbit:
    # ``sbar`` of a pair that ``pair_shape`` has already checked: the union
    # of a y- and an x-partition of the shape is a ``letter``-partition
    lam = pt.union(mu, nu)
    return pt._trusted(MarkedOrbit, letter, lam,
                       pt._reduction(lam, mu, letter))


def d_S(mu: Partition, nu: Partition, letter: str) -> Partition:
    """Sommers duality on the orbit-pair avatar: the transpose of the first
    factor plus the in-factor dual of the second, part by part, collapsed
    into the dual type; it equals truncated induction of the pair of
    in-factor duals, read off on the dual side.  Constant on the fibers of
    ``sbar``.  Compare the partition descriptions in E. Sommers, *Lusztig's
    canonical quotient and generalized duality*, J. Algebra 243 (2001), and
    P. Achar, *An order-reversing duality map for conjugacy classes in
    Lusztig's canonical quotient*, Transform. Groups 8 (2003)."""
    shape = pair_shape(mu, nu, letter)
    _, x = shape.factor_letters
    # ``pair_shape`` has checked nu, and the sum has the dual type's parity
    first = pt.transpose(pt.as_partition(mu))
    second = pt._dual_of_transpose(pt.transpose(pt.as_partition(nu)), x)
    summed = [a + b for a, b in zip_longest(first, second, fillvalue=0)]
    return pt._collapse(summed, dual_letter(letter))


def d_S_marked(marked: MarkedOrbit) -> Partition:
    """Sommers dual of a marked orbit, through any realizing pair.  The pair
    (marking, orbit - marking) lifts the marked orbit whenever any pair
    does, so when it sits on no shape, no pair does.  An Achar dual carries
    its own, as d_S(d_A(O, 1)) = O."""
    if marked._sommers is not None:
        return marked._sommers
    rest = pt.subtract(marked.orbit, marked.marking)
    try:
        return d_S(marked.marking, rest, marked.letter)
    except PartitionError:
        raise PartitionError(f"no pseudo-Levi pair realizes {marked.orbit} "
                             f"| {marked.marking}") from None


def _orbit(lam, letter: str) -> Partition:
    """The sorted bare partition of a dual-side orbit, checked against the
    dual type of ``letter``."""
    bare = pt.as_partition(pt.bare(lam))
    pt.assert_type_partition(bare, dual_letter(letter))
    return bare


def pi_mu(lam, letter: str) -> tuple[Partition, Partition]:
    """Parity-selected subpartitions of the transpose of a dual-side orbit.

    For a type-C group the even parts of the transpose are kept, for B and D
    the odd ones; a part with odd multiplicity contributes once to the first
    output and once to the second, a part with even positive multiplicity
    contributes twice to the second only."""
    return _pi_mu(pt.transpose(_orbit(lam, letter)), letter)


def _pi_mu(t: Partition, letter: str) -> tuple[Partition, Partition]:
    # ``pi_mu`` of a checked orbit whose transpose is ``t``, run by run of
    # equal parts, largest first, so both outputs come out sorted
    keep = 0 if letter == "C" else 1
    pi, mu = [], []
    for x, run in groupby(t):
        if x % 2 == keep:
            if len(tuple(run)) % 2:
                pi.append(x)
                mu.append(x)
            else:
                mu += (x, x)
    return tuple(pi), tuple(mu)


def d_A_triv(lam, letter: str) -> MarkedOrbit:
    """Achar duality evaluated on a trivially marked dual orbit: the dual
    partition, marked by the reduction of the parity-selected subpartition
    of the transpose.  ``lam`` is a partition of the dual type of
    ``letter``; for a very even type-D input the decoration is dropped and
    the result carries the decoration-undetermined flag."""
    return _d_A_of_orbit(letter, _orbit(lam, letter))[0]


def _d_A_of_orbit(letter: str,
                  bare: Partition) -> tuple[MarkedOrbit, Partition]:
    # the Achar dual of a checked orbit, keeping ``bare`` as its Sommers dual
    # (set ahead of any Achar key, for one attribute order), and ``_route``'s
    # mu, from one transpose; not memoised, as callers that ask again keep it
    t = pt.transpose(bare)
    pi, mu = _pi_mu(t, letter)
    dual_orbit = pt._dual_of_transpose(t, dual_letter(letter))
    marked = pt._trusted(MarkedOrbit, letter, dual_orbit,
                         pt._reduction(dual_orbit, pi, letter))
    object.__setattr__(marked, "_sommers", bare)
    return marked, mu


def le_A(m1: MarkedOrbit, m2: MarkedOrbit) -> bool:
    """Achar's order: the orbits compare in the closure order and the
    Sommers duals compare the other way.

    ``_achar_key`` packs the orbit's prefix sums, then ``2**(w-1) - 1 - s``
    for each prefix sum ``s`` of the Sommers dual, in fields ``w`` bits
    wide, one more than the larger total needs.  Its int tag tells each
    (letter, orbit total) apart, and so fixes the fields and their guard.
    The complement turns the second test around: when both keys are filled
    and their tags agree, one subtraction and one AND decide.  Otherwise
    ``dominance_le`` compares the orbits; if they compare, the Sommers duals
    are read, m2's first (a checked marking with no lift raises only then)."""
    k1, k2 = m1._achar_key, m2._achar_key
    if k1 is None or k2 is None or k1[0] != k2[0]:
        if m1.letter != m2.letter:
            raise PartitionError(f"cannot compare types {m1.letter} and {m2.letter}")
        if not pt.dominance_le(m1.orbit, m2.orbit):
            return False
        k2 = k2 or _keep_achar_key(m2)
        k1 = m1._achar_key or _keep_achar_key(m1)  # m1 may be m2
    guard = k1[1]
    return (k2[3] - k1[2]) & guard == guard


def _keep_achar_key(m: MarkedOrbit) -> tuple:
    # the Achar key of m, kept on m: (tag, guard, packed, packed | guard)
    dual = d_S_marked(m)
    n, d = sum(m.orbit), sum(dual)
    top = (1 << max(n, d).bit_length()) - 1
    fields = _sums(m.orbit, n) + [top - s for s in _sums(dual, d)]
    guard, packed = _packed(fields, top.bit_length() + 1)
    key = (3 * n + "BCD".index(m.letter), guard, packed, packed | guard)
    object.__setattr__(m, "_achar_key", key)
    return key


def _sums(lam: Partition, total: int) -> list[int]:
    # lam's prefix sums padded to ``total`` fields, the most parts it can have
    return [*accumulate(lam), *repeat(total, total - len(lam))]


def _packed(fields: list[int], width: int) -> tuple[int, int]:
    # (the top bit of each ``width``-bit field, ``fields`` packed, first lowest)
    ones = ((1 << width * len(fields)) - 1) // ((1 << width) - 1)
    return ones << (width - 1), sum(value << width * i
                                    for i, value in enumerate(fields))
