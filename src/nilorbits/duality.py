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

from itertools import zip_longest

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
        pt.assert_type_partition(self.orbit, self.letter)
        # a marking is its own reduction exactly when its parts are
        # distinct markable parts of the orbit; ``reduction`` refuses one
        # that is not a subpartition
        parts = set(self.marking)
        if len(parts) != len(self.marking) or not parts <= set(
                pt.markable_parts(self.orbit, self.letter)):
            reduced = pt.reduction(self.orbit, self.marking, self.letter)
            raise PartitionError(
                f"marking {format_partition(self.marking)} is not reduced on "
                f"{format_partition(self.orbit)} (its reduction is "
                f"{format_partition(reduced)})")

    # the dominance keys of ``le_A``, filled on first use outside the fields
    _orbit_key = None
    _sommers_key = None

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
    does, so when it sits on no shape, no pair does."""
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
    # ``pi_mu`` of a checked orbit whose transpose is ``t``
    keep = 0 if letter == "C" else 1
    pi, mu = [], []
    for x in set(t):
        if x % 2 != keep:
            continue
        if t.count(x) % 2:
            pi.append(x)
            mu.append(x)
        else:
            mu.extend([x, x])
    return pt.as_partition(pi), pt.as_partition(mu)


def d_A_triv(lam, letter: str) -> MarkedOrbit:
    """Achar duality evaluated on a trivially marked dual orbit: the dual
    partition, marked by the reduction of the parity-selected subpartition
    of the transpose.  ``lam`` is a partition of the dual type of
    ``letter``; for a very even type-D input the decoration is dropped and
    the result carries the decoration-undetermined flag."""
    return _d_A_of_orbit(letter, _orbit(lam, letter))[0]


@pt._memo
def _d_A_of_orbit(letter: str,
                  bare: Partition) -> tuple[MarkedOrbit, Partition]:
    # one MarkedOrbit per orbit, so its prefix sums are shared, and its mu
    # for ``faithful._route``: the orbit is transposed and split once
    t = pt.transpose(bare)
    pi, mu = _pi_mu(t, letter)
    dual_orbit = pt._dual_of_transpose(t, dual_letter(letter))
    return pt._trusted(MarkedOrbit, letter, dual_orbit,
                       pt._reduction(dual_orbit, pi, letter)), mu


def le_A(m1: MarkedOrbit, m2: MarkedOrbit) -> bool:
    """Achar's order: the orbits compare in the closure order and the
    Sommers duals compare the other way.

    Each dominance test is one subtraction of packed prefix sums
    (``partitions.key_le``): a field is one bit wider than the total needs,
    so with its top bit set it stays non-negative after any subtraction of
    a prefix sum, and no field borrows from the next.  The Sommers duals
    are only read when the orbits compare, the second one first, so a
    marking with no lift raises only then."""
    if m1.letter != m2.letter:
        raise PartitionError(f"cannot compare types {m1.letter} and "
                             f"{m2.letter}")
    if not pt.key_le(m1._orbit_key or _keep_key(m1, "_orbit_key", m1.orbit),
                     m2._orbit_key or _keep_key(m2, "_orbit_key", m2.orbit)):
        return False
    return pt.key_le(
        m2._sommers_key or _keep_key(m2, "_sommers_key", d_S_marked(m2)),
        m1._sommers_key or _keep_key(m1, "_sommers_key", d_S_marked(m1)))


def _keep_key(m: MarkedOrbit, name: str, lam: Partition) -> pt.DominanceKey:
    # the dominance key of ``lam``, kept as the attribute ``name`` of ``m``
    key = pt.dominance_key(lam)
    object.__setattr__(m, name, key)
    return key


def maximal_marked(items) -> list[MarkedOrbit]:
    """The maximal elements of a set of marked orbits under the Achar
    order."""
    items = list(dict.fromkeys(items))
    return [m for m in items
            if not any(other != m and le_A(m, other) and not le_A(other, m)
                       for other in items)]
