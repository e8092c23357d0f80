"""Duality maps on marked orbits.

A marked orbit is a partition together with its canonical reduced marking, a
subpartition supported on the markable parts with multiplicities at most one.
Marked orbits are the combinatorial avatars of pairs (orbit, conjugacy class
in Lusztig's canonical quotient); the reduction is a complete invariant in
the classical types, so no group-theoretic model is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import partitions as pt
from . import springer as sp
from .partitions import (DecoratedPartition, Partition, PartitionError,
                         dual_letter, format_partition, is_type_partition,
                         is_very_even)


@dataclass(frozen=True)
class MarkedOrbit:
    """An orbit partition with its canonical reduced marking."""

    letter: str
    orbit: Partition
    marking: Partition

    def __post_init__(self):
        object.__setattr__(self, "orbit", pt.as_partition(self.orbit))
        object.__setattr__(self, "marking", pt.as_partition(self.marking))
        if not is_type_partition(self.orbit, self.letter):
            raise PartitionError(f"{format_partition(self.orbit)} is not a "
                                 f"{self.letter}-partition")
        reduced = pt.reduction(self.orbit, self.marking, self.letter)
        if reduced != self.marking:
            raise PartitionError(
                f"marking {format_partition(self.marking)} is not reduced on "
                f"{format_partition(self.orbit)} (its reduction is "
                f"{format_partition(reduced)})")

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
    if not is_type_partition(mu, y):
        raise PartitionError(f"{format_partition(mu)} is not a {y}-partition")
    if not is_type_partition(nu, x):
        raise PartitionError(f"{format_partition(nu)} is not a {x}-partition")
    return shape


def sbar(mu: Partition, nu: Partition, letter: str) -> MarkedOrbit:
    """Image of the pseudo-Levi orbit pair: the union of the factors, marked
    by the reduction of the first factor."""
    shape = pair_shape(mu, nu, letter)
    del shape
    lam = pt.union(mu, nu)
    return MarkedOrbit(letter, lam, pt.reduction(lam, mu, letter))


def lift_pairs(marked: MarkedOrbit) -> list[tuple[Partition, Partition]]:
    """All pseudo-Levi orbit pairs mapping to the marked orbit, smallest
    first factor first."""
    lam = marked.orbit
    values = sorted(set(lam), reverse=True)
    choices = [range(pt.multiplicity(lam, v) + 1) for v in values]
    out = []
    for combo in product(*choices):
        mu = pt.as_partition([v for v, m in zip(values, combo)
                              for _ in range(m)])
        nu = pt.subtract(lam, mu)
        try:
            pair_shape(mu, nu, marked.letter)
        except PartitionError:
            continue
        if pt.reduction(lam, mu, marked.letter) == marked.marking:
            out.append((mu, nu))
    out.sort(key=lambda pair: (sum(pair[0]), pair[0]))
    return out


def d_S(mu: Partition, nu: Partition, letter: str) -> Partition:
    """Sommers duality on the orbit-pair avatar: truncated induction of the
    pair of in-factor duals, read off on the dual side.  Constant on the
    fibers of ``sbar``."""
    shape = pair_shape(mu, nu, letter)
    y, x = shape.factor_letters
    rep1 = sp.rep_of_orbit(pt.self_dual(mu, y), y, y)
    rep2 = sp.rep_of_orbit(pt.self_dual(nu, x), x, x)
    induced = sp.j_induce(shape, rep1, rep2)
    return pt.bare(sp.springer_support(induced, "dual"))


@lru_cache(maxsize=None)
def _d_S_of_marked(letter: str, orbit: Partition,
                   marking: Partition) -> Partition:
    lifts = lift_pairs(MarkedOrbit(letter, orbit, marking))
    if not lifts:
        raise PartitionError(
            f"no pseudo-Levi pair realizes {orbit} | {marking}")
    mu, nu = lifts[0]
    return d_S(mu, nu, letter)


def d_S_marked(marked: MarkedOrbit) -> Partition:
    """Sommers dual of a marked orbit, through any realizing pair."""
    return _d_S_of_marked(marked.letter, marked.orbit, marked.marking)


def d_A_triv(lam, letter: str) -> MarkedOrbit:
    """Achar duality evaluated on a trivially marked dual orbit: the dual
    partition, marked by the reduction of the parity-selected subpartition
    of the transpose.  ``lam`` is a partition of the dual type of
    ``letter``; for a very even type-D input the decoration is dropped and
    the result carries the decoration-undetermined flag."""
    from . import faithful
    pi, _ = faithful.pi_mu(lam, letter)
    dual_orbit = pt.dual(pt.bare(lam), dual_letter(letter))
    return MarkedOrbit(letter, dual_orbit,
                       pt.reduction(dual_orbit, pi, letter))


def closure_le(lam1, lam2, letter: str) -> bool:
    """Closure order on orbit avatars: dominance of partitions; two very
    even type-D orbits with the same partition and different decorations are
    incomparable."""
    b1, b2 = pt.bare(lam1), pt.bare(lam2)
    if letter == "D" and isinstance(lam1, DecoratedPartition) \
            and isinstance(lam2, DecoratedPartition):
        if lam1.very_even and lam2.very_even and b1 == b2:
            return lam1.kappa == lam2.kappa
    return pt.dominance_le(b1, b2)


def le_A(m1: MarkedOrbit, m2: MarkedOrbit) -> bool:
    """Achar's order: the orbits compare in the closure order and the
    Sommers duals compare the other way."""
    if m1.letter != m2.letter:
        raise PartitionError(f"cannot compare types {m1.letter} and "
                             f"{m2.letter}")
    if not pt.dominance_le(m1.orbit, m2.orbit):
        return False
    return pt.dominance_le(d_S_marked(m2), d_S_marked(m1))


def maximal_marked(items) -> list[MarkedOrbit]:
    """The maximal elements of a set of marked orbits under the Achar
    order."""
    items = list(dict.fromkeys(items))
    out = []
    for m in items:
        if any(other != m and le_A(m, other) and not le_A(other, m)
               for other in items):
            continue
        if m not in out:
            out.append(m)
    return out
