"""The three library workloads: seeded items, one library call per item,
and a canonical rendering of every result.

Every item list is fixed by the workload; the seed only shuffles the order
the items run in.  Renderings are sorted before hashing, so a pass's digest
does not depend on the order.  Importing this module imports the library,
so a worker imports it only after timing its own import of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from math import comb, factorial

from nilorbits import duality as du
from nilorbits import faithful as fa
from nilorbits import partitions as pt
from nilorbits import springer as sp
from nilorbits import wavefront as wf

LETTERS = ("B", "C", "D")
VERIFY_RANK = 12
ORDER_RANK = 10
WAVEFRONT_RANK = 12
RESTRICTION_RANK = 7


@dataclass
class Workload:
    items: list            # (key, zero-argument call)
    render: object         # (key, result) -> one canonical line
    failed: object         # result -> True when the item failed
    invariants: object     # [(key, result)] -> list of violated invariants


def verify_sweep(rng) -> Workload:
    """``verify_faithful`` on every dual-side orbit of B, C, D at rank 12."""
    items = [((letter, lam), partial(fa.verify_faithful, lam, letter))
             for letter in LETTERS
             for lam in pt.enumerate_orbits(pt.dual_letter(letter),
                                            VERIFY_RANK, VERIFY_RANK)]
    rng.shuffle(items)

    def render(key, report):
        witnesses = "; ".join(f"{e} <- {f}" for e, f in report.witnesses)
        return (f"{key[0]} {report.orbit} i={report.condition_i} "
                f"ii={report.condition_ii} {report.pair} :: {witnesses}")

    def invariants(results):
        problems = []
        for letter in LETTERS:
            fibres = sum(len(report.witnesses) for (l, _), report in results
                         if l == letter and not isinstance(report, Exception))
            irreps = len(sp.irreps(letter, VERIFY_RANK))
            if fibres != irreps:
                problems.append(f"{letter}{VERIFY_RANK}: dual fibres hold "
                                f"{fibres} characters, the group has {irreps}")
        return problems

    return Workload(items, render, lambda report: not report.ok, invariants)


def _achar_row(marked, row):
    return tuple(du.le_A(marked, other) for other in row)


def order_wavefront(rng) -> Workload:
    """One item per Achar-order row of the ``d_A_triv`` images at rank 10,
    and one per ``wf_of_wrep`` query on every character at rank 12."""
    images = {letter: [du.d_A_triv(lam, letter) for lam in
                       pt.type_partitions(pt.dual_letter(letter), ORDER_RANK)]
              for letter in LETTERS}
    items = [(("A", letter, i), partial(_achar_row, marked, images[letter]))
             for letter in LETTERS for i, marked in enumerate(images[letter])]
    items += [(("W", rep), partial(wf.wf_of_wrep, rep)) for letter in LETTERS
              for rep in sp.irreps(letter, WAVEFRONT_RANK)]
    rng.shuffle(items)

    def render(key, result):
        if key[0] == "A":
            _, letter, i = key
            bits = "".join("1" if le else "0" for le in result)
            return f"A {letter} {images[letter][i]} {bits}"
        return f"W {key[1].letter} {key[1]} {result}"

    def invariants(results):
        problems = []
        for letter in LETTERS:
            if len(set(images[letter])) != len(images[letter]):
                problems.append(f"d_A_triv is not injective on the "
                                f"{letter}{ORDER_RANK} orbits")
        for key, row in results:
            if key[0] == "A" and not isinstance(row, Exception) \
                    and not row[key[2]]:
                problems.append(f"le_A is not reflexive at {key[1]} "
                                f"{images[key[1]][key[2]]}")
        return problems

    return Workload(items, render, lambda result: False, invariants)


def _multiplicities(rep, shape, pairs):
    return tuple(sp.restriction_multiplicity(rep, shape, r1, r2)
                 for r1, r2 in pairs)


def _hooks_dim(lam) -> int:
    """Number of standard tableaux of shape lam (hook length formula)."""
    cols = [sum(1 for part in lam if part > j) for j in range(lam[0])] \
        if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


@cache
def _dim(rep) -> int:
    """Degree of a character from its bipartition; a degenerate type-D
    character is half of the hyperoctahedral one."""
    full = comb(rep.rank, sum(rep.first)) * _hooks_dim(rep.first) * \
        _hooks_dim(rep.second)
    return full // 2 if rep.degenerate else full


def restriction_table(rng) -> Workload:
    """``restriction_multiplicity`` of every non-degenerate rank-7 character
    over every product shape and factor pair; one item per (character,
    shape).  Degenerate type-D ambient characters are refused by the
    library by design, so they are left out."""
    rows = []
    for letter in LETTERS:
        shapes = []
        for shape in sp.product_shapes(letter, RESTRICTION_RANK):
            (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
            shapes.append((shape, [(r1, r2) for r1 in sp.irreps(y, p)
                                   for r2 in sp.irreps(x, q)]))
        rows += [(rep, shape, pairs)
                 for rep in sp.irreps(letter, RESTRICTION_RANK)
                 if not rep.degenerate for shape, pairs in shapes]
    items = [((rep, shape, pairs), partial(_multiplicities, rep, shape, pairs))
             for rep, shape, pairs in rows]
    rng.shuffle(items)

    def render(key, mults):
        return f"{key[0].letter} {key[0]} @ {key[1]}: " + \
            ",".join(map(str, mults))

    def invariants(results):
        """Restriction keeps the degree: the factor degrees weighted by the
        multiplicities add up to the degree of the character."""
        problems = []
        for (rep, shape, pairs), mults in results:
            if isinstance(mults, Exception):
                continue
            got = sum(m * _dim(r1) * _dim(r2)
                      for m, (r1, r2) in zip(mults, pairs))
            if got != _dim(rep):
                problems.append(f"{rep} @ {shape}: restricted degree {got}, "
                                f"character degree {_dim(rep)}")
        return problems

    return Workload(items, render, lambda mults: False, invariants)


BUILDERS = {
    "verify_sweep": verify_sweep,
    "order_wavefront": order_wavefront,
    "restriction_table": restriction_table,
}
