"""Digests of the library's answers, for refactors that must not change them.

Run from a checkout, once on each side of a change, and compare the lines:

    PYTHONPATH=src python3 tests/answer_digests.py

Each line is a sha256 over the text rendering of one group of answers, in
enumeration order; an exception is rendered by its type and message, so a
changed error also changes the digest.  The groups:

* ``fibres``: every ``dual_fiber`` over every dual orbit of B, C, D through
  rank 12, followed by the ``faithful_pair`` string of that orbit;
* ``reports-twist`` / ``reports-no-twist``: every ``verify_faithful`` report
  with its witnesses, through rank 12 with the sign twist and through rank 10
  without it;
* ``families``: every family's members through rank 10;
* ``classes``: the ``enumerate_class`` and ``similar_symbols`` classes of
  every bipartition through rank 8, at the minimal and two padded sizes;
* ``restrictions``: every ``restriction_multiplicity`` of every
  non-degenerate character through rank 7, over every product shape and
  factor pair;
* ``duality``: ``d_S_marked`` of every reduced marking of every orbit of
  B, C, D through rank 9, then ``j_induce`` of every factor pair on every
  product shape through rank 8, at the minimal common size and at size 6;
* ``order``: ``le_A`` on every ordered pair of reduced marked orbits of one
  type and rank, through rank 7, then ``d_A_triv`` of every dual orbit
  through rank 12 and ``wf_of_wrep`` of every character through rank 10.

``GROUPS`` maps each group name to a function returning its lines, and
``tests/test_answer_digests.py`` pins the digests.
"""

from __future__ import annotations

import hashlib

import oracles
from nilorbits import duality as du
from nilorbits import faithful as fa
from nilorbits import partitions as pt
from nilorbits import springer as sp
from nilorbits import symbols as sy
from nilorbits import wavefront as wf


def _render(call, *args) -> str:
    try:
        return repr(call(*args))
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return f"{type(exc).__name__}: {exc}"


def _orbits(upto: int):
    for letter in pt.LETTERS:
        co = pt.dual_letter(letter)
        for rank in range(upto + 1):
            for lam in pt.enumerate_orbits(co, rank, bound=upto):
                yield letter, lam


def fibres():
    for letter, lam in _orbits(12):
        yield _render(sp.dual_fiber, lam, letter)
        yield _render(lambda: str(fa.faithful_pair(lam, letter)))


def reports(twist: bool):
    for letter, lam in _orbits(12 if twist else 10):
        yield _render(fa.verify_faithful, lam, letter, twist)


def families():
    for letter in pt.LETTERS:
        for rank in range(11):
            fids = dict.fromkeys(sp.family_of(rep)
                                 for rep in sp.irreps(letter, rank))
            for fid in fids:
                yield f"{fid!r} {_render(sp.family_members, fid)}"


def classes():
    for letter in pt.LETTERS:
        for rank in range(9):
            for a in range(rank + 1):
                for lam in pt.integer_partitions(a):
                    for mu in pt.integer_partitions(rank - a):
                        k0 = sy.min_size_pair(lam, mu, letter)
                        for k in (k0, k0 + 1, k0 + 2):
                            s = sy.symbol_of_pair(lam, mu, letter, "s", k)
                            a_sym = sy.symbol_of_pair(lam, mu, letter, "a", k)
                            yield _render(sy.enumerate_class, s, letter)
                            yield _render(sy.similar_symbols, a_sym, letter)


def restrictions():
    for letter in pt.LETTERS:
        for rank in range(8):
            for shape in sp.product_shapes(letter, rank):
                (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
                pairs = [(r1, r2) for r1 in sp.irreps(y, p)
                         for r2 in sp.irreps(x, q)]
                for rep in sp.irreps(letter, rank):
                    if rep.degenerate:
                        continue
                    for r1, r2 in pairs:
                        yield (f"{rep!r} {shape!r} {r1!r} {r2!r} " +
                               _render(sp.restriction_multiplicity,
                                       rep, shape, r1, r2))


def duality():
    for letter in pt.LETTERS:
        for rank in range(10):
            for lam in pt.type_partitions(letter, rank):
                for marking in oracles.reduced_markings(lam, letter):
                    marked = du.MarkedOrbit(letter, lam, marking)
                    yield f"{marked!r} {_render(du.d_S_marked, marked)}"
    for letter in pt.LETTERS:
        for rank in range(9):
            for shape in sp.product_shapes(letter, rank):
                (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
                for r1 in sp.irreps(y, p):
                    for r2 in sp.irreps(x, q):
                        for k in (None, 6):
                            yield (f"{shape!r} {r1!r} {r2!r} {k} " +
                                   _render(sp.j_induce, shape, r1, r2, k))


def order():
    for letter in pt.LETTERS:
        for rank in range(8):
            marked = [du.MarkedOrbit(letter, lam, marking)
                      for lam in pt.type_partitions(letter, rank)
                      for marking in oracles.reduced_markings(lam, letter)]
            for m1 in marked:
                for m2 in marked:
                    yield f"{m1!r} {m2!r} {_render(du.le_A, m1, m2)}"
    for letter, lam in _orbits(12):
        yield f"{letter} {lam!r} {_render(du.d_A_triv, lam, letter)}"
    for letter in pt.LETTERS:
        for rank in range(11):
            for rep in sp.irreps(letter, rank):
                yield f"{rep!r} {_render(wf.wf_of_wrep, rep)}"


GROUPS = {"fibres": fibres, "reports-twist": lambda: reports(True),
          "reports-no-twist": lambda: reports(False), "families": families,
          "classes": classes, "restrictions": restrictions,
          "duality": duality, "order": order}


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def main() -> None:
    for name, lines in GROUPS.items():
        print(f"{name} {digest(lines())}")


if __name__ == "__main__":
    main()
