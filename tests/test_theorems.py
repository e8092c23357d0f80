"""Theorem-level checks of the Springer and duality layers against the
geometry of the orbits, through the partition formulas of ``oracles``
(``b_invariant``, ``dim_centralizer``, ``saturate``, ``induce``), which share
no code or theory with the symbol machinery:

(a) b(E(O, 1)) = dim B_e = (dim Z_G(e) - n) / 2 on every orbit O of rank n;
(b) E(d(O), 1) = sgn (x) E(O, 1) on every special orbit O (Lusztig 1979;
    Barbasch-Vogan, *Ann. of Math.* 121, 1985);
(c) d(Sat(lam, lam')) = Ind(lam^t, d(lam')) for every orbit lam x lam' of
    every Levi GL_k x G', G' of G's type and rank n - k
    (Collingwood-McGovern 1993, Thm 7.3.3).

Ranks 1 to 12 run by default, ranks 13 to 20 under ``-m slow``; each sweep
pins the number of cases it checked."""

import pytest

import oracles as O
from nilorbits import faithful as F
from nilorbits import partitions as P
from nilorbits import springer as sp

RANKS = [pytest.param(range(1, 13), id="ranks-1-12"),
         pytest.param(range(13, 21), id="ranks-13-20",
                      marks=pytest.mark.slow)]


def orbits(ranks):
    """(letter, rank, orbit) for every orbit of B, C and D at ``ranks``,
    a very even type-D orbit once per decoration."""
    for letter in P.LETTERS:
        for rank in ranks:
            for lam in P.enumerate_orbits(letter, rank, rank):
                yield letter, rank, lam


@pytest.mark.parametrize("ranks", RANKS)
def test_b_invariant_is_the_springer_fibre_dimension(ranks):
    """(a): the b-invariant of the Springer character E(O, 1) is dim B_e."""
    checked = 0
    for letter, rank, lam in orbits(ranks):
        alpha, beta, _ = sp.springer_bipartition(lam, letter)
        dim = O.dim_centralizer(P.bare(lam), letter)
        assert 2 * O.b_invariant(alpha, beta) == dim - rank, (letter, lam)
        checked += 1
    assert checked == {1: 3803, 13: 62367}[ranks.start]


@pytest.mark.parametrize("ranks", RANKS)
def test_duality_twists_the_springer_character_by_sign(ranks):
    """(b): E(d(O), 1), in the dual type, is sgn (x) E(O, 1).  The very even
    type-D orbits are skipped: ``dual`` drops their decoration, whose
    transport is not modelled."""
    checked = skipped = 0
    for letter, rank, lam in orbits(ranks):
        if not P.is_special(lam, letter):
            continue
        if letter == "D" and P.is_very_even(P.bare(lam)):
            skipped += 1
            continue
        twisted = sp.sgn_twist(
            sp.WeylIrrep(letter, rank, *sp.springer_bipartition(lam, letter)))
        x = P.dual_letter(letter)
        image = sp.WeylIrrep(
            x, rank, *sp.springer_bipartition(P.dual(lam, letter), x))
        assert (twisted.first, twisted.second, twisted.kappa) == \
            (image.first, image.second, image.kappa), (letter, lam)
        checked += 1
    assert (checked, skipped) == {1: (2419, 58), 13: (33405, 218)}[ranks.start]


@pytest.mark.parametrize("ranks", RANKS)
def test_duality_takes_saturation_to_induction(ranks):
    """(c): for the Levi GL_k x G', the dual of the saturation of lam x lam'
    is the orbit induced from lam^t x d(lam').  At rank n - k = 0 the one
    orbit of G' is (1) in type B and () in C and D."""
    checked = 0
    for letter in P.LETTERS:
        x = P.dual_letter(letter)
        for rank in ranks:
            for k in range(1, rank + 1):
                rest = {o: P.dual(o, letter)
                        for o in P.type_partitions(letter, rank - k)}
                for lam in P.integer_partitions(k):
                    column = O.transpose_loop(lam)
                    for orbit, dual in rest.items():
                        assert P.dual(O.saturate(lam, orbit), letter) == \
                            O.induce(column, dual, x), (letter, lam, orbit)
                        checked += 1
    assert checked == {1: 24034, 13: 983982}[ranks.start]


def test_classical_factor_orbits_of_the_exceptional_table_are_special():
    """The 13 B4, C3, D6 and D8 factor orbits of the shipped exceptional
    table (3, 1, 2 and 7) are special orbits of their factor types, of the
    factor's rank.  The A1, A2 and exceptional factors are left out."""
    factors = [(kind, P.parse_partition(orbit))
               for entry in F.load_exceptional_table()
               for kind, orbit in zip(entry.factor_type.split("+"),
                                      entry.family_orbit.split(" x "),
                                      strict=True)
               if kind[0] in P.LETTERS]
    assert len(factors) == 13
    for kind, lam in factors:
        assert O.rank_of(lam, kind[0]) == int(kind[1:]), (kind, lam)
        assert P.is_special(lam, kind[0]), (kind, lam)
