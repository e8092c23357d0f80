from itertools import product

import pytest

import oracles as O
from nilorbits import duality as du
from nilorbits import partitions as P


def all_pairs_over(lam, letter):
    """Every valid pseudo-Levi orbit pair with union lam."""
    values = sorted(set(lam), reverse=True)
    for combo in product(*[range(P.multiplicity(lam, v) + 1) for v in values]):
        mu = P.as_partition([v for v, m in zip(values, combo)
                             for _ in range(m)])
        nu = P.subtract(lam, mu)
        try:
            du.pair_shape(mu, nu, letter)
        except P.PartitionError:
            continue
        yield mu, nu


def test_marked_orbit_validation():
    m = du.MarkedOrbit("B", (3, 1, 1), (3, 1))
    assert str(m) == "3,1^2 | 3,1"
    with pytest.raises(P.PartitionError):
        du.MarkedOrbit("B", (3, 2), ())
    with pytest.raises(P.PartitionError):
        du.MarkedOrbit("B", (3, 1, 1), (1, 1))  # not reduced
    empty = du.MarkedOrbit("C", (2, 2, 2), ())
    assert str(empty) == "2^3 | -"
    assert du.MarkedOrbit("D", (2, 2), ()).decoration_undetermined


def test_pair_shape_validation():
    with pytest.raises(P.PartitionError):
        du.pair_shape((1, 1), (3, 1, 1), "B")  # first factor of rank one
    with pytest.raises(P.PartitionError):
        du.pair_shape((2,), (3,), "B")  # odd first total... even, bad type
    shape = du.pair_shape((3, 1), (1,), "B")
    assert shape.factor_letters == ("D", "B")
    assert shape.factor_ranks == (2, 0)


def test_sbar_examples():
    assert du.sbar((), (3, 1, 1), "B") == du.MarkedOrbit("B", (3, 1, 1), ())
    got = du.sbar((2, 2), (2,), "C")
    assert got == du.MarkedOrbit("C", (2, 2, 2), ())
    marked = du.sbar((3, 1), (1,), "B")
    assert marked == du.MarkedOrbit("B", (3, 1, 1), (3, 1))


@pytest.mark.parametrize("letter,rank", [(c, n) for c in P.LETTERS
                                         for n in range(1, 6)])
def test_sbar_fibers_match_reductions(letter, rank):
    """Two pairs over the same orbit have the same image exactly when their
    first factors reduce the same way."""
    for lam in P.type_partitions(letter, rank):
        pairs = list(all_pairs_over(lam, letter))
        for mu1, nu1 in pairs:
            for mu2, nu2 in pairs:
                same_mark = P.reduction(lam, mu1, letter) == \
                    P.reduction(lam, mu2, letter)
                assert (du.sbar(mu1, nu1, letter) ==
                        du.sbar(mu2, nu2, letter)) == same_mark


@pytest.mark.parametrize("letter", P.LETTERS)
def test_d_s_on_trivial_pairs_is_duality(letter):
    for rank in range(1, 6):
        for lam in P.type_partitions(letter, rank):
            assert du.d_S((), lam, letter) == P.dual(lam, letter)


@pytest.mark.parametrize("letter,rank", [(c, n) for c in P.LETTERS
                                         for n in range(1, 5)])
def test_d_s_constant_on_fibers(letter, rank):
    for lam in P.type_partitions(letter, rank):
        by_mark = {}
        for mu, nu in all_pairs_over(lam, letter):
            mark = du.sbar(mu, nu, letter)
            value = du.d_S(mu, nu, letter)
            assert by_mark.setdefault(mark, value) == value
            # the map surjects onto all dual orbits, special or not
            assert P.is_type_partition(value, P.dual_letter(letter))


def test_d_a_examples():
    assert du.d_A_triv((3, 1, 1), "C") == du.MarkedOrbit("C", (2, 2), ())
    assert du.d_A_triv((5,), "C") == du.MarkedOrbit("C", (1, 1, 1, 1), ())
    assert du.d_A_triv((2, 1, 1), "B") == \
        du.MarkedOrbit("B", (3, 1, 1), (3, 1))
    very_even = du.d_A_triv(P.DecoratedPartition((2, 2), 1), "D")
    assert very_even.decoration_undetermined
    with pytest.raises(P.PartitionError):
        du.d_A_triv((3, 1), "C")  # wrong side


@pytest.mark.parametrize("letter", P.LETTERS)
def test_d_a_projection_and_identity(letter):
    co = P.dual_letter(letter)
    for rank in range(1, 7):
        for lam in P.type_partitions(co, rank):
            marked = du.d_A_triv(lam, letter)
            assert marked.orbit == P.dual(lam, co)
            if rank <= 5:
                assert du.d_S_marked(marked) == lam


@pytest.mark.parametrize("letter", P.LETTERS)
def test_achar_order_equivalences(letter):
    """Closure order on dual orbits matches the reversed Achar order on
    their duals, and the map is injective (rank <= 5)."""
    co = P.dual_letter(letter)
    for rank in range(1, 6):
        orbs = P.type_partitions(co, rank)
        marked = {lam: du.d_A_triv(lam, letter) for lam in orbs}
        assert len(set(marked.values())) == len(orbs)
        for l1 in orbs:
            for l2 in orbs:
                assert P.dominance_le(l1, l2) == \
                    du.le_A(marked[l2], marked[l1])


def test_le_a_reflexive_and_typed():
    m = du.d_A_triv((3, 1, 1), "C")
    assert du.le_A(m, m)
    other = du.d_A_triv((2, 2), "B")
    with pytest.raises(P.PartitionError):
        du.le_A(m, other)


@pytest.mark.parametrize("letter,rank", [(c, n) for c in P.LETTERS
                                         for n in range(1, 6)])
def test_d_s_marked_agrees_on_all_lifts(letter, rank):
    for lam in P.type_partitions(letter, rank):
        seen = {}
        for mu, nu in all_pairs_over(lam, letter):
            marked = du.sbar(mu, nu, letter)
            seen.setdefault(marked, set()).add(du.d_S(mu, nu, letter))
        for marked, values in seen.items():
            assert values == {du.d_S_marked(marked)}


def check_marking_lifts(letter, upto):
    """``d_S_marked`` raises exactly when no pair over the orbit has the
    marked orbit as its ``sbar`` image; otherwise (marking, orbit - marking)
    is one of those pairs, and ``d_S`` agrees with the smallest of them.
    Returns the counts of markings with and without a lift."""
    lifted = unlifted = 0
    for rank in range(upto + 1):
        for lam in P.type_partitions(letter, rank):
            images = {}
            for mu, nu in all_pairs_over(lam, letter):
                images.setdefault(du.sbar(mu, nu, letter), set()).add((mu, nu))
            for marking in O.reduced_markings(lam, letter):
                marked = du.MarkedOrbit(letter, lam, marking)
                if marked not in images:
                    with pytest.raises(P.PartitionError,
                                       match="no pseudo-Levi pair realizes"):
                        du.d_S_marked(marked)
                    unlifted += 1
                    continue
                pairs = images[marked]
                assert (marking, P.subtract(lam, marking)) in pairs
                assert du.d_S_marked(marked) == du.d_S(*min(pairs), letter)
                lifted += 1
    return lifted, unlifted


@pytest.mark.parametrize("letter,counts", [("B", (360, 360)),
                                           ("C", (395, 0)),
                                           ("D", (215, 203))])
def test_d_s_marked_lifts_through_the_marking(letter, counts):
    assert check_marking_lifts(letter, 8) == counts


@pytest.mark.slow
@pytest.mark.parametrize("letter,counts", [("B", (963, 963)),
                                           ("C", (1068, 0)),
                                           ("D", (579, 560))])
def test_d_s_marked_lifts_through_rank_10(letter, counts):
    assert check_marking_lifts(letter, 10) == counts


def test_closure_le_decorations():
    a = P.DecoratedPartition((2, 2), 0)
    b = P.DecoratedPartition((2, 2), 1)
    assert du.closure_le(a, a, "D")
    assert not du.closure_le(a, b, "D")
    assert du.closure_le(b, P.DecoratedPartition((3, 1), 0), "D")
    assert du.closure_le((2, 2), (3, 1), "D")


def test_maximal_marked():
    m1 = du.d_A_triv((6,), "B")       # dual of the regular: minimal
    m2 = du.d_A_triv((2, 2, 1, 1), "B")
    m3 = du.d_A_triv((1,) * 6, "B")   # dual of the zero orbit: maximal
    assert du.maximal_marked([m1, m2, m3]) == [m3]
    assert du.maximal_marked([m1]) == [m1]
