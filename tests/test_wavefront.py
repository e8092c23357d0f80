import collections
import random

import pytest

import oracles as O
from nilorbits import duality as du
from nilorbits import partitions as P
from nilorbits import springer as sp
from nilorbits import wavefront as wf


def factor_support(rep):
    """Group-side support of the special character of the sign-twisted
    family of ``rep``; the orbit a constituent contributes to the local
    wavefront set."""
    special = O.special_rep(sp.family_of(sp.sgn_twist(rep)))
    orbit = sp.springer_support(special, "group")
    return orbit.parts if isinstance(orbit, P.DecoratedPartition) else orbit


def oracle_mult(rep, shape, f1, f2):
    m = shape.k
    if rep.letter == "B":
        return O.mult_b_restriction(rep.rank, (rep.first, rep.second), m,
                                    (f1.first, f1.second, f1.kappa),
                                    (f2.first, f2.second))
    if rep.letter == "C":
        return O.mult_c_restriction(rep.rank, (rep.first, rep.second), m,
                                    (f1.first, f1.second),
                                    (f2.first, f2.second))
    return O.mult_d_restriction(rep.rank, (rep.first, rep.second, rep.kappa),
                                m, (f1.first, f1.second, f1.kappa),
                                (f2.first, f2.second, f2.kappa))


def definitional_wf(rep):
    """The wavefront set straight from its definition: the maximal marked
    orbits contributed by the constituents of the restrictions to all
    maximal pseudo-Levi shapes, with multiplicities from the character
    oracle."""
    values = []
    for shape in sp.product_shapes(rep.letter, rep.rank):
        (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
        for f1 in sp.irreps(y, p):
            for f2 in sp.irreps(x, q):
                if oracle_mult(rep, shape, f1, f2) == 0:
                    continue
                values.append(du.sbar(factor_support(f1),
                                      factor_support(f2), rep.letter))
    return O.maximal_marked(values)


def test_wf_examples():
    for letter in P.LETTERS:
        n = 3
        triv = O.trivial_rep(letter, n)
        zero = (1,) * (2 * n + 1) if letter == "B" else (1,) * (2 * n)
        assert wf.wf_of_wrep(triv).orbit == zero
        assert wf.wf_of_wrep(triv).marking == ()
    # explicit small case: the two-dimensional character of rank two
    sub = sp.WeylIrrep("B", 2, (1,), (1,))
    assert wf.wf_of_wrep(sub) == du.d_A_triv((2, 2), "B")


def test_wf_sign_is_dual_of_zero():
    for letter in P.LETTERS:
        n = 3
        sgn = O.sign_rep(letter, n)
        zero = (1,) * (2 * n + (1 if letter == "C" else 0))
        if letter == "B":
            zero = (1,) * (2 * n)
        assert wf.wf_of_wrep(sgn) == du.d_A_triv(zero, letter)


def test_wf_of_wrep_once_per_class():
    """On an empty memo, every character through rank 10, visited in a
    seeded random order, gets the Achar dual of its own dual-side Springer
    support.  Every dual orbit is such a support, so the memo then holds
    one entry per dual orbit: the supports are all of them but rank-0 type
    D's second decoration, as many as the memo's entries."""
    reps = [rep for letter in P.LETTERS for rank in range(11)
            for rep in sp.irreps(letter, rank)]
    random.Random(21).shuffle(reps)
    P._clear_memos()
    supports = set()
    for rep in reps:
        support = sp.springer_support(rep, "dual")
        supports.add((rep.letter, support))
        assert wf.wf_of_wrep(rep) == du.d_A_triv(P.bare(support),
                                                 rep.letter), str(rep)
    orbits = {(letter, lam) for letter in P.LETTERS for rank in range(11)
              for lam in P.enumerate_orbits(P.dual_letter(letter), rank)}
    assert supports == orbits - {("D", P.DecoratedPartition((), 1))}
    assert wf._wf_of_class.cache_info().currsize == len(supports)


def test_wf_iwahori_real():
    # involution dual of the Steinberg has the zero orbit: regular wavefront
    got = wf.wf_iwahori_real((1, 1, 1, 1, 1), "C")
    assert got.algebraic == (4,)
    assert got.canonical_unramified == du.d_A_triv((1, 1, 1, 1, 1), "C")
    # involution dual of the trivial has the regular orbit: zero wavefront
    got = wf.wf_iwahori_real((5,), "C")
    assert got.algebraic == (1, 1, 1, 1)
    assert str(got) == "1^4 | -"
    with pytest.raises(P.PartitionError):
        wf.wf_iwahori_real((4,), "C")


def test_wf_result_invariant():
    marked = du.d_A_triv((5,), "C")
    with pytest.raises(P.PartitionError):
        wf.WavefrontResult(marked, (2, 2))


@pytest.mark.parametrize("letter", P.LETTERS)
def test_algebraic_component_special(letter):
    co = P.dual_letter(letter)
    for rank in range(1, 7):
        for lam in P.type_partitions(co, rank):
            result = wf.wf_iwahori_real(lam, letter)
            assert P.is_special(result.algebraic, letter)


def test_lower_bound():
    assert wf.wf_lower_bound_holds((3, 1, 1), du.d_A_triv((3, 1, 1), "C"),
                                   "C")
    # shrinking the parameter orbit keeps the bound satisfied
    for letter in P.LETTERS:
        co = P.dual_letter(letter)
        for rank in range(1, 5):
            orbs = P.type_partitions(co, rank)
            for big in orbs:
                for small in orbs:
                    if P.dominance_le(small, big):
                        assert wf.wf_lower_bound_holds(
                            big, du.d_A_triv(small, letter), letter)
    # and a candidate strictly below the bound fails
    assert not wf.wf_lower_bound_holds((2, 2, 1, 1), du.d_A_triv((6,), "B"),
                                       "B")
    with pytest.raises(P.PartitionError):
        wf.wf_lower_bound_holds((3, 1, 1), du.d_A_triv((2, 2), "B"), "C")


@pytest.mark.parametrize("letter,counts", [("B", (1155, 1301)),
                                           ("C", (917, 987)),
                                           ("D", (577, 598))])
def test_lower_bound_matches_definition(letter, counts):
    """``wf_lower_bound_holds(h, d_A(O, 1))`` for every pair (h, O) of dual
    orbits at ranks 1-6, against Achar's order by its definition: the
    orbits of the two Achar duals compare in dominance, and their Sommers
    duals, by truncated induction of fresh checked copies, the other way.
    Both truth values occur; ``counts`` pins how often each does."""
    outcomes = collections.Counter()
    for rank in range(1, 7):
        orbits = P.type_partitions(P.dual_letter(letter), rank)
        images = [du.d_A_triv(lam, letter) for lam in orbits]
        sommers = [O.d_S_marked_by_shape(
            du.MarkedOrbit(m.letter, m.orbit, m.marking), O.d_S_by_induction)
            for m in images]
        for h, bound, s_bound in zip(orbits, images, sommers):
            for lam, image, s_image in zip(orbits, images, sommers):
                want = O.dominance_le_loop(bound.orbit, image.orbit) and \
                    O.dominance_le_loop(s_image, s_bound)
                got = wf.wf_lower_bound_holds(h, du.d_A_triv(lam, letter),
                                              letter)
                assert got == want, (h, lam)
                outcomes[got] += 1
    assert (outcomes[True], outcomes[False]) == counts


@pytest.mark.parametrize("letter", P.LETTERS)
def test_wavefront_sets_keep_their_sommers_dual(letter):
    """The wavefront set of a character, ranks 0-6, keeps the character's
    dual-side support as its Sommers dual, which a fresh checked copy
    computes the same; so does the Iwahori-spherical one of each orbit."""
    for rank in range(7):
        for rep in sp.irreps(letter, rank):
            closed = wf.wf_of_wrep(rep)
            fresh = du.MarkedOrbit(closed.letter, closed.orbit,
                                   closed.marking)
            support = P.bare(sp.springer_support(rep, "dual"))
            assert closed._sommers == support == du.d_S_marked(fresh), rep
        for lam in P.type_partitions(P.dual_letter(letter), rank):
            assert wf.wf_iwahori_real(lam, letter) \
                .canonical_unramified._sommers == lam


@pytest.mark.parametrize("letter", P.LETTERS)
@pytest.mark.parametrize("rank", range(1, 4))
def test_definition_equals_closed_form(letter, rank):
    """The defining maximum over shapes and constituents collapses to the
    Achar dual of the dual-side support, for every irreducible character."""
    for rep in sp.irreps(letter, rank):
        closed = wf.wf_of_wrep(rep)
        assert definitional_wf(rep) == [closed], str(rep)


@pytest.mark.parametrize("letter", P.LETTERS)
def test_local_bound(letter):
    """Every local value sits below the closed form in the Achar order
    (rank 3)."""
    rank = 3
    for rep in sp.irreps(letter, rank):
        closed = wf.wf_of_wrep(rep)
        for shape in sp.product_shapes(letter, rank):
            (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
            for f1 in sp.irreps(y, p):
                for f2 in sp.irreps(x, q):
                    if oracle_mult(rep, shape, f1, f2) == 0:
                        continue
                    local = du.sbar(factor_support(f1), factor_support(f2),
                                    letter)
                    assert du.le_A(local, closed), (str(rep), str(local))
