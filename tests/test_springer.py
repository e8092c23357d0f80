import logging
from collections import Counter
from itertools import product

import pytest

import oracles as O
from nilorbits import cli
from nilorbits import duality as du
from nilorbits import faithful as fa
from nilorbits import partitions as P
from nilorbits import springer as sp
from nilorbits import symbols as S
from test_symbols import small_symbols


def bare(lam):
    return lam.parts if isinstance(lam, P.DecoratedPartition) else lam


def test_irrep_counts():
    assert len(sp.irreps("B", 2)) == 5
    assert len(sp.irreps("C", 3)) == 10
    assert len(sp.irreps("D", 2)) == 4
    assert len(sp.irreps("D", 3)) == 5
    assert len(sp.irreps("D", 4)) == 13


@pytest.mark.parametrize("letter", P.LETTERS)
def test_irreps_in_nested_loop_order(letter):
    """``irreps`` at ranks 0-10 lists each character once, in the order of
    the nested loop over (first, second) by the first half's total: type D
    as ``oracles.d_irreps`` lists it, each unordered pair where the loop
    first meets it, so a pair dealt twice fails."""
    for rank in range(11):
        got = [(rep.first, rep.second, rep.kappa)
               for rep in sp.irreps(letter, rank)]
        want = O.d_irreps(rank) if letter == "D" else \
            [(lam, mu, 0) for a in range(rank + 1)
             for lam in P.integer_partitions(a)
             for mu in P.integer_partitions(rank - a)]
        assert got == want, (letter, rank)


def test_irrep_validation():
    with pytest.raises(P.PartitionError):
        sp.WeylIrrep("B", 3, (1,), (1,))
    deg = sp.WeylIrrep("D", 2, (1,), (1,), 1)
    assert deg.degenerate and deg.kappa == 1
    plain = sp.WeylIrrep("D", 3, (1,), (2,), 1)
    assert plain.kappa == 0 and plain.first == (2,)


@pytest.mark.parametrize("letter,first,second", [("B", (1,), ()),
                                                 ("D", (2,), (1,)),
                                                 ("D", (1,), (1,))])
def test_irrep_refuses_bad_decoration(letter, first, second):
    """The decoration is checked before it is normalised away, as for
    ``DecoratedPartition``."""
    rank = sum(first) + sum(second)
    with pytest.raises(P.PartitionError, match="decoration must be 0 or 1"):
        sp.WeylIrrep(letter, rank, first, second, 7)


def test_springer_symbol_examples():
    assert sp.springer_symbol((3, 1, 1), "B") == S.Symbol((0, 2), (1,), "a")
    # the zero orbit carries the sign-type character
    assert sp.springer_bipartition((1,) * 5, "B") == ((), (1, 1), 0)
    # the regular orbit carries the trivial-type character
    assert sp.springer_bipartition((5,), "B") == ((2,), (), 0)
    dec = sp.springer_symbol(P.DecoratedPartition((2, 2), 1), "D")
    assert dec == S.DecoratedSymbol(S.Symbol((1,), (1,), "a"), 1)


def test_springer_symbol_monotonic():
    """The s-symbol of the orbit character is monotonic for every orbit;
    its a-symbol is monotonic exactly for the special ones."""
    for letter in P.LETTERS:
        for n in range(1, 7):
            for lam in P.enumerate_orbits(letter, n):
                rep = sp.rep_of_orbit(lam, letter, letter)
                assert S.is_monotonic(O.rep_ssymbol(rep)), (letter, lam)
                assert S.is_monotonic(sp.rep_asymbol(rep)) == \
                    P.is_special(bare(lam), letter), (letter, lam)


@pytest.mark.parametrize("letter", P.LETTERS)
@pytest.mark.parametrize("rank", range(1, 7))
def test_support_roundtrip(letter, rank):
    """Support of the Springer character recovers the orbit, on the group
    side and through the dual side of the dual type."""
    co = P.dual_letter(letter)
    for lam in P.enumerate_orbits(letter, rank):
        rep = sp.rep_of_orbit(lam, letter, letter)
        assert sp.springer_support(rep, "group") == lam
    for lam in P.enumerate_orbits(co, rank):
        rep = sp.rep_of_orbit(lam, co, letter)
        assert sp.springer_support(rep, "dual") == lam


def check_fibres_partition(letter, ranks):
    """The dual fibres over all dual orbits list every character of the
    group exactly once at each rank: a duplicate fails as well as a missing
    character.  The memos the large ranks fill are emptied afterwards."""
    co = P.dual_letter(letter)
    try:
        for rank in ranks:
            listed = Counter(rep for lam in P.enumerate_orbits(co, rank, rank)
                             for rep in sp.dual_fiber(lam, letter))
            assert listed == Counter(sp.irreps(letter, rank)), (letter, rank)
    finally:
        P._clear_memos()


@pytest.mark.parametrize("letter", P.LETTERS)
def test_dual_fibres_partition_irreps(letter):
    """Ranks 1-8 and 20; at rank 0 type D lists the zero orbit under both
    decorations."""
    check_fibres_partition(letter, [*range(1, 9), 20])


@pytest.mark.slow
@pytest.mark.parametrize("letter", P.LETTERS)
@pytest.mark.parametrize("rank", (24, 28))
def test_dual_fibres_partition_irreps_large_ranks(rank, letter):
    check_fibres_partition(letter, [rank])


def test_support_examples():
    for n in (2, 3):
        triv = O.trivial_rep("B", n)
        sgn = O.sign_rep("B", n)
        assert sp.springer_support(triv, "dual") == (2 * n,)
        assert sp.springer_support(sgn, "dual") == (1,) * (2 * n)
    sub = sp.WeylIrrep("B", 2, (1,), (1,))
    assert sp.springer_support(sub, "group") == (3, 1, 1)
    assert sp.springer_support(sub, "dual") == (2, 2)


def check_support_against_round_trip(upto):
    """``springer_support`` against the bipartition round trip on every
    character of B, C and D through rank ``upto``, both sides: the same
    value and type, or the same error type and message.  Returns the number
    of cases."""
    cases = 0
    for letter in P.LETTERS:
        for rank in range(upto + 1):
            for rep in sp.irreps(letter, rank):
                for side in ("group", "dual"):
                    assert O.outcome(sp.springer_support, rep, side) == \
                        O.outcome(O.springer_support_by_round_trip, rep,
                                  side), (rep, side)
                    cases += 1
    return cases


def test_support_matches_round_trip():
    assert check_support_against_round_trip(8) == 2 * sum(
        len(sp.irreps(letter, rank))
        for letter in P.LETTERS for rank in range(9))


@pytest.mark.slow
def test_support_matches_round_trip_through_rank_12():
    assert check_support_against_round_trip(12) == 15748


def _inverted(alpha, letter):
    """The row inverter ``_orbit_of_rows`` on an a-symbol, decorated in
    type D as the oracle is."""
    sym = getattr(alpha, "sym", alpha)
    lam = sp._orbit_of_rows(sym.top, sym.bottom, letter)
    return P.DecoratedPartition(lam, getattr(alpha, "kappa", 0)) \
        if letter == "D" else lam


def test_orbit_of_symbol_matches_whole_symbol():
    """The row inverter against the per-index inversion of a whole symbol,
    on every a-symbol with rows of at most three entries below 6, plain and
    decorated in type D: the same value, or the same error and message."""
    refusals = set()
    for sym in small_symbols("a"):
        alphas = [(sym, x) for x in P.LETTERS]
        if sym.defect == 0:
            alphas += [(S.DecoratedSymbol(sym, kappa), "D")
                       for kappa in (0, 1)]
        for alpha, letter in alphas:
            got = O.outcome(_inverted, alpha, letter)
            assert got == O.outcome(O.orbit_of_symbol_by_symbol, alpha,
                                    letter), (alpha, letter)
            if got[0] == "raises":
                refusals.add("unique D-partition" in got[2])
    assert refusals == {True, False}  # both kinds of refusal occur


def _refused_alike(monkeypatch, rows, rep, side, message):
    """With the monotonic deal patched to give ``rows``, ``springer_support``
    and the round trip refuse ``rep`` with the same ``SymbolError``."""
    monkeypatch.setattr(S, "_monotonic_rows", lambda *args: rows)
    for fn in (sp.springer_support, O.springer_support_by_round_trip):
        with pytest.raises(S.SymbolError) as info:
            fn(rep, side)
        assert str(info.value) == message


def test_support_keeps_the_negative_part_refusal(monkeypatch):
    """A monotonic s-symbol whose bipartition would have a negative part is
    refused as ``pair_of_symbol`` refuses it."""
    _refused_alike(monkeypatch, ((0, 2), (0,)),
                   sp.WeylIrrep("B", 1, (1,), ()), "dual",
                   "(0,2;0) is not in the image of a bipartition")


def test_support_keeps_the_recipe_refusals(monkeypatch):
    """a-rows that invert to no orbit of the type are refused with the
    a-symbol (underlined in type D) that the row inverter
    ``springer._orbit_of_rows`` is given."""
    for letter, shown in (("B", "(0,1;3)"), ("C", "(0,1;2)")):
        _refused_alike(monkeypatch, ((0, 2), (3,)),
                       sp.WeylIrrep(letter, 1, (1,), ()), "group",
                       f"{shown} is not a Springer-recipe symbol of type "
                       f"{letter}")
    _refused_alike(monkeypatch, ((0, 2), (3, 5)),
                   sp.WeylIrrep("D", 2, (1,), (1,), 1), "group",
                   "(3,4;0,1) does not invert to a unique D-partition "
                   "(got set())")


def test_support_refuses_an_unknown_side():
    rep = sp.WeylIrrep("B", 2, (1,), (1,))
    with pytest.raises(P.PartitionError,
                       match=r"^side must be 'group' or 'dual', "
                             r"got 'bogus'$"):
        sp.springer_support(rep, "bogus")


def test_collapse_symbol():
    """The direct parity-split of a transpose-compatible C-partition agrees
    with the Springer symbol of its D-collapse, for all qualifying inputs of
    size at most 10."""
    checked = 0
    for total in range(2, 11, 2):
        for lam in P.integer_partitions(total):
            if not P.is_type_partition(lam, "C"):
                continue
            if not P.is_type_partition(P.transpose(lam), "D"):
                continue
            direct = O.collapse_symbol(lam, 0)
            via = sp.springer_symbol(
                P.DecoratedPartition(P.collapse(lam, "D"), 0), "D")
            assert O.similar_decorated(direct, via), lam
            checked += 1
    assert checked > 10
    # two-part input: the empty odd block
    two = O.collapse_symbol((4, 2), 0)
    via = sp.springer_symbol(P.DecoratedPartition(P.collapse((4, 2), "D"), 0),
                             "D")
    assert O.similar_decorated(two, via)
    # one elementary block, written ascending as (even, odds..., even)
    blk = O.collapse_symbol((4, 3, 3, 2), 0)
    assert blk.sym.entries() == (1, 2, 2, 3)
    with pytest.raises(P.PartitionError):
        O.collapse_symbol((3, 1), 0)  # not a C-partition
    with pytest.raises(P.PartitionError):
        O.collapse_symbol((3, 3), 0)  # transpose not of type D


def test_family_structure_b2():
    reps = sp.irreps("B", 2)
    families = {}
    for rep in reps:
        families.setdefault(sp.family_of(rep), []).append(rep)
    sizes = sorted(len(v) for v in families.values())
    assert sizes == [1, 1, 3]
    for fid, members in families.items():
        assert sorted(map(str, sp.family_members(fid))) == \
            sorted(map(str, members))
        special = O.special_rep(fid)
        assert sp.is_special_rep(special)
        assert special in members


def test_special_rep_roundtrip():
    for letter in P.LETTERS:
        for n in range(1, 5):
            for rep in sp.irreps(letter, n):
                fid = sp.family_of(rep)
                special = O.special_rep(fid)
                assert sp.is_special_rep(special)
                assert O.same_family(rep, special)


def test_family_size_stable_across_k():
    for letter in ("B", "C"):
        for rep in sp.irreps(letter, 4):
            base = sp.rep_asymbol(rep)
            k = len(base.bottom)
            for kk in (k, k + 1, k + 2):
                sized = sp.rep_asymbol(rep, k=kk)
                assert len(S.similar_symbols(sized, letter)) == \
                    len(S.similar_symbols(base, letter))


ORTHOGONALITY_RANKS = [*range(7), pytest.param(7, marks=pytest.mark.slow),
                       pytest.param(8, marks=pytest.mark.slow)]


@pytest.mark.parametrize("n", ORTHOGONALITY_RANKS)
def test_character_oracle_is_orthogonal(n):
    """The oracle's character tables of the signed and the even-signed
    permutation groups satisfy the row orthogonality relations."""
    O.verify_b_table(n)
    O.verify_d_table(n)


def test_orthogonality_checks_catch_a_wrong_value(monkeypatch):
    """One wrong value in either table breaks an orthogonality relation."""
    hyperoct_char, d_char = O.hyperoct_char, O.d_char
    monkeypatch.setattr(O, "hyperoct_char", lambda lam, mu, pos, neg: (
        hyperoct_char(lam, mu, pos, neg)
        + ((lam, mu, pos, neg) == ((1,), (1,), (2,), ()))))
    with pytest.raises(AssertionError, match="orthogonality fails"):
        O.verify_b_table(2)
    monkeypatch.setattr(O, "hyperoct_char", hyperoct_char)
    monkeypatch.setattr(O, "d_char", lambda lam, mu, kappa, pos, neg, eps: (
        -1 if (lam, mu, kappa, eps) == ((1, 1), (1, 1), 1, 1) else 1)
        * d_char(lam, mu, kappa, pos, neg, eps))
    with pytest.raises(AssertionError, match="orthogonality fails"):
        O.verify_d_table(4)


def test_sgn_twist_matches_characters():
    """The avatar-level twist is the tensor with the reflection determinant:
    checked against the wreath character oracle for n <= 3."""
    for n in range(1, 4):
        for rep in sp.irreps("B", n):
            twisted = sp.sgn_twist(rep)
            for pos, neg, _size in O.b_classes(n):
                eps = (-1) ** (sum(z - 1 for z in pos) + sum(neg))
                assert O.hyperoct_char(twisted.first, twisted.second,
                                       pos, neg) == \
                    eps * O.hyperoct_char(rep.first, rep.second, pos, neg)


def test_twist_of_family_is_family():
    """Tensoring with sign permutes the families; sizes match (n <= 3)."""
    for letter in ("B", "C", "D"):
        for n in range(1, 4):
            for rep in sp.irreps(letter, n):
                phi = sp.family_members(sp.family_of(rep))
                twisted = sp.family_members(sp.family_of(sp.sgn_twist(rep)))
                assert len(phi) == len(twisted)
                assert {str(sp.sgn_twist(m)) for m in phi} == \
                    {str(m) for m in twisted}


def test_j_induce_identity_on_full_shape():
    for letter in P.LETTERS:
        shape = O.full_shape(letter, 3)
        y, _ = shape.factor_letters
        unit = O.trivial_rep(y, 0)
        for lam in P.enumerate_orbits(letter, 3):
            if not P.is_special(bare(lam), letter):
                continue
            rep = sp.rep_of_orbit(lam, letter, letter)
            assert sp.j_induce(shape, unit, rep) == rep


def test_j_induce_requires_special():
    shape = O.full_shape("B", 2)
    unit = O.trivial_rep("D", 0)
    nonspecial = sp.WeylIrrep("B", 2, (), (2,))
    assert not sp.is_special_rep(nonspecial)
    with pytest.raises(P.PartitionError):
        sp.j_induce(shape, unit, nonspecial)


def special_factor_pairs(upto):
    """Every pair of special factor characters on every product shape of
    rank at most ``upto``, with the minimal common symbol size."""
    for letter in P.LETTERS:
        for rank in range(upto + 1):
            for shape in sp.product_shapes(letter, rank):
                (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
                specials1 = [r for r in sp.irreps(y, p) if sp.is_special_rep(r)]
                specials2 = [r for r in sp.irreps(x, q) if sp.is_special_rep(r)]
                for rep1 in specials1:
                    for rep2 in specials2:
                        k0 = max(S.min_size_pair(rep1.first, rep1.second, y),
                                 S.min_size_pair(rep2.first, rep2.second, x),
                                 1)
                        yield shape, rep1, rep2, k0


def test_j_induce_independent_of_size():
    """The symbol sum lands in the dual type at the minimal common size and
    at the next three, with the same result (1053 pairs through rank 6)."""
    count = 0
    for shape, rep1, rep2, k0 in special_factor_pairs(6):
        results = {sp.j_induce(shape, rep1, rep2, k=k)
                   for k in (None, k0, k0 + 1, k0 + 2, k0 + 3)}
        assert len(results) == 1, (shape, rep1, rep2)
        count += 1
    assert count == 1053
    with pytest.raises(P.PartitionError, match="below the minimal"):
        sp.j_induce(shape, rep1, rep2, k=k0 - 1)


@pytest.mark.parametrize("top, counts", [
    (5, {"B": 124, "C": 195, "D": 80}),
    pytest.param(6, {"B": 270, "C": 407, "D": 175}, marks=pytest.mark.slow)])
def test_j_induce_matches_definition(top, counts):
    """On every special factor pair with no degenerate factor, on every
    product shape of ranks 2 to ``top``, ``j_induce`` is the one lowest-b
    constituent of the induced character, by the character tables alone.
    No induced character here is degenerate, so the halves name it."""
    seen = dict.fromkeys(counts, 0)
    for shape, rep1, rep2, _ in special_factor_pairs(top):
        if shape.rank < 2 or rep1.degenerate or rep2.degenerate:
            continue
        got = sp.j_induce(shape, rep1, rep2)
        assert not got.degenerate
        assert (got.first, got.second) == \
            O.j_induce_by_definition(shape, rep1, rep2), (shape, rep1, rep2)
        seen[shape.letter] += 1
    assert seen == counts


def test_j_induce_logs_equal_rows_at_debug(caplog):
    """A type-D induced character with equal halves gets decoration 0 and
    a debug record saying so, from ``j_induce``; none at the default
    level."""
    shape = sp.PseudoLeviShape("D", 0, 2)
    (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
    rep1 = sp.WeylIrrep(y, p, (), ())
    rep2 = sp.WeylIrrep(x, q, (1,), (1,), 1)
    induced = sp.WeylIrrep("D", 2, (1,), (1,), 0)
    assert sp.j_induce(shape, rep1, rep2) == induced
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger=sp.__name__):
        assert sp.j_induce(shape, rep1, rep2) == induced
    assert [(r.name, r.levelno, r.funcName, r.getMessage())
            for r in caplog.records] == \
        [(sp.__name__, logging.DEBUG, "j_induce", "induced symbol (1;1) has "
          "equal rows; returning decoration 0")]


def test_j_induce_shriek_path_worked_instance():
    """Shape D2 x B1 inside rank 3: the induced symbol is the shrieked first
    factor plus the second, added by hand on rows at size 2."""
    shape = sp.PseudoLeviShape("B", 2, 3)
    rep1 = sp.rep_of_orbit(P.DecoratedPartition((3, 1), 0), "D", "D")
    rep2 = sp.rep_of_orbit((3,), "B", "B")
    a1 = sp.rep_asymbol(rep1, k=2)
    a2 = sp.rep_asymbol(rep2, k=2)
    # the shriek: 0 ahead of the top row, and every entry up by one
    top = (0, *[v + 1 for v in a1.top])
    bottom = tuple(v + 1 for v in a1.bottom)
    assert (len(top), len(bottom)) == (len(a2.top), len(a2.bottom))
    total = S.Symbol(tuple(a + b for a, b in zip(top, a2.top)),
                     tuple(a + b for a, b in zip(bottom, a2.bottom)), "s")
    assert total == S.Symbol((0, 2, 7), (1, 3), "s")
    assert O.gap_ok_loop(total) and S.has_type_shape(total, "C")
    first, second = S.pair_of_symbol(total, "C")
    assert sp.j_induce(shape, rep1, rep2) == \
        sp.WeylIrrep("B", 3, first, second)


def test_lr_examples():
    assert sp.lr_coefficient((1,), (1,), (2,)) == 1
    assert sp.lr_coefficient((1,), (1,), (1, 1)) == 1
    assert sp.lr_coefficient((2, 1), (1,), (2, 2)) == 1
    assert sp.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert sp.lr_coefficient((2,), (1,), (1, 1, 1)) == 0
    with pytest.raises(P.PartitionError):
        sp.lr_coefficient((2,), (1,), (2,))


def test_lr_unnormalised_arguments():
    """Trailing zeros name the same partition, so the same coefficient."""
    assert sp.lr_coefficient((2, 1, 0), (2, 1), (3, 2, 1, 0)) == \
        sp.lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert sp.lr_coefficient((1, 0), (0,), (1,)) == 1


def test_errors_are_raised_on_every_call():
    """The memoised LR coefficients and shape factor data cache answers,
    not errors."""
    shape = sp.PseudoLeviShape("B", 1, 4)
    for _ in range(2):
        with pytest.raises(P.PartitionError):
            sp.lr_coefficient((2,), (1,), (2,))
        with pytest.raises(P.PartitionError):
            shape.factor_letters
        with pytest.raises(P.PartitionError):
            shape.factor_ranks


def test_lr_against_characters():
    """Direct tableau counts match the symmetric-group inner product."""
    from math import factorial
    for a in range(0, 5):
        for b in range(0, 5):
            for mu1 in P.integer_partitions(a):
                for mu2 in P.integer_partitions(b):
                    for mu in P.integer_partitions(a + b):
                        got = sp.lr_coefficient(mu1, mu2, mu)
                        # inner product over the product group classes
                        dot = 0
                        for r1 in P.integer_partitions(a):
                            z1 = _z(r1)
                            for r2 in P.integer_partitions(b):
                                z2 = _z(r2)
                                dot += (O.sym_char(mu, P.union(r1, r2)) *
                                        O.sym_char(mu1, r1) *
                                        O.sym_char(mu2, r2) *
                                        (factorial(a) // z1) *
                                        (factorial(b) // z2))
                        assert dot % (factorial(a) * factorial(b)) == 0
                        assert got == dot // (factorial(a) * factorial(b)), \
                            (mu1, mu2, mu)


def _z(rho):
    from math import factorial
    out = 1
    for k in set(rho):
        m = rho.count(k)
        out *= k ** m * factorial(m)
    return out


def _lr_triples(top: int):
    """Every triple of partitions of sizes a, b and a + b, for a + b <= top,
    then triples whose sizes do not add up or that have a negative part."""
    parts = [list(P.integer_partitions(k)) for k in range(top + 1)]
    for n in range(top + 1):
        for a in range(n + 1):
            yield from product(parts[a], parts[n - a], parts[n])
    yield from [((2,), (1,), (2,)), ((), (), (1,)), ((3, 1), (2, 1), (3, 3)),
                ((1, -1), (1,), (1,)), ((2, 1), (2, 1), (3, 2, 1, -1))]


@pytest.mark.parametrize("top", [10, pytest.param(12, marks=pytest.mark.slow)])
def test_lr_matches_search(top):
    """The closed forms and the bounded search give what the cell-by-cell
    search gives: the same count, or the same refusal."""
    for triple in _lr_triples(top):
        assert O.outcome(sp.lr_coefficient, *triple) == \
            O.outcome(O.lr_coefficient_by_search, *triple), triple


def test_bounded_search_keeps_its_own_stack():
    """Two two-row factors take the bounded search, not a closed form, and
    its 1,200 cells are more than the interpreter's recursion limit."""
    assert sp.lr_coefficient((600, 600), (600, 600), (1200, 1200)) == 1


def test_restriction_multiplicity_full_shape():
    shape = O.full_shape("B", 3)
    unit = O.trivial_rep("D", 0)
    reps = sp.irreps("B", 3)
    for e in reps[:4]:
        for f in reps[:4]:
            got = sp.restriction_multiplicity(e, shape, unit, f)
            assert got == (1 if e == f else 0)


def test_restriction_multiplicity_spot():
    shape = sp.PseudoLeviShape("C", 1, 3)
    e = sp.WeylIrrep("C", 3, (2,), (1,))
    f1 = sp.WeylIrrep("C", 1, (1,), ())
    f2 = sp.WeylIrrep("C", 2, (1,), (1,))
    got = sp.restriction_multiplicity(e, shape, f1, f2)
    assert got == O.mult_c_restriction(3, ((2,), (1,)), 1,
                                       ((1,), ()), ((1,), (1,)))


def test_restriction_degenerate_factors_are_exact():
    """Both halves of a degenerate factor pair get the same multiplicity in
    restrictions from a non-degenerate character, the single-lift product."""
    shape = sp.PseudoLeviShape("B", 2, 3)
    f2 = O.trivial_rep("B", 1)
    e = sp.WeylIrrep("B", 3, (1,), (2,))
    for kappa in (0, 1):
        half = sp.WeylIrrep("D", 2, (1,), (1,), kappa)
        got = sp.restriction_multiplicity(e, shape, half, f2)
        assert got == O.mult_b_restriction(
            3, (e.first, e.second), 2, ((1,), (1,), kappa), ((1,), ()))


def test_restriction_refuses_degenerate_ambient():
    shape_d = sp.PseudoLeviShape("D", 2, 4)
    e_deg = sp.WeylIrrep("D", 4, (2,), (2,), 0)
    f1 = sp.WeylIrrep("D", 2, (2,), ())
    f2 = sp.WeylIrrep("D", 2, (2,), ())
    with pytest.raises(sp.AmbiguousDecorationError):
        sp.restriction_multiplicity(e_deg, shape_d, f1, f2)


def _oracle_multiplicity(e, shape, f1, f2) -> int:
    """The character-table multiplicity of f1 (x) f2 in e restricted to
    the shape, from ``tests/oracles.py``."""
    n, m = shape.rank, shape.k
    if shape.letter == "B":
        return O.mult_b_restriction(n, (e.first, e.second), m,
                                    (f1.first, f1.second, f1.kappa),
                                    (f2.first, f2.second))
    if shape.letter == "C":
        return O.mult_c_restriction(n, (e.first, e.second), m,
                                    (f1.first, f1.second),
                                    (f2.first, f2.second))
    return O.mult_d_restriction(n, (e.first, e.second, e.kappa), m,
                                (f1.first, f1.second, f1.kappa),
                                (f2.first, f2.second, f2.kappa))


def test_restriction_matches_character_oracle_through_rank_5():
    """Every non-degenerate character, product shape and factor pair
    (degenerate factors once per decoration) through rank 5 restricts as
    the character tables say."""
    cases, wrong = 0, []
    for letter in P.LETTERS:
        for n in range(6):
            for shape in sp.product_shapes(letter, n):
                (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
                pairs = [(f1, f2) for f1 in sp.irreps(y, p)
                         for f2 in sp.irreps(x, q)]
                for e in sp.irreps(letter, n):
                    if e.degenerate:
                        continue
                    for f1, f2 in pairs:
                        cases += 1
                        got = sp.restriction_multiplicity(e, shape, f1, f2)
                        if got != _oracle_multiplicity(e, shape, f1, f2):
                            wrong.append((str(e), str(shape), str(f1),
                                          str(f2)))
    assert cases == 20226  # 15660 of them at rank 5
    assert wrong == []


W, Shape = sp.WeylIrrep, sp.PseudoLeviShape


@pytest.mark.parametrize("args,error,message", [
    # a character of another group
    ((W("B", 3, (3,), ()), Shape("C", 1, 3), W("C", 1, (1,), ()),
      W("C", 2, (2,), ())), P.PartitionError,
     "(3;-) is not a character of the ambient group of C1 x C2"),
    # ... checked before the shape: the shape is degenerate as well
    ((W("C", 3, (3,), ()), Shape("B", 1, 3), W("C", 1, (1,), ()),
      W("C", 2, (2,), ())), P.PartitionError,
     "(3;-) is not a character of the ambient group of "
     "B3 (node 1, degenerate)"),
    # a degenerate shape
    ((W("D", 4, (4,), ()), Shape("D", 3, 4), W("D", 3, (3,), ()),
      W("D", 1, (1,), ())), P.PartitionError,
     "shape D4 (node 3, degenerate) is the whole algebra, not a product"),
    # ... checked before the factors and the ambient decoration
    ((W("D", 4, (2,), (2,)), Shape("D", 1, 4), W("C", 1, (1,), ()),
      W("C", 3, (3,), ())), P.PartitionError,
     "shape D4 (node 1, degenerate) is the whole algebra, not a product"),
    # factors of other groups
    ((W("D", 4, (4,), ()), Shape("D", 2, 4), W("D", 1, (1,), ()),
      W("D", 3, (3,), ())), P.PartitionError,
     "factors (D1, D3) do not match the shape D2 x D2"),
    # ... checked before the ambient decoration
    ((W("D", 4, (2,), (2,), 1), Shape("D", 2, 4), W("B", 2, (2,), ()),
      W("D", 2, (2,), ())), P.PartitionError,
     "factors (B2, D2) do not match the shape D2 x D2"),
    # a degenerate ambient character
    ((W("D", 4, (2,), (2,), 1), Shape("D", 2, 4), W("D", 2, (2,), ()),
      W("D", 2, (1,), (1,), 1)), sp.AmbiguousDecorationError,
     "{2;2}:1 has very even dual support; restriction is not resolved "
     "per decoration"),
])
def test_restriction_refusals_in_order(args, error, message):
    """Each refusal keeps its type and message, and an input breaking two
    rules gets the refusal of the earlier one."""
    with pytest.raises(ValueError) as info:
        sp.restriction_multiplicity(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_irreps_fresh_list_of_shared_characters():
    """Each call returns its own list, so mutating it changes no later
    call, but the characters in it are the same objects every time."""
    first = sp.irreps("D", 4)
    again = sp.irreps("D", 4)
    assert first is not again
    assert all(a is b for a, b in zip(first, again, strict=True))
    first.clear()
    assert sp.irreps("D", 4) == again
    assert len(again) == 13


def _like_fresh(value, fresh, record=cli.record_of):
    """``value`` and an equal value made afresh agree in repr, hash,
    equality, record and fields."""
    assert (repr(value), hash(value), record(value)) == \
        (repr(fresh), hash(fresh), record(fresh))
    assert value == fresh and fresh == value and not value != fresh
    assert type(value).__match_args__ == type(fresh).__match_args__


def test_cached_lifts_leave_the_character_unchanged():
    """Restriction stores lift data on the characters it touches, ``le_A``
    the dominance keys of the marked orbits it compares, and a shape its
    factors; their repr, hash, equality, record and fields stay those of a
    fresh value."""
    fields = sp.WeylIrrep.__match_args__
    assert fields == ("letter", "rank", "first", "second", "kappa")
    shape = sp.PseudoLeviShape("D", 2, 5)
    args = (("D", 5, (2, 1), (1, 1)), ("D", 2, (1,), (1,), 1),
            ("D", 3, (2,), (1,)))
    e, f1, f2 = reps = [W(*a) for a in args]
    before = [(repr(r), hash(r), cli.record_of(r)) for r in reps]
    sp.restriction_multiplicity(e, shape, f1, f2)
    assert all(r._lifts is not None for r in reps)
    after = [(repr(r), hash(r), cli.record_of(r)) for r in reps]
    assert after == before
    for rep, a in zip(reps, args, strict=True):
        _like_fresh(rep, W(*a))
    assert sp.WeylIrrep.__match_args__ == fields

    low = du.MarkedOrbit("B", (3, 1, 1), (3, 1))
    high = du.MarkedOrbit("B", (5,), ())
    assert du.le_A(low, high)
    for m in (low, high):
        assert m._achar_key is not None
        _like_fresh(m, du.MarkedOrbit(m.letter, m.orbit, m.marking))
    assert du.MarkedOrbit.__match_args__ == ("letter", "orbit", "marking")

    pair = fa.faithful_pair((3, 3, 1), "C")
    assert pair.shape.factor_letters == ("C", "C")
    fresh = sp.PseudoLeviShape(*(getattr(pair.shape, name)
                                 for name in ("letter", "k", "rank")))
    _like_fresh(pair.shape, fresh, lambda shape: cli.record_of(
        fa.FaithfulPair(pair.letter, pair.rank, shape, pair.families,
                        pair.orbit_pair, pair.provenance)))
    assert sp.PseudoLeviShape.__match_args__ == ("letter", "k", "rank")


def test_frobenius_consistency():
    """A special pair always appears in the restriction of its truncated
    induction (n <= 4)."""
    for letter in P.LETTERS:
        for n in range(2, 5):
            for shape in sp.product_shapes(letter, n):
                y, x = shape.factor_letters
                p, q = shape.factor_ranks
                for lam1 in P.enumerate_orbits(y, p):
                    if not P.is_special(bare(lam1), y):
                        continue
                    rep1 = sp.rep_of_orbit(lam1, y, y)
                    for lam2 in P.enumerate_orbits(x, q):
                        if not P.is_special(bare(lam2), x):
                            continue
                        rep2 = sp.rep_of_orbit(lam2, x, x)
                        induced = sp.j_induce(shape, rep1, rep2)
                        if induced.letter == "D" and induced.degenerate:
                            continue
                        if rep1.degenerate or rep2.degenerate:
                            continue
                        assert sp.restriction_multiplicity(
                            induced, shape, rep1, rep2) > 0, \
                            (letter, n, str(rep1), str(rep2))
