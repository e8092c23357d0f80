import pytest

import oracles as O
from nilorbits import partitions as P
from nilorbits import springer as sp
from nilorbits import symbols as S


def bare(lam):
    return lam.parts if isinstance(lam, P.DecoratedPartition) else lam


def test_irrep_counts():
    assert len(sp.irreps("B", 2)) == 5
    assert len(sp.irreps("C", 3)) == 10
    assert len(sp.irreps("D", 2)) == 4
    assert len(sp.irreps("D", 3)) == 5
    assert len(sp.irreps("D", 4)) == 13


def test_irrep_validation():
    with pytest.raises(P.PartitionError):
        sp.WeylIrrep("B", 3, (1,), (1,))
    deg = sp.WeylIrrep("D", 2, (1,), (1,), 1)
    assert deg.degenerate and deg.kappa == 1
    plain = sp.WeylIrrep("D", 3, (1,), (2,), 1)
    assert plain.kappa == 0 and plain.first == (2,)


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
                assert S.is_monotonic(sp.rep_ssymbol(rep)), (letter, lam)
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


@pytest.mark.parametrize("letter", P.LETTERS)
def test_dual_fibres_partition_irreps(letter):
    """The dual fibres over all dual orbits list every character of the
    group exactly once (ranks 1-8; at rank 0 type D lists the zero orbit
    under both decorations)."""
    co = P.dual_letter(letter)
    for rank in range(1, 9):
        listed = [rep for lam in P.enumerate_orbits(co, rank)
                  for rep in sp.dual_fiber(lam, letter)]
        assert sorted(listed, key=str) == \
            sorted(sp.irreps(letter, rank), key=str), (letter, rank)


def test_support_examples():
    for n in (2, 3):
        triv = sp.trivial_rep("B", n)
        sgn = sp.sign_rep("B", n)
        assert sp.springer_support(triv, "dual") == (2 * n,)
        assert sp.springer_support(sgn, "dual") == (1,) * (2 * n)
    sub = sp.WeylIrrep("B", 2, (1,), (1,))
    assert sp.springer_support(sub, "group") == (3, 1, 1)
    assert sp.springer_support(sub, "dual") == (2, 2)


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
            direct = sp.collapse_symbol(lam, 0)
            via = sp.springer_symbol(
                P.DecoratedPartition(P.collapse(lam, "D"), 0), "D")
            assert S.similar_decorated(direct, via), lam
            checked += 1
    assert checked > 10
    # two-part input: the empty odd block
    two = sp.collapse_symbol((4, 2), 0)
    via = sp.springer_symbol(P.DecoratedPartition(P.collapse((4, 2), "D"), 0),
                             "D")
    assert S.similar_decorated(two, via)
    # one elementary block, written ascending as (even, odds..., even)
    blk = sp.collapse_symbol((4, 3, 3, 2), 0)
    assert blk.sym.entries() == (1, 2, 2, 3)
    with pytest.raises(P.PartitionError):
        sp.collapse_symbol((3, 1), 0)  # not a C-partition
    with pytest.raises(P.PartitionError):
        sp.collapse_symbol((3, 3), 0)  # transpose not of type D


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
        special = sp.special_rep(fid)
        assert sp.is_special_rep(special)
        assert special in members


def test_special_rep_roundtrip():
    for letter in P.LETTERS:
        for n in range(1, 5):
            for rep in sp.irreps(letter, n):
                fid = sp.family_of(rep)
                special = sp.special_rep(fid)
                assert sp.is_special_rep(special)
                assert sp.same_family(rep, special)


def test_family_size_stable_across_k():
    for letter in ("B", "C"):
        for rep in sp.irreps(letter, 4):
            base = sp.rep_asymbol(rep)
            k = len(base.bottom)
            for kk in (k, k + 1, k + 2):
                sized = sp.rep_asymbol(rep, k=kk)
                assert len(S.similar_symbols(sized, letter)) == \
                    len(S.similar_symbols(base, letter))


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
        shape = sp.full_shape(letter, 3)
        y, _ = shape.factor_letters
        unit = sp.trivial_rep(y, 0)
        for lam in P.enumerate_orbits(letter, 3):
            if not P.is_special(bare(lam), letter):
                continue
            rep = sp.rep_of_orbit(lam, letter, letter)
            assert sp.j_induce(shape, unit, rep) == rep


def test_j_induce_requires_special():
    shape = sp.full_shape("B", 2)
    unit = sp.trivial_rep("D", 0)
    nonspecial = sp.WeylIrrep("B", 2, (), (2,))
    assert not sp.is_special_rep(nonspecial)
    with pytest.raises(P.PartitionError):
        sp.j_induce(shape, unit, nonspecial)


def test_j_induce_independent_of_size():
    shape = sp.PseudoLeviShape("B", 2, 3)
    rep1 = sp.rep_of_orbit(P.DecoratedPartition((3, 1), 0), "D", "D")
    rep2 = sp.rep_of_orbit((3,), "B", "B")
    results = {sp.j_induce(shape, rep1, rep2, k=k) for k in (2, 3, 4, 5)}
    assert len(results) == 1


def test_j_induce_shriek_path_worked_instance():
    """Shape D2 x B1 inside rank 3: the induced symbol is the shrieked first
    factor plus the second, added by hand at size 2."""
    shape = sp.PseudoLeviShape("B", 2, 3)
    rep1 = sp.rep_of_orbit(P.DecoratedPartition((3, 1), 0), "D", "D")
    rep2 = sp.rep_of_orbit((3,), "B", "B")
    a1 = sp.rep_asymbol(rep1, k=2)
    a2 = sp.rep_asymbol(rep2, k=2)
    total = S.add(S.shriek(a1), a2)
    assert S.is_type_symbol(total, "C")
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
        m = P.multiplicity(rho, k)
        out *= k ** m * factorial(m)
    return out


def test_restriction_multiplicity_full_shape():
    shape = sp.full_shape("B", 3)
    unit = sp.trivial_rep("D", 0)
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
    f2 = sp.trivial_rep("B", 1)
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
