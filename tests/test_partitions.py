import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from nilorbits import partitions as P


def brute_collapse(lam, letter):
    """Independent oracle: maximum X-partition dominated by lam, found by
    scanning the full list of X-partitions of the same total."""
    n = P.rank_of(lam, letter)
    best = None
    for cand in P.type_partitions(letter, n):
        if P.dominance_le(cand, lam):
            if best is None:
                best = cand
            else:
                assert P.dominance_le(cand, best), \
                    f"dominated candidates of {lam} are not a chain"
    assert best is not None
    return best


def admissible_letters(total):
    return ("B",) if total % 2 else ("C", "D")


def all_partitions_upto(total):
    for m in range(total + 1):
        yield from P.integer_partitions(m)


small_partitions = st.lists(st.integers(min_value=1, max_value=9),
                            max_size=7).map(P.as_partition)


def test_multiplicity_and_height():
    assert P.multiplicity((3, 1, 1), 1) == 2
    assert P.multiplicity((3, 1, 1), 2) == 0
    assert P.multiplicity((4, 4, 2), 4) == 2
    assert P.height((3, 1, 1), 1) == 3
    assert P.height((3, 1, 1), 3) == 1
    assert P.height((5, 3, 3, 1), 3) == 3


def test_transpose():
    assert P.transpose((3, 1, 1)) == (3, 1, 1)
    assert P.transpose((3, 3, 1)) == (3, 2, 2)
    assert P.transpose((6,)) == (1,) * 6
    # column-count oracle
    lam = (5, 3, 3, 1)
    assert P.transpose(lam) == tuple(sum(1 for p in lam if p >= j)
                                     for j in range(1, lam[0] + 1))


@given(small_partitions)
def test_transpose_involution(lam):
    assert P.transpose(P.transpose(lam)) == lam


def test_union_family():
    assert P.union((3, 1), (2, 1)) == (3, 2, 1, 1)
    assert P.lower_last((3, 1, 1)) == (3, 1)
    assert P.raise_first((2, 2)) == (3, 2)
    with pytest.raises(P.PartitionError):
        P.subtract((3, 1), (2,))


@given(small_partitions, small_partitions)
def test_union_subtract_roundtrip(lam, mu):
    assert P.union(P.subtract(P.union(lam, mu), mu), mu) == P.union(lam, mu)


def test_dominance():
    assert P.dominance_le((2, 2, 1), (3, 1, 1))
    assert not P.dominance_le((3, 1, 1), (2, 2, 1))
    assert P.dominance_le((3, 1, 1), (3, 1, 1))
    with pytest.raises(P.PartitionError):
        P.dominance_le((2,), (1,))


def test_dominance_matches_running_totals():
    """The prefix-sum rule agrees with the padded running-total loop on every
    pair of partitions of each n <= 12, and both refuse unequal totals with
    the same message."""
    for n in range(13):
        lams = list(P.integer_partitions(n))
        for lam in lams:
            for mu in lams:
                assert P.dominance_le(lam, mu) == O.dominance_le_loop(lam, mu)
    for lam, mu in (((2,), (1,)), ((), (1,)), ((3, 1), (2, 1, 1, 1))):
        with pytest.raises(P.PartitionError) as got:
            P.dominance_le(lam, mu)
        with pytest.raises(P.PartitionError) as want:
            O.dominance_le_loop(lam, mu)
        assert str(got.value) == str(want.value)


def test_type_membership():
    assert P.is_type_partition((3, 1, 1), "B")
    assert P.is_type_partition((2, 2), "C")
    assert not P.is_type_partition((3, 2, 1), "D")
    assert not P.is_type_partition((4, 2), "D")
    assert P.is_type_partition((3, 3), "D")
    with pytest.raises(P.PartitionError):
        P.is_type_partition((2, 2), "B")


def test_collapse_examples():
    assert P.collapse((3, 1), "C") == (2, 2)
    assert P.collapse((5, 3), "C") == (4, 4)
    assert P.collapse((4, 4, 1), "B") == (4, 4, 1)
    assert P.collapse((3, 2), "B") == (3, 1, 1)
    assert P.collapse((2, 1, 1), "D") == (1, 1, 1, 1)


@pytest.mark.parametrize("total", range(0, 14))
def test_collapse_against_brute_force(total):
    for lam in P.integer_partitions(total):
        for letter in admissible_letters(total):
            got = P.collapse(lam, letter)
            assert got == brute_collapse(lam, letter)
            assert P.collapse(got, letter) == got  # idempotent
            assert P.dominance_le(got, lam)
            assert (got == lam) == P.is_type_partition(lam, letter)


def test_very_even():
    assert P.is_very_even((2, 2))
    assert P.is_very_even((4, 4, 2, 2))
    assert not P.is_very_even((4, 2, 2))
    assert P.is_very_even(())


def test_special_examples():
    assert P.is_special((2, 2), "C")
    assert P.is_special((3, 1, 1), "B")
    assert not P.is_special((2, 2, 1), "B")
    assert P.is_special((4,), "C")
    assert not P.is_special((2, 1, 1), "C")
    assert P.is_special((1, 1, 1, 1, 1), "B")
    # both decorations of a very even partition are special
    assert P.is_special(P.DecoratedPartition((2, 2), 0), "D")
    assert P.is_special(P.DecoratedPartition((2, 2), 1), "D")
    # no even parts and an even number of odd ones: special in type D
    assert P.is_special((2, 2, 1, 1), "D")


def test_dual_examples():
    assert P.dual((3, 1, 1), "B") == (2, 2)
    assert P.dual((5,), "B") == (1, 1, 1, 1)
    assert P.dual((2, 2), "C") == (3, 1, 1)
    assert P.dual((3, 1), "D") == (1, 1, 1, 1)
    with pytest.raises(P.PartitionError):
        P.dual((3, 2), "B")


@pytest.mark.parametrize("letter,rank", [(c, n) for c in P.LETTERS
                                         for n in range(1, 7)])
def test_dual_properties(letter, rank):
    if letter == "B" and rank > 5:
        pytest.skip("size > 12")
    orbs = P.type_partitions(letter, rank)
    co = P.dual_letter(letter)
    for lam in orbs:
        d = P.dual(lam, letter)
        assert P.is_type_partition(d, co)
        assert P.is_special(d, co)
        # d o d o d = d, and d o d = id on specials
        dd = P.dual(d, co)
        assert P.dual(dd, letter) == d
        if P.is_special(lam, letter):
            assert dd == lam
    # order reversal
    for lam in orbs:
        for mu in orbs:
            if P.dominance_le(lam, mu):
                assert P.dominance_le(P.dual(mu, letter), P.dual(lam, letter))


def test_special_iff_dual_dual_identity():
    """The parity criterion agrees with the closure of the image of d."""
    for letter in P.LETTERS:
        for rank in range(1, 6):
            for lam in P.type_partitions(letter, rank):
                via_dual = P.dual(P.dual(lam, letter),
                                  P.dual_letter(letter)) == lam
                assert via_dual == P.is_special(lam, letter), (letter, lam)


def test_enumerate():
    assert P.enumerate_orbits("B", 2) == [(5,), (3, 1, 1), (2, 2, 1),
                                          (1, 1, 1, 1, 1)]
    assert P.enumerate_orbits("C", 1) == [(2,), (1, 1)]
    d2 = P.enumerate_orbits("D", 2)
    assert [str(x) for x in d2] == ["3,1", "2^2:0", "2^2:1", "1^4"]
    with pytest.raises(P.PartitionError):
        P.enumerate_orbits("B", 99)


def test_markable_parts():
    assert P.markable_parts((3, 1, 1), "B") == (3, 1)
    assert P.markable_parts((2, 2), "C") == (2,)
    # 1 is odd with even height 4, hence markable by the definition
    assert P.markable_parts((1, 1, 1, 1), "D") == (1,)
    assert P.markable_parts((2, 2, 2), "C") == ()


def test_reduction():
    assert P.reduction((3, 1, 1), (1, 1), "B") == ()
    assert P.reduction((3, 1, 1), (1,), "B") == (1,)
    assert P.reduction((3, 1, 1), (), "B") == ()
    assert P.reduction((3, 1, 1), (3, 1), "B") == (3, 1)


def test_reduction_depends_on_height_parity_only():
    """mu and mu' with the same height parities at every markable part have
    equal reductions."""
    lam = (3, 3, 2, 2, 1, 1)
    letter = "C"
    marks = P.markable_parts(lam, letter)
    seen = {}
    for mu in all_partitions_upto(6):
        key = tuple(P.height(mu, x) % 2 for x in marks)
        red = P.reduction(lam, mu, letter)
        assert seen.setdefault(key, red) == red


def test_union_closure():
    """D u D and C u C keep their type; D u B is type B."""
    for la in P.type_partitions("D", 2):
        for mu in P.type_partitions("D", 2):
            assert P.is_type_partition(P.union(la, mu), "D")
        for mu in P.type_partitions("B", 2):
            assert P.is_type_partition(P.union(la, mu), "B")
    for la in P.type_partitions("C", 2):
        for mu in P.type_partitions("C", 2):
            assert P.is_type_partition(P.union(la, mu), "C")


def test_parse_and_format():
    assert P.parse_partition("3^2,1") == (3, 3, 1)
    assert P.parse_partition("-") == ()
    assert P.parse_partition("") == ()
    assert P.format_partition((3, 3, 1)) == "3^2,1"
    assert P.format_partition(()) == "-"
    dec = P.parse_partition("2^2:1")
    assert dec == P.DecoratedPartition((2, 2), 1)
    assert str(dec) == "2^2:1"
    # non-very-even decorations collapse to a single value
    assert P.parse_partition("3,1:1") == P.DecoratedPartition((3, 1), 0)
    with pytest.raises(P.PartitionError):
        P.parse_partition("3,x")


@given(small_partitions)
@settings(max_examples=60)
def test_format_roundtrip(lam):
    assert P.parse_partition(P.format_partition(lam)) == lam


def test_decorated_identification():
    assert P.DecoratedPartition((3, 1), 0) == P.DecoratedPartition((3, 1), 1)
    assert P.DecoratedPartition((2, 2), 0) != P.DecoratedPartition((2, 2), 1)


def test_unordered_bipartition_canonical():
    a = P.UnorderedBipartition((1,), (2, 1))
    b = P.UnorderedBipartition((2, 1), (1,))
    assert a == b
    assert a.first == (2, 1)
    eq0 = P.UnorderedBipartition((1,), (1,), 0)
    eq1 = P.UnorderedBipartition((1,), (1,), 1)
    assert eq0 != eq1 and eq0.degenerate
