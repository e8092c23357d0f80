import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from nilorbits import partitions as P


def brute_collapse(lam, letter):
    """Independent oracle: maximum X-partition dominated by lam, found by
    scanning the full list of X-partitions of the same total."""
    n = O.rank_of(lam, letter)
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


def dominance_outcome(lam, mu):
    return O.outcome(P.dominance_le, lam, mu)


def test_packed_key_matches_running_totals_on_type_partitions():
    """``dominance_le`` agrees with the running-total loop on every pair of
    same-letter, same-rank type partitions through rank 10."""
    for letter in P.LETTERS:
        for rank in range(11):
            lams = P.type_partitions(letter, rank)
            for lam in lams:
                for mu in lams:
                    assert P.dominance_le(lam, mu) == \
                        O.dominance_le_loop(lam, mu), (letter, lam, mu)


@pytest.mark.parametrize("total", [0, 1, 2, 3, 4, 7, 8, 15, 16])
def test_packed_key_where_the_field_width_changes(total):
    """Every pair of partitions of a total at which ``total.bit_length()``
    grows or is about to grow, and of the empty partition."""
    lams = list(P.integer_partitions(total))
    for lam in lams:
        for mu in lams:
            assert dominance_outcome(lam, mu) == \
                O.outcome(O.dominance_le_loop, lam, mu), (lam, mu)
    assert P.dominance_le((), ())


def test_packed_key_refuses_unequal_totals():
    """Unequal totals raise what the running-total loop raises, in the
    order of the arguments."""
    for lam, mu in (((2,), (1,)), ((), (1,)), ((1,), ()),
                    ((3, 1), (2, 1, 1, 1)), ((8,), (7,)), ((1,) * 16, (15,))):
        want = O.outcome(O.dominance_le_loop, lam, mu)
        assert want[0] == "raises"
        assert dominance_outcome(lam, mu) == want


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


def check_special_iff_dual_dual(ranks):
    """The parity criterion agrees with the closure of the image of d."""
    for letter in P.LETTERS:
        for rank in ranks:
            for lam in P.type_partitions(letter, rank):
                via_dual = P.dual(P.dual(lam, letter),
                                  P.dual_letter(letter)) == lam
                assert via_dual == P.is_special(lam, letter), (letter, lam)


def test_special_iff_dual_dual_identity():
    check_special_iff_dual_dual(range(13))


@pytest.mark.slow
def test_special_iff_dual_dual_identity_through_rank_16():
    check_special_iff_dual_dual(range(13, 17))


def test_enumerate():
    assert P.enumerate_orbits("B", 2) == [(5,), (3, 1, 1), (2, 2, 1),
                                          (1, 1, 1, 1, 1)]
    assert P.enumerate_orbits("C", 1) == [(2,), (1, 1)]
    d2 = P.enumerate_orbits("D", 2)
    assert [str(x) for x in d2] == ["3,1", "2^2:0", "2^2:1", "1^4"]
    with pytest.raises(P.PartitionError):
        P.enumerate_orbits("B", 99)


@pytest.mark.parametrize("letter", P.LETTERS)
def test_type_partitions_match_filter(letter):
    """The generated type partitions are the filtered integer partitions,
    in the same order (ranks 0-12)."""
    for rank in range(13):
        assert P.type_partitions(letter, rank) == \
            O.type_partitions_by_filter(letter, rank), (letter, rank)


@pytest.mark.slow
@pytest.mark.parametrize("letter", P.LETTERS)
def test_type_partitions_match_filter_through_rank_16(letter):
    for rank in range(13, 17):
        assert P.type_partitions(letter, rank) == \
            O.type_partitions_by_filter(letter, rank), (letter, rank)


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
    """Subpartitions mu and mu' with the same height parities at every
    markable part have equal reductions."""
    lam = (3, 3, 2, 2, 1, 1)
    letter = "C"
    marks = P.markable_parts(lam, letter)
    seen = {}
    for mu in all_partitions_upto(6):
        if not P.contains(lam, mu):
            continue
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
    with pytest.raises(P.PartitionError) as exc:
        P.DecoratedPartition((2, 2), 3)
    assert str(exc.value) == "decoration must be 0 or 1, got 3"


# ---------------------------------------------------------------------------
# the single-pass primitives against their per-part loops

def compositions_upto(total):
    """Every composition of each m <= total: the distinct permutations of
    the partitions of m."""
    def of(m):
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in of(m - first):
                yield (first,) + rest
    for m in range(total + 1):
        yield from of(m)


def with_zeros_and_negatives(parts):
    """Partitions with zero and negative parts mixed in, and the empty
    input."""
    out = [(), (0,), (-1,), (0, 0), (-1, 0), (0, -2, 3), (2, -1, -1)]
    for lam in parts:
        out += [lam + (0,), (0,) + lam, lam + (0, 0), lam + (-1,),
                (-2,) + lam, lam[:1] + (-1,) + lam[1:]]
    return out


CANONICAL = list(all_partitions_upto(16))
PERMUTED = list(compositions_upto(8))
IRREGULAR = with_zeros_and_negatives(list(all_partitions_upto(6)))


def as_inputs(parts_list):
    """Each input as a tuple and as a list."""
    for parts in parts_list:
        yield parts
        yield list(parts)


ONE_ARGUMENT = [(P.as_partition, O.as_partition_loop),
                (P.transpose, O.transpose_loop),
                (P.is_very_even, O.is_very_even_loop),
                (P.format_partition, O.format_partition_loop)]


def assert_primitives_agree(inputs):
    """Every rewritten primitive gives what its loop gives, value and type
    or error type and message."""
    for lam in inputs:
        for new, old in ONE_ARGUMENT:
            assert O.outcome(new, lam) == O.outcome(old, lam), (new, lam)
        for x in range(-2, max(lam, default=0) + 2):
            assert O.outcome(P.height, lam, x) == \
                O.outcome(O.height_loop, lam, x), (lam, x)
        for letter in P.LETTERS + ("A",):
            assert O.outcome(P.is_type_partition, lam, letter) == \
                O.outcome(O.is_type_partition_loop, lam, letter), \
                (lam, letter)
            assert O.outcome(P.markable_parts, lam, letter) == \
                O.outcome(O.markable_parts_loop, lam, letter), (lam, letter)


def test_primitives_match_loops_on_partitions():
    assert_primitives_agree(as_inputs(CANONICAL))


def test_primitives_match_loops_on_permutations():
    """Unsorted input gives what it gave before; ``transpose`` reads
    lam[0] as the number of columns."""
    assert_primitives_agree(as_inputs(PERMUTED))
    assert P.transpose((1, 3)) == (2,)
    assert P.transpose([2, 3, 1]) == (3, 2)


def test_primitives_match_loops_with_zeros_and_negatives():
    assert_primitives_agree(as_inputs(IRREGULAR))
    assert P.transpose((2, -1)) == (1, 1)


def test_contains_and_subtract_match_loops():
    small = list(all_partitions_upto(5))
    cases = [(lam, mu) for lam in CANONICAL for mu in small]
    cases += [(lam, mu) for lam in PERMUTED for mu in compositions_upto(4)]
    cases += [((0, 2, -1), (0,)), ((0, 2, -1), (-1, -1)), ((), ())]
    for lam, mu in cases:
        for a, b in ((lam, mu), (list(lam), list(mu))):
            assert O.outcome(P.contains, a, b) == \
                O.outcome(O.contains_loop, a, b), (a, b)
            assert O.outcome(P.subtract, a, b) == \
                O.outcome(O.subtract_loop, a, b), (a, b)


def test_reduction_matches_loop():
    markings = list(all_partitions_upto(6))
    markings += [tuple(reversed(mu)) for mu in markings] + [(0, 1), (3, -1)]
    for lam in CANONICAL:
        for letter in admissible_letters(sum(lam)):
            for mu in markings:
                assert O.outcome(P.reduction, lam, mu, letter) == \
                    O.outcome(_reduction_of_subpartition, lam, mu, letter), \
                    (lam, mu, letter)
    for lam in IRREGULAR + [(3, 1, 1, 0, 0), (2, 2, 0, 0)]:
        for letter in P.LETTERS:
            assert O.outcome(P.reduction, lam, (1,), letter) == \
                O.outcome(_reduction_of_subpartition, lam, (1,), letter), \
                (lam, letter)


def _reduction_of_subpartition(lam, mu, letter):
    """``oracles.reduction_loop`` after the checks of ``reduction``: the
    type of lam, then mu inside lam."""
    P.assert_type_partition(lam, letter)
    if not O.contains_loop(lam, mu):
        raise P.PartitionError(f"{O.format_partition_loop(mu)} is not a "
                               f"subpartition of "
                               f"{O.format_partition_loop(lam)}")
    return O.reduction_loop(lam, mu, letter)


def test_reduction_refuses_a_marking_outside_the_orbit():
    """``reduction`` answers only for a subpartition of the orbit."""
    with pytest.raises(P.PartitionError,
                       match=r"^5 is not a subpartition of 3,1\^2$"):
        P.reduction((3, 1, 1), (5,), "B")
    with pytest.raises(P.PartitionError, match=r"^1\^3 is not a "):
        P.reduction((3, 1, 1), (1, 1, 1), "B")
    assert P.reduction((3, 1, 1), (3, 1, 1), "B") == (3,)
