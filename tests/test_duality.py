import collections
import dataclasses
from itertools import product

import pytest

import oracles as O
from nilorbits import cli
from nilorbits import duality as du
from nilorbits import partitions as P
from nilorbits import springer as sp


def splits(lam):
    """Every (first, rest) pair of partitions with union lam."""
    values = sorted(set(lam), reverse=True)
    for combo in product(*[range(lam.count(v) + 1) for v in values]):
        mu = P.as_partition([v for v, m in zip(values, combo)
                             for _ in range(m)])
        yield mu, P.subtract(lam, mu)


def all_pairs_over(lam, letter):
    """Every valid pseudo-Levi orbit pair with union lam."""
    for mu, nu in splits(lam):
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


def test_marking_outside_the_orbit_refused_as_by_reduction():
    """A marking that is no subpartition of its orbit is refused with the
    message of ``reduction``, not offered a reduction it does not have:
    every orbit of B, C, D through rank 4 against every partition of 1 to
    5 outside it."""
    refused = 0
    for letter in P.LETTERS:
        for rank in range(5):
            for lam in P.type_partitions(letter, rank):
                for total in range(1, 6):
                    for marking in P.integer_partitions(total):
                        if P.contains(lam, marking):
                            continue
                        got = _outcome(du.MarkedOrbit, letter, lam, marking)
                        assert got == _outcome(P.reduction, lam, marking,
                                               letter), (letter, lam, marking)
                        refused += 1
    assert refused
    with pytest.raises(P.PartitionError, match=r"^5 is not a subpartition "
                                               r"of 3,1\^2$"):
        du.MarkedOrbit("B", (3, 1, 1), (5,))


def _marked_by_reduction(letter, orbit, marking):
    """The marked orbit, refused unless the marking is its own reduction:
    the validation ``MarkedOrbit`` replaces by one ``markable_parts`` pass,
    for a marking inside the orbit."""
    reduced = P._reduction(orbit, marking, letter)
    if reduced != marking:
        raise P.PartitionError(
            f"marking {P.format_partition(marking)} is not reduced on "
            f"{P.format_partition(orbit)} (its reduction is "
            f"{P.format_partition(reduced)})")
    return du.MarkedOrbit(letter, orbit, marking)


def test_marking_validation_matches_reduction():
    """Every sub-multiset marking of every orbit of B, C, D through rank 6
    is accepted or refused, with the same message, as by the reduction."""
    kinds = collections.Counter()
    for letter in P.LETTERS:
        for rank in range(7):
            for lam in P.type_partitions(letter, rank):
                for marking, _ in splits(lam):
                    got = _outcome(du.MarkedOrbit, letter, lam, marking)
                    want = _outcome(_marked_by_reduction, letter, lam,
                                    marking)
                    assert got == want, (letter, lam, marking)
                    kinds[isinstance(got, Raised)] += 1
    assert kinds[True] and kinds[False]


def test_marked_orbit_refusals_keep_their_order():
    """``MarkedOrbit`` accepts and refuses, with the same error and message,
    as its checks taken one step at a time: letters B, C, D and a bad one,
    every partition of 0 to 6, a few markings in and outside each."""
    kinds = collections.Counter()
    for letter in (*P.LETTERS, "X"):
        for total in range(7):
            for lam in P.integer_partitions(total):
                for marking in {(), lam[:1], lam[:2], lam[-1:], (1, 1),
                                (2,), (3, 1)}:
                    got = O.outcome(du.MarkedOrbit, letter, lam, marking)
                    assert got == O.outcome(O.marked_orbit_by_steps, letter,
                                            lam, marking), \
                        (letter, lam, marking)
                    kinds[got[0]] += 1
    assert kinds["returns"] and kinds["raises"]


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


@dataclasses.dataclass(frozen=True)
class Raised:
    kind: type
    message: str


def _outcome(call, *args):
    """The value of the call, or the type and message of its error."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return Raised(type(exc), str(exc))


def check_d_s_against_induction(letter, upto):
    """The closed form of ``d_S`` against truncated induction: every pair of
    every product shape, then every split of every orbit into (first, rest),
    most of which sit on no shape; errors compare by type.  Returns the
    number of pairs and of refusals."""
    pairs = []
    for rank in range(upto + 1):
        for shape in sp.product_shapes(letter, rank):
            (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
            pairs += [(mu, nu) for mu in P.type_partitions(y, p)
                      for nu in P.type_partitions(x, q)]
        for lam in P.type_partitions(letter, rank):
            pairs += splits(lam)
    refused = 0
    for mu, nu in pairs:
        got = _outcome(du.d_S, mu, nu, letter)
        want = _outcome(O.d_S_by_induction, mu, nu, letter)
        if isinstance(want, Raised):
            assert isinstance(got, Raised) and got.kind is want.kind, (mu, nu)
            refused += 1
        else:
            assert got == want, (mu, nu)
    return len(pairs), refused


@pytest.mark.parametrize("letter", P.LETTERS)
def test_d_s_matches_induction(letter):
    total, refused = check_d_s_against_induction(letter, 7)
    assert 0 < refused < total


@pytest.mark.slow
@pytest.mark.parametrize("letter", P.LETTERS)
def test_d_s_matches_induction_through_rank_10(letter):
    total, refused = check_d_s_against_induction(letter, 10)
    assert 0 < refused < total


def test_d_s_marked_matches_shape_check_first():
    """``d_S_marked`` lets ``d_S`` check the pair's shape; on every reduced
    marked orbit of B, C and D through rank 8 it gives what checking the
    shape first and then calling ``d_S`` gives, refusals included."""
    outcomes = collections.Counter()
    for letter in P.LETTERS:
        for rank in range(9):
            for lam in P.type_partitions(letter, rank):
                for marking in O.reduced_markings(lam, letter):
                    marked = du.MarkedOrbit(letter, lam, marking)
                    got = O.outcome(du.d_S_marked, marked)
                    assert got == O.outcome(O.d_S_marked_by_shape, marked), \
                        marked
                    outcomes[got[0]] += 1
    assert outcomes["returns"] and outcomes["raises"]


def test_le_a_matches_definition():
    """``le_A`` against its definition on every ordered pair of reduced
    marked orbits of one type through rank 6: orbit dominance first (unequal
    ranks raise), then the Sommers duals the other way, the second orbit's
    dual evaluated first, so a marking with no lift raises only when the
    orbits compare and the second orbit's error wins."""
    for letter in P.LETTERS:
        marked = [du.MarkedOrbit(letter, lam, marking)
                  for rank in range(7)
                  for lam in P.type_partitions(letter, rank)
                  for marking in O.reduced_markings(lam, letter)]
        sommers = {m: _outcome(O.d_S_marked_by_shape, m, O.d_S_by_induction)
                   for m in marked}

        def definition(m1, m2):
            if not O.dominance_le_loop(m1.orbit, m2.orbit):
                return False
            for m in (m2, m1):
                if isinstance(sommers[m], Raised):
                    raise sommers[m].kind(sommers[m].message)
            return O.dominance_le_loop(sommers[m2], sommers[m1])

        want = {(m1, m2): _outcome(definition, m1, m2)
                for m1 in marked for m2 in marked}
        # the first pass fills the keys; the second one finds every marking
        # with a lift keyed, and so takes the one-subtraction path
        for warm in (False, True):
            outcomes = collections.Counter()
            for m1 in marked:
                for m2 in marked:
                    got = _outcome(du.le_A, m1, m2)
                    assert got == want[m1, m2], (m1, m2, warm)
                    outcomes[got.message.split()[0]
                             if isinstance(got, Raised) else got] += 1
            # both answers, unequal totals and markings with no lift all
            # occur (type C has no marking without a lift)
            assert outcomes[True] and outcomes[False]
            assert outcomes["dominance"]
            assert bool(outcomes["no"]) == (letter != "C")
            for m in marked:
                assert (m._achar_key is None) == \
                    isinstance(sommers[m], Raised), m
    b, c = du.MarkedOrbit("B", (3,), ()), du.MarkedOrbit("C", (2,), ())
    assert _outcome(du.le_A, b, c) == Raised(P.PartitionError,
                                             "cannot compare types B and C")


def test_warm_keys_still_refuse():
    """Keys that are filled never let a comparison of two types or of two
    ranks through: a C and a D orbit of equal total, and two orbits of
    unequal rank, raise as they do cold."""
    c = du.MarkedOrbit("C", (2, 2), ())
    d = du.MarkedOrbit("D", (3, 1), ())
    small = du.MarkedOrbit("C", (2,), ())
    for m in (c, d, small):
        assert du.le_A(m, m) and m._achar_key is not None
    for m1, m2 in ((c, d), (d, c)):
        assert _outcome(du.le_A, m1, m2) == Raised(
            P.PartitionError,
            f"cannot compare types {m1.letter} and {m2.letter}")
    assert _outcome(du.le_A, small, c) == Raised(
        P.PartitionError, "dominance compares equal totals, got 2 != 4")
    assert _outcome(du.le_A, c, small) == Raised(
        P.PartitionError, "dominance compares equal totals, got 4 != 2")


def le_a_matrix(rank, monkeypatch):
    """Every ordered pair of ``d_A_triv`` images at ``rank``, compared with
    their keys cold and then warm, against orbit dominance and the reversed
    dominance of the Sommers duals by truncated induction.  Returns the
    images per letter, the calls of ``d_S_marked`` and ``dominance_le``,
    and the number of pairs in the order."""
    calls = collections.Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for module, name in ((du, "d_S_marked"), (P, "dominance_le")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    sizes, true = {}, 0
    for letter in P.LETTERS:
        images = [du.d_A_triv(lam, letter) for lam in
                  P.type_partitions(P.dual_letter(letter), rank)]
        # checked copies keep no Sommers dual, so this runs the computed
        # path; test_le_a_on_kept_sommers_duals covers the kept one
        marked = [du.MarkedOrbit(m.letter, m.orbit, m.marking)
                  for m in images]
        sizes[letter] = len(marked)
        sommers = [O.d_S_marked_by_shape(m, O.d_S_by_induction)
                   for m in marked]
        want = [[O.dominance_le_loop(m1.orbit, m2.orbit)
                 and O.dominance_le_loop(s2, s1)
                 for m2, s2 in zip(marked, sommers)]
                for m1, s1 in zip(marked, sommers)]
        for _ in ("cold", "warm"):
            assert [[du.le_A(m1, m2) for m2 in marked]
                    for m1 in marked] == want
        true += sum(map(sum, want))
    return sizes, dict(calls), true


def test_le_a_matches_definition_on_the_rank_10_matrix(monkeypatch):
    """The Achar-order matrix of the benchmark (232 images of B, 196 of C,
    161 of D).  Each marked orbit has its Sommers dual computed once, and
    the orbits are compared once per cold pair."""
    assert le_a_matrix(10, monkeypatch) == (
        {"B": 232, "C": 196, "D": 161},
        {"d_S_marked": 589, "dominance_le": 589}, 48355)


@pytest.mark.parametrize("rank", [7, 8])
def test_le_a_matches_definition_where_the_key_field_widens(rank, monkeypatch):
    """The Achar key's fields are ``max(n, d).bit_length() + 1`` bits wide,
    n and d being the orbit's and its Sommers dual's totals: 5 bits at rank
    7 (totals 14 or 15) and 6 at rank 8 (16 or 17), so a key one bit too
    narrow, at either width, fails the matrix check."""
    sizes, true = {7: ({"B": 64, "C": 55, "D": 43}, 4016),
                   8: ({"B": 100, "C": 86, "D": 70}, 9632)}[rank]
    count = sum(sizes.values())
    assert le_a_matrix(rank, monkeypatch) == (
        sizes, {"d_S_marked": count, "dominance_le": count}, true)


def check_achar_identity(ranks, induction_upto=8):
    """d_S(d_A(O, 1)) = O on every dual orbit O of B, C and D at ``ranks``:
    the Achar dual keeps O as its Sommers dual, set right after the fields,
    and a fresh checked copy, which keeps none, computes O; through rank
    ``induction_upto`` truncated induction computes O too.  Returns the
    number of orbits."""
    count = 0
    for letter in P.LETTERS:
        for rank in ranks:
            for lam in P.type_partitions(P.dual_letter(letter), rank):
                m = du.d_A_triv(lam, letter)
                fresh = du.MarkedOrbit(m.letter, m.orbit, m.marking)
                assert m._sommers == lam and fresh._sommers is None
                assert list(vars(m)) == [*m.__match_args__, "_sommers"]
                assert du.d_S_marked(m) is m._sommers
                assert du.d_S_marked(fresh) == lam, (letter, lam)
                if rank <= induction_upto:
                    assert O.d_S_marked_by_shape(
                        fresh, O.d_S_by_induction) == lam, (letter, lam)
                count += 1
    return count


def test_achar_duals_keep_their_sommers_dual():
    assert check_achar_identity(range(13)) == 3777


@pytest.mark.slow
def test_achar_duals_keep_their_sommers_dual_through_rank_20():
    assert check_achar_identity(range(13, 21)) == 62258


@pytest.mark.parametrize("rank", [7, 8, 10])
def test_le_a_on_kept_sommers_duals(rank, monkeypatch):
    """Achar's order on the ``d_A_triv`` images themselves, which keep their
    Sommers duals, cold and then warm, against its definition: orbit
    dominance, then the reversed dominance of the Sommers duals by
    truncated induction of fresh checked copies.  No ``d_S`` call is made
    until the images meet their fresh copies, whose keys are computed, one
    ``d_S`` call each."""
    calls = collections.Counter()

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in ("d_S", "d_S_marked"):
        monkeypatch.setattr(du, name, counted(name, getattr(du, name)))
    for letter in P.LETTERS:
        images = [du.d_A_triv(lam, letter) for lam in
                  P.type_partitions(P.dual_letter(letter), rank)]
        fresh = [du.MarkedOrbit(m.letter, m.orbit, m.marking)
                 for m in images]
        sommers = [O.d_S_marked_by_shape(m, O.d_S_by_induction)
                   for m in fresh]
        want = [[O.dominance_le_loop(m1.orbit, m2.orbit)
                 and O.dominance_le_loop(s2, s1)
                 for m2, s2 in zip(images, sommers)]
                for m1, s1 in zip(images, sommers)]
        calls.clear()
        for _ in ("cold", "warm"):
            assert [[du.le_A(m1, m2) for m2 in images]
                    for m1 in images] == want
        assert calls == {"d_S_marked": len(images)}
        # every image has its attributes in one order, the key last
        assert {tuple(vars(m)) for m in images} == \
            {(*du.MarkedOrbit.__match_args__, "_sommers", "_achar_key")}
        # one key kept and one computed, both ways round
        assert [[du.le_A(m1, f2) for f2 in fresh]
                for m1 in images] == want
        assert [[du.le_A(f1, m2) for m2 in images]
                for f1 in fresh] == want
        assert calls == {"d_S_marked": 2 * len(images), "d_S": len(images)}


def test_no_lift_checks_the_shape_once_per_attempt(monkeypatch):
    """Two comparisons that reach a marking with no lift raise the same
    error, and each attempt at the lift checks its shape once."""
    calls = []
    real = du.pair_shape

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(du, "pair_shape", counted)
    marked = du.MarkedOrbit("B", (1, 1, 1), (1,))
    first = _outcome(du.le_A, marked, marked)
    second = _outcome(du.le_A, marked, marked)
    assert first == second == Raised(
        P.PartitionError, "no pseudo-Levi pair realizes (1, 1, 1) | (1,)")
    assert len(calls) == 2


def test_order_caches_leave_identity_alone():
    """Filling the cached prefix sums changes no field, repr, hash, equality
    or record of a marked orbit."""
    fresh = du.MarkedOrbit("B", (3, 1, 1), (3, 1))
    used = du.MarkedOrbit("B", (3, 1, 1), (3, 1))
    before = (repr(used), hash(used), cli.record_of(used))
    assert du.le_A(used, used)
    assert (repr(used), hash(used), cli.record_of(used)) == before
    assert used == fresh and hash(used) == hash(fresh)
    assert tuple(getattr(used, name) for name in used.__match_args__) == \
        ("B", (3, 1, 1), (3, 1))


def test_d_a_triv_sorts_the_orbit_and_drops_its_decoration():
    a = du.d_A_triv((2, 1, 1), "B")
    assert du.d_A_triv([1, 2, 1], "B") == a
    assert du.d_A_triv(P.DecoratedPartition((2, 2), 1), "D") == \
        du.d_A_triv((2, 2), "D")


def test_closure_le_decorations():
    a = P.DecoratedPartition((2, 2), 0)
    b = P.DecoratedPartition((2, 2), 1)
    assert O.closure_le(a, a, "D")
    assert not O.closure_le(a, b, "D")
    assert O.closure_le(b, P.DecoratedPartition((3, 1), 0), "D")
    assert O.closure_le((2, 2), (3, 1), "D")


def test_maximal_marked():
    m1 = du.d_A_triv((6,), "B")       # dual of the regular: minimal
    m2 = du.d_A_triv((2, 2, 1, 1), "B")
    m3 = du.d_A_triv((1,) * 6, "B")   # dual of the zero orbit: maximal
    assert O.maximal_marked([m1, m2, m3]) == [m3]
    assert O.maximal_marked([m1]) == [m1]
