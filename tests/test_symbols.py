import logging
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from nilorbits import partitions as P
from nilorbits import springer as sp
from nilorbits import symbols as S

PAPER_EXAMPLE = S.Symbol((0, 2, 3, 7, 10, 13), (1, 3, 6, 8, 11), "s")


def bipartitions(total):
    out = []
    for a in range(total + 1):
        for lam in P.integer_partitions(a):
            for mu in P.integer_partitions(total - a):
                out.append((lam, mu))
    return out


def stripped(sym, letter):
    """The shift normalization ``_stripped`` as a checked ``Symbol``."""
    return S.Symbol(*S._stripped(sym.top, sym.bottom, sym.kind, letter),
                    sym.kind)


def monotonic(sym, letter):
    """The monotonic deal ``_monotonic_rows`` as a checked ``Symbol``."""
    return S.Symbol(*S._monotonic_rows(sym.entries(), sym.defect, sym.kind,
                                       letter), sym.kind)


def test_symbol_validation():
    with pytest.raises(S.SymbolError):
        S.Symbol((2, 1), (0,), "s")
    with pytest.raises(S.SymbolError):
        S.Symbol((1, 1), (), "a")
    assert S.Symbol((0, 1), (2,), "s").gap_ok() is False
    assert S.Symbol((0, 2), (1,), "s").gap_ok() is True


def test_refinement_reproduces_worked_example():
    blocks = S.refinement(PAPER_EXAMPLE)
    assert S.bar(PAPER_EXAMPLE) == (0, 1, 2, 3, 3, 6, 7, 8, 10, 11, 13)
    assert [b.values for b in blocks] == [(0, 1, 2), (3, 3), (6, 7, 8),
                                          (10, 11), (13,)]
    assert [b.top for b in blocks] == [(0, 2), (3,), (7,), (10,), (13,)]
    assert [b.bottom for b in blocks] == [(1,), (3,), (6, 8), (11,), ()]
    assert [b.tag for b in blocks] == ["interval", "pair", "interval",
                                       "interval", "interval"]


def test_refinement_rejects_non_monotonic():
    crooked = S.Symbol((1, 3), (0,), "s")
    assert not S.is_monotonic(crooked)
    with pytest.raises(S.SymbolError):
        S.refinement(crooked)


def test_refinement_all_pairs_and_tail():
    sym = S.Symbol((1, 3), (1, 3), "s")
    blocks = S.refinement(sym)
    assert all(b.tag == "pair" for b in blocks)
    tail = S.Symbol((0, 2, 9), (1, 3), "s")
    blocks = S.refinement(tail)
    assert blocks[-1].values == (9,) and len(blocks[-1].values) == 1


def test_refinement_blocks_of_character_symbols():
    """On the monotonic representative of every character's s- and
    a-symbol through rank 8, the blocks in order hold the sorted entries,
    the pairs are the entries in both rows, the intervals are maximal runs
    of consecutive entries, and each block's rows are its entries in each
    row."""
    for letter in P.LETTERS:
        for rank in range(9):
            for rep in sp.irreps(letter, rank):
                for kind in ("s", "a"):
                    sym = monotonic(S.symbol_of_pair(
                        rep.first, rep.second, letter, kind), letter)
                    order = S.underline(sym) if sym.defect == 0 else sym
                    top, bottom = set(order.top), set(order.bottom)
                    blocks = S.refinement(sym)
                    assert [v for b in blocks for v in b.values] == \
                        sorted(order.top + order.bottom), sym
                    pairs = [b.values for b in blocks if b.tag == "pair"]
                    assert pairs == [(v, v) for v in sorted(top & bottom)]
                    ends = [(b.values[0], b.values[-1]) for b in blocks
                            if b.tag == "interval"]
                    for (low, high), (nxt, _) in zip(ends, ends[1:]):
                        assert nxt > high + 1, sym
                    for b in blocks:
                        values = tuple(dict.fromkeys(b.values))
                        if b.tag == "interval":
                            assert values == tuple(
                                range(values[0], values[-1] + 1)), sym
                        assert b.top == tuple(v for v in values
                                              if v in top), sym
                        assert b.bottom == tuple(v for v in values
                                                 if v in bottom), sym


def test_flips():
    assert S.flips(PAPER_EXAMPLE, "B", ()) == PAPER_EXAMPLE
    swapped = S.flips(PAPER_EXAMPLE, "B", {4})
    assert swapped.top == (0, 2, 3, 7, 11, 13)
    assert swapped.bottom == (1, 3, 6, 8, 10)
    assert swapped.defect == 1
    with pytest.raises(S.SymbolError):
        S.flips(PAPER_EXAMPLE, "B", {5})  # unbalances the defect
    with pytest.raises(S.SymbolError):
        S.flips(PAPER_EXAMPLE, "B", {99})


def test_symbol_of_pair_examples():
    assert S.symbol_of_pair((1,), (1,), "B", "s") == S.Symbol((0, 3), (1,), "s")
    assert S.symbol_of_pair((1,), (1,), "B", "a") == S.Symbol((0, 2), (1,), "a")
    assert S.symbol_of_pair((), (), "B", "s") == S.Symbol((0,), (), "s")
    assert S.symbol_of_pair((2,), (), "C", "s") == S.Symbol((2,), (), "s")
    assert S.symbol_of_pair((1,), (1,), "C", "s") == S.Symbol((0, 3), (2,), "s")


def test_symbol_size():
    for letter in ("B", "C"):
        for kind in ("s", "a"):
            for lam, mu in bipartitions(4):
                sym = S.symbol_of_pair(lam, mu, letter, kind)
                assert S.symbol_size(sym, letter) == 4
                assert S.is_type_symbol(sym, letter)
    for kind in ("s", "a"):
        for lam, mu in bipartitions(3):
            sym = S.symbol_of_pair(lam, mu, "D", kind)
            assert S.symbol_size(sym, "D") == 3
            assert S.is_type_symbol(sym, "D")


def test_shift_and_roundtrip():
    for letter in ("B", "C", "D"):
        for kind in ("s", "a"):
            for lam, mu in bipartitions(3):
                sym = S.symbol_of_pair(lam, mu, letter, kind)
                assert stripped(O.pad_once(sym, letter), letter) == \
                    stripped(sym, letter)
                for k in range(S.min_size_pair(lam, mu, letter), 6):
                    rep = S.symbol_of_pair(lam, mu, letter, kind, k)
                    assert O.shift_equal(rep, sym, letter)
                    back = S.pair_of_symbol(rep, letter)
                    assert back == (lam, mu)


def test_similar():
    s1 = S.symbol_of_pair((1,), (1,), "B", "s")
    s2 = S.symbol_of_pair((1, 1), (), "B", "s")
    s3 = S.symbol_of_pair((), (2,), "B", "s")
    assert O.similar(s1, s2, "B")
    assert not O.similar(s1, s3, "B")
    # distinct orbits of B2 have dissimilar symbols
    assert not O.similar(S.symbol_of_pair((2,), (), "B", "s"), s1, "B")


def test_monotonic_representative():
    s2 = S.symbol_of_pair((1, 1), (), "B", "s")
    mono = monotonic(s2, "B")
    assert S.is_monotonic(mono)
    assert mono == S.Symbol((0, 3), (1,), "s")
    assert S.is_monotonic(S.symbol_of_pair((), (), "B", "s"))


def small_symbols(kind):
    """Every ``kind``-symbol with rows of at most three entries below 6."""
    rows = [row for n in range(4) for row in combinations(range(6), n)]
    return [S.Symbol(top, bottom, kind) for top in rows for bottom in rows]


def test_normalize_matches_stepwise_strip():
    """All leading staircase columns stripped at once against one at a
    time into a checked ``Symbol``: the same value, or the same error (a
    row gap below 2 leaves a negative entry)."""
    kinds = set()
    for kind in ("s", "a"):
        for sym in small_symbols(kind):
            for letter in P.LETTERS:
                got = O.outcome(stripped, sym, letter)
                assert got == O.outcome(O.normalize_by_steps, sym, letter), \
                    (sym, letter)
                kinds.add(got[0] if got[0] == "raises" else
                          got[2] == sym)
    assert kinds == {"raises", True, False}


def test_sgn_twist_pair_orders_type_d_pairs_canonically():
    for rank in range(7):
        canonical = {(first, second) for first, second, _ in O.d_irreps(rank)}
        for rep in sp.irreps("D", rank):
            a, b, kappa = S.sgn_twist_pair(rep.first, rep.second, "D",
                                           rep.kappa)
            assert (a, b) in canonical
            assert sorted((a, b)) == sorted((P.transpose(rep.first),
                                             P.transpose(rep.second)))
            assert kappa == (rep.kappa if a == b else 0)


def test_monotonic_representative_matches_symbol_deal():
    """The row-level deal against dealing into a checked ``Symbol``: the
    same value, or the same error and message (wrong defect, a row gap
    below 2 in an s-symbol, the type-C first-bottom-entry rule)."""
    refused = set()
    for kind in ("s", "a"):
        for sym in small_symbols(kind):
            for letter in P.LETTERS:
                got = O.outcome(monotonic, sym, letter)
                assert got == O.outcome(O.monotonic_representative_by_symbol,
                                        sym, letter), (sym, letter)
                if got[0] == "raises":
                    refused.add(got[2])
    assert {"no monotonic form for defect 2",
            "(0,1;0) is not a valid type-B s-symbol",
            "(0,2;0) is not a valid type-C s-symbol",
            "(0;0) is not a valid type-B a-symbol"} <= refused


def test_enumerate_class_matches_splittings():
    """Dealing the refinement blocks reaches exactly the similar s-symbols
    of the same size, for every bipartition of rank <= 6 at the minimal and
    two padded sizes."""
    for letter in ("B", "C", "D"):
        for total in range(7):
            for lam, mu in bipartitions(total):
                k0 = S.min_size_pair(lam, mu, letter)
                for k in (k0, k0 + 1, k0 + 2):
                    sym = S.symbol_of_pair(lam, mu, letter, "s", k)
                    assert S.enumerate_class(sym, letter) == \
                        O.similar_symbols_bruteforce(sym, letter), \
                        (letter, lam, mu, k)


def test_enumerate_class_of_a_symbols_is_the_family():
    """Each single entry of an a-symbol is a block of its own, so the class
    is the whole family, for the a-symbol of every bipartition of rank <= 6
    at the minimal and two padded sizes."""
    for letter in ("B", "C", "D"):
        for total in range(7):
            for lam, mu in bipartitions(total):
                k0 = S.min_size_pair(lam, mu, letter)
                for k in (k0, k0 + 1, k0 + 2):
                    sym = S.symbol_of_pair(lam, mu, letter, "a", k)
                    got = S.enumerate_class(sym, letter)
                    assert got == S.similar_symbols(sym, letter) == \
                        O.similar_symbols_bruteforce(sym, letter), \
                        (letter, lam, mu, k)


def test_enumerate_class_matches_filtered_deals():
    """Dealing only the type-shaped orientations gives the list, in its
    order, that filtering every deal gave, for every bipartition of rank
    <= 7 at the minimal and two padded sizes, also with the letter of
    another type."""
    for letter in ("B", "C", "D"):
        for total in range(8):
            for lam, mu in bipartitions(total):
                k0 = S.min_size_pair(lam, mu, letter)
                for k in (k0, k0 + 1, k0 + 2):
                    sym = S.symbol_of_pair(lam, mu, letter, "s", k)
                    for other in ("B", "C", "D"):
                        assert O.outcome(S.enumerate_class, sym, other) == \
                            O.outcome(O.enumerate_class_by_filter, sym,
                                      other), (letter, lam, mu, k, other)


def test_deal_kernel_matches_splittings():
    """The deal kernel on every pair of rows of at most three entries below
    6 with the kind's gaps, type-C s-rows with 0 in both rows among them:
    for each kind and type, the sorted splittings of the entries into rows
    of the same lengths that are symbols of the type; with ``unordered`` in
    type D, the first of each mirrored pair."""
    rows = [row for n in range(4) for row in combinations(range(6), n)]
    dealt = 0
    for kind in ("s", "a"):
        gap = 2 if kind == "s" else 1
        spaced = [row for row in rows
                  if all(b - a >= gap for a, b in zip(row, row[1:]))]
        for top, bottom in product(spaced, repeat=2):
            for letter in P.LETTERS:
                sym = S.Symbol(top, bottom, kind)
                want = [(s.top, s.bottom)
                        for s in O.similar_symbols_bruteforce(sym, letter)]
                assert S._deals(top, bottom, kind, letter) == want, \
                    (top, bottom, kind, letter)
                once = S._deals(top, bottom, kind, letter, unordered=True)
                if letter == "D":
                    want = [(t, b) for t, b in want
                            if (b, t) not in want or (t, b) <= (b, t)]
                assert once == want, (top, bottom, kind, letter)
                dealt += len(once)
    assert dealt


def dual_fibre_classes(rank):
    """The s-symbol that ``springer.dual_fiber`` enumerates, for every
    orbit of every type at the rank, with the type."""
    for conv in P.LETTERS:
        for lam in P.enumerate_orbits(conv, rank):
            first, second, _ = sp.springer_bipartition(lam, conv)
            k = max(S.min_size_pair(first, second, conv),
                    len(P.bare(lam)) // 2 + 1)
            yield S.symbol_of_pair(first, second, conv, "s", k), conv


@pytest.mark.slow
def test_enumerate_class_matches_filtered_deals_at_rank_12():
    classes = list(dual_fibre_classes(12))
    assert len(classes) == 1285
    for sym, conv in classes:
        assert S.enumerate_class(sym, conv) == \
            O.enumerate_class_by_filter(sym, conv), (sym, conv)


def test_class_size_subregular():
    sub = S.symbol_of_pair((1,), (1,), "B", "s")
    assert len(S.enumerate_class(sub, "B")) == 2


def test_family_flip_gap():
    """a-symbol similarity classes can exceed the flips of the refinement:
    the three-member family through ((0,2);(1))."""
    tri = S.symbol_of_pair((1,), (1,), "B", "a")
    family = S.similar_symbols(tri, "B")
    assert len(family) == 3
    mono = monotonic(tri, "B")
    blocks = S.refinement(mono)
    assert len(blocks) == 1  # a single interval, no defect-preserving flip


def test_similar_symbols_matches_splittings():
    """The closed-form family enumerator returns exactly the a-symbols the
    row-splitting search finds, in the same order, for every family of B, C
    and D through rank 8, at the minimal size and two padded sizes."""
    for letter in ("B", "C", "D"):
        for n in range(0, 9):
            families = {stripped(monotonic(
                S.symbol_of_pair(lam, mu, letter, "a"), letter), letter)
                for lam, mu in bipartitions(n)}
            for base in families:
                k0 = len(base.bottom)
                for k in (k0, k0 + 1, k0 + 2):
                    assert S.similar_symbols(O.at_size(base, letter, k),
                                             letter) == \
                        O.similar_symbols_bruteforce(base, letter, k), \
                        (letter, base, k)
    # a symbol without the shape of the type has no class in either
    off_shape = S.Symbol((0, 2), (1,), "a")
    assert S.similar_symbols(off_shape, "D") == \
        O.similar_symbols_bruteforce(off_shape, "D") == []


def test_similar_symbols_refuses_s_symbols():
    sym = S.symbol_of_pair((1,), (1,), "B", "s")
    with pytest.raises(S.SymbolError):
        S.similar_symbols(sym, "B")


def test_one_monotonic_member_per_class():
    """Every similarity class of s-symbols has exactly one monotonic member
    at each size."""
    for letter in ("B", "C", "D"):
        for n in range(0, 6):
            for lam, mu in bipartitions(n):
                for k in range(S.min_size_pair(lam, mu, letter),
                               S.min_size_pair(lam, mu, letter) + 3):
                    sym = S.symbol_of_pair(lam, mu, letter, "s", k)
                    members = O.similar_symbols_bruteforce(sym, letter)
                    mono = [m for m in members if S.is_monotonic(m)]
                    if letter == "D":
                        mono = {S.underline(m) for m in mono}
                    assert len(mono) == 1


def _all_symbols(letter, kind, n, k):
    """Brute-force enumeration of the full symbol set of the type at size n
    with bottom length k, by scanning bounded entry tuples."""
    step = 2 if kind == "s" else 1
    lead = 1 if (kind == "s" and letter == "C") else 0
    top_len = k if letter == "D" else k + 1
    bound = n + step * max(top_len, k) + 2

    def rows(length, start):
        if length == 0:
            yield ()
            return
        for first in range(start, bound):
            for rest in rows(length - 1, first + step):
                yield (first,) + rest

    for top in rows(top_len, 0):
        for bottom in rows(k, lead):
            sym = S.Symbol(top, bottom, kind)
            if S.is_type_symbol(sym, letter) and \
                    S.symbol_size(sym, letter) == n:
                yield sym


@pytest.mark.parametrize("letter", ("B", "C", "D"))
@pytest.mark.parametrize("kind", ("s", "a"))
def test_bipartitions_biject_with_symbol_sets(letter, kind):
    """The symbol construction is a bijection from bipartitions onto the
    full symbol set of the type at each admissible size (n <= 3, k <= 3)."""
    for n in range(0, 4):
        for k in range(0, 4):
            image = set()
            for lam, mu in bipartitions(n):
                if S.min_size_pair(lam, mu, letter) > k:
                    continue
                image.add(S.symbol_of_pair(lam, mu, letter, kind, k))
            assert len(image) == sum(
                1 for lam, mu in bipartitions(n)
                if S.min_size_pair(lam, mu, letter) <= k)  # injectivity
            everything = set(_all_symbols(letter, kind, n, k))
            assert image == everything  # surjectivity


def test_symbol_bijectivity_small():
    """Distinct bipartitions get distinct shift classes, both kinds."""
    for letter in ("B", "C", "D"):
        for n in range(0, 5):
            for kind in ("s", "a"):
                seen = {}
                for lam, mu in bipartitions(n):
                    if letter == "D":
                        key = stripped(S.underline(
                            S.symbol_of_pair(lam, mu, letter, kind)), letter)
                        seen.setdefault(key, set()).add(
                            frozenset([(lam, mu), (mu, lam)]))
                    else:
                        key = stripped(
                            S.symbol_of_pair(lam, mu, letter, kind), letter)
                        seen.setdefault(key, set()).add((lam, mu))
                for key, sources in seen.items():
                    assert len(sources) == 1


def test_family_bijection_size():
    """At the common size 5, the similarity classes of a-symbols cover the
    bipartitions of n exactly once, and match the families in number and
    sizes, for n <= 5."""
    for letter in ("B", "C"):
        counts = []
        for n in range(1, 6):
            classes = {tuple(S.similar_symbols(
                S.symbol_of_pair(lam, mu, letter, "a", 5), letter))
                for lam, mu in bipartitions(n)}
            covered = [S.pair_of_symbol(m, letter)
                       for members in classes for m in members]
            assert sorted(covered) == sorted(bipartitions(n))
            families = {sp.family_of(rep) for rep in sp.irreps(letter, n)}
            sizes = sorted(len(sp.family_members(fid)) for fid in families)
            assert sorted(map(len, classes)) == sizes
            counts.append(len(classes))
        assert counts == [2, 3, 6, 10, 16]


def test_add_and_shriek():
    a = S.Symbol((0, 2), (1,), "a")
    zero = S.Symbol((0, 1), (0,), "a")
    total = S.add(a, zero)
    assert total == S.Symbol((0, 3), (1,), "s")
    with pytest.raises(S.SymbolError):
        S.add(a, S.Symbol((0,), (), "a"))
    assert S.shriek(S.Symbol((0, 1), (1, 2), "a")) == \
        S.Symbol((0, 1, 2), (2, 3), "a")
    with pytest.raises(S.SymbolError):
        S.shriek(a)  # defect 1 is not allowed


def test_sgn_twist_pair():
    assert S.sgn_twist_pair((), (1, 1, 1), "B") == ((3,), (), 0)
    assert S.sgn_twist_pair((3,), (), "B") == ((), (1, 1, 1), 0)
    # involution on all bipartitions of n <= 4
    for letter in ("B", "C"):
        for n in range(0, 5):
            for lam, mu in bipartitions(n):
                a, b, _ = S.sgn_twist_pair(lam, mu, letter)
                assert S.sgn_twist_pair(a, b, letter) == (lam, mu, 0)
    # type D keeps the decoration of a degenerate pair
    a, b, kappa = S.sgn_twist_pair((2,), (2,), "D", 1)
    assert {a, b} == {(1, 1)} and kappa == 1


def test_degenerate_twist_formats_only_an_emitted_record(monkeypatch,
                                                         caplog):
    """The sign twist of a degenerate type-D character formats the half of
    its info record only when the record is emitted: not at the default
    level, and word for word, from ``sgn_twist_pair``, at INFO."""
    real = S.format_partition
    formatted = []

    def counting(lam):
        formatted.append(lam)
        return real(lam)

    monkeypatch.setattr(S, "format_partition", counting)
    degenerate = [rep for rank in range(1, 9) for rep in sp.irreps("D", rank)
                  if rep.first == rep.second]
    assert len(degenerate) == 22
    assert not logging.getLogger(S.__name__).isEnabledFor(logging.INFO)

    def twist_all():
        for rep in degenerate:
            S.sgn_twist_pair(rep.first, rep.second, "D", rep.kappa)

    twist_all()
    assert formatted == [] and caplog.records == []
    with caplog.at_level(logging.INFO, logger=S.__name__):
        twist_all()
    assert len(formatted) == len(caplog.records) == 22
    assert {(r.name, r.levelno, r.funcName) for r in caplog.records} == \
        {(S.__name__, logging.INFO, "sgn_twist_pair")}
    assert "sign twist of a degenerate type-D pair 2,1 keeps its " \
        "decoration 0 by convention" in caplog.messages


def test_decorated_symbol():
    d0 = S.DecoratedSymbol(S.Symbol((1,), (1,), "a"), 0)
    d1 = S.DecoratedSymbol(S.Symbol((1,), (1,), "a"), 1)
    assert d0 != d1 and d0.degenerate
    assert not O.similar_decorated(d0, d1)
    plain = S.DecoratedSymbol(S.Symbol((2,), (0,), "a"), 1)
    assert plain.kappa == 0
    assert plain.sym.top == (2,)  # underlined


def test_underline_tie_keeps_order():
    sym = S.Symbol((0, 3), (1, 2), "s")
    assert S.underline(sym) == sym


def test_render():
    text = S.render(S.Symbol((0, 2), (1,), "s"))
    assert text.splitlines() == ["0 2", " 1"]


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=25)
def test_bar_length(a, b):
    lam = P.as_partition([a] if a else [])
    mu = P.as_partition([b] if b else [])
    sym = S.symbol_of_pair(lam, mu, "B", "s")
    assert len(S.bar(sym)) == len(sym.top) + len(sym.bottom)


# ---------------------------------------------------------------------------
# the single-pass row check and pair_of_symbol against their loops

def rows_upto(length, values):
    """Every row of at most ``length`` entries drawn from ``values``, in
    any order."""
    return [row for n in range(length + 1)
            for row in product(values, repeat=n)]


def increasing_rows(length, bound):
    return [row for n in range(length + 1)
            for row in combinations(range(bound), n)]


def symbol_outcome(top, bottom, kind):
    got = O.outcome(S.Symbol, top, bottom, kind)
    if got[0] == "returns":
        sym = got[2]
        return "returns", (sym.top, sym.bottom, sym.kind)
    return got


def test_symbol_rows_match_loop():
    """Every row with entries -1..9 and at most three entries, in either
    position and against valid and invalid partners, kinds s and a and a
    bad kind: the constructor accepts or refuses exactly as the loop."""
    partners = [(), (0,), (1, 4), (3, 3), (-1, 2), (5, 2)]
    for row in rows_upto(3, range(-1, 10)):
        for other in partners:
            for kind in ("s", "a", "x"):
                for top, bottom in ((row, other), (other, row)):
                    want = O.outcome(O.symbol_loop, top, bottom, kind)
                    if want[0] == "returns":
                        want = "returns", want[2]
                    assert symbol_outcome(top, bottom, kind) == want, \
                        (top, bottom, kind)
    assert symbol_outcome([0, 2], [1], "s") == \
        ("returns", ([0, 2], [1], "s"))


def test_gap_ok_matches_loop():
    """Every symbol of every bipartition through rank 8, both kinds, each
    convention, at the minimal size and one more; with its rows swapped and
    with the other kind's gap, so off-type and malformed symbols (gaps
    below 2 in an s-symbol) are checked too."""
    outcomes = set()
    for n in range(9):
        for lam, mu in bipartitions(n):
            for letter in ("B", "C", "D"):
                for kind in ("s", "a"):
                    other = "a" if kind == "s" else "s"
                    k0 = S.min_size_pair(lam, mu, letter)
                    for k in (k0, k0 + 1):
                        sym = S.symbol_of_pair(lam, mu, letter, kind, k)
                        for case in (sym, sym.swapped(),
                                     S.Symbol(sym.top, sym.bottom, other)):
                            got = case.gap_ok()
                            assert got == O.gap_ok_loop(case), case
                            outcomes.add(got)
    assert outcomes == {True, False}


def test_pair_of_symbol_matches_loop():
    """Every pair of strictly increasing rows with entries < 10 and at most
    three entries, both kinds, letters B, C and D.  s-symbols whose gaps
    are below 2 are malformed; they keep the answer or refusal they had."""
    rows = increasing_rows(3, 10)
    for kind in ("s", "a"):
        symbols = [S.Symbol(top, bottom, kind)
                   for top in rows for bottom in rows]
        for letter in ("B", "C", "D"):
            for sym in symbols:
                assert O.outcome(S.pair_of_symbol, sym, letter) == \
                    O.outcome(O.pair_of_symbol_loop, sym, letter), \
                    (sym, letter)
    assert S.pair_of_symbol(S.Symbol((1, 2), (), "s"), "B") == ((1,), ())
    with pytest.raises(S.SymbolError):
        S.pair_of_symbol(S.Symbol((0, 1), (), "s"), "B")


def test_s_entries_match_the_rows():
    """The one-pass class key of every character of B, C and D through rank
    12, in both conventions, is the sorted entries of its minimal s-rows."""
    count = 0
    for letter in P.LETTERS:
        for rank in range(13):
            for rep in sp.irreps(letter, rank):
                for conv in (letter, P.dual_letter(letter)):
                    top, bottom = S._rows_of_pair(rep.first, rep.second,
                                                  conv, "s")
                    assert S._s_entries(rep.first, rep.second, conv) == \
                        tuple(sorted(top + bottom)), (str(rep), conv)
                count += 1
    assert count == 7874
