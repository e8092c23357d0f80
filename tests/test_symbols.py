import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from nilorbits import partitions as P
from nilorbits import symbols as S

PAPER_EXAMPLE = S.Symbol((0, 2, 3, 7, 10, 13), (1, 3, 6, 8, 11), "s")


def bipartitions(total):
    out = []
    for a in range(total + 1):
        for lam in P.integer_partitions(a):
            for mu in P.integer_partitions(total - a):
                out.append((lam, mu))
    return out


def test_symbol_validation():
    with pytest.raises(S.SymbolError):
        S.Symbol((2, 1), (0,), "s")
    with pytest.raises(S.SymbolError):
        S.Symbol((1, 1), (), "a")
    assert S.Symbol((0, 1), (2,), "s").gap_ok() is False
    assert S.Symbol((0, 2), (1,), "s").gap_ok() is True


def test_refinement_reproduces_worked_example():
    blocks = S.refinement(PAPER_EXAMPLE, "B")
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
        S.refinement(crooked, "B")


def test_refinement_all_pairs_and_tail():
    sym = S.Symbol((1, 3), (1, 3), "s")
    blocks = S.refinement(sym, "D")
    assert all(b.tag == "pair" for b in blocks)
    tail = S.Symbol((0, 2, 9), (1, 3), "s")
    blocks = S.refinement(tail, "B")
    assert blocks[-1].values == (9,) and len(blocks[-1].values) == 1


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
                assert S.normalize(S.pad_once(sym, letter), letter) == \
                    S.normalize(sym, letter)
                for k in range(S.min_size_pair(lam, mu, letter), 6):
                    rep = S.symbol_of_pair(lam, mu, letter, kind, k)
                    assert S.shift_equal(rep, sym, letter)
                    back = S.pair_of_symbol(rep, letter)
                    assert back == (lam, mu)


def test_similar():
    s1 = S.symbol_of_pair((1,), (1,), "B", "s")
    s2 = S.symbol_of_pair((1, 1), (), "B", "s")
    s3 = S.symbol_of_pair((), (2,), "B", "s")
    assert S.similar(s1, s2, "B")
    assert not S.similar(s1, s3, "B")
    # distinct orbits of B2 have dissimilar symbols
    assert not S.similar(S.symbol_of_pair((2,), (), "B", "s"), s1, "B")


def test_monotonic_representative():
    s2 = S.symbol_of_pair((1, 1), (), "B", "s")
    mono = S.monotonic_representative(s2, "B")
    assert S.is_monotonic(mono)
    assert mono == S.Symbol((0, 3), (1,), "s")
    assert S.is_monotonic(S.symbol_of_pair((), (), "B", "s"))


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


def test_class_size_subregular():
    sub = S.symbol_of_pair((1,), (1,), "B", "s")
    assert len(S.enumerate_class(sub, "B")) == 2


def test_family_flip_gap():
    """a-symbol similarity classes can exceed the flips of the refinement:
    the three-member family through ((0,2);(1))."""
    tri = S.symbol_of_pair((1,), (1,), "B", "a")
    family = S.similar_symbols(tri, "B")
    assert len(family) == 3
    mono = S.monotonic_representative(tri, "B")
    blocks = S.refinement(mono, "B")
    assert len(blocks) == 1  # a single interval, no defect-preserving flip


def test_similar_symbols_matches_splittings():
    """The closed-form family enumerator returns exactly the a-symbols the
    row-splitting search finds, in the same order, for every family of B, C
    and D through rank 8, at the minimal size and two padded sizes."""
    for letter in ("B", "C", "D"):
        for n in range(0, 9):
            families = {S.normalize(S.monotonic_representative(
                S.symbol_of_pair(lam, mu, letter, "a"), letter), letter)
                for lam, mu in bipartitions(n)}
            for base in families:
                k0 = len(base.bottom)
                for k in (k0, k0 + 1, k0 + 2):
                    assert S.similar_symbols(base, letter, k) == \
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
                        key = S.normalize(S.underline(
                            S.symbol_of_pair(lam, mu, letter, kind)), letter)
                        seen.setdefault(key, set()).add(
                            frozenset([(lam, mu), (mu, lam)]))
                    else:
                        key = S.normalize(
                            S.symbol_of_pair(lam, mu, letter, kind), letter)
                        seen.setdefault(key, set()).add((lam, mu))
                for key, sources in seen.items():
                    assert len(sources) == 1


def test_family_bijection_size():
    """Similarity classes at a fixed size biject with the classes of the
    shift quotient: sizes match for n <= 5."""
    for letter in ("B", "C"):
        for n in range(1, 6):
            reps = {}
            for lam, mu in bipartitions(n):
                sym = S.symbol_of_pair(lam, mu, letter, "a")
                key = tuple(sorted(S.normalize(sym, letter).entries()))
                reps.setdefault(len(sym.bottom), {})
            for lam, mu in bipartitions(n):
                k = 5  # common size
                sym = S.symbol_of_pair(lam, mu, letter, "a", k)
                members = S.similar_symbols(sym, letter)
                # every member comes from a bipartition (surjectivity at k)
                for m in members:
                    S.pair_of_symbol(m, letter)


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


def test_decorated_symbol():
    d0 = S.DecoratedSymbol(S.Symbol((1,), (1,), "a"), 0)
    d1 = S.DecoratedSymbol(S.Symbol((1,), (1,), "a"), 1)
    assert d0 != d1 and d0.degenerate
    assert not S.similar_decorated(d0, d1)
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
