import hashlib

import pytest

import oracles as O
from nilorbits import duality as du
from nilorbits import faithful as F
from nilorbits import partitions as P
from nilorbits import springer as sp
from nilorbits import symbols as S
from nilorbits import wavefront as wf


def bare(lam):
    return lam.parts if isinstance(lam, P.DecoratedPartition) else lam


def test_pi_mu_examples():
    assert du.pi_mu((3, 1, 1), "C") == ((), ())
    assert du.pi_mu((3, 3, 1), "C") == ((), (2, 2))
    assert du.pi_mu((2, 1, 1), "B") == ((3, 1), (3, 1))
    with pytest.raises(P.PartitionError):
        du.pi_mu((3, 1), "C")


@pytest.mark.parametrize("letter", P.LETTERS)
def test_pi_mu_structure(letter):
    """pi sits inside mu and their difference has even multiplicities."""
    co = P.dual_letter(letter)
    for rank in range(1, 7):
        for lam in P.type_partitions(co, rank):
            pi, mu = du.pi_mu(lam, letter)
            assert P.contains(mu, pi)
            diff = P.subtract(mu, pi)
            assert all(diff.count(x) % 2 == 0 for x in set(diff))


@pytest.mark.parametrize("letter", P.LETTERS)
def test_pi_mu_inside_dual_and_special(letter):
    """Away from the edge shapes both subpartitions embed into the dual and
    the resulting pairs are factorwise special (rank <= 6)."""
    co = P.dual_letter(letter)
    for rank in range(1, 7):
        for lam in P.type_partitions(co, rank):
            if letter == "D" and P.is_very_even(lam):
                continue
            if F.is_edge_case(lam, letter)[0]:
                continue
            pi, mu = du.pi_mu(lam, letter)
            d = P.dual(lam, co)
            assert P.contains(d, pi) and P.contains(d, mu)
            for sub in (pi, mu):
                shape = du.pair_shape(sub, P.subtract(d, sub), letter)
                y, x = shape.factor_letters
                assert P.is_special(sub, y) or not sub
                assert P.is_special(P.subtract(d, sub), x)


@pytest.mark.parametrize("letter", P.LETTERS)
def test_condition_i_sweep(letter):
    """Both parity subpartitions of the transpose map to the Achar dual
    (rank <= 6, away from edges and very even inputs)."""
    co = P.dual_letter(letter)
    for rank in range(1, 7):
        for lam in P.type_partitions(co, rank):
            if letter == "D" and P.is_very_even(lam):
                continue
            if F.is_edge_case(lam, letter)[0]:
                continue
            pi, mu = du.pi_mu(lam, letter)
            d = P.dual(lam, co)
            target = du.d_A_triv(lam, letter)
            assert du.sbar(mu, P.subtract(d, mu), letter) == target
            assert du.sbar(pi, P.subtract(d, pi), letter) == target


def test_edge_cases():
    assert F.is_edge_case((3, 1), "D")[0]
    assert F.is_edge_case((1, 1), "D")[0]
    assert F.is_edge_case((4, 2, 2, 2), "B")[0]
    assert not F.is_edge_case((2, 1, 1), "B")[0]
    assert not F.is_edge_case((3, 1, 1), "C")[0]
    # the shape characterization is exactly the size test on mu
    for letter in ("B", "D"):
        co = P.dual_letter(letter)
        for rank in range(1, 7):
            for lam in P.type_partitions(co, rank):
                _, mu = du.pi_mu(lam, letter)
                by_size = sum(mu) == 2 or \
                    (letter == "D" and sum(mu) == 2 * rank - 2)
                assert F.is_edge_case(lam, letter)[0] == by_size, \
                    (letter, lam, mu)


OMEGA = {"B": 1, "C": 0, "D": 1}


def _distinct_with_mults(lam) -> tuple[list[int], list[int]]:
    values = sorted(set(lam))
    return values, [lam.count(v) for v in values]


def dual_factor_symbol(lam, letter: str) -> S.Symbol:
    """The a-symbol of the Springer character of the in-type dual of the
    second parity subpartition of ``lam``, written directly in terms of the
    part data of ``lam`` (shrieked to defect one in type B).

    The block boundaries of the result satisfy two parity identities that
    the flip-transport argument needs; both are asserted here."""
    bare = P.bare(lam)
    co = P.dual_letter(letter)
    if not P.is_type_partition(bare, co):
        raise P.PartitionError(f"{P.format_partition(bare)} is not a "
                               f"{co}-partition")
    values, mults = _distinct_with_mults(bare)
    ell = len(values)
    lam_v = [0] + values                    # lam_v[i], 1-based values
    if letter == "B":
        p0 = 1 if len(bare) % 2 == 0 else 2
    else:
        p0 = 0
    p = [p0] + mults                        # multiplicities incl. the pad
    Pc = [0] * (ell + 1)                    # Pc[i] = p_0 + ... + p_i
    for i in range(ell + 1):
        Pc[i] = (Pc[i - 1] if i else 0) + p[i]
    Q = [0] * (ell + 2)                     # Q[i] = p_i + ... + p_l
    for i in range(ell, 0, -1):
        Q[i] = Q[i + 1] + p[i]
    Q[0] = Q[1] + p[0]

    omega = OMEGA[letter]
    cs = [c for c in range(1, ell + 1) if Q[c] % 2 == omega]
    r = len(cs)
    # eta, H, t for the blocks of the second subpartition's transpose
    eta = [0] * (r + 1)
    H = [0] * (r + 1)
    for j, c in enumerate(cs, start=1):
        q_c = lam_v[c] - lam_v[c - 1]
        eta[j] = 1 if q_c % 2 else 2
        H[j] = H[j - 1] + eta[j]
    t = [0] * (r + 1)
    t[0] = Q[0] - (Q[cs[0]] if r else 0)
    for j in range(1, r + 1):
        t[j] = Q[cs[j - 1]] - (Q[cs[j]] if j < r else 0)
    Pd = [0] * (r + 1)
    for j, c in enumerate(cs, start=1):
        Pd[j] = Pc[c - 1]

    # end-parity of the runs between selected indices
    for i in range(1, r):
        assert (lam_v[cs[i - 1]] - lam_v[cs[i] - 1]) % 2 == 0, \
            f"end parity fails for {P.format_partition(bare)} in type {letter}"

    tp = [x // 2 for x in t]
    Hp = [x // 2 for x in H]
    Pp = [x // 2 for x in Pd]
    chi = lambda x: x % 2

    top: list[int] = []
    bottom: list[int] = []

    def block(j: int, last: bool) -> tuple[list[int], list[int]]:
        if j == 0:
            if letter == "B":
                a = list(range(tp[0] if not last else tp[0] + 1))
                b = [v + 1 for v in range(tp[0])]
            elif letter == "C":
                a = list(range(tp[0] + 1))
                b = list(range(tp[0]))
            else:
                a = list(range(tp[0] + (1 if last else 0)))
                b = list(range(tp[0] + 1))
            return a, b
        base = Pp[j] + Hp[j]
        run = list(range(tp[j] + (1 if last else 0)))
        if letter == "C":
            a = [base + v + 1 for v in run]
            b = [base + v + chi(H[j]) for v in range(tp[j])]
        else:
            a = [base + v + chi(H[j]) for v in run]
            b = [base + v + 1 for v in range(tp[j])]
        return a, b

    for j in range(r + 1):
        last = j == r and letter in ("B", "D")
        a, b = block(j, last)
        top.extend(a)
        bottom.extend(b)

    out = S.Symbol(tuple(top), tuple(bottom), "a")

    # block-end identity: one step right of each qualifying boundary the
    # interleaved reading drops by exactly one
    omega_dual = OMEGA[co]
    rbar = list(reversed(S.bar(out)))       # rbar[q] is entry q+1 from the right
    for i in range(1, ell + 1):
        if lam_v[i] % 2 == omega_dual and lam_v[i - 1] % 2 == omega_dual:
            q_i = Q[i]
            assert rbar[q_i] + 1 == rbar[q_i - 1], \
                (f"block-end identity fails at {i} for "
                 f"{P.format_partition(bare)} in type {letter}")

    _, mu = du.pi_mu(bare, letter)
    half = sum(mu) // 2
    if letter == "B":
        assert out.defect == 1 and (not out.top or out.top[0] == 0)
        assert sum(v - i for i, v in enumerate(out.top)) + \
            sum(v - i - 1 for i, v in enumerate(out.bottom)) == half
    else:
        assert S.symbol_size(out, letter if letter == "C" else "D") == half
    return out


def test_dual_factor_symbol_against_springer_path():
    """The explicit block formulas agree with computing the in-type dual of
    the subpartition and taking its Springer symbol (rank <= 5)."""
    for letter in P.LETTERS:
        co = P.dual_letter(letter)
        for rank in range(1, 6):
            for lam in P.type_partitions(co, rank):
                got = dual_factor_symbol(lam, letter)
                _, mu = du.pi_mu(lam, letter)
                y = "D" if letter in ("B", "D") else "C"
                dls = O.self_dual(mu, y)
                rep = sp.rep_of_orbit(
                    P.DecoratedPartition(dls, 0) if y == "D" else dls, y, y)
                ref = sp.rep_asymbol(rep)
                if letter == "B":
                    ref = S.shriek(ref)
                    k = max(len(got.bottom), len(ref.bottom))
                    while len(got.bottom) < k:
                        got = S.Symbol((0,) + tuple(v + 1 for v in got.top),
                                       (1,) + tuple(v + 1 for v in got.bottom),
                                       "a")
                    while len(ref.bottom) < k:
                        ref = S.Symbol((0,) + tuple(v + 1 for v in ref.top),
                                       (1,) + tuple(v + 1 for v in ref.bottom),
                                       "a")
                    assert got == ref, (letter, lam)
                else:
                    assert O.similar(got, ref, letter) and \
                        O.shift_equal(got, ref, letter), (letter, lam)


def test_dual_factor_symbol_block_jump():
    """Block-end condition used by the flip transport: at a qualifying
    boundary the interleaved reading of the constructed symbol drops by one.
    The constructor asserts this internally; here one instance is pinned."""
    sym = dual_factor_symbol((2, 1, 1), "B")
    rbar = list(reversed(S.bar(sym)))
    # q-positions of the parts of (2,1,1): heights 3 and 1
    assert rbar[3] + 1 == rbar[2] or rbar[1] + 1 == rbar[0]


def test_interval_positions():
    """Interval blocks of the dual-side symbol of the orbit character sit
    between the heights of the parts with the dual parity, counted from the
    right of the interleaved reading (rank <= 6)."""
    for letter in P.LETTERS:
        co = P.dual_letter(letter)
        omega_dual = OMEGA[co]
        for rank in range(1, 7):
            for lam in P.type_partitions(co, rank):
                first, second, _ = sp.springer_bipartition(
                    P.DecoratedPartition(lam, 0) if co == "D" else lam, co)
                k = max(S.min_size_pair(first, second, co),
                        len(lam) // 2 + 1)
                sym = S.symbol_of_pair(first, second, co, "s", k)
                assert S.is_monotonic(sym)
                full_bar = S.bar(S.underline(sym) if sym.defect == 0 else sym)
                length = len(full_bar)
                intervals = [b for b in S.refinement(sym)
                             if b.tag == "interval"]
                values = [0] + sorted(set(lam))
                b_idx = [i for i, v in enumerate(values)
                         if v % 2 == omega_dual]
                assert len(intervals) == len(b_idx), (letter, lam)

                def from_right(i):
                    if i == 0:
                        return length
                    if i >= len(values):
                        return 0
                    return P.height(lam, values[i])

                for blk, bi in zip(intervals, b_idx):
                    hi = from_right(bi)
                    lo = from_right(bi + 1) + 1
                    got = tuple(full_bar[length - hi: length - lo + 1])
                    assert got == blk.values, (letter, lam, blk.values, got)
                if letter == "B":  # type-C convention pads with zero parts
                    assert b_idx[0] == 0
                    assert intervals[0].values[0] == 0


def test_faithful_pair_examples():
    pair = F.faithful_pair((3, 3, 1), "C")
    assert str(pair.shape) == "C2 x C1"
    assert pair.orbit_pair == ((2, 2), (2,))
    assert pair.provenance == "general-construction"
    edge = F.faithful_pair((3, 1), "D")
    assert edge.shape.full and edge.provenance == "edge-case"
    ve = F.faithful_pair(P.DecoratedPartition((2, 2), 1), "D")
    assert ve.provenance == "unique-representation"
    with pytest.raises(P.PartitionError):
        F.faithful_pair((3, 1), "C")


def test_marked_unique_rep_uses_product_shape():
    """A single-character orbit whose Achar dual carries a marking cannot be
    served by the full diagram."""
    assert len(sp.dual_fiber((2, 1, 1), "B")) == 1
    pair = F.faithful_pair((2, 1, 1), "B")
    assert not pair.shape.full
    assert pair.provenance == "general-construction"


@pytest.mark.parametrize("letter", P.LETTERS)
@pytest.mark.parametrize("rank", range(1, 4))
def test_verify_faithful_small(letter, rank):
    for report in F.verify_all(letter, rank):
        assert report.condition_i, report.orbit
        assert report.condition_ii, report.orbit
        assert all(f is not None for _, f in report.witnesses)


@pytest.mark.slow
@pytest.mark.parametrize("letter", P.LETTERS)
def test_verify_all_through_rank_12(letter):
    """Every dual orbit of ranks 1-12 is verified faithful, and the dual
    fibres list every character of the group exactly once.  Opt-in:
    ``python -m pytest -m slow``."""
    co = P.dual_letter(letter)
    for rank in range(1, 13):
        failed = [r.orbit for r in F.verify_all(letter, rank) if not r.ok]
        assert failed == [], (letter, rank)
        listed = [rep for lam in P.enumerate_orbits(co, rank)
                  for rep in sp.dual_fiber(lam, letter)]
        assert sorted(listed, key=str) == \
            sorted(sp.irreps(letter, rank), key=str), (letter, rank)


@pytest.mark.parametrize("letter", P.LETTERS)
def test_faithful_pair_matches_report(letter):
    """The public routing and the one inside the verification agree on
    every orbit through rank 8."""
    co = P.dual_letter(letter)
    for rank in range(9):
        for lam in P.enumerate_orbits(co, rank):
            assert F.faithful_pair(lam, letter) == \
                F.verify_faithful(lam, letter).pair, lam


@pytest.mark.parametrize("entry", (du.d_A_triv, sp.dual_fiber, du.pi_mu,
                                   F.faithful_pair))
def test_non_classical_letter_refused(entry):
    with pytest.raises(P.PartitionError):
        entry((3, 1), "A")


def _answer(entry, lam, letter):
    try:
        return entry(lam, letter)
    except Exception as exc:  # noqa: BLE001 - the error is the answer
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("entry", (du.d_A_triv, du.pi_mu, F.faithful_pair,
                                   F.verify_faithful, wf.wf_iwahori_real))
def test_unsorted_orbits_are_sorted(entry):
    """An orbit given as an unsorted tuple or a list gets the answer of its
    sorted tuple (every dual orbit through rank 5, parts reversed)."""
    assert _answer(entry, (1, 3, 1), "C") == _answer(entry, (3, 1, 1), "C")
    for letter in P.LETTERS:
        for rank in range(6):
            for lam in P.type_partitions(P.dual_letter(letter), rank):
                want = _answer(entry, lam, letter)
                assert _answer(entry, lam[::-1], letter) == want, lam
                assert _answer(entry, list(lam[::-1]), letter) == want, lam


@pytest.mark.parametrize("twist", (True, False))
def test_witnesses_match_sorted_pool(twist):
    """Each witness is the first hit in the fully sorted product of the two
    families (rank <= 6), with and without the sign twist."""
    for letter in P.LETTERS:
        co = P.dual_letter(letter)
        for rank in range(1, 7):
            reports = F.verify_all(letter, rank, twist)
            for lam, report in zip(P.enumerate_orbits(co, rank), reports):
                pair = report.pair
                pool = O.sorted_family_pool(pair, twist)
                expected = []
                for rep in sp.dual_fiber(lam, letter):
                    hits = (f"{f1} x {f2}" for f1, f2 in pool
                            if (f2 == rep if pair.shape.full else
                                sp.restriction_multiplicity(
                                    rep, pair.shape, f1, f2) > 0))
                    expected.append((str(rep), next(hits, None)))
                assert report.witnesses == tuple(expected), report.orbit


def _families(letter, rank):
    return sorted({sp.family_of(rep) for rep in sp.irreps(letter, rank)},
                  key=str)


@pytest.mark.parametrize("twist", (True, False))
def test_family_pools_are_memoised_sorted_tuples(twist):
    """Every family of B, C, D through rank 8: the memoised pool is the
    freshly built, twisted and sorted family, as a tuple, built once."""
    for letter in P.LETTERS:
        for rank in range(9):
            for fid in _families(letter, rank):
                members = sp.family_members(fid)
                if twist:
                    members = [sp.sgn_twist(m) for m in members]
                fresh = sorted(members,
                               key=lambda m: (m.first, m.second, m.kappa))
                pool = F._sorted_members(fid, twist)
                assert isinstance(pool, tuple)
                assert pool == tuple(fresh), fid
                assert F._sorted_members(fid, twist) is pool


@pytest.mark.parametrize("letter", P.LETTERS)
def test_twisted_family_holds_the_twisted_members(letter):
    """Every family through rank 10, both decorations of a degenerate
    type-D family included: the family that ``_sorted_members`` deals for
    the twisted pool has the twists of the family's members as members."""
    key = lambda m: (m.first, m.second, m.kappa)
    for rank in range(11):
        for fid in _families(letter, rank):
            twists = [sp.sgn_twist(m) for m in sp.family_members(fid)]
            members = sp.family_members(sp._twisted_family(fid))
            assert sorted(members, key=key) == sorted(twists, key=key), fid
            assert len(set(members)) == len(members), fid


def test_full_shape_builds_no_second_pool():
    """``verify_all`` through rank 8 on empty memos decides a full-diagram
    witness by family membership: no pool is built for the second family
    of a full-shape orbit, unless a pool of the family serves a product
    shape (or the empty first factor)."""
    P._clear_memos()
    full, pooled = set(), set()
    for letter in P.LETTERS:
        for rank in range(9):
            for report in F.verify_all(letter, rank):
                first, second = report.pair.families
                if report.pair.shape.full:
                    full.add(second)
                    pooled.add(first)
                else:
                    pooled.update((first, second))
    full -= pooled
    assert len(full) > 100
    for fid in full:
        misses = F._sorted_members.cache_info().misses
        F._sorted_members(fid, True)
        assert F._sorted_members.cache_info().misses == misses + 1, fid


def test_witness_pools_run_the_public_family_members(monkeypatch):
    """On empty memos, ``verify_all`` of B, C and D through rank 6 deals
    each witness pool through the checked ``springer.family_members``, once
    per pool built."""
    calls = []
    members = sp.family_members

    def counted(fid):
        calls.append(fid)
        return members(fid)

    monkeypatch.setattr(sp, "family_members", counted)
    P._clear_memos()
    try:
        for letter in P.LETTERS:
            for rank in range(7):
                assert all(r.ok for r in F.verify_all(letter, rank))
        built = F._sorted_members.cache_info().misses
    finally:
        P._clear_memos()
    assert len(calls) == built > 0


def test_family_members_returns_a_fresh_list():
    """Mutating a returned family touches neither the next call nor the
    memoised pool."""
    fid = sp.family_of(sp.rep_of_orbit((3, 2, 2, 1, 1), "B", "B"))
    expected = sp.family_members(fid)
    pool = F._sorted_members(fid, False)
    members = sp.family_members(fid)
    assert len(members) > 1 and members is not expected
    members.reverse()
    members.clear()
    assert sp.family_members(fid) == expected
    assert F._sorted_members(fid, False) is pool
    assert set(pool) == set(expected)


def _all_pairs(upto):
    return [F.faithful_pair(lam, letter) for letter in P.LETTERS
            for rank in range(upto + 1)
            for lam in P.enumerate_orbits(P.dual_letter(letter), rank)]


def test_memos_do_not_depend_on_call_order():
    """``faithful_pair`` on every orbit through rank 8 answers the same on
    empty memos as after ``verify_all`` has filled them."""
    P._clear_memos()
    first = _all_pairs(8)
    P._clear_memos()
    for letter in P.LETTERS:
        for rank in range(9):
            F.verify_all(letter, rank)
    assert _all_pairs(8) == first


def test_each_orbit_checked_once(monkeypatch):
    """``verify_faithful`` and ``faithful_pair`` check their orbit once, on
    every route, edge shapes included: through the one ``dual_fiber`` call
    of their shared path, and never through ``duality._orbit``."""
    calls = []

    def counted(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(du, "_orbit", counted("_orbit", du._orbit))
    monkeypatch.setattr(F, "_orbit", counted("_orbit", F._orbit))
    monkeypatch.setattr(sp, "dual_fiber",
                        counted("dual_fiber", sp.dual_fiber))
    routes = set()
    for letter in P.LETTERS:
        for rank in range(1, 8):
            for lam in P.enumerate_orbits(P.dual_letter(letter), rank):
                calls.clear()
                report = F.verify_faithful(lam, letter)
                assert calls == ["dual_fiber"], (letter, lam, calls)
                calls.clear()
                F.faithful_pair(lam, letter)
                assert calls == ["dual_fiber"], (letter, lam, calls)
                routes.add(report.pair.provenance)
    assert routes == {"edge-case", "general-construction",
                      "unique-representation"}


def test_negative_control_rank3():
    failures = 0
    for letter in P.LETTERS:
        for report in F.verify_all(letter, 3, apply_sgn_twist=False):
            if not report.condition_ii:
                failures += 1
                assert any(found is None for _, found in report.witnesses)
    assert failures > 0


def test_witness_determinism():
    r1 = F.verify_faithful((3, 3, 1), "C")
    r2 = F.verify_faithful((3, 3, 1), "C")
    assert r1.witnesses == r2.witnesses


@pytest.mark.parametrize("letter", ("D",))
def test_no_very_even_factor_ambiguity(letter):
    """The guarded decorated-factor case never arises at desk scale."""
    co = P.dual_letter(letter)
    for rank in range(1, 7):
        for lam in P.enumerate_orbits(co, rank):
            try:
                F.faithful_pair(lam, letter)
            except sp.AmbiguousDecorationError as exc:  # pragma: no cover
                pytest.fail(f"ambiguous factor at {lam}: {exc}")


def test_exceptional_table():
    table = F.load_exceptional_table()
    assert len(table) == 16
    counts = {}
    for entry in table:
        counts[entry.group] = counts.get(entry.group, 0) + 1
    assert counts == {"F4": 4, "E7": 2, "E8": 10}
    entry = F.exceptional_lookup("F4", "A_2")
    assert entry.node_mask == "11110" and entry.factor_type == "B4"
    assert entry.family_orbit == "7,1,1"
    entry = F.exceptional_lookup("E8", "D_7(a_1)")
    assert entry.factor_type == "D8" and entry.family_orbit == "4,4,3,3,1,1"
    assert F.exceptional_lookup("E8", "D7(a1)") == entry  # label normalization
    assert F.exceptional_lookup("G2", "G_2(a_1)") == F.USE_DEFAULT
    assert F.exceptional_lookup("E6", "A_2") == F.USE_DEFAULT
    assert F.exceptional_lookup("F4", "B_3") == F.USE_DEFAULT
    with pytest.raises(P.PartitionError):
        F.exceptional_lookup("F4", "Z_99")
    with pytest.raises(P.PartitionError):
        F.exceptional_lookup("E9", "A_1")


def test_exceptional_checksum(tmp_path):
    source = F.load_exceptional_table()
    lines = ["# sha256: 0" * 1]
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("# sha256: deadbeef\nF4|A_2|11110|B4|7,1,1\n")
    with pytest.raises(F.TableError):
        F.load_exceptional_table(str(tampered))
    del source, lines


def test_exceptional_malformed_row(tmp_path):
    """A row without five fields is refused even when its checksum holds."""
    row = "F4|A_2|11110|B4"
    digest = hashlib.sha256(row.encode()).hexdigest()
    table = tmp_path / "short.txt"
    table.write_text(f"# sha256: {digest}\n{row}\n")
    with pytest.raises(F.TableError):
        F.load_exceptional_table(str(table))


def test_shipped_table_hashed_once(monkeypatch):
    """The shipped table is parsed and checksummed once per process."""
    calls = []
    real_sha256 = hashlib.sha256

    def counting_sha256(data):
        calls.append(data)
        return real_sha256(data)

    F.exceptional_lookup("F4", "A_2")
    # ``faithful`` imports hashlib where it hashes, so patch the module
    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    for _ in range(5):
        assert F.exceptional_lookup("F4", "A_2").factor_type == "B4"
    assert calls == []
    table = F.load_exceptional_table()
    table.clear()  # a caller's copy; the cached table is untouched
    assert len(F.load_exceptional_table()) == 16


def test_override_table_read_every_call(tmp_path):
    """An override file is re-read and re-checked on every call."""
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("# sha256: deadbeef\nF4|A_2|11110|B4|7,1,1\n")
    for _ in range(2):
        with pytest.raises(F.TableError):
            F.exceptional_lookup("F4", "A_2", str(tampered))


def _same_as_symbol_route(letter, rank):
    """The row-built dual fibres, Springer pairs, factor families, families
    and family members of one group equal the ones built through whole
    symbols (``tests/oracles.py``), lists, order and types included."""
    co = P.dual_letter(letter)
    for lam in P.enumerate_orbits(co, rank, rank):
        want = O.dual_fiber_by_symbols(lam, letter)
        assert repr(sp.dual_fiber(lam, letter)) == repr(want), lam
        assert repr(F._route(lam, letter)[3]) == repr(want), lam
    for lam in P.enumerate_orbits(letter, rank, rank):
        for orbit in {lam, P.bare(lam)}:
            assert sp.springer_bipartition(orbit, letter) == \
                O.springer_bipartition_by_symbol(orbit, letter), orbit
            assert repr(F._family_of_orbit(orbit, letter)) == \
                repr(O.family_of_orbit_by_symbols(orbit, letter)), orbit
    fids = {}
    for rep in sp.irreps(letter, rank):
        fid = sp.family_of(rep)
        assert repr(fid) == repr(O.family_of_by_symbol(rep)), rep
        fids[fid] = None
    for fid in fids:
        assert repr(sp.family_members(fid)) == \
            repr(O.family_members_by_symbols(fid)), fid


@pytest.mark.parametrize("letter", P.LETTERS)
def test_rows_match_symbol_route(letter):
    for rank in range(8):
        _same_as_symbol_route(letter, rank)


@pytest.mark.slow
@pytest.mark.parametrize("letter", P.LETTERS)
def test_rows_match_symbol_route_through_rank_12(letter):
    for rank in range(8, 13):
        _same_as_symbol_route(letter, rank)


@pytest.mark.parametrize("letter, lam", [
    ("B", (5, -1, 1)), ("B", (13, -4, -4)), ("C", (3, 3, -1, 1)),
    ("C", (-3, -3)), ("C", (-2,)),
    ("D", (3, -1)), ("D", P.DecoratedPartition((2, 2), 1)), ("B", (2, 1)),
    ("C", P.DecoratedPartition((2, 2), 1)),
    ("X", (3,)), ("C", [1, 3, 0, 0, 1, 3]),
    # negative parts at the lengths the staircase pads in B and D: no B-
    # partition has even length and no D-partition odd length, so the type
    # check refuses them first
    ("B", (5, 1, -1, -2)), ("D", (5, -1, -2))])
def test_public_row_paths_refuse_as_the_symbol_route(letter, lam):
    """Outside orbits, negative parts among them, are refused with the
    symbol route's errors and messages, and what it accepts agrees."""
    assert O.outcome(sp.springer_bipartition, lam, letter) == \
        O.outcome(O.springer_bipartition_by_symbol, lam, letter)
    co = {"B": "C", "C": "B"}.get(letter, letter)
    assert O.outcome(sp.dual_fiber, lam, co) == \
        O.outcome(O.dual_fiber_by_symbols, lam, co)


@pytest.mark.parametrize("fid", [
    sp.FamilyId("B", 2, (0, 2), (1,)), sp.FamilyId("B", 2, (-1, 2), (1,)),
    sp.FamilyId("C", 2, (2, 0), (1,)), sp.FamilyId("D", 2, (0, 2), (1,)),
    sp.FamilyId("B", 2, (0, 1), (1, 2)), sp.FamilyId("X", 1, (1,), ()),
    sp.FamilyId("D", 4, (1, 2), (1, 2), 1), sp.FamilyId("B", 5, (0, 2), (1,)),
    sp.FamilyId("B", 2, (0, 2), (1,), 3),
    # the bottom row's checks, and the top row's message first
    sp.FamilyId("B", 2, (0, 2), (-1,)), sp.FamilyId("B", 3, (0, 2, 4), (2, 1)),
    sp.FamilyId("B", 3, (2, 0), (-1,))])
def test_family_members_refuse_as_the_symbol_route(fid):
    assert O.outcome(sp.family_members, fid) == \
        O.outcome(O.family_members_by_symbols, fid)
