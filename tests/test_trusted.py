"""The trusted path: internal producers build characters, symbols and marked
orbits without re-running the public checks.

The safety net patches the three private steps (``partitions._trusted``,
``partitions._reduction`` and ``duality._image``) so that each also builds
its value through the public, checked path and asserts that the two agree;
the sweeps below then prove that every value the library builds for itself
would pass its own validation.  The other tests pin that trusted and public
values are indistinguishable, and that the public constructors still refuse
bad input with the same messages.
"""

from collections import Counter

import pytest

import answer_digests
import oracles as O
from nilorbits import duality as du
from nilorbits import faithful as fa
from nilorbits import partitions as pt
from nilorbits import springer as sp
from nilorbits import symbols as sy
from nilorbits import wavefront as wf
from test_answer_digests import PINNED

LIBRARY = (pt, sy, sp, du, fa, wf)


def test_memo_lists_name_every_memo():
    """Every ``functools.lru_cache`` memo of the library modules is on the
    registry ``partitions._MEMOS``, so that ``_clear_memos`` reaches it."""
    unregistered = [f"{module.__name__}.{name}" for module in LIBRARY
                    for name, value in vars(module).items()
                    if hasattr(value, "cache_info") and
                    value not in pt._MEMOS]
    assert not unregistered, unregistered


def test_clear_memos_empties_every_memo():
    """A pass that fills every registered memo leaves each with entries,
    and ``_clear_memos`` empties them all."""
    for letter in pt.LETTERS:
        for rank in range(7):
            fa.verify_all(letter, rank)
        for rep in sp.irreps(letter, 6):
            wf.wf_of_wrep(rep)
    fa.load_exceptional_table()
    sizes = {memo.__qualname__: memo.cache_info().currsize
             for memo in pt._MEMOS}
    assert all(sizes.values()), sizes
    pt._clear_memos()
    assert not any(memo.cache_info().currsize for memo in pt._MEMOS)


def _checking(module, name, public, calls):
    """``module.name`` that also computes ``public`` of the same arguments,
    with the original restored meanwhile, and asserts the two are equal."""
    original = getattr(module, name)

    def checked(*args):
        got = original(*args)
        setattr(module, name, original)
        try:
            want = public(*args)
        finally:
            setattr(module, name, checked)
        assert want == got, (name, args)
        calls[name] += 1
        return got

    return checked


@pytest.fixture
def checked_paths(monkeypatch):
    """Install the checking versions on empty memos; yields the number of
    checked calls per private step and per class built by ``_trusted``."""
    calls = Counter(_trusted=0, _reduction=0, _image=0)

    def build(cls, *values):
        calls[cls.__name__] += 1
        return cls(*values)

    for name, public in (("_trusted", build), ("_reduction", pt.reduction)):
        monkeypatch.setattr(pt, name, _checking(pt, name, public, calls))
    monkeypatch.setattr(du, "_image", _checking(du, "_image", du.sbar, calls))
    pt._clear_memos()
    yield calls
    pt._clear_memos()


def test_checking_patch_catches_a_bad_value(checked_paths):
    with pytest.raises(pt.PartitionError):
        pt._trusted(sp.WeylIrrep, "B", 3, (2,), (2,), 0)
    with pytest.raises(AssertionError):
        pt._trusted(sp.WeylIrrep, "B", 4, (2,), (2,), 1)
    with pytest.raises(pt.PartitionError):
        pt._reduction((2, 1), (1,), "C")


def test_verify_all_on_checked_paths(checked_paths):
    for letter in pt.LETTERS:
        for rank in range(9):
            assert all(r.ok for r in fa.verify_all(letter, rank))
            fa.verify_all(letter, rank, apply_sgn_twist=False)
    assert all(checked_paths.values()), checked_paths


def test_wf_of_wrep_on_checked_paths(checked_paths):
    for letter in pt.LETTERS:
        for rank in range(9):
            for rep in sp.irreps(letter, rank):
                wf.wf_of_wrep(rep)
    assert checked_paths["_trusted"] and checked_paths["_reduction"]
    # the character table and the type-D supports are built trusted too
    assert checked_paths["WeylIrrep"] and checked_paths["DecoratedPartition"]


def test_d_A_triv_on_checked_paths(checked_paths):
    for letter, lam in answer_digests._orbits(10):
        du.d_A_triv(lam, letter)
    assert checked_paths["_trusted"] and checked_paths["_reduction"]


@pytest.mark.slow
@pytest.mark.parametrize("group", sorted(PINNED))
def test_answer_digest_on_checked_paths(group, checked_paths):
    lines = answer_digests.GROUPS[group]()
    assert answer_digests.digest(lines) == PINNED[group]


def test_trusted_needs_every_field():
    """A left-out value, even of a defaulted field, fails where it is
    made."""
    with pytest.raises(ValueError):
        pt._trusted(sp.WeylIrrep, "B", 3, (2,), (1,))
    with pytest.raises(ValueError):
        pt._trusted(sy.Symbol, (0,), (1,), "a", 0)


def _same(trusted, public):
    assert trusted == public
    assert hash(trusted) == hash(public)
    assert str(trusted) == str(public)
    assert repr(trusted) == repr(public)


def test_trusted_characters_equal_public_ones():
    """Every character through rank 8 and its sign twist, rebuilt on the
    trusted path (type-D halves also given in the other order)."""
    count = 0
    for letter in pt.LETTERS:
        for rank in range(9):
            for rep in sp.irreps(letter, rank):
                for first, second in ((rep.first, rep.second),
                                      (rep.second, rep.first)):
                    if letter != "D" and first != rep.first:
                        continue
                    _same(sp._irrep(letter, rank, first, second, rep.kappa),
                          rep)
                twisted = sp.sgn_twist(rep)
                a, b, kappa = sy.sgn_twist_pair(rep.first, rep.second,
                                                letter, rep.kappa)
                _same(twisted, sp.WeylIrrep(letter, rank, a, b, kappa))
                count += 1
    assert count == sum(len(sp.irreps(x, n))
                        for x in pt.LETTERS for n in range(9))


def test_trusted_members_equal_public_ones():
    """Family members and dual fibres through rank 8, rebuilt through the
    public constructor."""
    for letter in pt.LETTERS:
        for rank in range(9):
            for fid in dict.fromkeys(map(sp.family_of,
                                         sp.irreps(letter, rank))):
                for m in sp.family_members(fid):
                    _same(m, sp.WeylIrrep(m.letter, m.rank, m.first,
                                          m.second, m.kappa))
            for lam in pt.enumerate_orbits(pt.dual_letter(letter), rank):
                for m in sp.dual_fiber(lam, letter):
                    _same(m, sp.WeylIrrep(m.letter, m.rank, m.first,
                                          m.second, m.kappa))


def test_trusted_marked_orbits_equal_public_ones():
    for letter, lam in answer_digests._orbits(10):
        marked = du.d_A_triv(lam, letter)
        _same(marked, du.MarkedOrbit(letter, marked.orbit, marked.marking))


# the kernel checks below run through rank 16 under ``-m slow``
THROUGH_16 = pytest.param(16, marks=pytest.mark.slow)


@pytest.mark.parametrize("rank", [10, THROUGH_16])
def test_d_A_triv_equals_public_steps(rank):
    """The one-transpose kernel of ``d_A_triv`` answers as ``pi_mu``, the
    public ``dual`` and ``reduction`` do, on every dual orbit."""
    for letter, lam in answer_digests._orbits(rank):
        assert O.outcome(du.d_A_triv, lam, letter) == \
            O.outcome(O.d_A_triv_by_public_steps, lam, letter)


def _accepted_pairs(upto):
    # every (mu, nu, letter) that ``pair_shape`` accepts, through rank upto
    for letter in pt.LETTERS:
        for rank in range(upto + 1):
            for shape in sp.product_shapes(letter, rank):
                (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
                for mu in pt.type_partitions(y, p):
                    for nu in pt.type_partitions(x, q):
                        yield mu, nu, letter


@pytest.mark.parametrize("rank", [6, THROUGH_16])
def test_d_S_equals_public_steps(rank):
    """``d_S`` on its trusted kernels answers, refusals included, as it does
    through the public ``dual`` and ``collapse``."""
    count = 0
    for mu, nu, letter in _accepted_pairs(rank):
        assert O.outcome(du.d_S, mu, nu, letter) == \
            O.outcome(O.d_S_by_public_steps, mu, nu, letter), (mu, nu, letter)
        count += 1
    assert count > 1000


@pytest.mark.parametrize("rank", [10, THROUGH_16])
def test_collapse_kernel_gives_type_partitions(rank):
    """The self-check that the trusted ``_collapse`` skips: on every
    partition whose total has the type's parity, through the totals of
    ``rank``, it gives a type partition, the one the public ``collapse``
    gives."""
    for letter in pt.LETTERS:
        for total in range(2 * rank + 2):
            if total % 2 != (letter == "B"):
                continue
            for lam in pt.integer_partitions(total):
                got = pt._collapse(lam, letter)
                assert pt.is_type_partition(got, letter), (lam, letter)
                assert got == pt.collapse(lam, letter)


def test_public_constructors_still_refuse():
    with pytest.raises(pt.PartitionError,
                       match=r"^bipartition \(2;2\) has total 4, "
                             r"expected 3$"):
        sp.WeylIrrep("B", 3, (2,), (2,))
    with pytest.raises(pt.PartitionError,
                       match=r"^bipartition \{3;2,1\} has total 6, "
                             r"expected 5$"):
        sp.WeylIrrep("D", 5, (2, 1), (3,), 1)
    with pytest.raises(pt.PartitionError,
                       match=r"^marking 4 is not reduced on 4,2 \(its "
                             r"reduction is 2\)$"):
        du.MarkedOrbit("C", (4, 2), (4,))
    with pytest.raises(pt.PartitionError,
                       match=r"^marking 1\^2 is not reduced on 3,1\^2 \(its "
                             r"reduction is -\)$"):
        du.MarkedOrbit("B", (3, 1, 1), (1, 1))
    with pytest.raises(sy.SymbolError,
                       match=r"^row \(2, 1\) is not strictly increasing$"):
        sy.Symbol((2, 1), (0,), "s")
    # the first character of a group's table goes through the public
    # constructor
    with pytest.raises(pt.PartitionError, match=r"^bad type letter 'X'$"):
        sp.irreps("X", 2)
    # a caller's FamilyId goes through the public constructor
    with pytest.raises(pt.PartitionError,
                       match=r"^bipartition \(-;2\) has total 2, "
                             r"expected 5$"):
        sp.family_members(sp.FamilyId("B", 5, (0, 2), (1,)))
    # sbar keeps its pair check
    with pytest.raises(pt.PartitionError, match=r"degenerate shape"):
        du.sbar((1, 1), (3,), "B")


def test_verify_all_builds_no_symbol(monkeypatch):
    """The verification path goes from orbits to characters on rows: on
    empty memos, ``verify_all`` of B, C and D through rank 8 builds no
    ``Symbol`` and no ``DecoratedSymbol``, checked or trusted."""
    built = Counter()
    trusted = pt._trusted

    def counted_trusted(cls, *values):
        built[cls.__name__] += 1
        return trusted(cls, *values)

    monkeypatch.setattr(pt, "_trusted", counted_trusted)
    for cls in (sy.Symbol, sy.DecoratedSymbol):
        def counted(obj, post_init=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            post_init(obj)

        monkeypatch.setattr(cls, "__post_init__", counted)
    # the counters see what they are meant to count
    sy.Symbol((0,), (), "a")
    pt._trusted(sy.Symbol, (0,), (), "a")
    sy.DecoratedSymbol(sy.Symbol((1,), (0,), "a"))
    assert built == Counter(Symbol=3, DecoratedSymbol=1)
    built.clear()
    pt._clear_memos()
    try:
        for letter in pt.LETTERS:
            for rank in range(9):
                assert all(r.ok for r in fa.verify_all(letter, rank))
    finally:
        pt._clear_memos()
    assert built["WeylIrrep"]
    assert built["Symbol"] == built["DecoratedSymbol"] == 0, built
