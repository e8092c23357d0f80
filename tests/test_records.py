"""The value types are ``partitions._record`` classes.  Each behaves as the
``dataclass(frozen=True)`` it replaced: a dataclass twin built from the same
field values has the same repr and hash, and equality between two values
is equality between their twins.  The test may import ``dataclasses``; the
library does not."""

import dataclasses
import functools
from itertools import combinations

import pytest

import oracles as O
from nilorbits import duality as du
from nilorbits import faithful as fa
from nilorbits import partitions as pt
from nilorbits import springer as sp
from nilorbits import symbols as sy
from nilorbits import wavefront as wf

# the field lists of the dataclasses, in order; ``kappa`` defaults to 0
FIELDS = {
    pt.DecoratedPartition: ("parts", "kappa"),
    sy.Symbol: ("top", "bottom", "kind"),
    sy.DecoratedSymbol: ("sym", "kappa"),
    sy.Block: ("values", "top", "bottom", "tag"),
    sp.WeylIrrep: ("letter", "rank", "first", "second", "kappa"),
    sp.FamilyId: ("letter", "rank", "top", "bottom", "kappa"),
    sp.PseudoLeviShape: ("letter", "k", "rank"),
    du.MarkedOrbit: ("letter", "orbit", "marking"),
    fa.FaithfulPair: ("letter", "rank", "shape", "families", "orbit_pair",
                      "provenance"),
    fa.FaithfulnessReport: ("orbit", "letter", "pair", "condition_i",
                            "condition_ii", "witnesses"),
    fa.ExceptionalEntry: ("group", "dual_orbit_label", "node_mask",
                          "factor_type", "family_orbit"),
    wf.WavefrontResult: ("canonical_unramified", "algebraic"),
}
RANKS = range(1, 6)
LIBRARY = (pt, sy, sp, du, fa, wf)


def _twin_class(cls):
    return dataclasses.make_dataclass(
        cls.__name__,
        [(name, object, 0) if name == "kappa" else (name, object)
         for name in FIELDS[cls]],
        frozen=True)


TWINS = {cls: _twin_class(cls) for cls in FIELDS}


def _twin(value):
    cls = type(value)
    return TWINS[cls](*(getattr(value, name) for name in FIELDS[cls]))


def _monotonic(sym, letter):
    # the monotonic deal ``_monotonic_rows`` as a checked ``Symbol``
    return sy.Symbol(*sy._monotonic_rows(sym.entries(), sym.defect, sym.kind,
                                         letter), sym.kind)


def _samples():
    """Values of every class: characters, families, marked orbits, symbols
    and what is built from them, through rank 5."""
    out = list(fa.load_exceptional_table())
    for letter in pt.LETTERS:
        for n in RANKS:
            reps = sp.irreps(letter, n)
            out += reps
            out += {sp.family_of(rep) for rep in reps}
            for rep in reps:
                sym = O.rep_ssymbol(rep)
                out += [sym, sp.rep_asymbol(rep)]
                out += sy.refinement(_monotonic(sym, letter))
            out += sp.product_shapes(letter, n) + [O.full_shape(letter, n)]
            for lam in pt.enumerate_orbits(letter, n):
                orbit = pt.bare(lam)
                out += [pt.DecoratedPartition(orbit, getattr(lam, "kappa", 0)),
                        sp.springer_symbol(lam, letter)]
                parts = pt.markable_parts(orbit, letter)
                out += {du.MarkedOrbit(letter, orbit,
                                       pt.reduction(orbit, mu, letter))
                        for size in range(len(parts) + 1)
                        for mu in combinations(parts, size)}
            for lam in pt.enumerate_orbits(pt.dual_letter(letter), n):
                report = fa.verify_faithful(lam, letter)
                out += [report, report.pair, wf.wf_iwahori_real(lam, letter)]
    return out


SAMPLES = _samples()


def test_samples_cover_every_class():
    assert {type(value) for value in SAMPLES} == set(FIELDS)


def test_fields_in_order():
    for cls, names in FIELDS.items():
        assert cls.__match_args__ == names


def test_repr_hash_and_equality_match_the_dataclass():
    by_class = {}
    for value in SAMPLES:
        twin = _twin(value)
        assert repr(value) == repr(twin)
        assert hash(value) == hash(twin)
        assert value == value and not value != value
        fields = [getattr(value, name) for name in FIELDS[type(value)]]
        copy = pt._trusted(type(value), *fields)
        assert copy is not value and copy == value and not copy != value
        assert hash(copy) == hash(value)
        by_class.setdefault(type(value), []).append(value)
    for values in by_class.values():
        for a, b in combinations(values[:80], 2):
            assert (a == b) == (_twin(a) == _twin(b))
            assert (a != b) == (_twin(a) != _twin(b))


def test_equal_fields_of_another_class_are_unequal():
    rep = sp.WeylIrrep("B", 2, (1,), (1,))
    fid = sp.FamilyId("B", 2, (1,), (1,))
    assert [getattr(rep, n) for n in FIELDS[sp.WeylIrrep]] == \
        [getattr(fid, n) for n in FIELDS[sp.FamilyId]]
    assert hash(rep) == hash(fid)
    assert rep != fid and fid != rep and not rep == fid
    assert rep.__eq__(fid) is NotImplemented


@pytest.mark.parametrize("value", [sp.WeylIrrep("D", 4, (2,), (2,), 1),
                                   du.MarkedOrbit("B", (3, 1, 1), (3, 1)),
                                   sy.Symbol((0, 2), (1,), "s")])
def test_fields_are_frozen(value):
    assert issubclass(pt.FrozenFieldError, AttributeError)
    before = repr(value)
    for name in (*FIELDS[type(value)], "extra"):
        with pytest.raises(pt.FrozenFieldError, match="cannot assign"):
            setattr(value, name, 1)
        with pytest.raises(pt.FrozenFieldError, match="cannot delete"):
            delattr(value, name)
    assert repr(value) == before


def test_keywords_and_defaults():
    rep = sp.WeylIrrep("D", 4, (2,), (2,), 1)
    assert sp.WeylIrrep(second=(2,), kappa=1, first=(2,), rank=4,
                        letter="D") == rep
    assert sp.WeylIrrep("D", 4, (2,), (2,), kappa=1) == rep
    assert sp.WeylIrrep("B", 2, (1,), (1,)).kappa == 0
    assert sp.FamilyId("B", 2, (1,), (1,)) == sp.FamilyId(
        "B", 2, (1,), (1,), 0)
    assert pt.DecoratedPartition(parts=(2, 2)) == pt.DecoratedPartition(
        (2, 2), 0)
    # the checks of ``__post_init__`` run on the keyword path too
    with pytest.raises(pt.PartitionError):
        sp.WeylIrrep("B", 2, (1,), (1,), kappa=2)


def test_defaults_come_last():
    @pt._record
    class Two:
        a: int
        b: int = 1
        c: int = 2

    assert (Two(0).b, Two(0).c) == (1, 2)
    assert (Two(0, 5).b, Two(0, 5).c) == (5, 2)
    assert Two(0, c=7) == Two(0, 1, 7)

    class Late:
        kappa: int = 0
        letter: str

    with pytest.raises(TypeError, match="defaults must come last"):
        pt._record(Late)


@pytest.mark.parametrize("args, kwargs", [
    (("B", 2, (1,)), {}),                       # a field missing
    ((), {"letter": "B", "rank": 2}),
    (("B", 2, (1,), (1,), 0, 0), {}),           # one value too many
    (("B", 2, (1,), (1,)), {"colour": 1}),      # a field it lacks
    (("B", 2, (1,), (1,)), {"rank": 2}),        # a field given twice
    (("B", 2, (1,)), {"colour": 1}),            # one missing, one it lacks
])
def test_bad_arguments_are_type_errors(args, kwargs):
    with pytest.raises(TypeError, match="WeylIrrep"):
        sp.WeylIrrep(*args, **kwargs)
    with pytest.raises(TypeError):
        TWINS[sp.WeylIrrep](*args, **kwargs)


def _record_classes():
    """The ``_record`` classes of the library modules: the classes whose
    ``__init__`` runs the code ``_record`` gives every class."""
    code = pt.DecoratedPartition.__init__.__code__
    return {value for module in LIBRARY for value in vars(module).values()
            if isinstance(value, type) and
            getattr(value.__init__, "__code__", None) is code}


def test_records_hold_no_cached_property():
    """A ``cached_property`` writes through the instance ``__dict__``, which
    slows every later attribute load on that value (see ``_record``); no
    value type may hold one."""
    classes = _record_classes()
    assert classes == set(FIELDS)
    for cls in classes:
        cached = [name for name, value in vars(cls).items()
                  if isinstance(value, functools.cached_property)]
        assert not cached, (cls.__name__, cached)
