"""The CLI query population and its seeded sample.

The population is built here from first principles (integer partitions with
the type parity rules), not from the library, so it stays fixed when the
library changes.  Every query carries the exit code the documented contract
gives it: 0 for a valid query, 64 for malformed arguments, 2 for a violated
precondition and 1 for the ``--no-twist`` negative control.

The sample is stratified: a fixed number of queries of each kind, so every
seed pays for the same mix.  This module does not import nilorbits.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass

LETTERS = ("B", "C", "D")
DUAL = {"B": "C", "C": "B", "D": "D"}


@dataclass(frozen=True)
class Query:
    kind: str
    argv: tuple[str, ...]
    expected: int

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


def _partitions(total: int, largest: int | None = None):
    largest = total if largest is None else largest
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _type_partitions(letter: str, rank: int) -> list[tuple[int, ...]]:
    """B and D: even parts come in pairs; C: odd parts come in pairs."""
    total = 2 * rank + 1 if letter == "B" else 2 * rank
    paired_parity = 1 if letter == "C" else 0
    return [lam for lam in _partitions(total)
            if all(lam.count(x) % 2 == 0 for x in set(lam)
                   if x % 2 == paired_parity)]


def _bipartitions(rank: int):
    for a in range(rank + 1):
        for first in _partitions(a):
            for second in _partitions(rank - a):
                yield first, second


def _p(lam) -> str:
    return ",".join(map(str, lam)) if lam else "-"


def _bi(first, second) -> str:
    return f"{_p(first)};{_p(second)}"


def _spread(seq, n: int) -> list:
    """n evenly spaced members of seq (all of it when shorter)."""
    seq = list(seq)
    if len(seq) <= n:
        return seq
    return [seq[i * len(seq) // n] for i in range(n)]


def _factor_letters(letter: str) -> tuple[str, str]:
    return ("D", "B") if letter == "B" else (letter, letter)


def _product_nodes(letter: str, rank: int) -> list[int]:
    """Nodes k with a genuine product shape: B excludes 1, D excludes 1 and
    rank - 1."""
    bad = {"B": {1}, "C": set(), "D": {1, rank - 1}}[letter]
    return [k for k in range(rank + 1) if k not in bad]


def _characters(letter: str, rank: int) -> list:
    """Bipartitions naming characters; type D leaves out equal halves,
    whose characters need a decoration."""
    return [fs for fs in _bipartitions(rank)
            if letter != "D" or fs[0] != fs[1]]


def _valid() -> dict[str, list[tuple[str, ...]]]:
    """Valid queries by kind, at rank <= 10."""
    kinds: dict[str, list[tuple[str, ...]]] = {}

    def add(kind, verb, letter, *args):
        kinds.setdefault(kind, []).append((verb, "-t", letter, *args))

    for letter in LETTERS:
        for rank in (3, 6, 9):
            total = 2 * rank + 1 if letter == "B" else 2 * rank
            for lam in _spread(_partitions(total), 3):
                add("collapse", "collapse", letter, "--", _p(lam))
        for rank in (4, 7, 10):
            own = _spread(_type_partitions(letter, rank), 3)
            for lam in own:
                for verb in ("dual", "special", "markable", "springer"):
                    add(verb, verb, letter, "--", _p(lam))
                add("reduce", "reduce", letter, "--", _p(lam), _p(lam[:1]))
            for a, b in zip(own, own[1:]):
                add("lea", "lea", letter, "--", f"{_p(a)}|-", f"{_p(b)}|-")
            for lam in _spread(_type_partitions(DUAL[letter], rank), 3):
                add("springer-dual", "springer", letter, "--side", "dual",
                    "--", _p(lam))
                add("da", "da", letter, "--", _p(lam))
                add("wf", "wf", letter, "--az-dual-orbit", _p(lam))
                # in type D the construction refuses some very even factors
                if letter != "D":
                    add("faithful", "faithful", letter, "--", _p(lam))
                    add("verify-orbit", "verify-faithful", letter, "--",
                        _p(lam))
            add("enumerate", "enumerate", letter, "-n", str(rank))
            for pair in _spread(_characters(letter, rank), 3):
                add("family", "family", letter, "--members", "--", _bi(*pair))
                add("wf-wrep", "wf-wrep", letter, "--", _bi(*pair))
        y, x = _factor_letters(letter)
        for rank in (4, 6):
            for k in _spread(_product_nodes(letter, rank)[1:], 2):
                shape = ("-k", str(k), "-n", str(rank), "--")
                for mu, nu in zip(_spread(_type_partitions(y, k), 2),
                                  _spread(_type_partitions(x, rank - k), 2)):
                    add("sbar", "sbar", letter, "--", _p(mu), _p(nu))
                    add("ds", "ds", letter, "--", _p(mu), _p(nu))
                # trivial and sign characters of the factors are special
                add("jinduce", "jinduce", letter, *shape, _bi((k,), ()),
                    _bi((rank - k,), ()))
                add("jinduce", "jinduce", letter, *shape, _bi((), (1,) * k),
                    _bi((), (1,) * (rank - k)))
                # factor characters of type D: one ordering of each pair
                f1s = [fs for fs in _bipartitions(k)
                       if y != "D" or fs[0] >= fs[1]]
                f2s = [fs for fs in _bipartitions(rank - k)
                       if x != "D" or fs[0] >= fs[1]]
                chars = _spread(_characters(letter, rank), 2)
                for char, f1, f2 in zip(chars, _spread(f1s, 2),
                                        _spread(f2s[::-1], 2)):
                    add("restrict-mult", "restrict-mult", letter, *shape,
                        _bi(*char), _bi(*f1), _bi(*f2))
    kinds["exceptional"] = [
        ("exceptional", group, label) for group, label in (
            ("F4", "A_2"), ("F4", "B_2"), ("F4", "C_3(a_1)"),
            ("E7", "A_3+A_2"), ("E8", "D_4+A_2"), ("E8", "E_8(b_6)"),
            ("G2", "G2(a1)"), ("E6", "A2"), ("F4", "A1~"), ("E8", "0"))]
    return kinds


_MALFORMED = (
    ("dual", "-t", "B", "--", "3,x"),
    ("dual", "-t", "E", "--", "3"),
    ("enumerate", "-t", "B"),
    ("lea", "-t", "C", "--", "2,2", "2,2|-"),
    ("family", "-t", "B", "--", "1,1"),
    ("verify-faithful", "-t", "B"),
    ("frobnicate", "-t", "B", "1"),
    ("collapse", "-t", "C", "--", "3^x"),
)

_PRECONDITION = (
    ("dual", "-t", "B", "--", "2,1"),
    ("markable", "-t", "C", "--", "3"),
    ("enumerate", "-t", "B", "-n", "13"),
    ("verify-faithful", "-t", "C", "-n", "13"),
    ("sbar", "-t", "C", "--", "3", "2"),
    ("restrict-mult", "-t", "D", "-k", "2", "-n", "4", "--", "1,1;1,1:0",
     "1;1", "2;-"),
    ("da", "-t", "B", "--", "3,1"),
    ("restrict-mult", "-t", "C", "-k", "1", "-n", "3", "--", "2;1", "1;-",
     "1;2"),
)

_NO_TWIST = tuple(("verify-faithful", "-t", letter, "-n", str(rank),
                   "--no-twist")
                  for letter in ("B", "C") for rank in (3, 4, 5))

_PER_VALID_KIND = 4  # queries of each valid kind in one sample
_VERIFY_RANK = tuple(("verify-faithful", "-t", letter, "-n", "8")
                     for letter in LETTERS)
# (kind, queries, expected exit code, queries in one sample)
_SPECIAL = (("verify-rank", _VERIFY_RANK, 0, 3),
            ("malformed", _MALFORMED, 64, 6),
            ("precondition", _PRECONDITION, 2, 6),
            ("no-twist", _NO_TWIST, 1, 5))


def _structured(argv: tuple[str, ...]) -> tuple[str, ...]:
    return argv[:1] + ("--mode", "structured") + argv[1:]


def population() -> list[Query]:
    """Every query a sample can draw, in a fixed order."""
    out = [Query(kind, _structured(argv) if i % 2 else argv, 0)
           for kind, argvs in _valid().items()
           for i, argv in enumerate(argvs)]
    out += [Query(kind, argv, code) for kind, argvs, code, _ in _SPECIAL
            for argv in argvs]
    return out


def sample(rng) -> list[Query]:
    """A fixed number of queries of each kind, in seeded random order."""
    by_kind: dict[str, list[Query]] = {}
    for query in population():
        by_kind.setdefault(query.kind, []).append(query)
    counts = {kind: n for kind, _, _, n in _SPECIAL}
    out = []
    for kind, queries in by_kind.items():
        out += rng.sample(queries, min(len(queries),
                                       counts.get(kind, _PER_VALID_KIND)))
    rng.shuffle(out)
    return out
