"""Independent character-theoretic oracles for the test suite.

Character values of the hyperoctahedral group (signed permutations) come
from the wreath-product Murnaghan-Nakayama rule; the even-signed subgroup
gets its split classes and half characters from the classical difference
formula, pinned to a concrete labelling by brute-force conjugacy at small
rank.  Everything is verified internally through orthogonality relations.
A brute-force search over row splittings serves as the reference for the
symbol-class enumerators, the fully sorted product of two families as
the reference for the witness scan of the faithfulness check, a filter
over the subsets of the markable parts as the list of reduced markings,
truncated induction as the reference for the closed form of Sommers
duality, the cell-by-cell search as the reference for the Littlewood-Richardson
coefficients, compositions of checked public steps as the references for the
trusted kernels of the Achar and Sommers duals, the padded running-total
loop as the reference for dominance, partition formulas for the
b-invariant, the centralizer dimension, Levi saturation and induction as
theorem-level references for the Springer and duality layers, and the
symbol route (Springer symbol, class by ``enumerate_class`` or
``similar_symbols``, ``pair_of_symbol`` per member, stepwise normalization)
as the reference for the dual fibres, families and factor families that
the library builds on rows.  The per-part loops that the partition and symbol primitives
replaced by single passes are kept here, named ``*_loop``, as their
references.  The public API that no runtime path calls lives here, near the
end, as the tests' own: the rank of a partition, the trivial character, the
full shape, shift padding and ``at_size``, similarity of whole symbols, a
character's s-symbol, the collapse symbol, a family's special member and
the maximal marked orbits.  Small helpers that only the tests
read (the sign character, shift equality of symbols, equal families, the
closure order) live at the end.

Only the tests use this module; the library computes multiplicities through
Littlewood-Richardson products and symbol classes in closed form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product, zip_longest
from math import factorial

from nilorbits import duality as du
from nilorbits import partitions as pt
from nilorbits import springer as sp
from nilorbits import symbols as sy


# ---------------------------------------------------------------------------
# symmetric group characters

def _beta(lam, length):
    lam = tuple(lam) + (0,) * (length - len(lam))
    return [lam[i] + (length - 1 - i) for i in range(length)]


def _strip_removals(lam, z):
    """All ways to remove a border strip of size z: (smaller partition, sign)."""
    length = len(lam) + 1
    beta = _beta(lam, length)
    out = []
    for i, b in enumerate(beta):
        nb = b - z
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new = sorted([c for c in beta if c != b] + [nb], reverse=True)
        parts = [c - (length - 1 - j) for j, c in enumerate(new)]
        out.append((pt.as_partition(parts), (-1) ** height))
    return out


@lru_cache(maxsize=None)
def sym_char(lam, rho) -> int:
    """Murnaghan-Nakayama character value of the symmetric group."""
    if not rho:
        return 1 if not lam else 0
    z, rest = rho[0], rho[1:]
    return sum(sign * sym_char(smaller, rest)
               for smaller, sign in _strip_removals(lam, z))


# ---------------------------------------------------------------------------
# hyperoctahedral characters (wreath Murnaghan-Nakayama)

@lru_cache(maxsize=None)
def hyperoct_char(lam, mu, pos, neg) -> int:
    """Character of the signed-permutation group attached to the ordered
    bipartition (lam, mu), on the class with positive cycle type pos and
    negative cycle type neg.  Peeling a cycle branches over border strips in
    both components; a negative cycle peeled from the second component picks
    up a sign (the second component carries the sign character of the
    two-element factor)."""
    if not pos and not neg:
        return 1 if not lam and not mu else 0
    if pos:
        z, rest_pos, rest_neg, twist = pos[0], pos[1:], neg, 1
    else:
        z, rest_pos, rest_neg, twist = neg[0], pos, neg[1:], -1
    total = 0
    for smaller, sign in _strip_removals(lam, z):
        total += sign * hyperoct_char(smaller, mu, rest_pos, rest_neg)
    for smaller, sign in _strip_removals(mu, z):
        total += twist * sign * hyperoct_char(lam, smaller, rest_pos, rest_neg)
    return total


def _centralizer_order(rho) -> int:
    out = 1
    for k in set(rho):
        m = rho.count(k)
        out *= (2 * k) ** m * factorial(m)
    return out


def b_order(n: int) -> int:
    return 2 ** n * factorial(n)


@lru_cache(maxsize=None)
def b_classes(n: int):
    """Classes of the signed-permutation group: (pos, neg, size)."""
    out = []
    for a in range(n + 1):
        for pos in pt.integer_partitions(a):
            for neg in pt.integer_partitions(n - a):
                size = b_order(n) // (_centralizer_order(pos) *
                                      _centralizer_order(neg))
                out.append((pos, neg, size))
    return tuple(out)


def verify_b_table(n: int) -> None:
    classes = b_classes(n)
    assert sum(size for _, _, size in classes) == b_order(n)
    reps = [(lam, mu) for a in range(n + 1)
            for lam in pt.integer_partitions(a)
            for mu in pt.integer_partitions(n - a)]
    for i, (l1, m1) in enumerate(reps):
        for l2, m2 in reps[i:]:
            dot = sum(size * hyperoct_char(l1, m1, pos, neg) *
                      hyperoct_char(l2, m2, pos, neg)
                      for pos, neg, size in classes)
            want = b_order(n) if (l1, m1) == (l2, m2) else 0
            assert dot == want, f"orthogonality fails at {(l1, m1)}, {(l2, m2)}"


# ---------------------------------------------------------------------------
# even-signed permutation group: concrete elements for the split classes

def _compose(w, v):
    """(w o v)(i), signed permutations as tuples of signed images."""
    out = []
    for i in range(len(w)):
        j = v[i]
        img = w[abs(j) - 1]
        out.append(img if j > 0 else -img)
    return tuple(out)


def _invert(w):
    out = [0] * len(w)
    for i, img in enumerate(w):
        out[abs(img) - 1] = (i + 1) if img > 0 else -(i + 1)
    return tuple(out)


def _cycle_type(w):
    n = len(w)
    seen = [False] * n
    pos, neg = [], []
    for start in range(n):
        if seen[start]:
            continue
        length, sign, i = 0, 1, start
        while True:
            seen[i] = True
            length += 1
            img = w[i]
            if img < 0:
                sign = -sign
            i = abs(img) - 1
            if i == start:
                break
        (pos if sign > 0 else neg).append(length)
    return pt.as_partition(pos), pt.as_partition(neg)


def _delta(w) -> int:
    return (-1) ** sum(1 for img in w if img < 0)


@lru_cache(maxsize=None)
def d_elements(n: int):
    perms = []

    def build(prefix, used):
        if len(prefix) == n:
            perms.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            if v in used:
                continue
            for s in (1, -1):
                build(prefix + [s * v], used | {v})

    build([], frozenset())
    return tuple(w for w in perms if _delta(w) == 1)


def std_element(pos, neg, n: int):
    """Concrete signed permutation with the given cycle data, cycles laid
    out on consecutive letters, all local signs positive except one per
    negative cycle."""
    images = [0] * n
    letter = 0
    for z in pos:
        for i in range(z - 1):
            images[letter + i] = letter + i + 2
        images[letter + z - 1] = letter + 1
        letter += z
    for z in neg:
        for i in range(z - 1):
            images[letter + i] = letter + i + 2
        images[letter + z - 1] = -(letter + 1)
        letter += z
    assert letter == n
    return tuple(images)


def is_split(pos, neg) -> bool:
    return not neg and all(z % 2 == 0 for z in pos)


@lru_cache(maxsize=None)
def d_classes(n: int):
    """Classes of the even-signed permutation group: (pos, neg, eps, size);
    eps is None off the split classes and 0/1 on the two halves of each."""
    if n == 0:
        return (((), (), None, 1),)
    order = b_order(n) // 2
    out = []
    for pos, neg, b_size in b_classes(n):
        if len(neg) % 2:
            continue
        if is_split(pos, neg):
            out.append((pos, neg, 0, b_size // 2))
            out.append((pos, neg, 1, b_size // 2))
        else:
            out.append((pos, neg, None, b_size))
    assert sum(size for *_, size in out) == order
    return tuple(out)


@lru_cache(maxsize=None)
def split_epsilon(w) -> int:
    """Which half of its split class a concrete even-signed element is in:
    0 when conjugate (within the even-signed group) to the standard
    all-positive representative."""
    n = len(w)
    pos, neg = _cycle_type(w)
    assert is_split(pos, neg)
    std = std_element(pos, (), n)
    for g in d_elements(n):
        if _compose(_compose(g, w), _invert(g)) == std:
            return 0
    return 1


def d_irreps(n: int):
    """Avatars: (lam, mu, kappa) with lam >= mu canonically; kappa in {0,1}
    for the degenerate pairs."""
    out = []
    seen = set()
    for a in range(n + 1):
        for lam in pt.integer_partitions(a):
            for mu in pt.integer_partitions(n - a):
                c1, c2 = pt.canonical_pair(lam, mu)
                if (c1, c2) in seen:
                    continue
                seen.add((c1, c2))
                if c1 == c2 and c1:
                    out.append((c1, c2, 0))
                    out.append((c1, c2, 1))
                else:
                    out.append((c1, c2, 0))
    return out


def d_char(lam, mu, kappa, pos, neg, eps) -> int:
    """Character of the even-signed permutation group."""
    base = hyperoct_char(lam, mu, pos, neg)
    if lam != mu or not lam:
        return base
    if not is_split(pos, neg):
        assert base % 2 == 0
        return base // 2
    rho = pt.as_partition([z // 2 for z in pos])
    diff = 2 ** len(rho) * sym_char(lam, rho)
    sign = 1 if (kappa + eps) % 2 == 0 else -1
    value = base + sign * diff
    assert value % 2 == 0
    return value // 2


def d_order(n: int) -> int:
    return 1 if n == 0 else b_order(n) // 2


def verify_d_table(n: int) -> None:
    classes = d_classes(n)
    reps = d_irreps(n)
    for i, (l1, m1, k1) in enumerate(reps):
        for l2, m2, k2 in reps[i:]:
            dot = 0
            for pos, neg, eps, size in classes:
                dot += size * d_char(l1, m1, k1, pos, neg, eps) * \
                    d_char(l2, m2, k2, pos, neg, eps)
            want = d_order(n) if (l1, m1, k1) == (l2, m2, k2) else 0
            assert dot == want, \
                f"orthogonality fails at {(l1, m1, k1)}, {(l2, m2, k2)}"


# ---------------------------------------------------------------------------
# character values on embedded product classes

def _b_value(avatar, pos, neg) -> int:
    lam, mu = avatar
    return hyperoct_char(lam, mu, pos, neg)


def _conjugate_by_flip(w):
    """Conjugate by the sign flip on the first letter (an odd element)."""
    t = (-1,) + tuple(range(2, len(w) + 1))
    return _compose(_compose(t, w), t)


def _d_value_embedded(avatar, c1, c2, m: int, n: int) -> int:
    """Value of an even-signed character of rank n on the image of a class
    pair of the rank-(m, n-m) even-signed product."""
    lam, mu, kappa = avatar
    pos = pt.union(c1[0], c2[0])
    neg = pt.union(c1[1], c2[1])
    if lam != mu or not lam or not is_split(pos, neg):
        return d_char(lam, mu, kappa, pos, neg, None)
    w1 = std_element(c1[0], c1[1], m)
    if c1[2] == 1:
        w1 = _conjugate_by_flip(w1)
    w2 = std_element(c2[0], c2[1], n - m)
    if c2[2] == 1:
        w2 = _conjugate_by_flip(w2)
    w = w1 + tuple(v + m if v > 0 else v - m for v in w2)
    return d_char(lam, mu, kappa, pos, neg, split_epsilon(w))


def mult_b_restriction(n: int, avatar, m: int, f1, f2) -> int:
    """Multiplicity of f1 (x) f2 in the restriction of the rank-n signed
    character ``avatar`` to the even-signed x signed product of ranks
    (m, n - m), through class sums."""
    total = 0
    for c1 in d_classes(m):
        for pos2, neg2, size2 in b_classes(n - m):
            pos = pt.union(c1[0], pos2)
            neg = pt.union(c1[1], neg2)
            total += c1[3] * size2 * _b_value(avatar, pos, neg) * \
                d_char(f1[0], f1[1], f1[2], c1[0], c1[1], c1[2]) * \
                hyperoct_char(f2[0], f2[1], pos2, neg2)
    denom = d_order(m) * b_order(n - m)
    assert total % denom == 0
    return total // denom


def mult_c_restriction(n: int, avatar, m: int, f1, f2) -> int:
    """Multiplicity of f1 (x) f2 in the restriction of the rank-n signed
    character to the signed x signed product of ranks (m, n - m)."""
    total = 0
    for pos1, neg1, size1 in b_classes(m):
        for pos2, neg2, size2 in b_classes(n - m):
            pos = pt.union(pos1, pos2)
            neg = pt.union(neg1, neg2)
            total += size1 * size2 * _b_value(avatar, pos, neg) * \
                hyperoct_char(f1[0], f1[1], pos1, neg1) * \
                hyperoct_char(f2[0], f2[1], pos2, neg2)
    denom = b_order(m) * b_order(n - m)
    assert total % denom == 0
    return total // denom


def mult_d_restriction(n: int, avatar, m: int, f1, f2) -> int:
    """Multiplicity of f1 (x) f2 in the restriction of the rank-n
    even-signed character ``avatar`` (a (lam, mu, kappa) triple) to the
    even-signed product of ranks (m, n - m)."""
    total = 0
    for c1 in d_classes(m):
        for c2 in d_classes(n - m):
            value = _d_value_embedded(avatar, c1, c2, m, n)
            total += c1[3] * c2[3] * value * \
                d_char(f1[0], f1[1], f1[2], c1[0], c1[1], c1[2]) * \
                d_char(f2[0], f2[1], f2[2], c2[0], c2[1], c2[2])
    denom = d_order(m) * d_order(n - m)
    assert total % denom == 0
    return total // denom


# ---------------------------------------------------------------------------
# symbol classes by brute force

def similar_symbols_bruteforce(sym, letter: str, k: int | None = None):
    """All symbols of the letter and kind of ``sym`` with its entry multiset
    at size k, by trying every row for every entry.  The reference for
    ``symbols.enumerate_class`` (s-symbols) and ``symbols.similar_symbols``
    (a-symbols)."""
    if k is not None:
        sym = at_size(sym, letter, k)
    values = sym.entries()
    len_top = len(sym.top)
    gap = 2 if sym.kind == "s" else 1
    out = []

    def place(i, top, bottom):
        if len(top) > len_top or len(bottom) > len(values) - len_top:
            return
        if i == len(values):
            cand = sy.Symbol(tuple(top), tuple(bottom), sym.kind)
            if sy.is_type_symbol(cand, letter):
                out.append(cand)
            return
        v = values[i]
        if not top or v - top[-1] >= gap:
            place(i + 1, top + [v], bottom)
        if not bottom or v - bottom[-1] >= gap:
            place(i + 1, top, bottom + [v])

    place(0, [], [])
    return sorted(set(out), key=lambda s: (s.top, s.bottom))


def enumerate_class_by_filter(sym, letter: str, k: int | None = None):
    """Every deal of the refinement blocks of the monotonic representative,
    each block but a pair in either orientation, filtered by the type's
    shape.  The reference for ``symbols.enumerate_class``."""
    if k is not None:
        sym = at_size(sym, letter, k)
    mono = sy.monotonic_representative(sym, letter)
    orientations = [((blk.top, blk.bottom),) if blk.tag == "pair" else
                    ((blk.top, blk.bottom), (blk.bottom, blk.top))
                    for blk in sy.refinement(mono)]
    deals = (sy.Symbol(tuple(v for top, _ in deal for v in top),
                       tuple(v for _, bottom in deal for v in bottom),
                       sym.kind)
             for deal in product(*orientations))
    return sorted((s for s in deals if sy.has_type_shape(s, letter)),
                  key=lambda s: (s.top, s.bottom))

# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients by the cell-by-cell search

def lr_coefficient_by_search(mu1, mu2, mu) -> int:
    """The number of lattice-word skew tableaux of shape mu/mu1 and content
    mu2, trying every value in every cell.  The reference for
    ``springer.lr_coefficient``, its closed forms and its bounded search."""
    mu1, mu2, mu = (pt.as_partition(mu1), pt.as_partition(mu2),
                    pt.as_partition(mu))
    if sum(mu1) + sum(mu2) != sum(mu):
        raise pt.PartitionError(
            f"sizes must add up: |{pt.format_partition(mu1)}| + "
            f"|{pt.format_partition(mu2)}| != |{pt.format_partition(mu)}|")
    if len(mu1) > len(mu) or any(a > b for a, b in zip(mu1, mu)):
        return 0
    rows = len(mu)
    inner = tuple(mu1) + (0,) * (rows - len(mu1))
    cells = [(r, c) for r in range(rows) for c in range(mu[r] - 1, inner[r] - 1, -1)]
    content = list(mu2)
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (len(content) + 1)
    # depth first over the cells in order, on its own stack so that the
    # recursion limit does not bound the number of cells: ``placed`` holds
    # the values of the first cells and ``v`` is the next value to try
    total, placed, v = 0, [], 1
    while True:
        if len(placed) == len(cells):
            total += 1
        elif v <= len(content):
            r, c = cells[len(placed)]
            if counts[v] >= content[v - 1] or \
                    v > 1 and counts[v] >= counts[v - 1]:
                # the content is used up, or the reverse reading word
                # would stop being a lattice word
                v += 1
                continue
            right = filling.get((r, c + 1))
            above = filling.get((r - 1, c))
            if r > 0 and c < inner[r - 1]:
                above = 0
            if right is not None and v > right or \
                    above is not None and v <= above:
                v += 1
                continue
            filling[r, c] = v
            counts[v] += 1
            placed.append(v)
            v = 1
            continue
        if not placed:
            return total
        v = placed.pop()
        counts[v] -= 1
        del filling[cells[len(placed)]]
        v += 1


# ---------------------------------------------------------------------------
# the witness pool of the faithfulness check, fully built and sorted

def sorted_family_pool(pair, apply_sgn_twist: bool):
    """Every (first-family member, second-family member) pair of a
    ``FaithfulPair``, optionally sign-twisted, sorted on the concatenated
    (first, second, kappa) keys of the two members.  The first pair with a
    hit is the witness that ``faithful.verify_faithful`` must report."""
    members1 = sp.family_members(pair.families[0])
    members2 = sp.family_members(pair.families[1])
    if apply_sgn_twist:
        members1 = [sp.sgn_twist(m) for m in members1]
        members2 = [sp.sgn_twist(m) for m in members2]
    pool = [(f1, f2) for f1 in members1 for f2 in members2]
    pool.sort(key=lambda fs: (fs[0].first, fs[0].second, fs[0].kappa,
                              fs[1].first, fs[1].second, fs[1].kappa))
    return pool


def reduced_markings(lam, letter: str):
    """Every reduced marking of the orbit: the subsets of its markable
    parts that are their own reduction."""
    marks = pt.markable_parts(lam, letter)
    for r in range(len(marks) + 1):
        for sub in combinations(marks, r):
            if pt.reduction(lam, sub, letter) == sub:
                yield sub


# ---------------------------------------------------------------------------
# Sommers duality by truncated induction, and dominance by running totals

def d_S_by_induction(mu, nu, letter: str):
    """Sommers dual of the orbit pair (mu, nu): truncated induction of the
    pair of in-factor duals, read off on the dual side.  The reference for
    the closed form ``duality.d_S``."""
    shape = du.pair_shape(mu, nu, letter)
    y, x = shape.factor_letters
    rep1 = sp.rep_of_orbit(self_dual(mu, y), y, y)
    rep2 = sp.rep_of_orbit(self_dual(nu, x), x, x)
    induced = sp.j_induce(shape, rep1, rep2)
    return pt.bare(sp.springer_support(induced, "dual"))


def self_dual(lam, letter: str):
    """Duality within the same type: transpose followed by the same-type
    collapse, for orbits of pseudo-Levi factors."""
    pt.assert_type_partition(lam, letter)
    return pt.collapse(pt.transpose(lam), letter)


def d_S_by_public_steps(mu, nu, letter: str):
    """``duality.d_S`` through the checked public ``dual`` and ``collapse``:
    the reference for its trusted kernels."""
    shape = du.pair_shape(mu, nu, letter)
    _, x = shape.factor_letters
    first = pt.transpose(pt.as_partition(mu))
    second = pt.dual(pt.as_partition(nu), x)
    summed = [a + b for a, b in zip_longest(first, second, fillvalue=0)]
    return pt.collapse(tuple(summed), pt.dual_letter(letter))


def d_A_triv_by_public_steps(lam, letter: str):
    """``duality.d_A_triv`` as ``pi_mu``, the public ``dual`` and
    ``reduction``, built through the checking constructor: the reference
    for the one-transpose kernel ``duality._d_A_of_orbit``."""
    pi, _ = du.pi_mu(lam, letter)
    orbit = pt.dual(lam, pt.dual_letter(letter))
    return du.MarkedOrbit(letter, orbit, pt.reduction(orbit, pi, letter))


def marked_orbit_by_steps(letter: str, orbit, marking):
    """``duality.MarkedOrbit`` through its checks as separate steps: the
    orbit's type first, then the marking's parts against the markable
    parts, with the reduction only for a refusal.  The reference for the
    order of its refusals."""
    orbit, marking = pt.as_partition(orbit), pt.as_partition(marking)
    pt.assert_type_partition(orbit, letter)
    parts = set(marking)
    if len(parts) != len(marking) or not parts <= set(
            pt.markable_parts(orbit, letter)):
        reduced = pt.reduction(orbit, marking, letter)
        raise pt.PartitionError(
            f"marking {pt.format_partition(marking)} is not reduced on "
            f"{pt.format_partition(orbit)} (its reduction is "
            f"{pt.format_partition(reduced)})")
    return pt._trusted(du.MarkedOrbit, letter, orbit, marking)


def d_S_marked_by_shape(marked, image=du.d_S):
    """Sommers dual of a marked orbit through (marking, orbit - marking),
    checked on its pseudo-Levi shape first and refused when that pair sits
    on no shape; ``image`` (``duality.d_S`` or ``d_S_by_induction``) then
    evaluates the pair.  The reference for ``duality.d_S_marked``."""
    rest = pt.subtract(marked.orbit, marked.marking)
    try:
        du.pair_shape(marked.marking, rest, marked.letter)
    except pt.PartitionError:
        raise pt.PartitionError(f"no pseudo-Levi pair realizes "
                                f"{marked.orbit} | {marked.marking}") from None
    return image(marked.marking, rest, marked.letter)


def dominance_le_loop(lam, mu) -> bool:
    """Dominance by running totals over the longer partition, the shorter
    one padded with zeros.  The reference for ``partitions.dominance_le``."""
    if sum(lam) != sum(mu):
        raise pt.PartitionError(
            f"dominance compares equal totals, got {sum(lam)} != {sum(mu)}")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l > total_m:
            return False
    return True


# ---------------------------------------------------------------------------
# theorem-level references: orbit geometry from partition formulas alone

def b_invariant(alpha, beta) -> int:
    """Lusztig's b-invariant of the character (alpha; beta) of a signed
    permutation group, 2n(alpha) + 2n(beta) + |beta| with
    n(lam) = sum (i - 1) lam_i (Geck-Pfeiffer, *Characters of finite Coxeter
    groups*, 2000): the lowest degree of the character in the coinvariant
    algebra, which for E(O, 1) is dim B_e, the Springer fibre's dimension."""
    def n(lam):
        return sum(i * part for i, part in enumerate(lam))
    return 2 * n(alpha) + 2 * n(beta) + sum(beta)


def dim_centralizer(lam, letter: str) -> int:
    """dim Z_G(e) for e in the orbit lam: half the sum of the squared column
    lengths, plus half the number of odd parts for C and minus it for B and
    D (Collingwood-McGovern, *Nilpotent orbits in semisimple Lie algebras*,
    1993, section 6.1)."""
    odd = sum(part % 2 for part in lam)
    squares = sum(c * c for c in transpose_loop(lam))
    return (squares + (odd if letter == "C" else -odd)) // 2


def saturate(lam, orbit):
    """Sat(lam, orbit): the G-saturation of the orbit lam x orbit of the
    Levi GL_k x G', lam a partition of k and orbit one of G', of G's type:
    lam's parts twice, and orbit's."""
    return tuple(sorted((*lam, *lam, *orbit), reverse=True))


def induce(lam, orbit, letter: str):
    """Ind(lam, orbit): the orbit of G, of type ``letter``, induced from
    lam x orbit of the Levi GL_k x G': the rows orbit_i + 2 lam_i collapsed
    to the type (Collingwood-McGovern 1993, Thm 7.3.3)."""
    rows = [a + 2 * b for a, b in zip_longest(orbit, lam, fillvalue=0)]
    return pt.collapse(tuple(rows), letter)


# ---------------------------------------------------------------------------
# partition and symbol primitives as per-part loops

def outcome(fn, *args):
    """What a call gives: its value with the value's type, or the type and
    message of what it raises.  Two implementations agree on an input when
    their outcomes are equal."""
    try:
        value = fn(*args)
    except Exception as exc:  # any refusal is part of the behaviour
        return "raises", type(exc), str(exc)
    return "returns", type(value), value


def as_partition_loop(parts):
    """The reference for ``partitions.as_partition``."""
    out = sorted((int(p) for p in parts), reverse=True)
    while out and out[-1] == 0:
        out.pop()
    if out and out[-1] < 0:
        raise pt.PartitionError(f"negative part {out[-1]} is not allowed")
    return tuple(out)


def multiplicity_loop(lam, x) -> int:
    """Number of parts of lam equal to x, one part at a time; the loop
    oracles below count with it."""
    return sum(1 for p in lam if p == x)


def height_loop(lam, x) -> int:
    """The reference for ``partitions.height``."""
    return sum(1 for p in lam if p >= x)


def transpose_loop(lam):
    """One column count per column.  The reference for
    ``partitions.transpose``, also on unsorted input."""
    if not lam:
        return ()
    return tuple(height_loop(lam, j) for j in range(1, lam[0] + 1))


def contains_loop(lam, mu) -> bool:
    """The reference for ``partitions.contains``."""
    return all(multiplicity_loop(lam, x) >= multiplicity_loop(mu, x)
               for x in set(mu))


def subtract_loop(lam, mu):
    """The reference for ``partitions.subtract``."""
    for x in set(mu):
        if multiplicity_loop(lam, x) < multiplicity_loop(mu, x):
            raise pt.PartitionError(
                f"part {x} of the subtrahend exceeds its multiplicity in "
                f"{format_partition_loop(lam)}")
    out = list(lam)
    for p in mu:
        out.remove(p)
    return tuple(out)


def is_type_partition_loop(lam, letter: str) -> bool:
    """The reference for ``partitions.is_type_partition``."""
    pt._check_letter(letter)
    pt._check_total(lam, letter)
    bad = 0 if letter in ("B", "D") else 1
    return all(multiplicity_loop(lam, x) % 2 == 0
               for x in set(lam) if x % 2 == bad)


def is_very_even_loop(lam) -> bool:
    """The reference for ``partitions.is_very_even``."""
    return all(p % 2 == 0 for p in lam) and \
        all(multiplicity_loop(lam, x) % 2 == 0 for x in set(lam))


def format_partition_loop(lam) -> str:
    """The reference for ``partitions.format_partition``."""
    if isinstance(lam, pt.DecoratedPartition):
        return str(lam)
    if not lam:
        return "-"
    chunks = []
    for x in sorted(set(lam), reverse=True):
        m = multiplicity_loop(lam, x)
        chunks.append(f"{x}^{m}" if m > 1 else f"{x}")
    return ",".join(chunks)


def markable_parts_loop(lam, letter: str):
    """One height per distinct part.  The reference for
    ``partitions.markable_parts``."""
    pt._check_letter(letter)
    if not is_type_partition_loop(lam, letter):
        raise pt.PartitionError(f"{format_partition_loop(lam)} is not a "
                                f"{letter}-partition")
    want = {"B": (1, 1), "C": (0, 0), "D": (1, 0)}[letter]
    return tuple(x for x in sorted(set(lam), reverse=True)
                 if (x % 2, height_loop(lam, x) % 2) == want)


def reduction_loop(lam, mu, letter: str):
    """Two heights per markable part.  The reference for
    ``partitions.reduction``."""
    asc = tuple(reversed(markable_parts_loop(lam, letter)))
    kept = []
    for i, x in enumerate(asc):
        upper = height_loop(mu, asc[i + 1]) if i + 1 < len(asc) else 0
        if (height_loop(mu, x) - upper) % 2 == 1:
            kept.append(x)
    return as_partition_loop(kept)


def symbol_loop(top, bottom, kind: str):
    """The row checks of ``symbols.Symbol``, one comparison per step;
    returns the rows and kind, or raises what the constructor raises."""
    if kind not in ("s", "a"):
        raise sy.SymbolError(f"kind must be 's' or 'a', got {kind!r}")
    for row in (top, bottom):
        if row and row[0] < 0:
            raise sy.SymbolError(f"negative entry in {row}")
        if any(row[i + 1] <= row[i] for i in range(len(row) - 1)):
            raise sy.SymbolError(f"row {row} is not strictly increasing")
    return top, bottom, kind


def gap_ok_loop(sym) -> bool:
    """One generator step per index over both rows.  The reference for
    ``symbols.Symbol.gap_ok``."""
    gap = 2 if sym.kind == "s" else 1
    return all(row[i + 1] - row[i] >= gap
               for row in (sym.top, sym.bottom)
               for i in range(len(row) - 1))


def pair_of_symbol_loop(sym, letter: str):
    """Subtract the staircase and sort.  The reference for
    ``symbols.pair_of_symbol``."""
    step = 2 if sym.kind == "s" else 1
    lead = 1 if (sym.kind == "s" and letter == "C") else 0
    first = [v - step * i for i, v in enumerate(sym.top)]
    second = [v - step * i - lead for i, v in enumerate(sym.bottom)]
    if any(v < 0 for v in first + second):
        raise sy.SymbolError(f"{sym} is not in the image of a bipartition")
    return as_partition_loop(first), as_partition_loop(second)


# ---------------------------------------------------------------------------
# type partitions by filtering every integer partition

def type_partitions_by_filter(letter: str, rank: int):
    """Every integer partition of the type's total that passes the parity
    test, decreasing-lex ordered.  The reference for
    ``partitions.type_partitions``."""
    pt._check_letter(letter)
    total = 2 * rank + 1 if letter == "B" else 2 * rank
    out = [lam for lam in pt.integer_partitions(total)
           if pt.is_type_partition(lam, letter)]
    out.sort(reverse=True)
    return tuple(out)


# ---------------------------------------------------------------------------
# the monotonic deal, the inversion and the Springer support on whole
# symbols

def monotonic_representative_by_symbol(sym, letter: str):
    """Deal the sorted entries into a checked ``Symbol``, then check its
    type.  The reference for ``symbols.monotonic_representative``."""
    values = sym.entries()
    if sym.defect == 1:
        top, bottom = values[0::2], values[1::2]
    elif sym.defect == 0:
        bottom, top = values[0::2], values[1::2]
    else:
        raise sy.SymbolError(f"no monotonic form for defect {sym.defect}")
    out = sy.Symbol(top, bottom, sym.kind)
    if not (gap_ok_loop(out) and sy.has_type_shape(out, letter)):
        raise sy.SymbolError(f"{out} is not a valid type-{letter} "
                             f"{sym.kind}-symbol")
    return out


def _orbit_from_rows_loop(xi, eta, letter: str):
    merged = sorted([2 * x + 1 for x in xi] + [2 * y for y in eta])
    parts = [v - i for i, v in enumerate(merged)]
    if any(p < 0 for p in parts) or \
            any(parts[i] > parts[i + 1] for i in range(len(parts) - 1)):
        return None
    lam = as_partition_loop(parts)
    try:
        return lam if pt.is_type_partition(lam, letter) else None
    except pt.PartitionError:
        return None


def orbit_of_symbol_by_symbol(alpha, letter: str):
    """Per-index checks on a whole symbol, decorated in type D.  The
    reference for ``springer.orbit_of_symbol``."""
    if letter == "D":
        kappa = 0
        if isinstance(alpha, sy.DecoratedSymbol):
            kappa, alpha = alpha.kappa, alpha.sym
        options = {_orbit_from_rows_loop(alpha.top, alpha.bottom, "D"),
                   _orbit_from_rows_loop(alpha.bottom, alpha.top, "D")}
        options.discard(None)
        if len(options) != 1:
            raise sy.SymbolError(f"{alpha} does not invert to a unique "
                                 f"D-partition (got {options})")
        return pt.DecoratedPartition(options.pop(), kappa)
    if letter == "B":
        lam = _orbit_from_rows_loop(alpha.top, alpha.bottom, "B")
    else:
        lam = _orbit_from_rows_loop(alpha.bottom, alpha.top, "C")
    if lam is None:
        raise sy.SymbolError(f"{alpha} is not a Springer-recipe symbol "
                             f"of type {letter}")
    return lam


def springer_support_by_round_trip(rep, side: str = "group"):
    """The monotonic s-symbol's bipartition, its minimal a-symbol, then the
    orbit.  The reference for ``springer.springer_support``."""
    conv = rep.letter if side == "group" else pt.dual_letter(rep.letter)
    ssym = rep_ssymbol(rep, conv)
    mono = sy.monotonic_representative(ssym, conv)
    first, second = sy.pair_of_symbol(mono, conv)
    alpha = sy.symbol_of_pair(first, second, conv, "a")
    if conv == "D":
        kappa = rep.kappa if rep.degenerate else 0
        return sp.orbit_of_symbol(sy.DecoratedSymbol(alpha, kappa), "D")
    return sp.orbit_of_symbol(alpha, conv)


# ---------------------------------------------------------------------------
# dual fibres, families and factor families through whole symbols

def springer_bipartition_by_symbol(lam, letter: str):
    """The Springer symbol of the orbit, inverted by ``pair_of_symbol``.
    The reference for ``springer.springer_bipartition``."""
    sym = sp.springer_symbol(lam, letter)
    if letter == "D":
        return (*sy.pair_of_symbol(sym.sym, "D"), sym.kappa)
    return (*sy.pair_of_symbol(sym, letter), 0)


def _irreps_by_symbols(symbols, conv: str, letter: str, rank: int,
                       kappa: int):
    # the distinct checked characters of the symbols, in order
    return list(dict.fromkeys(
        sp.WeylIrrep(letter, rank, *sy.pair_of_symbol(sym, conv), kappa)
        for sym in symbols))


def dual_fiber_by_symbols(lam, letter: str):
    """The dual-side s-symbol of the orbit at size k, its class by
    ``enumerate_class``, each member inverted by ``pair_of_symbol``.  The
    reference for ``springer.dual_fiber``."""
    conv = pt.dual_letter(letter)
    first, second, kappa = springer_bipartition_by_symbol(lam, conv)
    rank = sum(first) + sum(second)
    k = max(sy.min_size_pair(first, second, conv),
            len(pt.bare(lam)) // 2 + 1)
    ssym = sy.symbol_of_pair(first, second, conv, "s", k)
    return _irreps_by_symbols(sy.enumerate_class(ssym, conv), conv, letter,
                              rank, kappa)


def normalize_by_steps(sym, letter: str):
    """Strip one column on the staircase at a time into a checked
    ``Symbol``, until none is left.  The reference for
    ``symbols.normalize``."""
    step, lead = sy._stair(sym.kind, letter)
    while sym.top and sym.bottom and \
            (sym.top[0], sym.bottom[0]) == (0, lead):
        sym = sy.Symbol(tuple(v - step for v in sym.top[1:]),
                        tuple(v - step for v in sym.bottom[1:]), sym.kind)
    return sym


def family_of_by_symbol(rep):
    """The minimal a-symbol, its monotonic representative, normalized and
    underlined in type D.  The reference for ``springer.family_of``."""
    mono = sy.monotonic_representative(sp.rep_asymbol(rep), rep.letter)
    mono = normalize_by_steps(mono, rep.letter)
    if rep.letter == "D":
        mono = sy.underline(mono)
    kappa = rep.kappa if rep.degenerate else 0
    return sp.FamilyId(rep.letter, rep.rank, mono.top, mono.bottom, kappa)


def family_members_by_symbols(fid):
    """The family's a-symbol class by ``similar_symbols``, each member
    inverted by ``pair_of_symbol``.  The reference for
    ``springer.family_members``."""
    base = sy.Symbol(fid.top, fid.bottom, "a")
    return _irreps_by_symbols(sy.similar_symbols(base, fid.letter),
                              fid.letter, fid.letter, fid.rank, fid.kappa)


def family_of_orbit_by_symbols(orbit, letter: str):
    """The family of the checked Springer character of the orbit.  The
    reference for ``faithful._family_of_orbit``."""
    first, second, kappa = springer_bipartition_by_symbol(orbit, letter)
    rank = sum(first) + sum(second)
    return family_of_by_symbol(sp.WeylIrrep(letter, rank, first, second,
                                            kappa))


# ---------------------------------------------------------------------------
# the API that only the tests read: the rank of a partition, the trivial
# character and the full shape, shift padding, similarity of whole symbols,
# the s-symbol and special member of a character, the collapse symbol and
# the maximal marked orbits

def rank_of(lam: pt.Partition, letter: str) -> int:
    """Rank n with |lam| = 2n+1 (B) or 2n (C, D)."""
    pt._check_letter(letter)
    pt._check_total(lam, letter)
    return sum(lam) // 2


def trivial_rep(letter: str, rank: int) -> sp.WeylIrrep:
    return sp.WeylIrrep(letter, rank, (rank,) if rank else (), ())


def full_shape(letter: str, rank: int) -> sp.PseudoLeviShape:
    return sp.PseudoLeviShape(letter, 0, rank)


def pad_once(sym: sy.Symbol, letter: str) -> sy.Symbol:
    """One shift-equivalence step up (adds one column)."""
    step, lead = sy._stair(sym.kind, letter)
    return sy.Symbol((0,) + tuple(v + step for v in sym.top),
                     (lead,) + tuple(v + step for v in sym.bottom), sym.kind)


def at_size(sym: sy.Symbol, letter: str, k: int) -> sy.Symbol:
    """The shift-class representative with bottom row of length k."""
    sym = sy.normalize(sym, letter)
    if len(sym.bottom) > k:
        raise sy.SymbolError(f"no representative with bottom length {k}; "
                             f"the minimal one has {len(sym.bottom)}")
    while len(sym.bottom) < k:
        sym = pad_once(sym, letter)
    return sym


def similar(s1: sy.Symbol, s2: sy.Symbol, letter: str) -> bool:
    """Equal entry multisets once brought to a common size."""
    if s1.kind != s2.kind:
        raise sy.SymbolError("cannot compare symbols of different kinds")
    k = max(len(sy.normalize(s1, letter).bottom),
            len(sy.normalize(s2, letter).bottom))
    return at_size(s1, letter, k).entries() == at_size(s2, letter, k).entries()


def similar_decorated(d1: sy.DecoratedSymbol, d2: sy.DecoratedSymbol,
                      letter: str = "D") -> bool:
    """Type-D similarity: degenerate symbols also need equal decorations."""
    if d1.degenerate != d2.degenerate:
        return similar(d1.sym, d2.sym, letter)
    if d1.degenerate and d1.kappa != d2.kappa:
        return False
    return similar(d1.sym, d2.sym, letter)


def rep_ssymbol(rep: sp.WeylIrrep, convention: str | None = None,
                k: int | None = None) -> sy.Symbol:
    """Ordered s-symbol of the avatar (underlined row order for type D)."""
    convention = convention or rep.letter
    return sy.symbol_of_pair(rep.first, rep.second, convention, "s", k)


def collapse_symbol(lam: pt.Partition, kappa: int = 0) -> sy.DecoratedSymbol:
    """a-symbol class of the Springer character of the D-collapse of the
    transpose-compatible C-partition ``lam``, read off without computing the
    collapse: pad to even length, add 0, 1, 2, ... and split by parity."""
    pt.assert_type_partition(lam, "C")
    if not pt.is_type_partition(pt.transpose(lam), "D"):
        raise pt.PartitionError(f"transpose of {pt.format_partition(lam)} "
                                f"is not a D-partition")
    return sy.DecoratedSymbol(sy.Symbol(*sp._staircase(lam, "D"), "a"),
                              kappa)


def special_rep(fid: sp.FamilyId) -> sp.WeylIrrep:
    """The unique special member of the family."""
    base = sy.Symbol(fid.top, fid.bottom, "a")
    f, s = sy.pair_of_symbol(base, fid.letter)
    if fid.letter == "D":
        return sp.WeylIrrep(fid.letter, fid.rank, f, s, fid.kappa)
    return sp.WeylIrrep(fid.letter, fid.rank, f, s)


def maximal_marked(items) -> list[du.MarkedOrbit]:
    """The maximal elements of a set of marked orbits under the Achar
    order."""
    items = list(dict.fromkeys(items))
    return [m for m in items
            if not any(other != m and du.le_A(m, other) and
                       not du.le_A(other, m)
                       for other in items)]


# ---------------------------------------------------------------------------
# small helpers that only the tests read: the sign character, shift
# equality of symbols, equal families, and the closure order on decorated
# orbits

def sign_rep(letter: str, rank: int):
    return sp.WeylIrrep(letter, rank, (), (1,) * rank)


def shift_equal(s1, s2, letter: str) -> bool:
    return sy.normalize(s1, letter) == sy.normalize(s2, letter)


def same_family(r1, r2) -> bool:
    if (r1.letter, r1.rank) != (r2.letter, r2.rank):
        raise pt.PartitionError(f"characters of different groups: {r1} vs "
                                f"{r2}")
    return sp.family_of(r1) == sp.family_of(r2)


def closure_le(lam1, lam2, letter: str) -> bool:
    """Closure order on orbit avatars: dominance of partitions; two very
    even type-D orbits with the same partition and different decorations are
    incomparable."""
    b1, b2 = pt.bare(lam1), pt.bare(lam2)
    if letter == "D" and isinstance(lam1, pt.DecoratedPartition) \
            and isinstance(lam2, pt.DecoratedPartition):
        if lam1.very_even and lam2.very_even and b1 == b2:
            return lam1.kappa == lam2.kappa
    return pt.dominance_le(b1, b2)
