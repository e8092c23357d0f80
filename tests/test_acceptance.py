"""Acceptance criteria.

Each test prints one pass/fail line; every comparison is exact (integer or
structural equality), so there are no tolerances to tune.  Run with
``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import pytest

import oracles as O
from nilorbits import duality as du
from nilorbits import faithful as F
from nilorbits import partitions as P
from nilorbits import springer as sp
from nilorbits import symbols as S
from nilorbits import wavefront as wf


def _report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def bare(lam):
    return lam.parts if isinstance(lam, P.DecoratedPartition) else lam


def admissible(total):
    return ("B",) if total % 2 else ("C", "D")


def brute_collapse(lam, letter):
    best = None
    for cand in P.type_partitions(letter, O.rank_of(lam, letter)):
        if P.dominance_le(cand, lam) and (best is None or
                                          P.dominance_le(best, cand)):
            best = cand
    return best


def test_acceptance_1_duality_suite():
    """Collapse against the brute-force maximum, order reversal of the
    duality, involutivity on specials, and the trivial-pair value of the
    Sommers map, for every partition of size <= 12."""
    ok = True
    for total in range(1, 13):
        for letter in admissible(total):
            for lam in P.integer_partitions(total):
                got = P.collapse(lam, letter)
                ok &= got == brute_collapse(lam, letter)
                ok &= P.collapse(got, letter) == got
                ok &= P.dominance_le(got, lam)
            orbs = P.type_partitions(letter, total // 2)
            co = P.dual_letter(letter)
            for lam in orbs:
                d = P.dual(lam, letter)
                if P.is_special(lam, letter):
                    ok &= P.dual(d, co) == lam
                ok &= du.d_S((), lam, letter) == d
            for l1 in orbs:
                for l2 in orbs:
                    if P.dominance_le(l1, l2):
                        ok &= P.dominance_le(P.dual(l2, letter),
                                             P.dual(l1, letter))
    _report(1, "duality suite, size <= 12", ok)


def test_acceptance_2_achar_order():
    """Both equivalences relating the closure order to the reversed Achar
    order, exhaustively at rank <= 5 per type."""
    ok = True
    for letter in P.LETTERS:
        co = P.dual_letter(letter)
        for rank in range(1, 6):
            orbs = P.type_partitions(co, rank)
            marked = {lam: du.d_A_triv(lam, letter) for lam in orbs}
            ok &= len(set(marked.values())) == len(orbs)
            for l1 in orbs:
                for l2 in orbs:
                    ok &= P.dominance_le(l1, l2) == \
                        du.le_A(marked[l2], marked[l1])
                    ok &= (l1 == l2) == (marked[l1] == marked[l2])
    _report(2, "Achar order equivalences, rank <= 5", ok)


def test_acceptance_3_worked_refinement():
    """The worked refinement example, character for character."""
    sym = S.Symbol((0, 2, 3, 7, 10, 13), (1, 3, 6, 8, 11), "s")
    blocks = S.refinement(sym)
    ok = S.bar(sym) == (0, 1, 2, 3, 3, 6, 7, 8, 10, 11, 13)
    ok &= [b.values for b in blocks] == [(0, 1, 2), (3, 3), (6, 7, 8),
                                         (10, 11), (13,)]
    ok &= [b.top for b in blocks] == [(0, 2), (3,), (7,), (10,), (13,)]
    ok &= [b.bottom for b in blocks] == [(1,), (3,), (6, 8), (11,), ()]
    _report(3, "worked refinement example", ok)


def test_acceptance_4_springer_suite():
    """Support round trip at rank <= 6 on both sides, monotonicity of every
    orbit symbol, and the direct parity-split for collapses of transposed
    partitions up to size 10."""
    ok = True
    for letter in P.LETTERS:
        co = P.dual_letter(letter)
        for rank in range(1, 7):
            for lam in P.enumerate_orbits(letter, rank):
                rep = sp.rep_of_orbit(lam, letter, letter)
                ok &= sp.springer_support(rep, "group") == lam
                ok &= S.is_monotonic(O.rep_ssymbol(rep))
            for lam in P.enumerate_orbits(co, rank):
                rep = sp.rep_of_orbit(lam, co, letter)
                ok &= sp.springer_support(rep, "dual") == lam
    for total in range(2, 11, 2):
        for lam in P.integer_partitions(total):
            if not (P.is_type_partition(lam, "C") and
                    P.is_type_partition(P.transpose(lam), "D")):
                continue
            ok &= O.similar_decorated(
                O.collapse_symbol(lam, 0),
                sp.springer_symbol(P.DecoratedPartition(
                    P.collapse(lam, "D"), 0), "D"))
    _report(4, "Springer suite, rank <= 6", ok)


def test_acceptance_5_restriction_oracle():
    """The product of Littlewood-Richardson coefficients equals the
    character inner product for every irreducible pair and every maximal
    product shape at rank 3.  Decorated degenerate factors (which the
    library refuses to split) are compared as decoration sums."""
    ok = True
    n = 3
    for shape in sp.product_shapes("B", n):
        m = shape.k
        for E in sp.irreps("B", n):
            for f1 in sp.irreps("D", m):
                for f2 in sp.irreps("B", n - m):
                    oracle = O.mult_b_restriction(
                        n, (E.first, E.second), m,
                        (f1.first, f1.second, f1.kappa),
                        (f2.first, f2.second))
                    ok &= sp.restriction_multiplicity(E, shape, f1, f2) == \
                        oracle
    for shape in sp.product_shapes("C", n):
        m = shape.k
        for E in sp.irreps("C", n):
            for f1 in sp.irreps("C", m):
                for f2 in sp.irreps("C", n - m):
                    oracle = O.mult_c_restriction(
                        n, (E.first, E.second), m,
                        (f1.first, f1.second), (f2.first, f2.second))
                    ok &= sp.restriction_multiplicity(E, shape, f1, f2) == \
                        oracle
    for shape in sp.product_shapes("D", n):
        m = shape.k
        for E in sp.irreps("D", n):
            for f1 in sp.irreps("D", m):
                for f2 in sp.irreps("D", n - m):
                    oracle = O.mult_d_restriction(
                        n, (E.first, E.second, E.kappa), m,
                        (f1.first, f1.second, f1.kappa),
                        (f2.first, f2.second, f2.kappa))
                    ok &= sp.restriction_multiplicity(E, shape, f1, f2) == \
                        oracle
    _report(5, "restriction-multiplicity oracle equivalence, rank 3", ok)


def test_acceptance_6_marking_sweep():
    """Both parity subpartitions of the transpose land on the Achar dual,
    for every non-edge orbit at rank <= 6 per type."""
    ok = True
    for letter in P.LETTERS:
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
                ok &= du.sbar(mu, P.subtract(d, mu), letter) == target
                ok &= du.sbar(pi, P.subtract(d, pi), letter) == target
    _report(6, "marking sweep, rank <= 6", ok)


def test_acceptance_7_faithfulness(tmp_path):
    """Both faithfulness conditions for every orbit at rank <= 4 (and the
    rank-5 stretch), with a recorded witness file; dropping the sign twist
    must break condition (ii) somewhere at rank 3."""
    ok = True
    witness_lines = []
    for letter in P.LETTERS:
        for rank in range(1, 6):
            for report in F.verify_all(letter, rank):
                ok &= report.condition_i and report.condition_ii
                for e_label, f_label in report.witnesses:
                    ok &= f_label is not None
                    witness_lines.append(
                        f"{letter} {rank} {report.orbit}: {e_label} <- "
                        f"{f_label}")
    path = tmp_path / "witnesses.txt"
    path.write_text("\n".join(witness_lines) + "\n")
    ok &= path.stat().st_size > 0
    negative = 0
    for letter in P.LETTERS:
        for report in F.verify_all(letter, 3, apply_sgn_twist=False):
            if not report.condition_ii:
                negative += 1
    ok &= negative > 0
    _report(7, "faithfulness reproof, rank <= 5 with negative control", ok)


def _factor_support(rep):
    special = O.special_rep(sp.family_of(sp.sgn_twist(rep)))
    return bare(sp.springer_support(special, "group"))


def _oracle_mult(rep, shape, f1, f2):
    m = shape.k
    if rep.letter == "B":
        return O.mult_b_restriction(rep.rank, (rep.first, rep.second), m,
                                    (f1.first, f1.second, f1.kappa),
                                    (f2.first, f2.second))
    if rep.letter == "C":
        return O.mult_c_restriction(rep.rank, (rep.first, rep.second), m,
                                    (f1.first, f1.second),
                                    (f2.first, f2.second))
    return O.mult_d_restriction(rep.rank, (rep.first, rep.second, rep.kappa),
                                m, (f1.first, f1.second, f1.kappa),
                                (f2.first, f2.second, f2.kappa))


def test_acceptance_8_wavefront_rederivation():
    """The closed-form wavefront set equals the defining maximum over all
    maximal product shapes and constituents (through the character oracle),
    for every irreducible character at rank <= 4 per type."""
    ok = True
    for letter in P.LETTERS:
        for rank in range(1, 5):
            for rep in sp.irreps(letter, rank):
                closed = wf.wf_of_wrep(rep)
                values = []
                for shape in sp.product_shapes(letter, rank):
                    (y, x), (p, q) = shape.factor_letters, shape.factor_ranks
                    for f1 in sp.irreps(y, p):
                        for f2 in sp.irreps(x, q):
                            if _oracle_mult(rep, shape, f1, f2) == 0:
                                continue
                            values.append(du.sbar(_factor_support(f1),
                                                  _factor_support(f2),
                                                  letter))
                ok &= O.maximal_marked(values) == [closed]
    _report(8, "wavefront re-derivation, rank <= 4", ok)


def test_acceptance_9_exceptional_fidelity():
    """All sixteen shipped rows come back verbatim; the groups without
    exceptions always fall through to the default pair."""
    expected = {
        ("F4", "A_2"): ("11110", "B4", "7,1,1"),
        ("F4", "B_2"): ("11110", "B4", "5,3,1"),
        ("F4", "C_3(a_1)"): ("10111", "A1+C3", "2 x 4,2"),
        ("F4", "F_4(a_2)"): ("11110", "B4", "3,2,2,1,1"),
        ("E7", "A_3+A_2"): ("11111101", "D6+A1", "7,3,1,1 x 2"),
        ("E7", "E_7(a_4)"): ("11111101", "D6+A1", "3,3,2,2,1,1 x 2"),
        ("E8", "A_3+A_2"): ("101111111", "D8", "11,3,1,1"),
        ("E8", "D_4+A_2"): ("101111111", "D8", "7,7,1,1"),
        ("E8", "D_6(a_2)"): ("101111111", "D8", "7,5,3,1"),
        ("E8", "E_6(a_3)+A_1"): ("111111101", "E6+A2", "E6(a3) x 3"),
        ("E8", "E_7(a_5)"): ("111111110", "E7+A1", "E7(a5) x 2"),
        ("E8", "E_7(a_4)"): ("101111111", "D8", "7,3,2,2,1,1"),
        ("E8", "D_5+A_2"): ("101111111", "D8", "5,5,3,3"),
        ("E8", "E_8(b_6)"): ("111111101", "E6+A2", "D4(a1) x 3"),
        ("E8", "D_7(a_1)"): ("101111111", "D8", "4,4,3,3,1,1"),
        ("E8", "E_8(b_4)"): ("101111111", "D8", "3,3,2,2,2,2,1,1"),
    }
    ok = len(F.load_exceptional_table()) == 16
    for (group, label), (mask, factor, family) in expected.items():
        entry = F.exceptional_lookup(group, label)
        ok &= entry != F.USE_DEFAULT and entry.node_mask == mask and \
            entry.factor_type == factor and entry.family_orbit == family
    for group, label in (("G2", "G_2(a_1)"), ("G2", "0"), ("E6", "E_6(a_3)"),
                         ("E6", "D_4")):
        ok &= F.exceptional_lookup(group, label) == F.USE_DEFAULT
    ok &= F.exceptional_lookup("F4", "F_4(a_3)") == F.USE_DEFAULT
    _report(9, "exceptional table fidelity", ok)
