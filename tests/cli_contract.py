"""The command line's contract: for each argument list, the exact exit
code, standard output and standard error of ``nilorbits``.

``tests/test_cli.py`` runs every row in process through ``cli.run`` and
parses each structured line back through ``object_of``;

    python tests/cli_contract.py

runs every row through the ``nilorbits`` console script on PATH, prints
each mismatch and exits 1 if there is one.  A new verb or record kind adds
rows here.  Calls that need an environment variable, a file or a closed
output stream are tested in ``tests/test_cli.py`` instead.
"""

import shlex
import subprocess
import sys

CONTRACT = (
    # one answer per verb, as text
    (("collapse", "-t", "C", "3,1"), 0, "2^2\n", ""),
    (("dual", "-t", "B", "3,1,1"), 0, "2^2\n", ""),
    (("special", "-t", "B", "2,2,1"), 0, "false\n", ""),
    (("markable", "-t", "B", "3,1,1"), 0, "3,1\n", ""),
    (("reduce", "-t", "B", "3,1,1", "1"), 0, "1\n", ""),
    (("reduce", "-t", "B", "3,1,1", "3,1"), 0, "3,1\n", ""),
    (("springer", "-t", "B", "3,1,1"), 0, "0 2\n 1\ncharacter (1;1)\n", ""),
    (("family", "-t", "B", "1;1", "--members"), 0,
     "family (0,2;1)  members: (-;2) (1;1) (1^2;-)\n", ""),
    (("jinduce", "-t", "B", "-k", "0", "-n", "2", "--", "-;-", "2;-"), 0,
     "(2;-)\n", ""),
    (("restrict-mult", "-t", "C", "-k", "1", "-n", "3", "2;1", "1;-",
      "1;1"), 0,
     "1\n", ""),
    (("sbar", "-t", "C", "2,2", "2"), 0, "2^3 | -\n", ""),
    (("ds", "-t", "B", "-", "3,1,1"), 0, "2^2\n", ""),
    (("da", "-t", "C", "3,1,1"), 0, "2^2 | -\n", ""),
    (("lea", "-t", "C", "2,2|-", "2,2|-"), 0, "true\n", ""),
    (("wf", "-t", "C", "--az-dual-orbit", "5"), 0, "1^4 | -\n", ""),
    (("wf-wrep", "-t", "B", "1;1"), 0, "3,1^2 | -\n", ""),
    (("faithful", "-t", "C", "3,3,1"), 0,
     "[C2 x C1] families ((0,2;1), (1;)) over (2^2 ; 2) "
     "(general-construction)\n", ""),
    (("exceptional", "F4", "A_2"), 0,
     "F4 A_2: nodes 11110 type B4, family orbit 7,1,1\n", ""),
    (("exceptional", "E6", "A_2"), 0, "use-default\n", ""),
    (("enumerate", "-t", "D", "-n", "2"), 0, "3,1\n2^2:0\n2^2:1\n1^4\n", ""),
    # a leading ~ names the same short-root class as a trailing one
    (("exceptional", "F4", "~A_1"), 0, "use-default\n", ""),
    # structured records
    (("dual", "-t", "B", "--mode", "structured", "3,1,1"), 0,
     '{"kind": "partition", "parts": [2, 2]}\n', ""),
    (("da", "-t", "B", "--mode", "structured", "6,1,1"), 0,
     '{"decoration_undetermined": false, "kind": "marked_orbit", "letter": '
     '"B", "marking": [3, 1], "orbit": [3, 1, 1, 1, 1, 1, 1]}\n', ""),
    # the wavefront set of a character, through its one-pass class key; a
    # degenerate type-D character lands on a very even orbit
    (("wf-wrep", "-t", "B", "--mode", "structured", "1;1"), 0,
     '{"decoration_undetermined": false, "kind": "marked_orbit", "letter": '
     '"B", "marking": [], "orbit": [3, 1, 1]}\n', ""),
    (("wf-wrep", "-t", "D", "--mode", "structured", "2;2:1"), 0,
     '{"decoration_undetermined": true, "kind": "marked_orbit", "letter": '
     '"D", "marking": [], "orbit": [2, 2, 2, 2]}\n', ""),
    # c^{321}_{21,21} = 2: a general coefficient, from the bounded search
    # rather than a closed form
    (("restrict-mult", "-t", "C", "-n", "6", "-k", "3", "--mode", "structured",
      "3,2,1;-", "2,1;-", "2,1;-"), 0,
     '{"kind": "int", "value": 2}\n', ""),
    # a very even type-D orbit keeps its decoration on the symbol
    (("springer", "-t", "D", "--mode", "structured", "2,2:1"), 0,
     '{"decoration": 1, "defect": 0, "kind": "decorated_symbol", '
     '"row_kind": "a", "rows": [[1], [1]]}\n', ""),
    # the full diagram is the pair ((), Achar dual) on node 0; the very even
    # type-D orbit carries its decoration onto the dual family
    (("faithful", "-t", "C", "--mode", "structured", "3,2,2"), 0,
     '{"families": [{"decoration": 0, "kind": "family", "letter": "C", '
     '"rank": 0, "rows": [[0], []]}, {"decoration": 0, "kind": "family", '
     '"letter": "C", "rank": 3, "rows": [[0, 2], [2]]}], "kind": '
     '"faithful_pair", "letter": "C", "node": 0, "orbit_pair": [[], [3, '
     '3]], "provenance": "unique-representation", "rank": 3}\n', ""),
    (("faithful", "-t", "D", "--mode", "structured", "2,2:1"), 0,
     '{"families": [{"decoration": 0, "kind": "family", "letter": "D", '
     '"rank": 0, "rows": [[], []]}, {"decoration": 1, "kind": "family", '
     '"letter": "D", "rank": 2, "rows": [[1], [1]]}], "kind": '
     '"faithful_pair", "letter": "D", "node": 0, "orbit_pair": [[], [2, '
     '2]], "provenance": "unique-representation", "rank": 2}\n', ""),
    # a family's members, dealt by the checked path the witness pools use
    (("family", "-t", "B", "--members", "1;1"), 0,
     "family (0,2;1)  members: (-;2) (1;1) (1^2;-)\n", ""),
    # truncated induction on rows: the shriek path of type B, a type-C sum,
    # equal type-D rows (decoration 0), and a non-special factor, refused with
    # exit code 2
    (("jinduce", "-t", "B", "-k", "2", "-n", "3", "--mode", "structured", "--",
      "2;-", "1;-"), 0,
     '{"decoration": 0, "first": [3], "kind": "irrep", "letter": "B", '
     '"rank": 3, "second": []}\n', ""),
    (("jinduce", "-t", "C", "-k", "1", "-n", "3", "--mode", "structured", "--",
      "1;-", "1;1"), 0,
     '{"decoration": 0, "first": [2], "kind": "irrep", "letter": "C", '
     '"rank": 3, "second": [1]}\n', ""),
    (("jinduce", "-t", "D", "-k", "0", "-n", "2", "--mode", "structured", "--",
      "-;-", "1;1:1"), 0,
     '{"decoration": 0, "first": [1], "kind": "irrep", "letter": "D", '
     '"rank": 2, "second": [1]}\n', ""),
    (("jinduce", "-t", "C", "-k", "0", "-n", "2", "--", "-;-", "-;2"), 2, "",
     "precondition violated: truncated induction through symbol addition "
     "needs special factors, got (-;-) and (-;2)\n"),
    # Achar's order on two marked orbits, both ways
    (("lea", "-t", "B", "--mode", "structured", "3,1,1|3,1", "5|-"), 0,
     '{"kind": "bool", "value": true}\n', ""),
    (("lea", "-t", "B", "--mode", "structured", "5|-", "3,1,1|3,1"), 0,
     '{"kind": "bool", "value": false}\n', ""),
    # verification: a product shape over a two-member dual fibre; the full
    # diagram over an edge-case orbit with a two-member fibre, where each
    # member's witness is its twist's family, and with no twist no member finds
    # one, so the check exits 1
    (("verify-faithful", "-t", "B", "2,1,1", "--mode", "structured"), 0,
     '{"condition_i": true, "condition_ii": true, "kind": '
     '"faithfulness_report", "letter": "B", "orbit": "2,1^2", "witnesses": '
     '[["(1^2;-)", "{1^2;-} x (-;-)"]]}\n', ""),
    (("verify-faithful", "-t", "C", "--mode", "structured", "3,3,1"), 0,
     '{"condition_i": true, "condition_ii": true, "kind": '
     '"faithfulness_report", "letter": "C", "orbit": "3^2,1", "witnesses": '
     '[["(-;3)", "(-;2) x (-;1)"], ["(1;2)", "(1;1) x (-;1)"]]}\n', ""),
    (("verify-faithful", "-t", "B", "--mode", "structured", "4,2"), 0,
     '{"condition_i": true, "condition_ii": true, "kind": '
     '"faithfulness_report", "letter": "B", "orbit": "4,2", "witnesses": '
     '[["(-;3)", "{-;-} x (-;3)"], ["(2;1)", "{-;-} x (2;1)"]]}\n', ""),
    (("verify-faithful", "-t", "B", "--no-twist", "4,2"), 1,
     "B 4,2: condition-i=true condition-ii=false [FAIL] [full diagram] "
     "families ((;), (0,1,3;1,2)) over (- ; 3,1^4) (edge-case)\n"
     "    (-;3) <- NO WITNESS\n"
     "    (2;1) <- NO WITNESS\n", ""),
    # the exit-code contract: 0 when every orbit verifies, 1 when one fails, as
    # the untwisted type-C check does at rank 3
    (("verify-faithful", "-t", "B", "-n", "4"), 0,
     "B 8: condition-i=true condition-ii=true [ok] [full diagram] families "
     "((;), (0,1,2,3,4;1,2,3,4)) over (- ; 1^9) (edge-case)\n"
     "    (4;-) <- {-;-} x (4;-)\n"
     "B 6,2: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((;), (0,1,2,4;1,2,3)) over (- ; 3,1^6) (edge-case)\n"
     "    (-;4) <- {-;-} x (-;4)\n"
     "    (3;1) <- {-;-} x (3;1)\n"
     "B 6,1^2: condition-i=true condition-ii=true [ok] [D2 x B2] families "
     "((2;0), (0,1,2;1,2)) over (3,1 ; 1^5) (general-construction)\n"
     "    (3,1;-) <- {1^2;-} x (2;-)\n"
     "B 4^2: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((;), (0,2,3;1,2)) over (- ; 3,2^2,1^2) "
     "(general-construction)\n"
     "    (1;3) <- {-;-} x (1;3)\n"
     "    (2;2) <- {-;-} x (2;2)\n"
     "B 4,2^2: condition-i=true condition-ii=true [ok] [D4 x B0] families "
     "((1,3;0,2), (0;)) over (3^2,1^2 ; 1) (general-construction)\n"
     "    (2,1;1) <- {2,1;1} x (-;-)\n"
     "    (2^2;-) <- {2^2;-} x (-;-)\n"
     "B 4,2,1^2: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((;), (0,1,4;1,2)) over (- ; 5,1^4) (edge-case)\n"
     "    (-;3,1) <- {-;-} x (-;3,1)\n"
     "    (2;1^2) <- {-;-} x (2;1^2)\n"
     "B 4,1^4: condition-i=true condition-ii=true [ok] [D3 x B1] families "
     "((3;0), (0,1;1)) over (5,1 ; 1^3) (general-construction)\n"
     "    (2,1^2;-) <- {1^3;-} x (1;-)\n"
     "B 3^2,2: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((;), (1,2;2)) over (- ; 3^3) (unique-representation)\n"
     "    (1^2;2) <- {-;-} x (1^2;2)\n"
     "B 3^2,1^2: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((;), (1,3;1)) over (- ; 5,2^2) (unique-representation)\n"
     "    (1;2,1) <- {-;-} x (1;2,1)\n"
     "B 2^4: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((;), (0,3;2)) over (- ; 5,3,1) (general-construction)\n"
     "    (-;2^2) <- {-;-} x (-;2^2)\n"
     "    (1^2;1^2) <- {-;-} x (1^2;1^2)\n"
     "B 2^3,1^2: condition-i=true condition-ii=true [ok] [D4 x B0] families "
     "((3;1), (0;)) over (5,3 ; 1) (general-construction)\n"
     "    (1^3;1) <- {1^3;1} x (-;-)\n"
     "B 2^2,1^4: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((;), (0,4;1)) over (- ; 7,1^2) (general-construction)\n"
     "    (-;2,1^2) <- {-;-} x (-;2,1^2)\n"
     "    (1;1^3) <- {-;-} x (1;1^3)\n"
     "B 2,1^6: condition-i=true condition-ii=true [ok] [D4 x B0] families "
     "((4;0), (0;)) over (7,1 ; 1) (general-construction)\n"
     "    (1^4;-) <- {1^4;-} x (-;-)\n"
     "B 1^8: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((;), (4;)) over (- ; 9) (unique-representation)\n"
     "    (-;1^4) <- {-;-} x (-;1^4)\n", ""),
    (("verify-faithful", "-t", "C", "-n", "3"), 0,
     "C 7: condition-i=true condition-ii=true [ok] [full diagram] families "
     "((0;), (0,1,2,3;1,2,3)) over (- ; 1^6) (unique-representation)\n"
     "    (3;-) <- (-;-) x (3;-)\n"
     "C 5,1^2: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((0;), (0,1,3;1,2)) over (- ; 2^2,1^2) "
     "(general-construction)\n"
     "    (2;1) <- (-;-) x (2;1)\n"
     "    (2,1;-) <- (-;-) x (2,1;-)\n"
     "C 3^2,1: condition-i=true condition-ii=true [ok] [C2 x C1] families "
     "((0,2;1), (1;)) over (2^2 ; 2) (general-construction)\n"
     "    (-;3) <- (-;2) x (-;1)\n"
     "    (1;2) <- (1;1) x (-;1)\n"
     "C 3,2^2: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((0;), (0,2;2)) over (- ; 3^2) (unique-representation)\n"
     "    (1^2;1) <- (-;-) x (1^2;1)\n"
     "C 3,1^4: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((0;), (0,3;1)) over (- ; 4,2) (general-construction)\n"
     "    (1;1^2) <- (-;-) x (1;1^2)\n"
     "    (1^3;-) <- (-;-) x (1^3;-)\n"
     "C 2^2,1^3: condition-i=true condition-ii=true [ok] [C1 x C2] families "
     "((1;), (2;)) over (2 ; 4) (general-construction)\n"
     "    (-;2,1) <- (-;1) x (-;1^2)\n"
     "C 1^7: condition-i=true condition-ii=true [ok] [full diagram] "
     "families ((0;), (3;)) over (- ; 6) (unique-representation)\n"
     "    (-;1^3) <- (-;-) x (-;1^3)\n", ""),
    (("verify-faithful", "-t", "C", "-n", "3", "--no-twist"), 1,
     "C 7: condition-i=true condition-ii=false [FAIL] [full diagram] "
     "families ((0;), (0,1,2,3;1,2,3)) over (- ; 1^6) "
     "(unique-representation)\n"
     "    (3;-) <- NO WITNESS\n"
     "C 5,1^2: condition-i=true condition-ii=false [FAIL] [full diagram] "
     "families ((0;), (0,1,3;1,2)) over (- ; 2^2,1^2) "
     "(general-construction)\n"
     "    (2;1) <- NO WITNESS\n"
     "    (2,1;-) <- NO WITNESS\n"
     "C 3^2,1: condition-i=true condition-ii=false [FAIL] [C2 x C1] "
     "families ((0,2;1), (1;)) over (2^2 ; 2) (general-construction)\n"
     "    (-;3) <- NO WITNESS\n"
     "    (1;2) <- (-;2) x (1;-)\n"
     "C 3,2^2: condition-i=true condition-ii=false [FAIL] [full diagram] "
     "families ((0;), (0,2;2)) over (- ; 3^2) (unique-representation)\n"
     "    (1^2;1) <- NO WITNESS\n"
     "C 3,1^4: condition-i=true condition-ii=false [FAIL] [full diagram] "
     "families ((0;), (0,3;1)) over (- ; 4,2) (general-construction)\n"
     "    (1;1^2) <- NO WITNESS\n"
     "    (1^3;-) <- NO WITNESS\n"
     "C 2^2,1^3: condition-i=true condition-ii=false [FAIL] [C1 x C2] "
     "families ((1;), (2;)) over (2 ; 4) (general-construction)\n"
     "    (-;2,1) <- NO WITNESS\n"
     "C 1^7: condition-i=true condition-ii=false [FAIL] [full diagram] "
     "families ((0;), (3;)) over (- ; 6) (unique-representation)\n"
     "    (-;1^3) <- NO WITNESS\n", ""),
    # violated preconditions exit 2 with one line
    (("dual", "-t", "B", "3,2"), 2, "",
     "precondition violated: 3,2 is not a B-partition\n"),
    (("faithful", "-t", "B", "3,1"), 2, "",
     "precondition violated: 3,1 is not a C-partition\n"),
    (("enumerate", "-t", "B", "-n", "-3"), 2, "",
     "precondition violated: rank must be non-negative, got -3\n"),
    (("verify-faithful", "-t", "C", "-n", "-3"), 2, "",
     "precondition violated: rank must be non-negative, got -3\n"),
    (("sbar", "-t", "C", "2", "1"), 2, "",
     "precondition violated: second factor total 1 has the wrong parity for "
     "type C\n"),
    (("ds", "-t", "C", "1,1", "1"), 2, "",
     "precondition violated: second factor total 1 has the wrong parity for "
     "type C\n"),
    # a marking with no lift; orbits of unequal totals, refused by dominance on
    # the cold path; a marking that is not its own reduction, by the
    # constructor; a marking outside its orbit, refused by lea with the message
    # of reduce
    (("lea", "-t", "B", "1,1,1|1", "1,1,1|1"), 2, "",
     "precondition violated: no pseudo-Levi pair realizes (1, 1, 1) | (1,)\n"),
    (("lea", "-t", "B", "5|-", "7|-"), 2, "",
     "precondition violated: dominance compares equal totals, got 5 != 7\n"),
    (("lea", "-t", "B", "3,1,1|1,1", "5|-"), 2, "",
     "precondition violated: marking 1^2 is not reduced on 3,1^2 (its "
     "reduction is -)\n"),
    (("lea", "-t", "B", "3,1,1|5", "3,1,1|-"), 2, "",
     "precondition violated: 5 is not a subpartition of 3,1^2\n"),
    (("reduce", "-t", "B", "3,1,1", "5"), 2, "",
     "precondition violated: 5 is not a subpartition of 3,1^2\n"),
    (("reduce", "-t", "B", "3,1,1", "99999999999999999999"), 2, "",
     "precondition violated: 99999999999999999999 is not a subpartition of "
     "3,1^2\n"),
    # a part or exponent too large for a list index
    (("dual", "-t", "B", "1^10000000000000000000"), 2, "",
     "precondition violated: the input is too large for this computation\n"),
    (("dual", "-t", "B", "--", "99999999999999999999999"), 2, "",
     "precondition violated: the input is too large for this computation\n"),
    # malformed arguments exit 64
    (("dual", "-t", "B", "3,x"), 64, "",
     "usage error: cannot parse partition token 'x'\n"),
    (("dual", "-t", "D", "2,2:2"), 64, "",
     "usage error: decoration must be :0 or :1, got :2\n"),
    (("lea", "-t", "B", "3,1,1", "3,1,1"), 64, "",
     "usage error: a marked orbit is written orbit|marking, got '3,1,1'\n"),
    # an unknown verb, refused with the list of every verb
    (("frobnicate",), 64, "",
     "usage error: argument verb: invalid choice: 'frobnicate' (choose from "
     "'collapse', 'dual', 'special', 'markable', 'reduce', 'springer', "
     "'family', 'jinduce', 'restrict-mult', 'sbar', 'ds', 'da', 'lea', "
     "'wf', 'wf-wrep', 'faithful', 'verify-faithful', 'exceptional', "
     "'enumerate')\n"),
)



def main() -> int:
    """Run every row through the console script; print each field that
    differs, with the row's command line, and return 1 if any does."""
    wrong = 0
    for argv, *expected in CONTRACT:
        proc = subprocess.run(["nilorbits", *argv], capture_output=True,
                              text=True, timeout=300)
        got = (proc.returncode, proc.stdout, proc.stderr)
        for field, want, have in zip(("exit code", "stdout", "stderr"),
                                     expected, got):
            if want != have:
                wrong += 1
                print(f"nilorbits {shlex.join(argv)}: {field} expected "
                      f"{want!r}, got {have!r}")
    print(f"{len(CONTRACT)} rows, {wrong} mismatched fields")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
