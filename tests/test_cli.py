import json
import time

import pytest

from quivercount.cli import ParseError, load_quiver, main, parse_quiver


def test_parse_quiver_examples():
    q = parse_quiver("vertices 2\nedge 1 2\n")
    assert q.n == 2 and q.arrows() == ((1, 1, 2),)
    q = parse_quiver("vertices 1\nedge 1 1\n")
    assert q.arrows() == ((1, 1, 1),)
    q = parse_quiver("vertices 3\nedge 1 2\nedge 2 3\nedge 3 1\n")
    assert q.n == 3 and len(q.arrows()) == 3
    q = parse_quiver("# a comment\n\nvertices 2\nedge 2 1  # reversed\n")
    assert q.arrows() == ((1, 2, 1),)


def test_parse_quiver_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_quiver("edge 1 2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_quiver("vertices 2\nedge 1 5\n")
    with pytest.raises(ParseError, match="unknown directive"):
        parse_quiver("vertices 2\narc 1 2\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_quiver("vertices 2\nvertices 3\n")
    with pytest.raises(ParseError):
        parse_quiver("")
    with pytest.raises(ParseError, match="line 2: .*N >= 1"):
        parse_quiver("# empty\nvertices 0\n")


def test_round_trip():
    text = "vertices 3\nedge 1 2\nedge 2 3\nedge 3 1\n"
    q = parse_quiver(text)
    # the quiver gives back the text's lines, arrow ids in line order
    assert q.arrows() == ((1, 1, 2), (2, 2, 3), (3, 3, 1))
    lines = ["vertices %d" % q.n] + ["edge %d %d" % (s, t) for _, s, t in q.arrows()]
    assert lines == text.splitlines()


def test_builtin_quivers():
    assert load_quiver("builtin:C3").n == 3
    assert load_quiver("builtin:A3").arrows() == ((1, 1, 2), (2, 2, 3))
    assert load_quiver("builtin:Sm:2").arrows() == ((1, 1, 1), (2, 1, 1))
    with pytest.raises(ParseError):
        load_quiver("builtin:D4")


def test_poly_verbs(capsys):
    assert main(["poly", "--quiver", "builtin:C3", "-d", "2"]) == 0
    assert capsys.readouterr().out.strip() == "q^2 + 6*q + 5"
    assert main(["rdpoly", "--quiver", "builtin:C3", "-d", "2"]) == 0
    assert capsys.readouterr().out.strip() == "q + 7"
    assert main(["poly", "--quiver", "builtin:C3", "-d", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"2": "1", "1": "6", "0": "5"}


def test_genfun_and_series_verbs(capsys):
    assert main(["genfun", "--quiver", "builtin:C2", "--which", "R"]) == 0
    assert capsys.readouterr().out.strip() == "(T^2 + T) / (1-T)^2*(1-q*T)"
    assert main(["series", "--quiver", "builtin:C2", "--which", "R",
                 "--order", "2", "--format", "json"]) == 0
    coeffs = json.loads(capsys.readouterr().out)
    assert coeffs == [{}, {"0": "1"}, {"1": "1", "0": "3"}]


# genfun --which R --format json as the pairwise-reducing sum printed it; reducing
# once over the common denominator must give the same bytes
R_JSON = {
    "builtin:C3": '{"den": {"0,0": "1", "0,1": "-3", "0,2": "3", "0,3": "-1", "1,1": "-1", '
                  '"1,2": "3", "1,3": "-3", "1,4": "1"}, "num": {"0,1": "1", "0,2": "4", '
                  '"0,3": "1"}}',
    "builtin:C5": '{"den": {"0,0": "1", "0,1": "-5", "0,2": "10", "0,3": "-10", "0,4": "5", '
                  '"0,5": "-1", "1,1": "-1", "1,2": "5", "1,3": "-10", "1,4": "10", '
                  '"1,5": "-5", "1,6": "1"}, "num": {"0,1": "1", "0,2": "26", "0,3": "66", '
                  '"0,4": "26", "0,5": "1"}}',
    "builtin:Sm:3": '{"den": {"0,0": "1", "0,1": "-1", "1,1": "-1", "1,2": "1", "2,1": "-1", '
                    '"2,2": "1", "3,1": "-1", "3,2": "2", "3,3": "-1", "4,2": "1", '
                    '"4,3": "-1", "5,2": "1", "5,3": "-1", "6,3": "-1", "6,4": "1"}, '
                    '"num": {"0,1": "1", "1,2": "2", "2,2": "2", "3,3": "1"}}',
}


@pytest.mark.parametrize("quiver", sorted(R_JSON))
def test_genfun_r_json_is_byte_identical(capsys, quiver):
    assert main(["genfun", "--quiver", quiver, "--which", "R", "--format", "json"]) == 0
    assert capsys.readouterr().out == R_JSON[quiver] + "\n"


def test_series_rejects_a_negative_order(capsys):
    assert main(["series", "--quiver", "builtin:C3", "--which", "R", "--order", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "order" in captured.err


def test_count_verbs(capsys):
    args = ["brute-m", "--quiver", "builtin:A2", "--ring", "kd(fq(2),2)", "--rank", "1,1"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "3"
    args = ["brute-a", "--quiver", "builtin:A3", "--ring", "kd(fq(2,2),2)",
            "--rank", "1,1,1", "--format", "json"]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out) == {"count": "4"}
    args = ["brute-preproj-m", "--quiver", "builtin:A2", "--ring", "fq(2)", "--rank", "1,1"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "3"
    args = ["fourier", "--quiver", "builtin:A2", "--ring", "fq(2)", "--rank", "1,1"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "3"
    # the 399 similarity classes of M_3(F_7), from canonical forms
    args = ["brute-m", "--quiver", "builtin:Sm:1", "--ring", "fq(7)", "--rank", "3"]
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == "399"


def test_qeulerian_and_counterexample(capsys):
    assert main(["qeulerian", "--m", "2"]) == 0
    assert capsys.readouterr().out.strip() == "q*T + 1"
    assert main(["counterexample", "--n", "2", "--q", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"A": "15", "B": "18", "difference": "3"}


def test_counterexample_guard_trips_before_the_orbit_loop(capsys):
    # one rank per F_2-line of the maximal ideal of sqz(F_2, 12)[eps]:
    # 2^25 - 1, above the default guard
    start = time.perf_counter()
    assert main(["counterexample", "--n", "12", "--q", "2"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "guard exceeded" in err and "%d line ranks" % (2 ** 25 - 1) in err


def test_exit_codes(capsys, monkeypatch, tmp_path):
    # parse error -> 2
    assert main(["brute-m", "--quiver", "builtin:A2", "--ring", "fq(4)", "--rank", "1,1"]) == 2
    capsys.readouterr()
    assert main(["poly", "--quiver", "builtin:Q9", "-d", "1"]) == 2
    capsys.readouterr()
    empty = tmp_path / "empty.quiver"
    empty.write_text("vertices 0\n")
    for verb, *rest in (["poly", "-d", "2"], ["rdpoly", "-d", "3"], ["tutte"], ["genfun"],
                        ["series", "--order", "2"]):
        assert main([verb, "--quiver", str(empty)] + rest) == 2
        assert "line 1" in capsys.readouterr().err
    assert main(["brute-m", "--quiver", "builtin:A2", "--ring", "kd(fq(2),2)",
                 "--rank", "1,2"]) == 0
    capsys.readouterr()
    # guard exceeded -> 3
    assert main(["brute-m", "--quiver", "builtin:A3", "--ring", "kd(fq(2),3)",
                 "--rank", "2,2,2", "--guard", "100"]) == 3
    capsys.readouterr()
    # an explicit zero guard is a guard, not "unset"
    assert main(["brute-m", "--quiver", "builtin:A2", "--ring", "fq(3)",
                 "--rank", "1,1", "--guard", "0"]) == 3
    capsys.readouterr()
    # a negative guard is a usage error from argparse, not a guard trip
    with pytest.raises(SystemExit) as err:
        main(["brute-m", "--quiver", "builtin:A2", "--ring", "fq(2)",
              "--rank", "1,1", "--guard", "-1"])
    assert err.value.code == 2
    assert "--guard" in capsys.readouterr().err
    # --guard also bounds the GL classes: GL_2(F_2) has 3 of them
    assert main(["brute-m", "--quiver", "builtin:A2", "--ring", "fq(2)",
                 "--rank", "2,1", "--guard", "2"]) == 3
    assert "GL_2 over fq(2): 3 classes" in capsys.readouterr().err
    # fourier takes the same one guard: 2 x 2 arrow solves over the classes of M_1
    fourier = ["fourier", "--quiver", "builtin:A2", "--ring", "fq(2)", "--rank", "1,1"]
    assert main(fourier + ["--guard", "3"]) == 3
    assert "4 arrow solves" in capsys.readouterr().err
    assert main(fourier + ["--guard", "4"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    # the Fourier identity needs a Frobenius ring: any other is a usage error
    assert main(["fourier", "--quiver", "builtin:A2", "--ring", "sqz(fq(2),2)",
                 "--rank", "2,1"]) == 2
    assert capsys.readouterr().err == \
        "error: the Fourier identity needs a Frobenius ring; sqz(fq(2),2) is not\n"
    # a failed internal consistency check -> 4, one line on stderr
    from quivercount import cli

    def broken(*args, **kwargs):
        raise AssertionError("group average is not a count")

    monkeypatch.setattr(cli, "m_count", broken)
    assert main(["brute-m", "--quiver", "builtin:A2", "--ring", "fq(3)", "--rank", "1,1"]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: AssertionError: group average is not a count\n"

    def inexact(m):
        raise ArithmeticError("(T)_{m+1} did not clear the denominator")

    monkeypatch.setattr(cli, "q_eulerian", inexact)
    assert main(["qeulerian", "--m", "3"]) == 4
    assert capsys.readouterr().err.startswith("internal error: ArithmeticError")
    # a character sum that is not a rational integer: i in Z[zeta_4]
    from quivercount import repenum

    monkeypatch.setattr(repenum, "_burnside", lambda *args, **kwargs: ([0, 1, 0, 0], 1))
    assert main(["brute-a", "--quiver", "builtin:A2", "--ring", "fq(5)", "--rank", "2,2"]) == 4
    assert capsys.readouterr().err.startswith("internal error: ArithmeticError")
    # usage error from argparse -> SystemExit(2)
    with pytest.raises(SystemExit) as err:
        main(["poly", "--quiver", "builtin:C3"])
    assert err.value.code == 2


def test_verify_verb(capsys):
    assert main(["verify", "fourier"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


# The 57 labels `verify all` prints, in order: a check renamed, dropped or
# reordered changes this transcript.
VERIFY_ALL_LABELS = [
    "inversion identity, A form, all connected graphs <= 4 edges",
    "inversion identity, R form, all connected graphs <= 4 edges",
    "cycle inversion sign (-1)^n, n = 2..5",
    "one-step recursion for R, all connected graphs <= 4 edges",
    "R_(d+1) equals psi(q^d) * R_d, d <= 4",
    "R_d as an iterated psi convolution, d <= 4",
    "signed psi is the convolution inverse of psi",
    "(1 * 1)(Gamma) counts the 2^#E edge subsets",
    "binomial series identity for loop bouquets, m <= 4",
    "A_1 equals the Tutte polynomial at (1, q)",
    "R_2 equals the Tutte polynomial at (2, q+1)",
    "deletion-contraction defect of the double edge",
    "defect series: T^2 coefficient vanishes",
    "defect series: T^3 coefficient is 2q + 1",
    "defect series: T^4 coefficient is 2q^2 + 4q + 2",
    "class counts agree across all orientations (three quivers, four rings)",
    "absolutely indecomposable counts agree across orientations",
    "preprojective class count equals the dual-number count (5 cases)",
    "A2 over F_3: absolutely indecomposable sides agree and equal 2",
    "A3 over F_4: absolutely indecomposable sides agree and equal 4",
    "A2 over F_2: zero fiber has 3 points",
    "A2 over k_2(F_2): zero fiber has 8 points",
    "Jordan loop over F_2: zero fiber is everything (4)",
    "Jordan loop over F_3: zero fiber is everything (9)",
    "A_2 of the triangle is q^2 + 6q + 5",
    "cycle closed form matches the subgraph sum, n <= 5, d <= 4",
    "double edge: A_d = q^d + 2q^(d-1) + ... + 2q + 1, d <= 6",
    "loop bouquets: A_d = q^(dm), m <= 3, d <= 4",
    "series table: all six R rows",
    "series table: all six A rows",
    "A(triangle) = ((2q+1)T^2 + (q+2)T) / ((1-T)^2 (1-qT))",
    "cycle numerator table, n = 2..6",
    "q-Eulerian numerators F_1..F_4",
    "T^2 coefficient of A(triangle) is q^2 + 6q + 5",
    "T^2 coefficient of R(double edge) is q + 3",
    "coefficients of 1/(1-T) are all 1",
    "all seven depth-type rows for the triangle at d = 2",
    "row multiplicities resum to q^2 + 6q + 5",
    "stabilizer of the all-units point at q = 2 is q(q-1) = 2",
    "stabilizer of the all-t point at q = 2 is q^3(q-1) = 8",
    "A2 over k_d(F_3): d classes of rank (1,1), d = 1..3",
    "A3 over k_2(F_4): 4 classes of rank (1,1,1)",
    "A3 over k_2(F_7): 4 classes of rank (1,1,1)",
    "A3 over k_2(F_3): 2 classes of rank (1,1,0)",
    "defect formula at (n, q) in {1,2} x {2,3}",
    "(n, q) = (2, 2) gives (15, 18)",
    "A_d degree d*b1, leading coefficient d^bridges (monic when bridgeless)",
    "A_d at q = 1 counts spanning trees times d^(n-1)",
    "R_d non-negative, degree (d-1)*b1, leading coefficient d^bridges",
    "R numerator T-degree below denominator T-degree",
    "orbit partition matches A_d at q for six quivers, three (q, d)",
    "triangle over k_2(F_2) has 21 classes",
    "truncated rings k_d(F_2), d <= 3, admit a non-degenerate form",
    "dual numbers F_2[eps] admit a non-degenerate form",
    "k_2(F_2)[eps] admits a non-degenerate form",
    "square-zero ring with 2 generators admits none",
    "square-zero ring with 3 generators admits none",
]


def test_verify_all_transcript(capsys):
    assert main(["verify", "all"]) == 0
    expected = ["PASS  " + label for label in VERIFY_ALL_LABELS] + ["57 checks, 0 failed"]
    assert capsys.readouterr().out.splitlines() == expected


def test_genfun_a_guard_trips_before_any_table(capsys):
    # A(C16) needs 30 * 16 * 2^16 transform steps, above the default guard
    start = time.perf_counter()
    assert main(["genfun", "--quiver", "builtin:C16", "--which", "A"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "guard exceeded" in err and str(30 * 16 << 16) in err


def test_genfun_r_guard_trips_before_any_filtration(capsys):
    # R(C12) sums Fubini(12) strict filtrations, above the default guard
    start = time.perf_counter()
    assert main(["genfun", "--quiver", "builtin:C12", "--which", "R"]) == 3
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "guard exceeded" in err and "28091567595" in err
