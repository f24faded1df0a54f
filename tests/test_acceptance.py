"""Acceptance suite: one test per criterion, each asserting the exact
values (zero tolerance) and printing a pass line.

Run `pytest tests/test_acceptance.py -v` for the per-criterion verdicts.
"""

from quivercount import verify
from quivercount.finite_algebra import make_prime_field, make_truncated
from quivercount.multigraph import Multigraph, Quiver
from quivercount.polynomials import QPoly
from quivercount.repenum import toric_ai_orbit_count
from quivercount.toric import a_d_polynomial, r_d_polynomial


def _require(checks):
    failed = [label for label, ok in checks if not ok]
    assert not failed, "failed checks: " + "; ".join(failed)


def test_criterion_01_exact_polynomial_identities():
    _require(verify.check_polynomial_identities())
    print("PASS criterion 1: exact count-polynomial identities")


def test_criterion_02_generating_function_tables():
    _require(verify.check_genfun_tables())
    print("PASS criterion 2: generating-function tables")


def test_criterion_03_duality():
    _require(verify.check_duality_battery())
    print("PASS criterion 3: inversion identity on all small connected multigraphs")


def test_criterion_04_convolution_calculus():
    _require(verify.check_hopf())
    _require(verify.check_recursion_battery())
    print("PASS criterion 4: convolution recursions and inverses")


def test_criterion_05_tutte_specializations():
    _require(verify.check_tutte())
    print("PASS criterion 5: Tutte specializations and the defect series")


def test_criterion_06_structural_properties():
    _require(verify.check_structural())
    # Blanket monicity is untenable: a pendant bridge doubles the leading
    # coefficient at d = 2, as forced by R_2 = T(2, q+1) and confirmed by
    # the independent orbit partition below.
    g = Multigraph(4, [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 3, 4)])
    assert r_d_polynomial(g, 2) == g.tutte().evaluate(2, QPoly.q() + 1) == QPoly({1: 2, 0: 14})
    assert a_d_polynomial(g, 2) == QPoly({2: 2, 1: 12, 0: 10})
    quiver = Quiver(g, {1: (1, 2), 2: (2, 3), 3: (3, 1), 4: (3, 4)})
    ring = make_truncated(make_prime_field(2), 2)
    assert toric_ai_orbit_count(quiver, ring) == a_d_polynomial(g, 2)(2) == 42
    print("PASS criterion 6: structural laws (degree, leading coefficient, "
          "positivity, pole order)")


def test_criterion_07_toric_oracle_equivalence():
    _require(verify.check_toric_oracle())
    print("PASS criterion 7: closed forms match the orbit-partition oracle")


def test_criterion_08_depth_type_orbit_table():
    _require(verify.check_orbit_table())
    print("PASS criterion 8: per-type stabilizer/representation/orbit table")


def test_criterion_09_orientation_independence():
    _require(verify.check_orientation())
    print("PASS criterion 9: counts independent of orientation")


def test_criterion_10_preprojective_correspondence():
    _require(verify.check_preprojective())
    print("PASS criterion 10: preprojective counts equal dual-number counts")


def test_criterion_11_fiber_count_identity():
    _require(verify.check_fourier())
    print("PASS criterion 11: zero-fiber count identity")


def test_criterion_12_counterexample():
    _require(verify.check_counterexample())
    print("PASS criterion 12: square-zero rings break the correspondence "
          "by exactly (q^n-1)(q^(n-1)-1)")


def test_criterion_13_small_count_tables():
    _require(verify.check_count_tables())
    print("PASS criterion 13: small count tables over k_d")


def test_criterion_13_slow_rank_two_table():
    _require(verify.check_count_tables_slow())
    print("PASS criterion 13 (slow): rank (1,2,1) count over k_2(F_5)")


def test_criterion_14_self_duality_detection():
    _require(verify.check_frobenius())
    print("PASS criterion 14: self-duality form search")
