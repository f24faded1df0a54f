from math import comb

import pytest

from quivercount.polynomials import QPoly, QTPoly
from quivercount.ratfun import RatQT
from oracles import add_pairwise


def _t(i, j, c=1):
    return QTPoly.monomial(i, j, c)


def test_geometric_series():
    f = RatQT.geometric(0)
    assert f.series(4) == [QPoly.const(1)] * 5
    f = RatQT.geometric(2)
    assert f.series_coefficient(3) == QPoly.monomial(6)


def test_power_of_pole_series():
    f = RatQT(QTPoly.const(1), {0: 3})
    for d in range(6):
        assert f.series_coefficient(d) == QPoly.const(comb(d + 2, 2))


def test_reduction_cancels_common_factors():
    one = QTPoly.const(1)
    factor = one - _t(1, 1)
    f = RatQT(factor * _t(0, 1), {0: 1, 1: 1})
    assert f.den == {0: 1}
    assert f.num == _t(0, 1)


def test_addition_with_mixed_denominators():
    # 1/(1-T) + 1/(1-qT) has numerator 2 - (q+1)T over both factors
    f = RatQT.geometric(0) + RatQT.geometric(1)
    assert f == RatQT(QTPoly({(0, 0): 2, (0, 1): -1, (1, 1): -1}), {0: 1, 1: 1})
    # telescoping back down
    g = f - RatQT.geometric(1)
    assert g == RatQT.geometric(0)
    assert g.den == {0: 1}


def test_cross_multiplication_equality():
    # same function, bloated representation
    one = QTPoly.const(1)
    factor = one - _t(0, 1)
    lhs = RatQT(_t(0, 1), {0: 1})
    rhs = RatQT((_t(0, 1) * factor), {0: 2}, reduce=False)
    assert lhs == rhs
    assert lhs != RatQT(_t(0, 1), {0: 2})


def test_subs_t_scale():
    f = RatQT(_t(0, 1), {0: 1, 1: 1})   # T/((1-T)(1-qT))
    g = f.subs_t_scale(2)
    assert g == RatQT(_t(2, 1), {2: 1, 3: 1})


def test_invert_vars_simple_pole():
    # 1/(1-1/T) = -T/(1-T) ... here with T -> 1/T only realized via both vars
    f = RatQT.geometric(0)
    assert f.invert_vars() == RatQT(_t(0, 1, -1), {0: 1})
    # 1/(1-q^2 T) inverts to -q^2 T/(1-q^2 T)
    f = RatQT.geometric(2)
    assert f.invert_vars() == RatQT(_t(2, 1, -1), {2: 1})


def test_series_rejects_pole_at_origin():
    f = RatQT(QTPoly({(0, -1): 1}), {0: 1})
    with pytest.raises(ValueError, match="pole"):
        f.series_coefficient(2)
    with pytest.raises(ValueError, match="pole"):
        f.series(2)
    with pytest.raises(ValueError, match="d >= 0"):
        RatQT.geometric(0).series_coefficient(-1)


def test_series_of_a_numerator_above_the_order():
    # T^5 / (1 - T)^2 starts at T^5; through T^3 it is zero
    f = RatQT(_t(0, 5), {0: 2})
    assert f.series(3) == [QPoly()] * 4
    assert f.series(6)[5:] == [QPoly.const(1), QPoly.const(2)]


def test_t_shift_and_multiplication():
    f = RatQT.geometric(0)
    assert f.t_shift(1) == RatQT(_t(0, 1), {0: 1})
    assert f * f == RatQT(QTPoly.const(1), {0: 2})
    assert (f * (QPoly.q() + 1)).series_coefficient(2) == QPoly({1: 1, 0: 1})


def test_den_poly_expansion():
    f = RatQT(QTPoly.const(1), {0: 1, 1: 1})
    assert f.den_poly() == (QTPoly.const(1) - _t(0, 1)) * (QTPoly.const(1) - _t(1, 1))
    assert f.den_t_degree() == 2
    assert RatQT(3).den_poly() == QTPoly.const(1)


def test_str_factored_display():
    f = RatQT(_t(0, 1), {0: 2, 1: 1})
    assert str(f) == "(T) / (1-T)^2*(1-q*T)"
    assert str(RatQT(QTPoly.const(3))) == "3"


def test_sum_of_nothing_is_zero():
    total = RatQT.sum([])
    assert not total and total.den == {} and total == 0
    assert RatQT.sum(iter(())).num == QTPoly()


def test_sum_reduces_once_to_the_pairwise_form():
    # 1/(1-T) - q/(1-qT) + (q-1)/((1-T)(1-qT)) = 0, so the sum is 3
    terms = [RatQT.geometric(0), -QPoly.q() * RatQT.geometric(1),
             RatQT(QTPoly({(1, 0): 1, (0, 0): -1}), {0: 1, 1: 1}), 3]
    total = RatQT.sum(terms)
    expected = 0
    for t in terms:
        expected = add_pairwise(expected, t)
    assert total.den == expected.den == {}
    assert total.num.coeffs == expected.num.coeffs == {(0, 0): 3}


def test_sum_mixes_term_types():
    total = RatQT.sum([2, QPoly.q(), _t(0, 1), RatQT.geometric(0)])
    assert total == RatQT(QTPoly({(0, 0): 3, (1, 0): 1, (0, 1): -1, (1, 1): -1,
                                  (0, 2): -1}), {0: 1})


def test_scalar_product_keeps_the_reduced_form():
    f = RatQT.geometric(0) + RatQT.geometric(1)
    for k in (3, QPoly({1: 1, 0: 1}), QPoly.monomial(-2, -1)):
        g = f * k
        assert g.den == f.den
        assert g.num == f.num * k
    assert not (f * 0) and (f * 0).den == {}


def test_a_float_operand_is_a_type_error():
    f = RatQT(1)
    for op in (lambda: f * 1.5, lambda: 1.5 * f, lambda: f + 1.5, lambda: 1.5 + f,
               lambda: f - 1.5, lambda: 1.5 - f):
        with pytest.raises(TypeError):
            op()
    assert (f == 1.5) is False and (f != 1.5) is True


def test_denominator_exponents_must_be_integers():
    # a float or a string is refused, not truncated or parsed
    for den in ({0.5: 1}, {1: 1.7}, {"2": 1}, {1: "1"}):
        with pytest.raises(ValueError, match="integers"):
            RatQT(1, den)
    assert RatQT(1, {1: 2}) == RatQT.geometric(1) * RatQT.geometric(1)


def test_sum_names_a_term_it_cannot_lift():
    for terms, name in (([RatQT(1), 1.5], "float"), (["q", QPoly.q()], "str"),
                        ([2, QTPoly.const(1), None], "NoneType")):
        with pytest.raises(TypeError, match=name):
            RatQT.sum(terms)
        with pytest.raises(TypeError, match=name):
            RatQT.sum(iter(terms))


def test_polynomials_and_ratqts_compare_equal_both_ways():
    for poly in (QPoly.const(1), QTPoly.const(1)):
        assert poly == RatQT(1) and RatQT(1) == poly
        assert not poly != RatQT(1) and not RatQT(1) != poly
        assert poly != RatQT(2) and RatQT(2) != poly
    f = RatQT(QTPoly.monomial(1, 0) + 1)
    assert QPoly({1: 1, 0: 1}) == f and f == QPoly({1: 1, 0: 1})
    assert QTPoly({(1, 0): 1, (0, 0): 1}) == f == QTPoly({(1, 0): 1, (0, 0): 1})
    # a polynomial with a pole at T = 1 is not equal to its numerator
    g = RatQT.geometric(0)
    assert QTPoly.const(1) != g and g != QTPoly.const(1)
    # the two polynomial kinds and a string stay unequal in both directions
    assert QPoly.const(1) != QTPoly.const(1) and QTPoly.const(1) != QPoly.const(1)
    assert QPoly.const(1) != "1" and "1" != QPoly.const(1)
    assert QTPoly.const(1) != "1" and "1" != QTPoly.const(1)


def test_series_rejects_a_negative_order():
    with pytest.raises(ValueError, match="order"):
        RatQT.geometric(0).series(-1)
    assert RatQT.geometric(0).series(0) == [QPoly.const(1)]
