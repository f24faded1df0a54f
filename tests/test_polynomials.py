from fractions import Fraction

import pytest

from quivercount.polynomials import QPoly, QTPoly, divide_exact_by_t_factor


def test_qpoly_basic_arithmetic():
    q = QPoly.q()
    p = (q + 1) * (q + 5)
    assert p == QPoly({2: 1, 1: 6, 0: 5})
    assert p - p == QPoly()
    assert (q - 1) ** 3 == QPoly({3: 1, 2: -3, 1: 3, 0: -1})
    assert QPoly.const(0) == QPoly()
    assert not QPoly()


def test_qpoly_laurent_and_eval():
    p = QPoly({-1: 1, 0: 2})
    assert p(2) == Fraction(5, 2)
    assert (QPoly.q() ** 3 + 1)(2) == 9
    assert QPoly({2: 1, 1: 6, 0: 5})(1) == 12


def test_qpoly_degree_monic():
    p = QPoly({4: 1, 0: -7})
    assert p.degree() == 4 and p.is_monic()
    assert QPoly({3: 2}).leading_coefficient() == 2
    assert QPoly().degree() is None


def test_qpoly_monomial_refuses_a_non_integer_exponent():
    # a float exponent would print as q^1 and fail only when evaluated
    for exp in (1.5, "2", None):
        with pytest.raises(ValueError, match="exponent %r is not an integer" % (exp,)):
            QPoly.monomial(exp)
    assert QPoly.monomial(True) == QPoly.q()


def test_qtpoly_monomial_refuses_a_non_integer_exponent():
    for i, j in ((1.5, 0), (0, 2.0), ("1", 1)):
        with pytest.raises(ValueError, match="is not an integer"):
            QTPoly.monomial(i, j)


def test_qpoly_str():
    assert str(QPoly({2: 1, 1: 6, 0: 5})) == "q^2 + 6*q + 5"
    assert str(QPoly({1: -1, 0: 1})) == "-q + 1"
    assert str(QPoly()) == "0"
    assert str(QPoly({-1: 1})) == "q^-1"
    assert QPoly({2: 1, 0: 5}).as_dict() == {"2": 1, "0": 5}


def test_constants_hash_as_the_ints_they_equal():
    for cls in (QPoly, QTPoly):
        for k in (0, 3, -2):
            assert cls.const(k) == k and hash(cls.const(k)) == hash(k)
        assert len({cls.const(3), 3}) == 1 and len({cls(), 0}) == 1
    assert QPoly.const(3) != QTPoly.const(3)


def test_qtpoly_arithmetic_and_substitutions():
    t = QTPoly.monomial(0, 1)
    q = QTPoly.monomial(1, 0)
    p = (1 - t) * (1 - q * t)
    assert p == QTPoly({(0, 0): 1, (0, 1): -1, (1, 1): -1, (1, 2): 1})
    assert p.subs_t_scale(2) == QTPoly({(0, 0): 1, (2, 1): -1, (3, 1): -1, (5, 2): 1})
    assert p.invert_vars() == QTPoly({(0, 0): 1, (0, -1): -1, (-1, -1): -1, (-1, -2): 1})
    assert p.deg_t() == 2


def test_qtpoly_slices_and_eval():
    p = QTPoly({(3, 2): 1, (2, 1): 2, (1, 1): 2, (0, 0): 1})
    assert p.t_coefficients()[1] == QPoly({2: 2, 1: 2})
    assert 5 not in p.t_coefficients()
    tutte_c3 = QTPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1}, vars=("x", "y"))
    assert tutte_c3.evaluate(1, QPoly.q()) == QPoly({1: 1, 0: 2})
    assert tutte_c3.evaluate(2, QPoly.q() + 1) == QPoly({1: 1, 0: 7})


def test_qtpoly_str_orders():
    f3 = QTPoly({(3, 2): 1, (2, 1): 2, (1, 1): 2, (0, 0): 1})
    assert str(f3) == "q^3*T^2 + 2*q^2*T + 2*q*T + 1"
    tutte = QTPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1}, vars=("x", "y"))
    assert str(tutte) == "x^2 + x + y"


def divides_t_factor(p, c):
    try:
        divide_exact_by_t_factor(p, c)
        return True
    except ValueError:
        return False


def test_exact_division_by_t_factor():
    one = QTPoly.const(1)
    factor = one - QTPoly.monomial(2, 1)
    p = factor * QTPoly({(1, 1): 3, (0, 0): 1})
    assert divide_exact_by_t_factor(p, 2) == QTPoly({(1, 1): 3, (0, 0): 1})
    assert divides_t_factor(p, 2)
    assert not divides_t_factor(p + one, 2)
    with pytest.raises(ValueError):
        divide_exact_by_t_factor(QTPoly.monomial(0, 1) + 5, 0)


def test_division_handles_laurent_input():
    factor = QTPoly.const(1) - QTPoly.monomial(1, 1)
    p = factor * QTPoly({(0, -2): 1, (1, 0): 2})
    assert divide_exact_by_t_factor(p, 1) == QTPoly({(0, -2): 1, (1, 0): 2})


def test_division_of_zero_and_of_a_monomial():
    assert divide_exact_by_t_factor(QTPoly(), 3) == QTPoly()
    with pytest.raises(ValueError, match="not exact"):
        divide_exact_by_t_factor(QTPoly.monomial(2, -1), 1)
