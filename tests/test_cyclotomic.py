from math import gcd

import pytest

from quivercount.cyclotomic import cyclotomic_polynomial, root_sum
from oracles import mobius


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_powers_sum_to_zero():
    for m in range(2, 8):
        assert root_sum([1] * m) == 0


def test_rational_integer_detection():
    with pytest.raises(ArithmeticError):
        root_sum([0, 1, 0, 0])           # i
    assert root_sum([0, 1, 0, 1]) == 0   # i + i^3
    assert root_sum([0, 5]) == -5
    assert root_sum([0, 1, 1]) == -1


def test_linear_operations():
    assert root_sum([0, 2, 2]) == -2 == 2 * root_sum([0, 1, 1])


def test_unit_vector_is_rational_only_at_plus_or_minus_one():
    # zeta^k is a rational integer iff zeta^k = +-1, i.e. 2k = 0 mod m
    for m in range(1, 13):
        for k in range(m):
            unit = [0] * m
            unit[k] = 1
            if 2 * k % m:
                with pytest.raises(ArithmeticError):
                    root_sum(unit)
            else:
                assert root_sum(unit) == (1 if k == 0 else -1)


def test_gcd_class_sums_are_moebius_sums():
    # the e with gcd(e, m) = g index the primitive (m/g)-th roots, which
    # sum to mu(m/g); so weights constant on gcd classes give a Moebius sum
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cases = st.integers(1, 12).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=m + 1, max_size=m + 1)))

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @hypothesis.given(cases)
    def check(case):
        m, w = case
        expected = sum(w[g] * mobius(m // g) for g in range(1, m + 1) if m % g == 0)
        assert root_sum([w[gcd(e, m)] for e in range(m)]) == expected

    check()
