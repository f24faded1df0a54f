"""Exact values in Z[zeta_m], read from integer coefficients on the
powers of zeta by one division by the m-th cyclotomic polynomial.  Only
what the character-weighted orbit counts need: the value of a sum of
root powers, which must be a rational integer.  No floating point.
"""

from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients (ascending) of Phi_m, by exact division of x^m - 1
    by the product of Phi_d over proper divisors d."""
    if m < 1:
        raise ValueError("m >= 1 required")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _divmod(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(num)


def _divmod(num, den):
    """Quotient and remainder of num by the monic den, all ascending
    integer coefficient lists."""
    num, top = list(num), len(den) - 1
    quot = [0] * max(len(num) - top, 0)
    for i in range(len(quot) - 1, -1, -1):
        coef = quot[i] = num[i + top]
        for j, dc in enumerate(den):
            num[i + j] -= coef * dc
    return quot, num[:top]


def root_sum(coeffs):
    """sum_e coeffs[e] zeta^e for a primitive m-th root of unity zeta,
    m = len(coeffs): the remainder of sum_e coeffs[e] x^e mod Phi_m.
    Raises ArithmeticError unless that value is a rational integer."""
    rem = _divmod(coeffs, cyclotomic_polynomial(len(coeffs)))[1]
    if any(rem[1:]):
        raise ArithmeticError("value %r in Z[zeta_%d] is not a rational integer"
                              % (tuple(rem), len(coeffs)))
    return rem[0]
