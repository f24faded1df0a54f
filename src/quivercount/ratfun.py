"""Exact rational functions in (q, T) with denominators that are products
of factors (1 - q^c * T).

Every generating function this library produces lives in this class: the
filtration sums, their T -> q^k T rescalings and (q, T) -> (1/q, 1/T)
inversions all stay inside it, so no multivariate gcd is ever needed.
Common factors are cancelled by exact division; equality compares the
numerators over the least common denominator, which is insensitive to any
remaining common factor.

A sum is reduced once, over the least common denominator (RatQT.sum):
each (1 - q^c T) is prime in Z[q^+-1, T^+-1], so the fully reduced
num/den is unique and equals what reducing after every addition gives.
The power series at T = 0 is the numerator divided by one factor at a
time, by synthetic division cut after the wanted order (RatQT.series).
"""

from collections import Counter
from operator import index

from .polynomials import (QPoly, QTPoly, divide_by_t_factor, divide_exact_by_t_factor,
                          times_t_factors)


class RatQT:
    """num / prod_c (1 - q^c * T)^mult; num an integer Laurent polynomial."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if isinstance(num, int):
            num = QTPoly.const(num)
        if isinstance(num, QPoly):
            num = QTPoly.from_qpoly(num)
        self.num = num
        try:    # operator.index refuses a float or a string, which int() would take
            self.den = {index(c): index(m) for c, m in (den or {}).items() if m}
        except TypeError:
            raise ValueError("denominator entries must be integers: %r" % (den,)) from None
        if any(m < 0 for m in self.den.values()):
            raise ValueError("negative denominator multiplicity")
        if not self.num:
            self.den = {}
        elif reduce:
            self._reduce()

    def _reduce(self):
        for c in sorted(self.den):
            while self.den[c] > 0:
                try:
                    self.num = divide_exact_by_t_factor(self.num, c)
                except ValueError:
                    break
                self.den[c] -= 1
            if self.den[c] == 0:
                del self.den[c]

    @classmethod
    def geometric(cls, c):
        """1 / (1 - q^c * T)."""
        return cls(QTPoly.const(1), {c: 1})

    def den_poly(self):
        """Denominator expanded as a QTPoly."""
        return QTPoly(_times_factors(RatQT(1), Counter(self.den)))

    def den_t_degree(self):
        return sum(self.den.values())

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return other
        den = Counter(self.den) | Counter(other.den)
        return QTPoly(_times_factors(self, den)) == QTPoly(_times_factors(other, den))

    @classmethod
    def sum(cls, terms):
        """Sum of RatQTs, ints, QPolys and QTPolys: each numerator is
        multiplied up to the least common denominator by one
        shift-and-subtract pass per missing factor, and the total is
        reduced once."""
        terms = [_lift(t, strict=True) for t in terms]
        den = Counter()
        for t in terms:
            den |= Counter(t.den)
        total = Counter()
        for t in terms:
            total.update(_times_factors(t, den))
        return cls(QTPoly(total), den)

    def __add__(self, other):
        other = _lift(other)
        return other if other is NotImplemented else RatQT.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return RatQT(-self.num, dict(self.den), reduce=False)

    def __sub__(self, other):
        other = _lift(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        lifted = _lift(other)
        if lifted is NotImplemented:
            return lifted
        if lifted is other:
            return RatQT(self.num * other.num, Counter(self.den) + Counter(other.den))
        # a nonzero q-only factor is prime to every (1 - q^c T)
        return RatQT(self.num * other, dict(self.den), reduce=isinstance(other, QTPoly))

    __rmul__ = __mul__

    def subs_t_scale(self, k):
        """Substitute T -> q^k * T (exact; factors shift by k)."""
        num = self.num.subs_t_scale(k)
        den = {c + k: m for c, m in self.den.items()}
        if any(c < 0 for c in den):
            raise ValueError("substitution would leave the factored class")
        return RatQT(num, den, reduce=False)

    def t_shift(self, j):
        """Multiply by T^j (j may be negative; numerator stays Laurent)."""
        return RatQT(self.num.shift(0, j), dict(self.den), reduce=False)

    def invert_vars(self):
        """Substitute (q, T) -> (1/q, 1/T), cleared back into the class.

        Each factor satisfies 1 - q^-c T^-1 = -q^-c T^-1 (1 - q^c T), so
        the substituted function equals
        (-1)^M q^(sum c*m) T^M num(1/q, 1/T) / prod (1 - q^c T)^m
        with M the total multiplicity.  Exact; no rational exponents appear.
        """
        m_total = self.den_t_degree()
        c_total = sum(c * m for c, m in self.den.items())
        num = self.num.invert_vars().shift(c_total, m_total)
        if m_total % 2:
            num = -num
        return RatQT(num, dict(self.den), reduce=False)

    def series_coefficient(self, d):
        """Coefficient of T^d in the power-series expansion at T = 0."""
        if d < 0:
            raise ValueError("d >= 0 required")
        return self.series(d)[d]

    def series(self, order):
        """List of T-coefficients up to T^order inclusive: the numerator
        divided by each factor (1 - q^c T) in turn, by synthetic division
        h_j = p_j + q^c h_(j-1) stopped after T^order."""
        if order < 0:
            raise ValueError("order >= 0 required")
        if self.num and self.num.val_t() < 0:
            raise ValueError("numerator has a pole at T = 0")
        series = self.num
        for c in Counter(self.den).elements():
            series = divide_by_t_factor(series, c, order)[0]
        slices = series.t_coefficients()
        return [slices.get(d, QPoly()) for d in range(order + 1)]

    def numerator_t_degree(self):
        return self.num.deg_t()

    def __str__(self):
        num = str(self.num)
        if not self.den:
            return num
        parts = []
        for c, m in sorted(self.den.items()):
            base = "(1-T)" if c == 0 else "(1-q*T)" if c == 1 else "(1-q^%d*T)" % c
            parts.append(base if m == 1 else "%s^%d" % (base, m))
        return "(%s) / %s" % (num, "*".join(parts))

    __repr__ = __str__


def _lift(other, strict=False):
    """other as a RatQT if it is an int, QPoly, QTPoly or RatQT, else
    NotImplemented, so that an operator hands any other type back, or with
    strict a TypeError naming the type."""
    if isinstance(other, (int, QPoly, QTPoly)):
        return RatQT(other, reduce=False)
    if strict and not isinstance(other, RatQT):
        raise TypeError("cannot lift a %s to a RatQT" % type(other).__name__)
    return other if isinstance(other, RatQT) else NotImplemented


def _times_factors(f, den):
    """The coefficients of f's numerator over the common denominator den
    (a Counter that includes f.den).  Zero coefficients may be kept."""
    return times_t_factors(f.num.coeffs, (den - Counter(f.den)).elements())
