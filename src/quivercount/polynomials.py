"""Exact integer polynomial arithmetic.

Two coefficient-map classes on one core: QPoly, a Laurent polynomial in a
single variable q, and QTPoly, a (Laurent) polynomial in two variables.
_Laurent writes once what they share; each class fixes its exponent type
(an int, or a (q, T) pair), its variable names and its product loop.  All
coefficients are Python ints, so nothing ever overflows or rounds.
Products of factors (1 - q^c T) meet them in one pass each way:
times_t_factors multiplies by shift-and-subtract, divide_by_t_factor
divides by synthetic division, exactly or as a power series.
"""

from fractions import Fraction
from operator import index


def _integer(x, what):
    """x as an int, or ValueError naming it by what: operator.index refuses
    a float or a string, which int() would truncate or parse."""
    try:
        return index(x)
    except TypeError:
        raise ValueError("%s %r is not an integer" % (what, x)) from None


def _times_into(acc, x, y):
    """acc plus the product of the QPoly x and y, as {exponent: coefficient}."""
    for e1, c1 in x.coeffs.items():
        for e2, c2 in y.coeffs.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return acc


def unpack(x, width):
    """{exponent: coefficient} of a polynomial Kronecker-packed in the int
    x >= 0: coefficient e in bits e*width up to (e+1)*width."""
    low = (1 << width) - 1
    return {e // width: x >> e & low for e in range(0, x.bit_length(), width)}


class _Laurent:
    """Integer Laurent polynomial stored as {exponent: coefficient}.

    A subclass sets _ZERO, the exponent of the constant term, and
    _powers(e), the pairs (variable, power) of the monomial at exponent e;
    its __mul__ multiplies two polynomials of its own kind.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in dict(coeffs or {}).items() if c != 0}

    def _like(self, coeffs):
        """A polynomial of self's kind and variables."""
        return type(self)(coeffs)

    @classmethod
    def const(cls, c):
        return cls({cls._ZERO: c})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self._like({self._ZERO: other})
        elif not isinstance(other, _Laurent):
            return NotImplemented   # so that a RatQT, say, is asked in turn
        return isinstance(other, type(self)) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals the int it holds, so it must hash as that int
        if self.coeffs.keys() <= {self._ZERO}:
            return hash(self.coeffs.get(self._ZERO, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = self._like({self._ZERO: other})
        if not isinstance(other, type(self)):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return self._like(out)

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, k):
        return self._like({e: c * k for e, c in self.coeffs.items()})

    def __pow__(self, n):
        """self^n by repeated squaring, for n >= 0."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = self._like({self._ZERO: 1}), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def as_dict(self):
        return {",".join(str(k) for _, k in self._powers(e)): c
                for e, c in sorted(self.coeffs.items(), reverse=True)}

    def _sorted_keys(self):
        return sorted(self.coeffs, reverse=True)

    def __str__(self):
        parts = []
        for e in self._sorted_keys():
            c = self.coeffs[e]
            factors = [str(abs(c))] if abs(c) != 1 or e == self._ZERO else []
            factors += [v if k == 1 else "%s^%d" % (v, k) for v, k in self._powers(e) if k]
            sign = "-" if c < 0 else "+"
            body = "*".join(factors)
            parts.append("%s %s" % (sign, body) if parts else (body if c > 0 else "-" + body))
        return " ".join(parts) or "0"

    __repr__ = __str__


class QPoly(_Laurent):
    """Integer Laurent polynomial in q, stored as {exponent: coefficient}."""

    __slots__ = ()
    _ZERO = 0

    @classmethod
    def q(cls):
        return cls({1: 1})

    @classmethod
    def monomial(cls, exp, c=1):
        return cls({_integer(exp, "exponent"): c})

    def _powers(self, e):
        return (("q", e),)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly(_times_into({}, self, other))

    __rmul__ = __mul__

    def degree(self):
        """Largest exponent; None for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else None

    def leading_coefficient(self):
        return self.coeffs[self.degree()] if self.coeffs else 0

    def is_monic(self):
        return self.leading_coefficient() == 1

    def __call__(self, q):
        """Evaluate at an integer; exact (Fraction only if Laurent)."""
        total = sum(Fraction(c) * Fraction(q) ** e for e, c in self.coeffs.items())
        return int(total) if total.denominator == 1 else total


class QTPoly(_Laurent):
    """Integer Laurent polynomial in two variables, default (q, T).

    Stored as {(q_exp, t_exp): coefficient}; exponents may be negative,
    which the rational-function substitutions need.
    """

    __slots__ = ("vars",)
    _ZERO = (0, 0)

    def __init__(self, coeffs=None, vars=("q", "T")):
        super().__init__(coeffs)
        self.vars = vars

    def _like(self, coeffs):
        return QTPoly(coeffs, self.vars)

    @classmethod
    def const(cls, c, vars=("q", "T")):
        return cls({(0, 0): c}, vars)

    @classmethod
    def monomial(cls, i, j, c=1, vars=("q", "T")):
        return cls({(_integer(i, "exponent"), _integer(j, "exponent")): c}, vars)

    @classmethod
    def from_qpoly(cls, p, vars=("q", "T")):
        return cls({(e, 0): c for e, c in p.coeffs.items()}, vars)

    def _powers(self, e):
        return zip(self.vars, e)

    def _sorted_keys(self):
        if self.vars == ("q", "T"):
            return sorted(self.coeffs, key=lambda e: (e[1], e[0]), reverse=True)
        return sorted(self.coeffs, reverse=True)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        if isinstance(other, QPoly):
            other = QTPoly.from_qpoly(other, vars=self.vars)
        if not isinstance(other, QTPoly):
            return NotImplemented
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return QTPoly(out, self.vars)

    __rmul__ = __mul__

    def deg_t(self):
        return max(j for _, j in self.coeffs) if self.coeffs else None

    def val_t(self):
        return min(j for _, j in self.coeffs) if self.coeffs else None

    def t_coefficients(self):
        """Map t_exp -> QPoly, covering all nonzero T-slices."""
        return {j: QPoly(d) for j, d in _t_slices(self).items()}

    def subs_t_scale(self, k):
        """Substitute T -> q^k * T."""
        return self._like({(i + k * j, j): c for (i, j), c in self.coeffs.items()})

    def invert_vars(self):
        """Substitute (q, T) -> (1/q, 1/T); stays Laurent."""
        return self._like({(-i, -j): c for (i, j), c in self.coeffs.items()})

    def shift(self, dq, dt):
        return self._like({(i + dq, j + dt): c for (i, j), c in self.coeffs.items()})

    def evaluate(self, x, y):
        """Evaluate with x, y ints or QPoly; exponents must be >= 0."""
        if any(i < 0 or j < 0 for i, j in self.coeffs):
            raise ValueError("cannot evaluate a Laurent polynomial here")
        x, y = (v if isinstance(v, QPoly) else QPoly.const(v) for v in (x, y))
        return sum((x ** i * y ** j * c for (i, j), c in self.coeffs.items()), QPoly())


def _t_slices(p):
    """The T-slices {t_exp: {q_exp: coefficient}} of p, as new dicts."""
    slices = {}
    for (i, j), v in p.coeffs.items():
        slices.setdefault(j, {})[i] = v
    return slices


def times_t_factors(coeffs, factors, below=None):
    """coeffs {(q_exp, t_exp): c} times prod (1 - q^c T) over the iterable
    factors (c repeated for a power), one shift-and-subtract pass
    k[i + c, j + 1] -= k[i, j] per factor; mod T^below when given, for
    coeffs of T-degree under below.  Zero coefficients may be kept."""
    for c in factors:
        coeffs, prev = dict(coeffs), coeffs
        for (i, j), v in prev.items():
            if below is None or j + 1 < below:
                coeffs[i + c, j + 1] = coeffs.get((i + c, j + 1), 0) - v
    return coeffs


def divide_by_t_factor(p, c, stop):
    """p / (1 - q^c T) through T^stop by one synthetic-division pass over
    the T-slices, lowest first: h_j = p_j + q^c h_(j-1).  Returns the
    quotient and its last slice h_stop, {q_exp: coefficient}."""
    slices = _t_slices(p)
    quot, prev = {}, {}
    for j in range(min(slices, default=stop + 1), stop + 1):
        h = slices.get(j, {})
        for i, v in prev.items():
            h[i + c] = h.get(i + c, 0) + v
        prev = {i: v for i, v in h.items() if v}
        for i, v in prev.items():
            quot[(i, j)] = v
    return QTPoly(quot, p.vars), prev


def divide_exact_by_t_factor(p, c):
    """Exact division of p by (1 - q^c * T); raises ValueError if inexact:
    the division pass run to the top of p must leave its last slice zero."""
    quot, rest = divide_by_t_factor(p, c, p.deg_t() if p else 0)
    if rest:
        raise ValueError("division by (1 - q^%d*T) is not exact" % c)
    return quot
