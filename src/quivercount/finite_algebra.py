"""Finite commutative algebras over prime fields, given by structure
constants.

Elements are coordinate tuples over F_p.  Four constructors cover every
ring the counting engines need: prime fields and small extensions,
truncated polynomial rings k[t]/(t^d), dual numbers R[eps]/(eps^2), and
the square-zero rings F_q[t_1..t_n]/(t_1..t_n)^2.  A local algebra
carries its residue field F and lists F's coordinates first: the residue
map keeps the first F.dim coordinates and the other basis vectors span
the maximal ideal.  Construction checks this on the structure constants
alone, O(dim^2) products.  Discrete logs use a table for F's
multiplicative group.
"""

from itertools import product
from math import isqrt

from . import modp
from .multigraph import GUARD, charge
from .polynomials import _integer

# Default irreducible polynomials (ascending coefficients, monic) for the
# built-in extension fields.
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}


class FiniteAlgebra:
    """Commutative F_p-algebra with basis-indexed structure constants."""

    # (d, base dim) on a ring built by make_truncated with d >= 2
    truncation = None

    def __init__(self, p, basis_names, table, one, name, residue_field=None):
        self.p = p = _integer(p, "characteristic p")
        if p < 2 or not all(p % d for d in range(2, isqrt(p) + 1)):
            raise ValueError("%d is not prime" % p)
        self.dim = len(basis_names)
        self.basis_names = tuple(basis_names)
        self.table = tuple(tuple(tuple(_integer(c, "structure constant") % p for c in cell)
                                 for cell in row) for row in table)
        self.one = tuple(_integer(c, "unit coordinate") % p for c in one)
        self.name = name
        self.residue_field = residue_field if residue_field is not None else self
        self._rd = self.residue_field.dim
        self._dlog = None
        self._check_structure()

    # -- construction-time sanity -------------------------------------
    def _check_structure(self):
        table, basis = self.table, [self.basis_vector(i) for i in range(self.dim)]
        pairs = list(product(range(self.dim), repeat=2))
        if any(table[i][j] != table[j][i] for i, j in pairs):
            raise ValueError("structure constants are not commutative")
        if any(self.mul(self.one, b) != b for b in basis):
            raise ValueError("supplied unit is not a unit element")
        if any(self.mul(table[i][j], b) != self.mul(basis[i], table[j][k])
               for i, j in pairs for k, b in enumerate(basis)):
            raise ValueError("structure constants are not associative")
        # Without a residue field the algebra is its own residue field, so
        # it must be a field: every nonzero element acts invertibly.
        if self.residue_field is self:
            for x in self.elements():
                if any(x) and not modp.is_invertible(self.mul_matrix(x), self.p):
                    raise ValueError("%s has zero divisors; an algebra given without a "
                                     "residue field must be a field" % self.name)
        else:
            self._check_residue_map()

    def _check_residue_map(self):
        """Projection onto the first rd = residue_field.dim coordinates must
        be multiplicative on basis pairs, hence a ring map onto the field
        whose kernel, spanned by the other basis vectors, is an ideal; with
        those vectors nilpotent the algebra is local with that residue
        field.  The classes of GL_n lift from the residue field through
        x -> (x, 0, ..., 0), so that must be a ring map too: O(rd^2) more
        products.  O(dim^2) products in all."""
        field, rd, dim = self.residue_field, self._rd, self.dim

        def fail(what):
            raise ValueError("residue map of %s: %s" % (self.name, what))

        if not field.is_field or field.p != self.p or rd > dim:
            fail("the residue field must be a field of characteristic %d and "
                 "dimension at most %d" % (self.p, dim))
        basis = [self.basis_vector(i)[:rd] for i in range(dim)]
        if any(self.table[i][j][:rd] != field.mul(basis[i], basis[j])
               for i, j in product(range(dim), repeat=2)):
            fail("not multiplicative")
        for i in range(rd, dim):
            if any(self.power(self.basis_vector(i), dim)):
                fail("kernel vector %s is not nilpotent" % self.basis_names[i])
        pad = (0,) * (dim - rd)
        if self.one != field.one + pad or any(self.table[i][j] != field.table[i][j] + pad
                                              for i in range(rd) for j in range(rd)):
            fail("x -> (x, 0) does not embed the residue field")

    # -- element arithmetic (coordinate tuples, built from lists at their final
    # size: CPython keeps the freed blocks of a tuple resized from a generator) ---
    def zero(self):
        return (0,) * self.dim

    def basis_vector(self, i):
        return tuple([1 if k == i else 0 for k in range(self.dim)])

    def add(self, x, y):
        p = self.p
        return tuple([(a + b) % p for a, b in zip(x, y)])

    def sub(self, x, y):
        p = self.p
        return tuple([(a - b) % p for a, b in zip(x, y)])

    def neg(self, x):
        p = self.p
        return tuple([(-a) % p for a in x])

    def mul(self, x, y):
        p = self.p
        out = [0] * self.dim
        table = self.table
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, rk in enumerate(table[i][j]):
                    if rk:
                        out[k] = (out[k] + c * rk) % p
        return tuple(out)

    def power(self, x, n):
        result, base = self.one, x
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def mul_matrix(self, x):
        """Matrix over F_p of multiplication by x (columns = x * basis_j)."""
        rows, dim = [(xi, row) for xi, row in zip(x, self.table) if xi], range(self.dim)
        return [[sum(xi * r[j][k] for xi, r in rows) % self.p for j in dim] for k in dim]

    # -- enumeration ---------------------------------------------------
    def size(self):
        return self.p ** self.dim

    def elements(self):
        for coords in product(range(self.p), repeat=self.dim):
            yield coords[::-1]

    def element_index(self, x):
        idx = 0
        for c in reversed(x):
            idx = idx * self.p + c
        return idx

    # -- units and locality ---------------------------------------------
    @property
    def is_field(self):
        return self.residue_field is self

    # Every algebra is local, a field or given with its residue field, so
    # x is a unit exactly when its residue is nonzero.
    def residue(self, x):
        return x[:self._rd]

    def is_unit(self, x):
        return any(x[:self._rd])

    def inverse(self, x):
        sol = modp.solve(self.mul_matrix(x), list(self.one), self.p)
        if sol is None:
            raise ZeroDivisionError("%r is not a unit" % (x,))
        return tuple(sol)

    def units(self):
        return [x for x in self.elements() if self.is_unit(x)]

    def socle(self):
        """An F_p basis of soc = Ann(m), as coordinate tuples."""
        rows = [r for i in range(self._rd, self.dim) for r in self.mul_matrix(self.basis_vector(i))]
        return [tuple(v) for v in modp.nullspace_basis(rows, self.p)]

    def unit_count(self):
        q = self.residue_field.size()
        return self.size() // q * (q - 1)

    # -- residue-field discrete logarithms ------------------------------
    def _log_table(self, x):
        """{x^k: k} when the powers of x are the q - 1 units of the residue
        field, else None."""
        field = self.residue_field
        table, value = {}, field.one
        while value not in table:
            table[value] = len(table)
            value = field.mul(value, x)
        return table if value == field.one and len(table) == field.size() - 1 else None

    def primitive_element(self):
        """Smallest generator of the residue field's multiplicative group."""
        for x in self.residue_field.elements():
            if self._log_table(x) is not None:
                return x
        raise ArithmeticError("no generator found; residue is not a field?")

    def dlog(self, x):
        """Discrete log of a nonzero residue-field element to the base
        primitive_element(), from one memoized table."""
        if self._dlog is None:
            self._dlog = self._log_table(self.primitive_element())
        return self._dlog[x]

    # -- Frobenius forms -------------------------------------------------
    def find_frobenius_form(self, guard=GUARD):
        """A linear form F_p^dim -> F_p whose Gram matrix (b_i b_j -> form)
        is invertible, or None when no such form exists.  Presence is
        equivalent to the algebra being self-dual as a module over itself.
        """
        charge(self.p ** self.dim, guard, "p^dim = %d^%d = %d candidate forms"
               % (self.p, self.dim, self.p ** self.dim))
        for lam in product(range(self.p), repeat=self.dim):
            gram = [[sum(a * b for a, b in zip(lam, self.table[i][j])) % self.p
                     for j in range(self.dim)] for i in range(self.dim)]
            if modp.is_invertible(gram, self.p):
                return lam
        return None

    def __repr__(self):
        return "FiniteAlgebra(%s, dim %d over F_%d)" % (self.name, self.dim, self.p)


# -- field constructors -----------------------------------------------

def make_prime_field(p):
    return FiniteAlgebra(p, ("1",), (((1,),),), (1,), "fq(%s)" % (p,))


def make_field_ext(p, coeffs):
    """F_p[x]/(f) for a supplied monic irreducible f (ascending coeffs); a
    reducible f gives zero divisors, which the constructor rejects."""
    p = _integer(p, "characteristic p")
    coeffs = tuple(_integer(c, "coefficient") % p for c in coeffs)
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic of degree at least 1")
    if k == 1:
        return make_prime_field(p)
    # basis 1, x, ..., x^(k-1); table entries are x^(i+j) mod f, each power
    # x times the last with its x^k term replaced by -(f - x^k)
    powers = [tuple(1 if i == e else 0 for i in range(k)) for e in range(k)]
    while len(powers) < 2 * k - 1:
        top = powers[-1]
        powers.append(tuple((s - top[-1] * c) % p for s, c in zip((0,) + top[:-1], coeffs)))
    table = [[powers[i + j] for j in range(k)] for i in range(k)]
    names = tuple("x^%d" % i if i > 1 else ("x" if i == 1 else "1") for i in range(k))
    return FiniteAlgebra(p, names, table, powers[0], "fq(%d,%d)" % (p, k))


def _builtin_field(p, k):
    """F_p for k = 1, else F_(p^k) from the built-in polynomial table."""
    if k == 1:
        return make_prime_field(p)
    if (p, k) not in _IRREDUCIBLE:
        raise ValueError("no built-in polynomial for F_%d^%d; use make_field_ext" % (p, k))
    return make_field_ext(p, _IRREDUCIBLE[(p, k)])


def make_field(q):
    """The field of size q = p^k via the built-in polynomial table; p is
    the least divisor of q above 1, so a prime."""
    q = _integer(q, "field size q")
    p = next((d for d in range(2, q + 1) if q % d == 0), 0)
    k = next((k for k in range(1, q) if p ** k >= q), 1)
    if p < 2 or p ** k != q:
        raise ValueError("%d is not a prime power" % q)
    return _builtin_field(p, k)


# -- local algebra constructors ----------------------------------------

def _local_ring(base, suffixes, vanishes, name):
    """base (x) span(1, m_1, ..., m_n), the m_a named by suffixes, with
    m_a m_b = m_(a+b), or 0 when vanishes(a, b).  The first block is base,
    so the residue-field coordinates of base stay first and the ring is
    local with the residue field of base."""
    bd, blocks = base.dim, len(suffixes) + 1
    dim = bd * blocks
    names = list(base.basis_names)
    for suffix in suffixes:
        names.extend(suffix if b == "1" else b + "*" + suffix for b in base.basis_names)
    table = [[(0,) * dim] * dim for _ in range(dim)]
    for j1, j2 in product(range(blocks), repeat=2):
        if not vanishes(j1, j2):
            for i1, i2 in product(range(bd), repeat=2):
                cell = [0] * dim
                cell[(j1 + j2) * bd:(j1 + j2 + 1) * bd] = base.table[i1][i2]
                table[j1 * bd + i1][j2 * bd + i2] = tuple(cell)
    one = tuple(base.one) + (0,) * (dim - bd)
    return FiniteAlgebra(base.p, names, table, one, name, residue_field=base.residue_field)


def make_truncated(base, d):
    """k_d = base[t]/(t^d) for a base field; residue field = base."""
    if not base.is_field:
        raise ValueError("truncated polynomial rings require a field base")
    if (d := _integer(d, "depth d")) < 1:
        raise ValueError("d >= 1 required")
    if d == 1:
        return base
    suffixes = ["t" if j == 1 else "t^%d" % j for j in range(1, d)]
    alg = _local_ring(base, suffixes, lambda a, b: a + b >= d, "kd(%s,%d)" % (base.name, d))
    alg.truncation = (d, base.dim)
    return alg


def make_dual_numbers(ring):
    """ring[eps]/(eps^2); local with the same residue field when ring is."""
    return _local_ring(ring, ["e"], lambda a, b: a and b, "eps(%s)" % ring.name)


def make_square_zero(base, n):
    """base[t_1..t_n]/(t_1..t_n)^2; local, not self-dual for n > 1."""
    if not base.is_field:
        raise ValueError("square-zero rings require a field base")
    if (n := _integer(n, "n")) < 1:
        raise ValueError("n >= 1 required")
    suffixes = ["t%d" % j for j in range(1, n + 1)]
    return _local_ring(base, suffixes, lambda a, b: a and b, "sqz(%s,%d)" % (base.name, n))


def truncated_generator(alg):
    """The nilpotent generator t of a ring built by make_truncated (d >= 2)."""
    if alg.truncation is None:
        raise ValueError("%s was not built by make_truncated with d >= 2" % alg.name)
    return alg.basis_vector(alg.truncation[1])


# -- ring-spec parser ----------------------------------------------------

def ring_from_spec(spec):
    """Parse `fq(p[,k])`, `kd(spec,d)`, `eps(spec)`, `sqz(fq(p[,k]),n)`."""
    text = spec.replace(" ", "")
    ring, pos = _parse_ring(text, 0)
    if pos != len(text):
        raise ValueError("trailing input in ring spec: %r" % text[pos:])
    return ring


def _parse_int(text, pos):
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        raise ValueError("expected a number at position %d of %r" % (start, text))
    return int(text[start:pos]), pos


def _expect(text, pos, ch):
    if pos >= len(text) or text[pos] != ch:
        raise ValueError("expected %r at position %d of %r" % (ch, pos, text))
    return pos + 1


def _parse_ring(text, pos):
    for head in ("fq", "kd", "eps", "sqz"):
        if text.startswith(head, pos):
            break
    else:
        raise ValueError("unknown ring constructor at position %d of %r" % (pos, text))
    pos = _expect(text, pos + len(head), "(")
    if head == "fq":
        p, pos = _parse_int(text, pos)
        k = 1
        if pos < len(text) and text[pos] == ",":
            k, pos = _parse_int(text, pos + 1)
        pos = _expect(text, pos, ")")
        return _builtin_field(p, k), pos
    base, pos = _parse_ring(text, pos)
    if head == "eps":
        pos = _expect(text, pos, ")")
        return make_dual_numbers(base), pos
    n, pos = _parse_int(text, _expect(text, pos, ","))      # kd(base,d) or sqz(base,n)
    pos = _expect(text, pos, ")")
    return (make_truncated if head == "kd" else make_square_zero)(base, n), pos
