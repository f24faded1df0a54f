"""Finite commutative algebras over prime fields, given by structure
constants.

Elements are coordinate tuples over F_p.  Four constructors cover every
ring the counting engines need: prime fields and small extensions,
truncated polynomial rings k[t]/(t^d), dual numbers R[eps]/(eps^2), and
the square-zero rings F_q[t_1..t_n]/(t_1..t_n)^2.  Local algebras carry
their residue field, the projection onto it, and a discrete-log table
for its multiplicative group.
"""

from itertools import product

from . import modp
from .multigraph import GUARD, charge

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


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FiniteAlgebra:
    """Commutative F_p-algebra with basis-indexed structure constants."""

    def __init__(self, p, basis_names, table, one, name,
                 residue_field=None, residue_proj=None, max_ideal_basis=None):
        self.p = p
        self.dim = len(basis_names)
        self.basis_names = tuple(basis_names)
        self.table = tuple(tuple(tuple(c % p for c in cell) for cell in row) for row in table)
        self.one = tuple(c % p for c in one)
        self.name = name
        self.residue_field = residue_field if residue_field is not None else self
        self.residue_proj = residue_proj if residue_proj is not None else (lambda x: x)
        self.max_ideal_basis = tuple(max_ideal_basis or ())
        self._units = None
        self._dlog = {}
        self._check_structure()

    # -- construction-time sanity -------------------------------------
    def _check_structure(self):
        dim = self.dim
        for i in range(dim):
            for j in range(dim):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError("structure constants are not commutative")
        basis = [self.basis_vector(i) for i in range(dim)]
        for i in range(dim):
            if self.mul(self.one, basis[i]) != basis[i]:
                raise ValueError("supplied unit is not a unit element")
        for i in range(dim):
            for j in range(dim):
                ij = self.table[i][j]
                for k in range(dim):
                    left = self.mul(ij, basis[k])
                    right = self.mul(basis[i], self.table[j][k])
                    if left != right:
                        raise ValueError("structure constants are not associative")
        # Without a residue field the algebra is its own residue field, so
        # it must be a field: every nonzero element acts invertibly.
        if self.residue_field is self:
            for x in self.elements():
                if any(x) and not modp.is_invertible(self.mul_matrix(x), self.p):
                    raise ValueError("%s has zero divisors; an algebra given without a "
                                     "residue field must be a field" % self.name)
            if self.max_ideal_basis:
                raise ValueError("%s is a field; its maximal ideal is zero" % self.name)
        else:
            self._check_residue_map()

    def _check_residue_map(self):
        """The supplied residue map must be a ring map onto a field whose
        kernel is spanned by max_ideal_basis, a basis of nilpotents; then
        the algebra is local with that residue field.  O(|R| * dim) steps."""
        field, proj, dim = self.residue_field, self.residue_proj, self.dim

        def fail(what):
            raise ValueError("residue map of %s: %s" % (self.name, what))

        if not field.is_field or field.p != self.p:
            fail("the residue field must be a field of characteristic %d" % self.p)
        basis = [self.basis_vector(i) for i in range(dim)]
        images = [proj(b) for b in basis]
        if proj(self.one) != field.one:
            fail("1 does not map to 1")
        seen = set()
        for x in self.elements():
            image = proj(x)
            seen.add(image)
            for b, image_b in zip(basis, images):
                if proj(self.add(x, b)) != field.add(image, image_b):
                    fail("not additive")
        for i in range(dim):
            for j in range(dim):
                if proj(self.table[i][j]) != field.mul(images[i], images[j]):
                    fail("not multiplicative")
        if len(seen) != field.size():
            fail("not onto %s" % field.name)
        ideal = [list(x) for x in self.max_ideal_basis]
        if len(ideal) != dim - field.dim or modp.rank(ideal, self.p) != len(ideal):
            fail("max_ideal_basis is not a basis of the kernel")
        for x in self.max_ideal_basis:
            if any(proj(x)):
                fail("max_ideal_basis is not a basis of the kernel")
            if any(self.power(x, dim)):
                fail("max_ideal_basis contains a non-nilpotent element")

    # -- element arithmetic (coordinate tuples) -----------------------
    def zero(self):
        return (0,) * self.dim

    def basis_vector(self, i):
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def add(self, x, y):
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))

    def sub(self, x, y):
        p = self.p
        return tuple((a - b) % p for a, b in zip(x, y))

    def neg(self, x):
        p = self.p
        return tuple((-a) % p for a in x)

    def scale(self, c, x):
        p = self.p
        return tuple((c * a) % p for a in x)

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
        result = self.one
        base = x
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def mul_matrix(self, x):
        """Matrix over F_p of multiplication by x (columns = x * basis_j)."""
        cols = [self.mul(x, self.basis_vector(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

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
        return self.residue_field is self and not self.max_ideal_basis

    # Every algebra is local: a field, or given with its residue field.
    is_local = True

    def residue(self, x):
        return self.residue_proj(x)

    def is_unit(self, x):
        return any(self.residue(x))

    def inverse(self, x):
        sol = modp.solve(self.mul_matrix(x), list(self.one), self.p)
        if sol is None:
            raise ZeroDivisionError("%r is not a unit" % (x,))
        return tuple(sol)

    def units(self):
        if self._units is None:
            self._units = tuple(x for x in self.elements() if self.is_unit(x))
        return self._units

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

    def dlog(self, x, generator=None):
        """Discrete log of a nonzero residue-field element to the base
        generator (default primitive_element()), from a table memoized per
        generator; ValueError if the generator's powers do not reach all
        q - 1 units of the residue field."""
        key = None if generator is None else tuple(generator)
        if key not in self._dlog:
            table = self._log_table(self.primitive_element() if key is None else key)
            if table is None:
                raise ValueError("%r does not generate the units of %s"
                                 % (generator, self.residue_field.name))
            self._dlog[key] = table
        return self._dlog[key][x]

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
    if not _is_prime(p):
        raise ValueError("%d is not prime" % p)
    return FiniteAlgebra(p, ("1",), (((1,),),), (1,), "fq(%d)" % p, max_ideal_basis=())


def _poly_divmod(num, den, p):
    num = [c % p for c in num]
    den = [c % p for c in den]
    while den and den[-1] == 0:
        den.pop()
    dlead = den[-1]
    inv = pow(dlead, p - 2, p) if p > 2 else dlead
    quot = [0] * max(0, len(num) - len(den) + 1)
    rem = num[:]
    for i in range(len(quot) - 1, -1, -1):
        if len(rem) < len(den) + i:
            continue
        coef = (rem[len(den) + i - 1] * inv) % p
        quot[i] = coef
        for j, dc in enumerate(den):
            rem[i + j] = (rem[i + j] - coef * dc) % p
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _poly_is_irreducible(coeffs, p):
    """Brute-force factor search at desk scale."""
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    for ddeg in range(1, deg):
        for tail in product(range(p), repeat=ddeg):
            den = list(tail) + [1]
            _, rem = _poly_divmod(list(coeffs), den, p)
            if not rem:
                return False
    return True


def make_field_ext(p, coeffs):
    """F_p[x]/(f) for a supplied monic irreducible f (ascending coeffs)."""
    if not _is_prime(p):
        raise ValueError("%d is not prime" % p)
    coeffs = tuple(c % p for c in coeffs)
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    k = len(coeffs) - 1
    if k == 1:
        return make_prime_field(p)
    if not _poly_is_irreducible(coeffs, p):
        raise ValueError("polynomial is reducible over F_%d" % p)
    # basis 1, x, ..., x^(k-1); table entries are x^(i+j) mod f
    powers = [[0] * k for _ in range(2 * k - 1)]
    for e in range(2 * k - 1):
        poly = [0] * e + [1]
        _, rem = _poly_divmod(poly, list(coeffs), p)
        rem = rem + [0] * (k - len(rem))
        powers[e] = rem[:k]
    table = [[tuple(powers[i + j]) for j in range(k)] for i in range(k)]
    names = tuple("x^%d" % i if i > 1 else ("x" if i == 1 else "1") for i in range(k))
    one = tuple(1 if i == 0 else 0 for i in range(k))
    return FiniteAlgebra(p, names, table, one, "fq(%d,%d)" % (p, k))


def make_field(q):
    """The field of size q = p^k via the built-in polynomial table."""
    for p in range(2, q + 1):
        if _is_prime(p) and q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError("%d is not a prime power" % q)
            if k == 1:
                return make_prime_field(p)
            if (p, k) not in _IRREDUCIBLE:
                raise ValueError("no built-in polynomial for F_%d; use make_field_ext" % q)
            return make_field_ext(p, _IRREDUCIBLE[(p, k)])
    raise ValueError("%d is not a prime power" % q)


# -- local algebra constructors ----------------------------------------

def _local_ring(base, suffixes, vanishes, name):
    """base (x) span(1, m_1, ..., m_n), the m_a named by suffixes, with
    m_a m_b = m_(a+b), or 0 when vanishes(a, b).  Local with the residue
    field of base, read off the first block; its maximal ideal is that of
    base, then the new monomials."""
    bd, blocks = base.dim, len(suffixes) + 1
    dim = bd * blocks
    names = list(base.basis_names)
    for suffix in suffixes:
        names.extend(suffix if b == "1" else b + "*" + suffix for b in base.basis_names)
    zero = (0,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for j1, j2 in product(range(blocks), repeat=2):
        if not vanishes(j1, j2):
            for i1, i2 in product(range(bd), repeat=2):
                cell = [0] * dim
                cell[(j1 + j2) * bd:(j1 + j2 + 1) * bd] = base.table[i1][i2]
                table[j1 * bd + i1][j2 * bd + i2] = tuple(cell)
    one = tuple(base.one) + (0,) * (dim - bd)
    ideal = tuple(tuple(x) + (0,) * (dim - bd) for x in base.max_ideal_basis)
    ideal += tuple(tuple(1 if t == k else 0 for t in range(dim)) for k in range(bd, dim))
    return FiniteAlgebra(base.p, names, table, one, name, residue_field=base.residue_field,
                         residue_proj=lambda x: base.residue_proj(tuple(x[:bd])),
                         max_ideal_basis=ideal)


def make_truncated(base, d):
    """k_d = base[t]/(t^d) for a base field; residue field = base."""
    if not base.is_field:
        raise ValueError("truncated polynomial rings require a field base")
    if d < 1:
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
    if n < 1:
        raise ValueError("n >= 1 required")
    suffixes = ["t%d" % j for j in range(1, n + 1)]
    return _local_ring(base, suffixes, lambda a, b: a and b, "sqz(%s,%d)" % (base.name, n))


def truncated_generator(alg):
    """The nilpotent generator t of a ring built by make_truncated (d >= 2)."""
    d, bd = alg.truncation
    return alg.basis_vector(bd)


def truncated_valuation(alg, x):
    """t-adic valuation in a make_truncated ring; d for x = 0."""
    d, bd = alg.truncation
    for j in range(d):
        if any(x[j * bd:(j + 1) * bd]):
            return j
    return d


def truncated_depth(alg, x):
    """Depth r of a nonzero element: the annihilator of x is (t^r)."""
    d, _ = alg.truncation
    v = truncated_valuation(alg, x)
    if v == d:
        raise ValueError("zero has no depth")
    return d - v


# -- matrices over an algebra (tuples of rows of coordinate tuples) -----

def mat_identity(alg, n):
    return tuple(tuple(alg.one if i == j else alg.zero() for j in range(n)) for i in range(n))


def mat_mul(alg, a, b):
    if not a or not b:
        return ()
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = alg.zero()
            for k in range(inner):
                acc = alg.add(acc, alg.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_det(alg, m):
    n = len(m)
    if n == 0:
        return alg.one
    if n == 1:
        return m[0][0]
    if n == 2:
        return alg.sub(alg.mul(m[0][0], m[1][1]), alg.mul(m[0][1], m[1][0]))
    det = alg.zero()
    for j in range(n):
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in m[1:])
        term = alg.mul(m[0][j], mat_det(alg, minor))
        det = alg.add(det, term) if j % 2 == 0 else alg.sub(det, term)
    return det


def mat_inverse(alg, m):
    """Inverse of a square matrix over the algebra, by adjugate / det."""
    n = len(m)
    det = mat_det(alg, m)
    det_inv = alg.inverse(det)
    if n == 0:
        return ()
    if n == 1:
        return ((det_inv,),)
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(tuple(m[r][c] for c in range(n) if c != i)
                          for r in range(n) if r != j)
            cof = mat_det(alg, minor)
            if (i + j) % 2:
                cof = alg.neg(cof)
            row.append(alg.mul(cof, det_inv))
        adj.append(tuple(row))
    return tuple(adj)


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
        if k == 1:
            return make_prime_field(p), pos
        if (p, k) not in _IRREDUCIBLE:
            raise ValueError("no built-in extension F_%d^%d" % (p, k))
        return make_field_ext(p, _IRREDUCIBLE[(p, k)]), pos
    if head == "kd":
        base, pos = _parse_ring(text, pos)
        pos = _expect(text, pos, ",")
        d, pos = _parse_int(text, pos)
        pos = _expect(text, pos, ")")
        if not base.is_field:
            raise ValueError("kd(...) requires a field base")
        return make_truncated(base, d), pos
    if head == "eps":
        base, pos = _parse_ring(text, pos)
        pos = _expect(text, pos, ")")
        return make_dual_numbers(base), pos
    base, pos = _parse_ring(text, pos)
    pos = _expect(text, pos, ",")
    n, pos = _parse_int(text, pos)
    pos = _expect(text, pos, ")")
    if not base.is_field:
        raise ValueError("sqz(...) requires a field base")
    return make_square_zero(base, n), pos
