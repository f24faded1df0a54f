"""GL_n(R) over a finite commutative algebra R, and the base change group
G = prod_v GL_{alpha_v}(R) of a quiver at a rank vector alpha.

The one module that lists the classes of GL_n(R) and M_n(R), memoized in
the algebra's _gl_data dict, a matrix a row-major flat tuple of element
indices (ring_tables): over a field the rational canonical forms, with no
matrix scan, each labelled by the irreducible factors of its
characteristic polynomial; over a local ring their lift, each fibre listed
modulo [M_n(soc R), g0] for its class g0.  No group is listed: a
stabilizer in G, and the lift's centralizers, are units of End(x).
"""

from bisect import bisect
from collections import Counter
from itertools import accumulate, chain, product
from math import prod
from operator import mul

from . import modp
from .multigraph import GUARD, _find, _merge, charge
from .polynomials import _integer
from .ring_tables import block_system, index_tables, times


def _validate_alpha(quiver, alpha):
    alpha = tuple(_integer(a, "rank") for a in alpha)
    if len(alpha) != quiver.n:
        raise ValueError("rank vector length %d != vertex count %d" % (len(alpha), quiver.n))
    if any(a < 0 for a in alpha) or not any(alpha):
        raise ValueError("rank vector needs non-negative entries, at least one positive")
    return alpha


def _end_units(alg, point, alpha, guard):
    """The units of End(x), x a point at the validated ranks alpha given as
    (x_e, t, s) per arrow, a flat index matrix and its vertices from 0: the
    tuples (g_v) of flat matrices with g_t x_e = x_e g_s and each det g_v a
    unit, lazily, in the product order of their coordinates on an F_p
    basis of the nullspace.  Charges its p^dim points."""
    t, p = index_tables(alg), alg.p
    at = list(accumulate((a * a for a in alpha), initial=0))       # g_v from entry at[v]
    rows = []
    for x, target, source in point:
        n, k = alpha[target], alpha[source]
        for a, c in product(range(n), range(k)):        # entry (a, c) of g_t x_e - x_e g_s
            row = [t.zero] * at[-1]
            row[at[target] + a * n:at[target] + (a + 1) * n] = x[c::k]
            for j in range(k):
                cell = at[source] + j * k + c
                row[cell] = t.add[row[cell]][t.neg[x[a * k + j]]]
            rows.append(row)
    basis = modp.nullspace_basis(block_system(alg, rows or [[t.zero] * at[-1]]), p)
    charge(p ** len(basis), guard, "p^%d = %d points of End(x)" % (len(basis), p ** len(basis)))
    columns = list(zip(zip(*basis), [p ** k for k in range(alg.dim)] * at[-1]))
    for c in product(range(p), repeat=len(basis)):
        g = [sum(map(mul, c, column)) % p * d for column, d in columns]
        g = [sum(g[i:i + alg.dim]) for i in range(0, len(g), alg.dim)]
        blocks = tuple(tuple(g[at[v]:at[v + 1]]) for v in range(len(alpha)))
        if all(t.is_unit[t.det(b, a)] for b, a in zip(blocks, alpha)):
            yield blocks


def _orbit_parts(points, images):
    """Union-find over the points joined with their images, each image list
    aligned with points: (index of the first point, size) per part, in
    order.  A part lies in one class whatever the generators."""
    position, parent = {x: k for k, x in enumerate(points)}, list(range(len(points)))
    _merge(parent, ((k, position[x]) for image in images for k, x in enumerate(image)))
    return sorted(Counter(_find(parent, k) for k in range(len(points))).items())


def _field_classes(alg, n, whole):
    """The classes of GL_n (with whole, M_n) over a field alg = F_q and their
    labels by rational canonical forms (Macdonald, IV.2): multisets of blocks
    f^k of degree n in all, f monic irreducible (x only with whole), index
    tuples lowest degree first.  A class is the block diagonal of their
    companion matrices, of size |GL_n(q)| over the centralizer order."""
    t = index_tables(alg)
    q, zero, one = len(t.ring), t.zero, t.one
    monic = [[g + (one,) for g in product(range(q), repeat=d)] for d in range(n + 1)]

    def times_poly(f, g):
        h = [zero] * (len(f) + len(g) - 1)
        for (i, a), (j, b) in product(enumerate(f), enumerate(g)):
            h[i + j] = t.add[h[i + j]][t.mul[a][b]]
        return tuple(h)

    irreducible = []
    for d in range(1, n + 1):       # a reducible f of degree d has an irreducible factor
        reducible = {times_poly(f, g) for f in irreducible for g in monic[d + 1 - len(f)]}
        irreducible += [f for f in monic[d] if f not in reducible]
    blocks = sorted((len(h) - 1, f, k, h) for f in irreducible[1 - whole:]     # [0] is x
                    for k, h in enumerate(accumulate([f] * (n // (len(f) - 1)), times_poly), 1))

    def forms(start, budget):       # the multisets of blocks[start:] of total degree budget
        if not budget:
            yield ()
        for i in range(start, bisect(blocks, (budget + 1,))):      # the blocks of degree <= budget
            yield from ((blocks[i],) + rest for rest in forms(i, budget - blocks[i][0]))

    def centralizer(f, lam):        # c(lam, u) = u^(sum lam'_i^2 - sum m_i^2) prod |GL_m_i(u)|
        u, runs = q ** (len(f) - 1), [lam.count(k) for k in set(lam)]
        squares = sum((2 * i + 1) * k for i, k in enumerate(sorted(lam, reverse=True)))
        return u ** (squares - sum(m * m for m in runs)) * prod(
            u ** m - u ** i for m in runs for i in range(m))

    order, classes, labels = prod(q ** n - q ** i for i in range(n)), [], []
    for form in forms(0, n):
        g, at, partitions = [zero] * (n * n), 0, {}
        for d, f, k, h in form:     # the companion block at (at, at): last column, subdiagonal
            g[at * (n + 1) + d - 1:(at + d) * n:n] = [t.neg[c] for c in h[:-1]]
            g[(at + 1) * n + at:(at + d) * n:n + 1] = [one] * (d - 1)
            at += d
            partitions.setdefault(f, []).append(k)      # lambda_f
        classes.append((tuple(g), order // prod(centralizer(*c) for c in partitions.items())))
        labels.append(frozenset(partitions))       # the f with lambda_f nonempty
    return classes, labels


def _lifted_classes(alg, n, residue_classes, residue_labels, guard):
    """The classes of GL_n(alg) (or M_n(alg)), alg local but not a field,
    lifted with their labels from those of GL_n(k) (or M_n(k)), k the
    residue field (indices as in alg): (first point of a part, size).  A
    class meets g0 + M_n(m) over its class g0 in one stabilizer orbit.  As
    soc m = 0, 1 + Y in 1 + M_n(soc) adds [Y, g0], so a point modulo
    W = [M_n(soc), g0] is its F_p coordinates outside the pivots of W,
    packed width bits each.  The other generators: 1 + y e_ij, y a nonzero
    product of basis vectors of m outside soc, ij not the last diagonal cell
    as scalars act trivially (row reduction leaves a diagonal in 1 + m,
    which the 1 + y generate layer by layer); lifts of g0 if a unit, then of
    the units of End(g0) over k, each kept outside the group of the scalars
    and those kept, grown from its new elements only, until it has
    |GL_n(k)| / size0 elements, else ArithmeticError.  Each A maps H to
    A H A^-1 + A g0 A^-1 - g0 mod W.  A part of s points: size0 |W| s elements."""
    t, p, rd, cells = index_tables(alg), alg.p, alg.residue_field.dim, range(n * n)
    q = alg.residue_field.size()
    one = tuple(t.one if i == j else t.zero for i in range(n) for j in range(n))
    scalars = {tuple(u if i == j else t.zero for i in range(n) for j in range(n))
               for u in range(1, q)}        # central, so trivial on every fibre

    def elementary(cell, x):        # 1 + x e_cell and its inverse
        u = t.add[one[cell]][x]
        inverse = t.neg[x] if one[cell] == t.zero else t.inverse[u]
        return [one[:cell] + (y,) + one[cell + 1:] for y in (u, inverse)]

    def conjugate(a, b, m):         # the F_p coordinates of the m-parts of a m b, b = a^-1
        return [c for x in times(t, times(t, a, m, n, n, n), b, n, n, n) for c in t.ring[x][rd:]]

    def fill(image, columns):       # image + x * columns for every point x
        for j, column in enumerate(columns):
            for _ in range(p - 1):          # a sum of p or more sets its slot's top bit
                image += [s - ((s + excess & high) >> width - 1) * p
                          for s in (x + column for x in image[-p ** j:])]
        return image

    basis = [p ** k for k in range(rd, alg.dim)]        # b_k has index p^k
    products = list(basis)
    for x in products:
        products += {t.mul[x][b] for b in basis} - {t.zero, *products}
    gens = [elementary(cell, x) for x in products for cell in cells[:-1]
            if any(t.mul[x][b] != t.zero for b in basis)]
    socle = [t.index[s] for s in alg.socle()]
    fibre = [tuple(b if k == cell else t.zero for k in cells) for cell in cells for b in basis]
    width, out = p.bit_length() + 1, []         # bits a coordinate: room for a sum of two
    high = sum(1 << width * j + width - 1 for j in range(len(fibre)))
    excess = (high >> width - 1) * ((1 << width - 1) - p)
    for (g0, size0), label in zip(residue_classes, residue_labels):
        order = prod(q ** n - q ** i for i in range(n)) // size0        # |C(g0)|
        group, lifts, first = set(scalars), [], [(g0,)] if t.is_unit[t.det(g0, n)] else []
        for (h,) in chain(first, _end_units(alg.residue_field, [(g0, 0, 0)], (n,), guard)):
            if h in group:
                continue
            powers = [h]        # h^-1 is the power of h just before 1
            while powers[-1] != one:
                if len(powers) > order:
                    raise ArithmeticError("no power of a centralizer generator is 1")
                powers.append(times(t, powers[-1], h, n, n, n))
            lifts.append((h, powers[-2]))
            new = {times(t, x, h, n, n, n) for x in group} - group
            while new:          # <H, h> from H h - H, by every generator
                group |= new
                new = {times(t, x, s, n, n, n) for x in new for s, _ in lifts} - group
            if len(group) == order:
                break
        if len(group) < order:
            raise ArithmeticError("the units of End(g0) end before its centralizer order")
        rows, pivots = modp.rref([conjugate(*elementary(cell, s), g0)
                                  for cell in cells for s in socle], p)
        free = [c for c in range(len(fibre)) if c not in pivots]

        def point(v):       # v mod W
            for row, c in zip(rows, pivots):
                v = [(x - v[c] * y) % p for x, y in zip(v, row)]
            return sum(v[c] << width * j for j, c in enumerate(free))

        points = fill([0], [1 << width * j for j in range(len(free))])
        images = (fill([point(conjugate(a, b, g0))], [point(conjugate(a, b, fibre[c])) for c in free])
                  for a, b in gens + lifts)
        for k, size in _orbit_parts(points, images):
            g, x = list(g0), points[k]
            for j, c in enumerate(free):
                g[c // len(basis)] += (x >> width * j & (1 << width) - 1) * basis[c % len(basis)]
            out.append(((tuple(g), size0 * p ** len(pivots) * size), label))
    return [c for c, _ in out], [label for _, label in out]


def _memo(alg, key, build):
    """build() once per algebra and key, kept in the algebra's _gl_data."""
    cache = alg.__dict__.setdefault("_gl_data", {})
    return cache[key] if key in cache else cache.setdefault(key, build())


def _size(size):
    size = _integer(size, "size")
    if size < 0:
        raise ValueError("size %d is negative" % size)
    return size


def _classes(alg, size, guard, whole):
    """gl_classes and the label of each class, the frozenset of the monic
    irreducible factors of its residue characteristic polynomial, memoized
    and charged cached or not: over a field (or for size 0) the canonical
    forms, charging the x^size coefficient of prod_r (1 - x^r) / (1 - q x^r)
    (with whole, prod_r 1 / (1 - q x^r)); for size 1 every element, charging
    |alg|; else the lift, labelled as the residue classes, charging
    #classes(GL_size(k)) (M_size(k)) x |m|^(size^2) fibre points, which bound
    the points listed; in the lift each commutant End(g0) that is solved
    charges its p^dim points, at most |k|^(size^2) <= |m|^(size^2)."""
    size, name = _size(size), "M" if whole else "GL"
    key = "classes", size, whole
    if alg.is_field or not size:
        q, c = alg.size(), [1] + [0] * size       # a power series to x^size
        for r in range(1, size + 1):        # times 1 - x^r unless whole, over 1 - q x^r
            c = [a - (not whole and i >= r) * c[i - r] for i, a in enumerate(c)]
            c = [sum(q ** j * c[i - j * r] for j in range(i // r + 1)) for i in range(size + 1)]
        charge(c[-1], guard, "%s_%d over %s: %d classes" % (name, size, alg.name, c[-1]))
        return _memo(alg, key, lambda: _field_classes(alg, size, whole))
    if size == 1:       # each element a class, labelled by its residue
        charge(alg.size(), guard, "%s_1 over %s: %d matrices" % (name, alg.name, alg.size()))
        t, k = index_tables(alg), index_tables(alg.residue_field)
        elements = [x for x, unit in enumerate(t.is_unit) if whole or unit]
        return _memo(alg, key, lambda: ([((x,), 1) for x in elements], [
            frozenset({(k.neg[x % len(k.ring)], k.one)}) for x in elements]))
    residue = _classes(alg.residue_field, size, guard, whole)
    fibre, count = (alg.size() // alg.residue_field.size()) ** (size * size), len(residue[0])
    charge(count * fibre, guard, "%s_%d over %s: %d x %d = %d fibre points"
           % (name, size, alg.name, count, fibre, count * fibre))
    return _memo(alg, key, lambda: _lifted_classes(alg, size, *residue, guard))


def gl_classes(alg, size, guard=GUARD, whole=False):
    """The classes of GL_size(alg), with whole of M_size(alg), as (representative, size)."""
    return _classes(alg, size, guard, whole)[0]
