"""GL_n(R) over a finite commutative algebra R, and the base change group
G = prod_v GL_{alpha_v}(R) of a quiver at a rank vector alpha.

The one module that lists or partitions GL_n(R), or M_n(R) under its
conjugation, memoized in the algebra's _gl_data dict; a matrix is a
row-major flat tuple of element indices (ring_tables).  Over a field the
invertible (or all) matrices are scanned and their classes joined by
union-find.  Over a local ring the classes are lifted from the residue
field's, each fibre listed modulo [M_n(soc R), g0] for its class g0.
"""

from collections import Counter
from itertools import permutations, product
from math import prod

from . import modp
from .multigraph import GUARD, _find, _merge, charge
from .polynomials import _integer
from .ring_tables import index_tables, times


def _validate_alpha(quiver, alpha):
    alpha = tuple(_integer(a, "rank") for a in alpha)
    if len(alpha) != quiver.n:
        raise ValueError("rank vector length %d != vertex count %d" % (len(alpha), quiver.n))
    if any(a < 0 for a in alpha) or not any(alpha):
        raise ValueError("rank vector needs non-negative entries, at least one positive")
    return alpha


def invertible_matrices(alg, n):
    """Every invertible n x n matrix over alg as a flat index tuple, in
    the order of product(elements(), repeat=n*n).  The determinant is
    linear in the last row, so each head (the first n - 1 rows) gives its
    signed cofactors once, and the determinants of all |R|^n completions
    come from one table pass per column."""
    if n == 0:
        return [()]
    t = index_tables(alg)
    k = len(t.ring)
    rows = list(product(range(k), repeat=n))
    out = []
    for head in product(range(len(rows)), repeat=n - 1):
        flat = tuple(i for h in head for i in rows[h])
        dets = [t.zero]
        for j in range(n):
            minor = tuple(flat[r * n + c] for r in range(n - 1) for c in range(n) if c != j)
            cofactor = t.det(minor, n - 1)
            by = t.mul[cofactor if (n - 1 + j) % 2 == 0 else t.neg[cofactor]]
            dets = [t.add[d][by[x]] for d in dets for x in range(k)]
        out.extend(flat + rows[r] for r, d in enumerate(dets) if t.is_unit[d])
    return out


def _orbit_parts(points, images):
    """Union-find over the points joined with their images, each image list
    aligned with points: (index of the first point, size) per part, in
    order.  A part lies in one class whatever the generators."""
    position, parent = {x: k for k, x in enumerate(points)}, list(range(len(points)))
    _merge(parent, ((k, position[x]) for image in images for k, x in enumerate(image)))
    return sorted(Counter(_find(parent, k) for k in range(len(points))).items())


def conjugacy_classes(alg, n, elements):
    """The GL_n-classes of `elements`, all of GL_n or M_n over a field alg
    (or n < 2), as (first of `elements` in the class, class size), in that
    order.  The generators E_ij(1) = 1 + e_ij and diag(u, 1, ..., 1), u the
    primitive element, give GL_n: conjugating E_ij(1) by powers of the
    diagonal gives every E_0j(c) and E_i0(c), their commutators every
    E_ij(c), so SL_n, and u every determinant.  A conjugation runs as steps
    m[a] += c * m[b], a row operation, then a column operation."""
    if n < 2:
        return [(m, 1) for m in elements]
    t = index_tables(alg)
    plus, minus, u = t.mul[t.one], t.mul[t.neg[t.one]], t.index[alg.primitive_element()]
    up, down = (t.mul[t.add[v][t.neg[t.one]]] for v in (u, t.inverse[u]))
    steps = [[(i * n + k, j * n + k, plus) for k in range(n)]
             + [(k * n + j, k * n + i, minus) for k in range(n)]
             for i, j in permutations(range(n), 2)]
    steps.append([(k, k, up) for k in range(n)] + [(k * n, k * n, down) for k in range(n)])

    def conjugate(g, conjugation):
        m = list(g)
        for target, source, by in conjugation:
            m[target] = t.add[m[target]][by[m[source]]]
        return tuple(m)

    images = ([conjugate(g, conjugation) for g in elements] for conjugation in steps)
    return [(elements[k], size) for k, size in _orbit_parts(elements, images)]


def _lifted_classes(alg, n, residue_classes, guard):
    """The classes of GL_n(alg) (or M_n(alg)), alg local but not a field,
    lifted from those of GL_n(k) (or M_n(k)), k the residue field (indices
    as in alg): (first point of a part, size).  A class meets the fibre
    g0 + M_n(m) over its residue class g0 in one stabilizer orbit.  As
    soc m = 0, 1 + Y in 1 + M_n(soc) adds [Y, g0], so a point modulo
    W = [M_n(soc), g0] is its F_p coordinates outside the pivots of W,
    packed width bits each.  The other generators: 1 + y e_ij, y a nonzero
    product of basis vectors of m outside soc, ij not the last diagonal cell
    as scalars act trivially (row reduction leaves a diagonal in 1 + m,
    which the 1 + y generate layer by layer); lifts of the commuting
    elements of GL_n(k), in order, kept when outside the group of those
    kept, until it has |GL_n(k)| / size0 elements.  Each A maps H to
    A H A^-1 + A g0 A^-1 - g0 mod W.  A part of s points: size0 |W| s elements."""
    t, elements = index_tables(alg), gl_elements(alg.residue_field, n, guard)
    p, rd, cells = alg.p, alg.residue_field.dim, range(n * n)
    one = tuple(t.one if i == j else t.zero for i in range(n) for j in range(n))

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
    for g0, size0 in residue_classes:
        centralizer, group, lifts = [], {one}, []
        for h in elements:
            if len(group) == len(elements) // size0:
                break
            if h not in group and times(t, h, g0, n, n, n) == times(t, g0, h, n, n, n):
                centralizer.append(h)
                group, new = {one}, {one}
                while new:
                    new = {times(t, x, s, n, n, n) for x in new for s in centralizer} - group
                    group |= new
        for h in centralizer:
            powers = [h]        # h^-1 is the power of h just before 1; all lie in group
            while powers[-1] != one:
                if len(powers) > len(group):
                    raise ArithmeticError("no power of a centralizer generator is 1")
                powers.append(times(t, powers[-1], h, n, n, n))
            lifts.append((h, powers[-2]))
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
            out.append((tuple(g), size0 * p ** len(pivots) * size))
    return out


def _memo(alg, key, build):
    """build() once per algebra and key, kept in the algebra's _gl_data."""
    cache = alg.__dict__.setdefault("_gl_data", {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def gl_elements(alg, size, guard=GUARD):
    """Every invertible size x size matrix as a row-major flat tuple of
    element indices, in a fixed order, memoized; it charges the
    |alg|^(size^2) matrices the scan visits, cached or not."""
    matrices = alg.size() ** (size * size)
    charge(matrices, guard, "GL_%d over %s: %d matrices" % (size, alg.name, matrices))
    return _memo(alg, size, lambda: invertible_matrices(alg, size))


def gl_classes(alg, size, guard=GUARD, whole=False):
    """The conjugacy classes of GL_size(alg), or with whole those of all of
    M_size(alg) under GL_size(alg), as (representative, class size) pairs
    (memoized), each a flat index tuple: over a field, or for size < 2,
    from the scan (all |alg|^(size^2) matrices in product order with
    whole, charged as gl_elements), each the first of its class; over a
    local ring lifted from the residue field k, charging #classes(GL_size(k))
    (M_size(k)) x |m|^(size^2) fibre points, cached or not, which bound
    the points listed and, as |m| >= |k|, the centralizer search."""
    key = "classes", size, whole
    if alg.is_field or size < 2:
        if whole:
            matrices = alg.size() ** (size * size)
            charge(matrices, guard, "M_%d over %s: %d matrices" % (size, alg.name, matrices))
            elements = product(range(alg.size()), repeat=size * size)
        else:
            elements = gl_elements(alg, size, guard)
        return _memo(alg, key, lambda: conjugacy_classes(alg, size, list(elements)))
    residue = gl_classes(alg.residue_field, size, guard, whole)
    fibre = (alg.size() // alg.residue_field.size()) ** (size * size)
    points = len(residue) * fibre
    charge(points, guard, "%s_%d over %s: %d x %d = %d fibre points"
           % ("M" if whole else "GL", size, alg.name, len(residue), fibre, points))
    return _memo(alg, key, lambda: _lifted_classes(alg, size, residue, guard))


def enumerate_group(quiver, alg, alpha, guard=GUARD):
    """Yield every element of the product of GL's, a tuple of flat index
    tuples, one per vertex; charges the GL scans and the |G| elements listed."""
    lists = [gl_elements(alg, a, guard) for a in _validate_alpha(quiver, alpha)]
    order = prod(map(len, lists))
    charge(order, guard, "|G| = %d group elements" % order)
    return product(*lists)
