"""GL_n(R) over a finite commutative algebra R, and the base change group
G = prod_v GL_{alpha_v}(R) of a quiver at a rank vector alpha.

The one module that lists or partitions GL_n(R), memoized in the
algebra's _gl_data dict; a matrix, in and out, is a row-major flat tuple
of element indices (ring_tables).  Over a field the invertible matrices
are scanned and their conjugacy classes joined by union-find.  Over a
local ring R with residue field k the classes are lifted: GL_n(R) maps
onto GL_n(k) with kernel K = 1 + M_n(m), so each class lies over one
class of GL_n(k) and meets the fibre over its representative in one orbit
of the preimage of the centralizer.  A matrix over k has the indices of
its embedding in M_n(R), so the lift reads GL_n(k) as it is.
"""

from collections import Counter
from itertools import permutations, product
from math import prod

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


def _conjugation_steps(t, n, entries, units, positions):
    """Conjugations g -> s g s^-1 of flat index tuples, each as steps
    m[a] += c * m[b] in order: for s = 1 + x e_ij, x in entries, row i +=
    x row j, then column j -= x column i; for s = 1 + (u - 1) e_ii, u in
    units and i in positions, row i *= u, then column i *= u^-1 (indices)."""
    steps = []
    for x in entries:
        plus, minus = t.mul[x], t.mul[t.neg[x]]
        steps += [[(i * n + k, j * n + k, plus) for k in range(n)]
                  + [(k * n + j, k * n + i, minus) for k in range(n)]
                  for i, j in permutations(range(n), 2)]
    for u in units:
        up, down = (t.mul[t.add[v][t.neg[t.one]]] for v in (u, t.inverse[u]))
        steps += [[(i * n + k, i * n + k, up) for k in range(n)]
                  + [(k * n + i, k * n + i, down) for k in range(n)] for i in positions]
    return steps


def _orbit_parts(t, n, points, steps, lifts=()):
    """Union-find over points, flat index tuples, joining each with its
    conjugates by the steps, then each root so far with h g h^-1 for the
    (h, h^-1) in lifts, which must normalize the group of the steps.
    Returns (index of the first point, size) per part, in order.  A part
    lies in one class whatever the generators, so weighted sums are exact."""
    def conjugates(g):
        for conjugation in steps:
            m = list(g)
            for target, source, by in conjugation:
                m[target] = t.add[m[target]][by[m[source]]]
            yield tuple(m)

    position = {g: k for k, g in enumerate(points)}
    parent = list(range(len(points)))
    _merge(parent, ((k, position[h]) for k, g in enumerate(points) for h in conjugates(g)))
    roots = [k for k, root in enumerate(parent) if k == root]
    _merge(parent, ((k, position[times(t, times(t, h, points[k], n, n, n), h_inv, n, n, n)])
                    for k in roots for h, h_inv in lifts))
    return sorted(Counter(_find(parent, k) for k in range(len(points))).items())


def conjugacy_classes(alg, n, elements):
    """The classes of GL_n over a field alg, or of an abelian GL_n (n < 2),
    as (first of `elements`, all of GL_n(alg), in the class, class size),
    in that order.  The generators E_ij(1) = 1 + e_ij and diag(u, 1, ...,
    1), u the primitive element, give GL_n: conjugating E_ij(1) by powers
    of the diagonal gives every E_0j(c) and E_i0(c), their commutators
    every E_ij(c), so SL_n, and u every determinant."""
    if n < 2:
        return [(m, 1) for m in elements]
    t = index_tables(alg)
    steps = _conjugation_steps(t, n, [t.one], [t.index[alg.primitive_element()]], [0])
    return [(elements[k], size) for k, size in _orbit_parts(t, n, elements, steps)]


def _lifted_classes(alg, n, residue_classes, guard):
    """The classes of GL_n(alg), alg local but not a field, lifted from
    those of GL_n(k), k the residue field: (first point of a part, size).
    The fibre g0 + M_n(m) over g0, whose indices are those of g0 in k,
    is joined by K = 1 + M_n(m): row reduction leaves a diagonal in 1 + m,
    so K is generated by 1 + b e_ij, b in the basis of m, and 1 + y e_ii,
    i < n - 1 as scalars act trivially, y in the nonzero products of basis
    vectors; these span each m^j, so the 1 + y generate 1 + m layer by
    layer.  Lifts of the centralizer's generators then join K-orbits: the
    commuting elements of GL_n(k), in order, kept when outside the group
    of those kept, until it has |GL_n(k)| / size0 elements.  A part of s
    points is a class of size0 * s."""
    t, elements = index_tables(alg), gl_elements(alg.residue_field, n, guard)
    one = tuple(t.one if i == j else t.zero for i in range(n) for j in range(n))
    basis = [t.index[alg.basis_vector(i)] for i in range(alg.residue_field.dim, alg.dim)]
    products = list(basis)
    for x in products:
        for y in (t.mul[x][b] for b in basis):
            if y != t.zero and y not in products:
                products.append(y)
    steps = _conjugation_steps(t, n, basis, [t.add[t.one][y] for y in products], range(n - 1))
    ideal = [x for x, unit in enumerate(t.is_unit) if not unit]
    out = []
    for g0, size0 in residue_classes:
        gens, group, lifts = [], {one}, []
        for h in elements:
            if len(group) == len(elements) // size0:
                break
            if h not in group and times(t, h, g0, n, n, n) == times(t, g0, h, n, n, n):
                gens.append(h)
                group, new = {one}, {one}
                while new:
                    new = {times(t, x, s, n, n, n) for x in new for s in gens} - group
                    group |= new
        for h in gens:
            powers = [h]        # h^-1 is the power of h just before 1; all lie in group
            while powers[-1] != one:
                if len(powers) > len(group):
                    raise ArithmeticError("no power of a centralizer generator is 1")
                powers.append(times(t, powers[-1], h, n, n, n))
            lifts.append((h, powers[-2]))
        fibre = [tuple(t.add[b][x] for b, x in zip(g0, xs)) for xs in product(ideal, repeat=n * n)]
        out += [(fibre[k], size0 * size) for k, size in _orbit_parts(t, n, fibre, steps, lifts)]
    return out


def _memo(alg, key, build):
    """build() once per algebra and key, kept in the algebra's _gl_data."""
    cache = alg.__dict__.setdefault("_gl_data", {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _gl_table(alg, size, guard=GUARD):
    """Every invertible size x size matrix in a fixed order, memoized; it
    charges the |alg|^(size^2) matrices the scan visits, cached or not."""
    matrices = alg.size() ** (size * size)
    charge(matrices, guard, "GL_%d over %s: %d matrices" % (size, alg.name, matrices))
    return _memo(alg, size, lambda: invertible_matrices(alg, size))


def gl_order(alg, size, guard=GUARD):
    """Order of GL_size(alg), by exhaustive unit-matrix count (memoized)."""
    return len(_gl_table(alg, size, guard))


def gl_elements(alg, size, guard=GUARD):
    """Every invertible size x size matrix as a row-major flat tuple of
    element indices, deterministic order (memoized)."""
    return _gl_table(alg, size, guard)


def gl_classes(alg, size, guard=GUARD):
    """The conjugacy classes of GL_size(alg) as (representative, class
    size) pairs (memoized), each representative a flat index tuple.  Over
    a field, or for size < 2, from the scan, each the first of its class in
    the order of gl_elements.  Over a local ring lifted from the residue
    field k, charging the fibre points #classes(GL_size(k)) x |m|^(size^2),
    cached or not; as |m| >= |k| they bound the centralizer search too."""
    if alg.is_field or size < 2:
        elements = _gl_table(alg, size, guard)
        return _memo(alg, ("classes", size), lambda: conjugacy_classes(alg, size, elements))
    residue = gl_classes(alg.residue_field, size, guard)
    fibre = (alg.size() // alg.residue_field.size()) ** (size * size)
    points = len(residue) * fibre
    charge(points, guard, "GL_%d over %s: %d x %d = %d fibre points"
           % (size, alg.name, len(residue), fibre, points))
    return _memo(alg, ("classes", size), lambda: _lifted_classes(alg, size, residue, guard))


def group_order(quiver, alg, alpha, guard=GUARD):
    alpha = _validate_alpha(quiver, alpha)
    return prod(gl_order(alg, a, guard) for a in alpha)


def enumerate_group(quiver, alg, alpha, guard=GUARD):
    """Yield every element of the product of GL's, a tuple of flat index
    tuples, one per vertex; charges the GL scans and the |G| elements listed."""
    alpha = _validate_alpha(quiver, alpha)
    order = group_order(quiver, alg, alpha, guard)
    charge(order, guard, "|G| = %d group elements" % order)
    return product(*[gl_elements(alg, a, guard) for a in alpha])
