"""GL_n(R) over a finite commutative algebra R, and the base change group
G = prod_v GL_{alpha_v}(R) of a quiver at a rank vector alpha.

The one module that lists or partitions GL_n(R): the scan of the
invertible matrices and the union-find of their conjugacy classes, both
on element indices (ring_tables) and memoized per algebra and n in the
algebra's _gl_data dict.
"""

from collections import Counter
from itertools import permutations, product
from math import prod

from .multigraph import GUARD, _find, _merge, charge
from .polynomials import _integer
from .ring_tables import index_tables


def _validate_alpha(quiver, alpha):
    alpha = tuple(_integer(a, "rank") for a in alpha)
    if len(alpha) != quiver.n:
        raise ValueError("rank vector length %d != vertex count %d" % (len(alpha), quiver.n))
    if any(a < 0 for a in alpha) or not any(alpha):
        raise ValueError("rank vector needs non-negative entries, at least one positive")
    return alpha


def invertible_matrices(alg, n):
    """Every invertible n x n matrix over alg, in the order of
    product(elements(), repeat=n*n).  The determinant is linear in the last
    row, so each head (the first n - 1 rows) gives its signed cofactors
    once, and the determinants of all |R|^n completions come from one
    table pass per column."""
    if n == 0:
        return [()]
    t = index_tables(alg)
    k = len(t.ring)
    rows = list(product(range(k), repeat=n))
    row_elements = [tuple(t.ring[i] for i in row) for row in rows]
    out = []
    for head in product(range(len(rows)), repeat=n - 1):
        flat = tuple(i for h in head for i in rows[h])
        dets = [t.zero]
        for j in range(n):
            minor = tuple(flat[r * n + c] for r in range(n - 1) for c in range(n) if c != j)
            cofactor = t.det(minor, n - 1)
            by = t.mul[cofactor if (n - 1 + j) % 2 == 0 else t.neg[cofactor]]
            dets = [t.add[d][by[x]] for d in dets for x in range(k)]
        prefix = tuple(row_elements[h] for h in head)
        out.extend(prefix + (row_elements[r],) for r, d in enumerate(dets) if t.is_unit[d])
    return out


def conjugacy_classes(alg, n, elements):
    """Union-find over `elements`, all of GL_n(alg), joining each g with
    s g s^-1 for every generator s: E_ij(1) = 1 + e_ij, and diag(u, 1, ...,
    1) for u in a generating set of the units.  Each part lies in one
    conjugacy class whatever the s, so a sum over parts weighted by their
    sizes is exact.  Over a local ring the s generate GL_n, so the parts
    are the classes: they give every E_ij(u) with u a unit, each r is a
    unit or 1 + r is, so E_ij(r) = E_ij(1 + r) E_ij(-1), and E_n(R) =
    SL_n(R).  Matrices are conjugated as flat tuples of element indices
    through |R| x |R| index tables."""
    if n < 2:       # GL_0 and GL_1 are abelian
        return [(m, 1) for m in elements]
    t = index_tables(alg)
    ring, index, add, mul, one = t.ring, t.index, t.add, t.mul, t.one

    def powers(u):
        out, x = [one], u
        while x != one:
            out.append(x)
            x = mul[x][u]
        return out

    # Largest order first, so a cyclic R^x needs one generator; R^x is
    # abelian, so the subgroup <H, u> is H<u>.
    unit_gens, reached = [], {one}
    units = (u for u, unit in enumerate(t.is_unit) if unit)
    for u in sorted(units, key=lambda u: len(powers(u)), reverse=True):
        if u not in reached:
            unit_gens.append(ring[u])
            reached = {mul[x][y] for x in reached for y in powers(u)}

    def times(x):
        return mul[index[x]]

    # Each conjugation g -> s g s^-1 as steps m[a] += c * m[b], in order:
    # for 1 + e_ij, row i += row j, then column j -= column i; for
    # diag(u, 1, ..., 1), row 0 *= u, then column 0 *= u^-1, each entry
    # scaled as m[a] += (u - 1) * m[a].
    plus, minus = mul[one], mul[t.neg[one]]
    conjugations = [[(i * n + k, j * n + k, plus) for k in range(n)]
                    + [(k * n + j, k * n + i, minus) for k in range(n)]
                    for i, j in permutations(range(n), 2)]
    for u in unit_gens:
        u_minus_1, u_inv_minus_1 = alg.sub(u, alg.one), alg.sub(alg.inverse(u), alg.one)
        conjugations.append([(k, k, times(u_minus_1)) for k in range(n)]
                            + [(k * n, k * n, times(u_inv_minus_1)) for k in range(n)])

    def conjugates(g):
        for steps in conjugations:
            m = list(g)
            for target, source, by in steps:
                m[target] = add[m[target]][by[m[source]]]
            yield tuple(m)

    flat = [tuple(index[x] for row in m for x in row) for m in elements]
    position = {g: k for k, g in enumerate(flat)}
    parent = list(range(len(flat)))
    _merge(parent, ((k, position[h]) for k, g in enumerate(flat) for h in conjugates(g)))
    sizes = Counter(_find(parent, k) for k in range(len(flat)))
    return [(elements[root], count) for root, count in sorted(sizes.items())]


def _gl_table(alg, size, guard=GUARD):
    """The memo entry [every invertible size x size matrix in a fixed
    order, its conjugacy classes or None until first asked for]; one scan
    per algebra and size, kept in the algebra's _gl_data dict.  It charges
    the |alg|^(size^2) matrices the scan visits, cached or not."""
    matrices = alg.size() ** (size * size)
    charge(matrices, guard, "GL_%d over %s: %d matrices" % (size, alg.name, matrices))
    cache = getattr(alg, "_gl_data", None)
    if cache is None:
        cache = alg._gl_data = {}
    if size not in cache:
        cache[size] = [invertible_matrices(alg, size), None]
    return cache[size]


def gl_order(alg, size, guard=GUARD):
    """Order of GL_size(alg), by exhaustive unit-matrix count (memoized)."""
    return len(_gl_table(alg, size, guard)[0])


def gl_elements(alg, size, guard=GUARD):
    """Every invertible size x size matrix, deterministic order (memoized)."""
    return _gl_table(alg, size, guard)[0]


def gl_classes(alg, size, guard=GUARD):
    """The conjugacy classes of GL_size(alg) as (first element in the
    order of gl_elements, class size) pairs, in that order (memoized)."""
    entry = _gl_table(alg, size, guard)
    if entry[1] is None:
        entry[1] = conjugacy_classes(alg, size, entry[0])
    return entry[1]


def group_order(quiver, alg, alpha, guard=GUARD):
    alpha = _validate_alpha(quiver, alpha)
    return prod(gl_order(alg, a, guard) for a in alpha)


def enumerate_group(quiver, alg, alpha, guard=GUARD):
    """Yield every element of the product of GL's, one tuple per element;
    charges the GL scans and the |G| elements listed."""
    alpha = _validate_alpha(quiver, alpha)
    order = group_order(quiver, alg, alpha, guard)
    charge(order, guard, "|G| = %d group elements" % order)
    return product(*[gl_elements(alg, a, guard) for a in alpha])
