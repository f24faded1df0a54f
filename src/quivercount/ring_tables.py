"""A finite algebra as index tables, for loops that would otherwise call
its arithmetic element by element.

Elements are numbered 0..|R|-1 in the order of elements(); sums, products
and negatives are looked up in |R| x |R| tables built once per algebra.
The GL scan, the conjugacy-class partition, the zero-fiber filter of the
moment map and the scaling orbits of the toric oracle run on these
indices.

The arrow solve X -> gt X - X gs is one N x N system over the algebra,
as element indices.  Over a chain ring every ideal is (t^v), so its kernel
size comes from elimination over the ring itself.  Elsewhere each entry
becomes its multiplication block, the dim columns x * b_k kept per
distinct element, and the F_p system is ranked; the scaling orbits of the
counterexample read the same blocks.
"""

from collections import Counter
from itertools import permutations, product

from .multigraph import _find, _merge


class IndexTables:
    """The algebra's elements as indices 0..|R|-1 in the order of
    elements(): the ring list, the index map, |R| x |R| add and mul
    tables, and the neg, is_unit lists."""

    def __init__(self, alg):
        self.ring = ring = list(alg.elements())
        self.index = index = {x: i for i, x in enumerate(ring)}
        self.add = add = [[index[alg.add(x, y)] for y in ring] for x in ring]
        # b_k * y from the structure constants, then x * y by linearity in x:
        # index i > 0 counts in base p (digit k the coordinate on b_k), so x
        # is the element at i - p^k plus b_k for its lowest nonzero digit k
        by_basis = [[index[tuple(sum(c[t] * yj for c, yj in zip(row, y)) % alg.p
                                 for t in range(alg.dim))] for y in ring] for row in alg.table]
        self.mul = [[0] * len(ring)]
        for i in range(1, len(ring)):
            k = next(k for k in range(alg.dim) if i % alg.p ** (k + 1))
            self.mul.append([add[a][b] for a, b in zip(self.mul[i - alg.p ** k], by_basis[k])])
        self.neg = [index[alg.neg(x)] for x in ring]
        self.is_unit = [alg.is_unit(x) for x in ring]
        self.zero, self.one = index[alg.zero()], index[alg.one]

    def det(self, m, n):
        """Determinant of the n x n matrix given as a flat tuple of indices,
        by expansion along the first row."""
        if n == 0:
            return self.one
        if n == 1:
            return m[0]
        det = self.zero
        for j in range(n):
            minor = tuple(m[r * n + c] for r in range(1, n) for c in range(n) if c != j)
            term = self.mul[m[j]][self.det(minor, n - 1)]
            det = self.add[det][term if j % 2 == 0 else self.neg[term]]
        return det


def index_tables(alg):
    """The algebra's IndexTables, built once and kept on the algebra."""
    tables = getattr(alg, "_index_data", None)
    if tables is None:
        tables = alg._index_data = IndexTables(alg)
    return tables


def mul_block(alg, x):
    """Multiplication by x as its dim columns x * b_k over F_p, each a
    tuple of the (coordinate, value) pairs with value nonzero.  Filled
    lazily per distinct element and kept on the algebra as _block_data."""
    blocks = getattr(alg, "_block_data", None)
    if blocks is None:
        blocks = alg._block_data = {}
    block = blocks.get(x)
    if block is None:
        p, table, columns = alg.p, alg.table, []
        for k in range(alg.dim):
            column = [0] * alg.dim
            for i, xi in enumerate(x):
                if xi:
                    for t, c in enumerate(table[i][k]):
                        column[t] += xi * c
            columns.append(tuple((t, v % p) for t, v in enumerate(column) if v % p))
        block = blocks[x] = tuple(columns)
    return block


def arrow_system(alg, gt, gs, rows, cols):
    """X -> gt X - X gs on rows x cols matrices as an N x N matrix over alg,
    N = rows * cols, entries as element indices: row a * cols + c is entry
    (a, c) of the image, column i * cols + j entry (i, j) of X.  It is the
    Kronecker sum gt (x) 1 - 1 (x) gs^T."""
    t = index_tables(alg)
    left = [[t.index[x] for x in row] for row in gt]
    minus = [[t.neg[t.index[x]] for x in column] for column in zip(*gs)]
    system = []
    for a, c in product(range(rows), range(cols)):
        row = [t.zero] * (rows * cols)
        row[a * cols:(a + 1) * cols] = minus[c]
        row[c::cols] = left[a]
        row[a * cols + c] = t.add[left[a][a]][minus[c][c]]
        system.append(row)
    return system


def chain_nullity(alg, system):
    """F_p-dimension of the kernel of a square system of element indices
    over a chain ring, a field or alg.truncation = (d, bd), by Smith
    elimination.  A pivot u t^v of least valuation clears its column by row
    operations with the quotients b / t^v (index // q^v, a shift down by v
    blocks, q = p^bd); column operations would clear its row without
    changing |ker|, so its row and column are dropped.  A pivot adds
    ann(t^v), of F_p-dimension bd v, and a column left zero bd d."""
    t = index_tables(alg)
    data = getattr(alg, "_chain_data", None)
    if data is None:
        d, bd = alg.truncation or (1, alg.dim)
        q = alg.p ** bd
        # index 0 is zero; a valuation counts the zero blocks below the first nonzero one
        val = [d] + [next(v for v in range(d) if e % q ** (v + 1)) for e in range(1, len(t.ring))]
        minus_inverse = [t.mul[t.neg[row.index(t.one)]] if unit else None
                         for row, unit in zip(t.mul, t.is_unit)]
        data = alg._chain_data = (d, bd, q, val, minus_inverse)
    d, bd, q, val, minus_inverse = data
    add, mul = t.add, t.mul
    rows, total = [list(row) for row in system], 0
    while rows:
        v, r, c = d, 0, 0
        for i, row in enumerate(rows):      # least valuation, stopping at the first unit
            for j, x in enumerate(row):
                if val[x] < v:
                    v, r, c = val[x], i, j
                    if not v:
                        break
            if not v:
                break
        if v == d:
            return bd * (total + d * len(rows))
        total += v
        pivot, shift = rows.pop(r), q ** v
        by = minus_inverse[pivot.pop(c) // shift]
        pivot = [by[x] for x in pivot]      # the pivot entry is now -t^v
        for k, row in enumerate(rows):
            b = row.pop(c)
            if b:
                by = mul[b // shift]
                rows[k] = [add[x][by[y]] for x, y in zip(row, pivot)]
    return bd * total


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


def vanishing_points(alg, matrices, sums):
    """The index tuples into `matrices`, one list of matrices per slot, at
    which every sum vanishes; a sum is a list of signed products of two
    matrix entries, (slot, flat entry index, slot, flat entry index,
    negated).  A point is dropped at its first nonzero sum."""
    t = index_tables(alg)
    add, mul, neg, zero = t.add, t.mul, t.neg, t.zero
    flat = [[tuple(t.index[x] for row in m for x in row) for m in lst] for lst in matrices]
    for combo in product(*[range(len(f)) for f in flat]):
        point = [f[c] for f, c in zip(flat, combo)]
        for terms in sums:
            acc = zero
            for a, i, b, j, negated in terms:
                x = mul[point[a][i]][point[b][j]]
                acc = add[acc][neg[x] if negated else x]
            if acc != zero:
                break
        else:
            yield combo


def scaling_orbits(alg, m, scalings):
    """The first point, in product order, of each orbit of the index
    tuples of length m under the given coordinatewise scalings (tuples of
    m element indices, one per group element): one row of the product
    table per coordinate, and equal scalings given once."""
    t = index_tables(alg)
    rows = [tuple(t.mul[c] for c in scaling) for scaling in scalings]
    visited = set()
    for point in product(range(len(t.ring)), repeat=m):
        if point not in visited:
            visited.update(tuple(row[x] for row, x in zip(by, point)) for by in rows)
            yield point
