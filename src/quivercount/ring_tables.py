"""A finite algebra as index tables, for loops that would otherwise call
its arithmetic element by element.

Elements are numbered 0..|R|-1 in the order of elements(): index i counts
in base p, digit k the coordinate on b_k, so a residue-field element has
the index of its embedding (x, 0, ..., 0) and the residue of index i is
i mod |k|.  Sums, products, negatives and unit inverses are looked up in
tables built once per algebra.  A matrix is a row-major flat tuple of
indices and times() its one product; gl.py and the engines of repenum.py
take no other form.

The arrow solve X -> gt X - X gs is one N x N system over the algebra,
as element indices.  Over a chain ring every ideal is (t^v), so its kernel
size comes from elimination over the ring itself.  Elsewhere each entry
becomes its multiplication block, the dim columns x * b_k kept per
distinct element (block_system, also for gl.py's End(x)), and the F_p
system is ranked.  The one whole-space loop lists the toric scaling orbits.
"""

from functools import cached_property
from itertools import product


class IndexTables:
    """The algebra's elements as indices 0..|R|-1 in the order of
    elements(): the ring list, the index map, |R| x |R| add and mul
    tables, the neg, is_unit lists and, built on first use, inverse."""

    def __init__(self, alg):
        self.ring = ring = list(alg.elements())
        self.index = index = {x: i for i, x in enumerate(ring)}
        # Index i counts in base p, digit k the coordinate on b_k, so for
        # i > 0 and its lowest nonzero digit k, x_i is x_(i - p^k) plus b_k.
        # Adding b_k is the index permutation j -> j + p^k, or
        # j - (p - 1) p^k where digit k of j is p - 1; x_i + y and x_i * y
        # follow from row i - p^k by linearity in x.
        p, size = alg.p, len(ring)
        plus_basis = [[j - (p - 1) * p ** k if j // p ** k % p == p - 1 else j + p ** k
                       for j in range(size)] for k in range(alg.dim)]
        # b_k * y from the structure constants
        by_basis = [[index[tuple(sum(c[t] * yj for c, yj in zip(row, y)) % p
                                 for t in range(alg.dim))] for y in ring] for row in alg.table]
        lowest = [next(k for k in range(alg.dim) if i % p ** (k + 1)) for i in range(1, size)]
        self.add = add = [list(range(size))]
        for i, k in enumerate(lowest, 1):
            add.append([plus_basis[k][j] for j in add[i - p ** k]])
        self.mul = mul = [[0] * size]
        for i, k in enumerate(lowest, 1):
            mul.append([add[a][b] for a, b in zip(mul[i - p ** k], by_basis[k])])
        self.neg = [index[alg.neg(x)] for x in ring]
        self.is_unit = [alg.is_unit(x) for x in ring]
        self.zero, self.one = index[alg.zero()], index[alg.one]

    @cached_property
    def inverse(self):
        """u^-1 per unit index u, None per non-unit."""
        return [row.index(self.one) if unit else None for row, unit in zip(self.mul, self.is_unit)]

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
    if "_index_data" not in alg.__dict__:
        alg._index_data = IndexTables(alg)
    return alg._index_data


def times(t, a, b, rows, inner, cols):
    """The product of a rows x inner and an inner x cols matrix over t."""
    add, mul, out = t.add, t.mul, []
    for r, c in product(range(rows), range(cols)):
        acc = t.zero
        for k in range(inner):
            acc = add[acc][mul[a[r * inner + k]][b[k * cols + c]]]
        out.append(acc)
    return tuple(out)


def arrow_system(alg, gt, gs, rows, cols):
    """X -> gt X - X gs on rows x cols matrices as an N x N matrix over alg,
    N = rows * cols, entries as element indices: row a * cols + c is entry
    (a, c) of the image, column i * cols + j entry (i, j) of X.  It is the
    Kronecker sum gt (x) 1 - 1 (x) gs^T."""
    t = index_tables(alg)
    left = [gt[a * rows:(a + 1) * rows] for a in range(rows)]
    minus = [[t.neg[x] for x in gs[c::cols]] for c in range(cols)]
    system = []
    for a, c in product(range(rows), range(cols)):
        row = [t.zero] * (rows * cols)
        row[a * cols:(a + 1) * cols] = minus[c]
        row[c::cols] = left[a]
        row[a * cols + c] = t.add[left[a][a]][minus[c][c]]
        system.append(row)
    return system


def block_system(alg, system):
    """The F_p matrix of a system of element indices over alg: entry (r, c)
    becomes its multiplication block (alg.mul_matrix) in rows
    r * dim .. r * dim + dim - 1 and the same columns of c, each block
    built once per element index and kept as _block_data."""
    dim, ring = alg.dim, index_tables(alg).ring
    blocks = alg.__dict__.setdefault("_block_data", {})
    matrix = [[0] * (len(system[0]) * dim) for _ in range(len(system) * dim)]
    for r, row in enumerate(system):
        for c, x in enumerate(row):
            if x not in blocks:
                blocks[x] = alg.mul_matrix(ring[x])
            for s, values in enumerate(blocks[x]):
                matrix[r * dim + s][c * dim:(c + 1) * dim] = values
    return matrix


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
        minus_inverse = [None if u is None else t.mul[t.neg[u]] for u in t.inverse]
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
