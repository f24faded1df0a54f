"""A finite algebra as index tables, for loops that would otherwise call
its arithmetic element by element.

Elements are numbered 0..|R|-1 in the order of elements(); sums, products
and negatives are looked up in |R| x |R| tables built once per algebra.
The GL scan, the conjugacy-class partition and the toric oracle run on
these indices.
"""

from itertools import product


class IndexTables:
    """The algebra's elements as indices 0..|R|-1 in the order of
    elements(): the ring list, the index map, |R| x |R| add and mul
    tables, and the neg, is_unit lists."""

    def __init__(self, alg):
        self.ring = ring = list(alg.elements())
        self.index = index = {x: i for i, x in enumerate(ring)}
        self.add = [[index[alg.add(x, y)] for y in ring] for x in ring]
        self.mul = [[index[alg.mul(x, y)] for y in ring] for x in ring]
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
