"""Undirected multigraphs with stable edge ids, plus quivers.

Vertices are labeled 1..n.  Edges carry ids that survive subgraph and
contraction operations, so depth functions and filtrations transport
canonically.  Loops and parallel edges are allowed everywhere.
"""

from functools import lru_cache
from math import comb
from operator import index

from .polynomials import QTPoly, _integer

GUARD = 1 << 24


class GuardError(RuntimeError):
    """An enumeration would exceed its configured size guard."""


def charge(count, guard, what):
    """Admit an enumeration of count items, predicted before the first is
    listed, or raise GuardError naming them by what.  The one guard check
    of the library: every guarded entry point takes guard=GUARD and charges
    each enumeration it makes, memoized or not."""
    if count > guard:
        raise GuardError("%s exceed guard %d" % (what, guard))


class Multigraph:
    __slots__ = ("n", "edges", "_by_id", "_outside_b1", "_subset_b1")

    def __init__(self, vertex_count, edges):
        """edges: iterable of (edge_id, u, v) with 1 <= u, v <= vertex_count."""
        self.n = _integer(vertex_count, "vertex count")
        if self.n < 0:
            raise ValueError("vertex_count must be >= 0")
        try:
            self.edges = tuple((index(e), index(u), index(v)) for e, u, v in edges)
        except TypeError as exc:
            raise ValueError("edge ids and endpoints must be integers: %s" % exc) from None
        self._by_id = {}
        for e, u, v in self.edges:
            if e in self._by_id:
                raise ValueError("duplicate edge id %d" % e)
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError("edge %d has endpoint outside 1..%d" % (e, self.n))
            self._by_id[e] = (u, v)
        self._outside_b1 = self._subset_b1 = None   # memos of _b1_outside and subset_b1

    def edge_ids(self):
        return tuple(e for e, _, _ in self.edges)

    def endpoints(self, eid):
        try:
            return self._by_id[eid]
        except KeyError:
            raise ValueError("unknown edge id %r" % (eid,)) from None

    def edge_count(self):
        return len(self.edges)

    def is_loop(self, eid):
        u, v = self.endpoints(eid)
        return u == v

    def _check_subset(self, a):
        a = frozenset(a)
        for e in a:
            if e not in self._by_id:
                raise ValueError("unknown edge id %r" % (e,))
        return a

    def component_count(self):
        return self.n - _merge(list(range(self.n + 1)), ((u, v) for _, u, v in self.edges))

    def is_connected(self):
        return self.n <= 1 or self.component_count() == 1

    def b1(self):
        """First Betti number: #edges - #vertices + #components."""
        return len(self.edges) - self.n + self.component_count()

    def spanning_subgraph(self, a):
        """Keep all vertices, restrict edges to the subset a."""
        a = self._check_subset(a)
        return Multigraph(self.n, [t for t in self.edges if t[0] in a])

    def contract(self, a):
        """Contract every edge in a; loops in a are deleted without merging.

        Surviving edges keep their ids; an edge whose endpoints merge
        becomes a loop.  New vertices are relabeled 1..m in order of the
        smallest original label in each merged class.
        """
        a = self._check_subset(a)
        parent = list(range(self.n + 1))
        _merge(parent, (self._by_id[e] for e in a))
        reps = sorted({_find(parent, v) for v in range(1, self.n + 1)})
        relabel = {r: i + 1 for i, r in enumerate(reps)}
        new_edges = [(e, relabel[_find(parent, u)], relabel[_find(parent, v)])
                     for e, u, v in self.edges if e not in a]
        return Multigraph(len(reps), new_edges)

    def b1_of_contraction(self, a):
        """b1(self / a) = b1(self) - b1(self[a]), without building either:
        contracting a lowers the rank by that of a and drops its edges."""
        a = self._check_subset(a)
        return self._b1_outside(frozenset()) - self._b1_outside(frozenset(self._by_id) - a)

    def subset_b1(self, ids, guard=GUARD):
        """b1 of the spanning subgraph on every subset of the edge ids, as a
        list by bitmask over ids (bit i for ids[i]), kept on the graph for
        the last ids (callers only read it); its 2^m entries are charged
        before the memo is read.  b1(S + e) = b1(S) + [the ends of e are
        joined in S], the component labels carried depth-first over the bits."""
        ids = tuple(ids)
        m = len(ids)
        charge(1 << m, guard, "2^%d = %d subsets" % (m, 1 << m))
        if self._subset_b1 is None or self._subset_b1[0] != ids:
            if len(set(ids)) < m:
                raise ValueError("duplicate edge id in %r" % (ids,))
            ends, table = [self.endpoints(e) for e in ids], [0] * (1 << m)

            def fill(mask, start, label):       # label[v]: one vertex of v's class in mask
                b = table[mask]
                for j in range(start, m):
                    u, v = ends[j]
                    x, y = label[u], label[v]
                    table[mask | 1 << j] = b + (x == y)
                    if j + 1 < m:
                        fill(mask | 1 << j, j + 1,
                             label if x == y else [x if z == y else z for z in label])
            fill(0, 0, list(range(self.n + 1)))
            self._subset_b1 = ids, table
        return self._subset_b1[1]

    def _b1_outside(self, f):
        """b1 of the spanning subgraph on the edges outside the frozenset f,
        memoized per f on the graph and filled on a miss by one union-find."""
        memo = self._outside_b1 = self._outside_b1 or {}
        b1 = memo.get(f)
        if b1 is None:
            pairs = [(u, v) for e, u, v in self.edges if e not in f]
            b1 = memo[f] = len(pairs) - _merge(list(range(self.n + 1)), pairs)
        return b1

    def spanning_connected(self, a):
        """True iff the spanning subgraph on edge subset a is connected."""
        try:
            return _merge(list(range(self.n + 1)), (self._by_id[e] for e in a)) == self.n - 1
        except KeyError as unknown:
            raise ValueError("unknown edge id %r" % unknown.args) from None

    def bridge_count(self):
        """Number of edges whose deletion disconnects their component."""
        # deleting any other edge, a loop included, lowers b1 by one
        b1 = self._b1_outside(frozenset())
        return sum(1 for e in self._by_id if self._b1_outside(frozenset([e])) == b1)

    def spanning_tree_count(self):
        """Number of spanning trees by an exact reduced-Laplacian determinant.

        Loops are ignored; parallel edges count with multiplicity.
        Returns 0 when disconnected, 1 for a single vertex.
        """
        if self.n <= 1:
            return self.n
        lap = [[0] * (self.n + 1) for _ in range(self.n + 1)]
        for _, u, v in self.edges:
            if u != v:
                for a, b, d in ((u, u, 1), (v, v, 1), (u, v, -1), (v, u, -1)):
                    lap[a][b] += d
        return _bareiss_det([row[2:] for row in lap[2:]])   # vertex 1 deleted

    def canonical_key(self):
        return (self.n, tuple(sorted((min(u, v), max(u, v)) for _, u, v in self.edges)))

    def tutte(self):
        """Tutte polynomial (variables x, y) by deletion-contraction."""
        if not self.is_connected():
            raise ValueError("Tutte polynomial implemented for connected graphs only")
        return _tutte_key(self.canonical_key())

    def __str__(self):
        return "Multigraph(%d vertices; edges %s)" % (
            self.n, ", ".join("%d:%d-%d" % t for t in self.edges))

    __repr__ = __str__


def _find(parent, x):
    """Root of x in a union-find parent list, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _merge(parent, pairs):
    """Union the endpoints of each pair, always under the smaller root, so
    every class stays rooted at its smallest vertex; returns the number of
    pairs that joined two classes."""
    merges = 0
    for u, v in pairs:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            if ru > rv:
                ru, rv = rv, ru
            parent[rv] = ru
            merges += 1
    return merges


def _bareiss_det(m):
    """Fraction-free exact integer determinant (Bareiss)."""
    a = [row[:] for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


@lru_cache(maxsize=None)
def _tutte_key(key):
    n, pairs = key
    g = Multigraph(n, [(i + 1, u, v) for i, (u, v) in enumerate(pairs)])
    if not g.edges:
        return QTPoly.const(1, vars=("x", "y"))
    eid, u, v = g.edges[0]
    deleted = g.spanning_subgraph(g.edge_ids()[1:])
    if u == v:
        return QTPoly.monomial(0, 1, vars=("x", "y")) * _tutte_key(deleted.canonical_key())
    if deleted.component_count() > g.component_count():
        # bridge
        return QTPoly.monomial(1, 0, vars=("x", "y")) * _tutte_key(g.contract([eid]).canonical_key())
    return (_tutte_key(deleted.canonical_key())
            + _tutte_key(g.contract([eid]).canonical_key()))


def strict_filtrations(edge_ids, guard=GUARD):
    """Yield every strict filtration of the edge set as a chain of
    cumulative frozensets (F_1, ..., F_l) with F_l the full set.

    Equivalently all ordered set partitions; for |E| = m there are
    Fubini(m) of them, charged before the first is listed.  The chains are
    walked as bitmasks, each F_i taken from one list of the 2^m cumulative
    sets.  The empty set yields one empty chain; a repeated id is refused
    with ValueError.
    """
    ids = tuple(sorted(edge_ids))
    if len(set(ids)) < len(ids):
        raise ValueError("duplicate edge id in %r" % (ids,))
    chains = _fubini(len(ids))
    charge(chains, guard, "Fubini(%d) = %d strict filtrations" % (len(ids), chains))

    def walk():
        sets = [frozenset()]
        for e in ids:
            sets += [s | {e} for s in sets]
        stack = [(0, ())]
        while stack:
            done, chain = stack.pop()
            rest = block = (len(sets) - 1) ^ done
            if not rest:
                yield chain
            while block:
                stack.append((done | block, chain + (sets[done | block],)))
                block = (block - 1) & rest

    return walk()


@lru_cache(maxsize=None)
def _fubini(m):
    """Ordered Bell number: the ordered set partitions of an m-set."""
    row = [1]
    for n in range(1, m + 1):
        row.append(sum(comb(n, k) * row[n - k] for k in range(1, n + 1)))
    return row[m]


class Quiver:
    """A multigraph whose edges carry an orientation (source, target)."""

    __slots__ = ("graph", "orientation")

    def __init__(self, graph, orientation):
        self.graph = graph
        self.orientation = dict(orientation)
        for e, u, v in graph.edges:
            st = self.orientation.get(e)
            if st is None or {st[0], st[1]} != {u, v}:
                raise ValueError("orientation of edge %d inconsistent with endpoints" % e)

    @classmethod
    def from_edges(cls, vertex_count, arrows):
        """arrows: iterable of (source, target); ids assigned 1..m in order."""
        arrows = [(i + 1, s, t) for i, (s, t) in enumerate(arrows)]
        g = Multigraph(vertex_count, arrows)
        return cls(g, {e: (u, v) for e, u, v in arrows})

    @property
    def n(self):
        return self.graph.n

    def arrows(self):
        """Ordered (edge_id, source, target) triples."""
        return tuple((e, *self.orientation[e]) for e, _, _ in self.graph.edges)

    def flip(self, edge_subset):
        new = dict(self.orientation)
        for e in self.graph._check_subset(edge_subset):
            s, t = new[e]
            new[e] = (t, s)
        return Quiver(self.graph, new)

    def all_orientations(self):
        proper = [e for e in self.graph.edge_ids() if not self.graph.is_loop(e)]
        for mask in range(1 << len(proper)):
            yield self.flip([proper[i] for i in range(len(proper)) if mask >> i & 1])

    def __str__(self):
        return "Quiver(%d vertices; arrows %s)" % (
            self.n, ", ".join("%d:%d->%d" % a for a in self.arrows()))

    __repr__ = __str__
