"""Named graph families and small-graph enumeration by canonical
augmentation.

The enumerator produces connected multigraphs with loops and parallel
edges; it backs the property batteries, which sweep every isomorphism
class up to a given edge count.  The classes with e edges grow from those
with e - 1: add an edge between old vertices (a loop included), or a
pendant edge to a new vertex, and keep the canonical key of the result.
That reaches every class, because a connected graph with e >= 1 edges
has an edge that is not a bridge, or it is a tree and has a leaf; deleting
that edge, or that leaf with its edge, leaves a connected graph with
e - 1 edges.
"""

from functools import lru_cache
from itertools import permutations

from .multigraph import Multigraph, Quiver


def cycle_graph(n):
    """C_n: vertices 1..n, edge i -- i+1 (mod n).  C_1 is a single loop."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return Multigraph(n, [(i, i, i % n + 1) for i in range(1, n + 1)])


def path_graph(n):
    """A_n: n vertices in a row, n-1 edges."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return Multigraph(n, [(i, i, i + 1) for i in range(1, n)])


def loops_graph(m):
    """S_m: a single vertex carrying m loops (S_0 is the point)."""
    if m < 0:
        raise ValueError("m >= 0 required")
    return Multigraph(1, [(i, 1, 1) for i in range(1, m + 1)])


def banana_graph(m):
    """Two vertices joined by m parallel edges (m = 2 gives C_2)."""
    if m < 1:
        raise ValueError("m >= 1 required")
    return Multigraph(2, [(i, 1, 2) for i in range(1, m + 1)])


def point_graph():
    return Multigraph(1, [])


def cycle_quiver(n):
    return Quiver(cycle_graph(n), {i: (i, i % n + 1) for i in range(1, n + 1)})


def path_quiver(n):
    return Quiver(path_graph(n), {i: (i, i + 1) for i in range(1, n)})


def jordan_quiver(m=1):
    return Quiver(loops_graph(m), {i: (1, 1) for i in range(1, m + 1)})


def banana_quiver(m):
    return Quiver(banana_graph(m), {i: (1, 2) for i in range(1, m + 1)})


def _canonical_form(n, pairs):
    """The class key (n, pairs') of a multigraph on vertices 1..n: pairs'
    is the lexicographically least sorted tuple of (min, max) endpoint
    pairs over all n! vertex relabelings.

    A scan over every edge multiset on 1..n in lexicographic order meets
    each class first at this labeling, so the representatives built from
    the keys, in key order, are the ones such a scan keeps."""
    return (n, min(tuple(sorted((p[u], p[v]) if p[u] <= p[v] else (p[v], p[u])
                                for u, v in pairs))
                   for p in ((0,) + perm for perm in permutations(range(1, n + 1)))))


@lru_cache(maxsize=None)
def _connected_classes(edges):
    """The class keys of the connected multigraphs with exactly `edges`
    edges, each class with e >= 1 edges grown from a key with e - 1: add
    an edge (u, v), u <= v <= n, or a pendant edge (u, n + 1)."""
    if edges == 0:
        return frozenset([(1, ())])
    keys = set()
    for n, pairs in _connected_classes(edges - 1):
        for u in range(1, n + 1):
            for v in range(u, n + 2):
                keys.add(_canonical_form(max(n, v), pairs + ((u, v),)))
    return frozenset(keys)


def all_connected_multigraphs(max_edges):
    """All connected multigraphs with at most max_edges edges, one labeled
    representative per isomorphism class (loops and parallel edges
    included): the key's pairs as edges 1, 2, ..., sorted by (edge count,
    vertex count, key), as a lexicographic scan of edge multisets would
    list them.  ValueError unless max_edges is an int >= 0.
    """
    if type(max_edges) is not int or max_edges < 0:
        raise ValueError("max_edges must be an int >= 0, not %r" % (max_edges,))
    return _connected_multigraphs(max_edges)


@lru_cache(maxsize=None)
def _connected_multigraphs(max_edges):
    keys = sorted((key for e in range(max_edges + 1) for key in _connected_classes(e)),
                  key=lambda key: (len(key[1]), key))
    return tuple(Multigraph(n, [(i + 1, u, v) for i, (u, v) in enumerate(pairs)])
                 for n, pairs in keys)


def random_connected_multigraph(rng, max_edges=5):
    """One uniform-ish connected multigraph with 1..max_edges edges."""
    while True:
        e = rng.randint(1, max_edges)
        n = rng.randint(1, e + 1)
        edges = [(i + 1, *sorted((rng.randint(1, n), rng.randint(1, n)))) for i in range(e)]
        g = Multigraph(n, edges)
        if g.is_connected():
            return g
