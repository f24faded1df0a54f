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
    """The class key (n, pairs') of a multigraph on 1..n: pairs' is the
    least sorted tuple of (min, max) endpoint pairs over all relabelings,
    so a lexicographic scan of edge multisets meets each class first there.
    It lists (a, b) c(a, b) times, so its labeling has the greatest rows
    (c(a, a), ..., c(a, n)) in turn.  Individualization-refinement (McKay
    and Piperno, "Practical graph isomorphism, II", 2014) finds it: the
    unlabeled vertices stay sorted by multiplicity to the labeled ones,
    larger first; row a labels one of the first block of ties, and equal
    branches merge."""
    c = [[0] * (n + 1) for _ in range(n + 1)]
    for u, v in pairs:
        c[u][v] += 1
        c[v][u] += u != v
    states, rows = {tuple(((), w) for w in range(1, n + 1))}, []
    for _ in range(n):
        best, after = None, set()
        for state in states:        # sorted (negated multiplicities, vertex)
            for v in [w for s, w in state if s == state[0][0]]:
                cv = c[v]
                new = tuple(sorted((s + (-cv[w],), w) for s, w in state if w != v))
                row = [cv[v]] + [-s[-1] for s, _ in new]
                if best is None or row > best:
                    best, after = row, set()
                if row == best:
                    after.add(new)
        states = after
        rows.append(best)
    return (n, tuple((a, b) for a, row in enumerate(rows, 1)
                     for b, k in enumerate(row, a) for _ in range(k)))


@lru_cache(maxsize=None)
def _class_keys(max_edges):
    """The class keys with at most max_edges edges, sorted by (edge count,
    key); those with e >= 1 edges grow from the keys with e - 1 by an edge
    (u, v), u <= v <= n, or a pendant edge (u, n + 1)."""
    if max_edges == 0:
        return ((1, ()),)
    keys = _class_keys(max_edges - 1)
    return keys + tuple(sorted({_canonical_form(max(n, v), pairs + ((u, v),))
                                for n, pairs in keys if len(pairs) == max_edges - 1
                                for u in range(1, n + 1) for v in range(u, n + 2)}))


def all_connected_multigraphs(max_edges):
    """All connected multigraphs with at most max_edges edges, one labeled
    representative per isomorphism class (loops and parallel edges
    included): the key's pairs as edges 1, 2, ..., in key order, as a
    lexicographic scan of edge multisets would list them.  Built anew on
    each call from cached keys, so a caller's memos on them go with it.
    ValueError unless max_edges is an int >= 0."""
    if type(max_edges) is not int or max_edges < 0:
        raise ValueError("max_edges must be an int >= 0, not %r" % (max_edges,))
    return tuple(Multigraph(n, [(i + 1, u, v) for i, (u, v) in enumerate(pairs)])
                 for n, pairs in _class_keys(max_edges))


def random_connected_multigraph(rng, max_edges=5):
    """One uniform-ish connected multigraph with 1..max_edges edges."""
    while True:
        e = rng.randint(1, max_edges)
        n = rng.randint(1, e + 1)
        edges = [(i + 1, *sorted((rng.randint(1, n), rng.randint(1, n)))) for i in range(e)]
        g = Multigraph(n, edges)
        if g.is_connected():
            return g
