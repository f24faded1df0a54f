"""Brute-force exact counting of quiver representations over finite
commutative algebras.

Isomorphism classes are counted by averaging fixed points over the base
change group G = prod_v GL_{alpha_v}(R); a fixed-point count is a kernel
size, never a scan of the representation space.  Over a chain ring (a
field or k_d) the kernel of X -> gt X - X gs comes from Smith elimination
of its N x N system over the ring; over other rings each entry becomes
its multiplication block and the F_p system is ranked.  Absolutely
indecomposable classes are counted the same way with a determinant
character weight valued in roots of unity: the sum is kept in
Z[z]/(z^m - 1) and read once, mod Phi_m.

Preprojective counts use that the moment map mu(x, y) is bilinear in the
arrows x and their stars y: the fixed points of g in its zero fiber number
sum over x in V^g of p^(dim V*^g - rank of y -> mu(x, y)), with the
smaller half listed and the other never.  The columns mu(x, b) over a
basis b of the other half are F_p-combinations of the mu(B_i, b) over a
basis B_i of the listed half, and a point and its nonzero multiples have
one rank: one F_p rank per line, one sum per pair of fixed spaces.
fourier_fiber_count reads the same sum at the identity tuple against its
additive-group average over g = prod_v M_alpha_v(R), one more class sum.
The toric orbit partition here is an independent oracle for the rank-one
counts; the oracles of the engines here are in tests/oracles.py.

Every summand is unchanged when each vertex factor is conjugated, so the
Burnside sum runs over tuples of conjugacy-class representatives
(gl.gl_classes) weighted by class size, as a contraction along the
quiver: a factor per vertex (class size times z^(character exponent))
and one per arrow (its fixed-point counts on pairs of classes), summed
out one vertex at a time, cheapest first.  Each algebra solves one table
per pair of ranks, read by every arrow of those ranks; a pair of classes
with disjoint factor labels needs no solve (Nakayama).  The preprojective
count enters as one factor on all vertices.  Matrices are row-major flat
tuples of element indices on one set of |R| x |R| tables per algebra
(ring_tables); only stabilizer_order, the units of End(x), takes coordinates.
"""

from functools import cache
from itertools import accumulate, product
from math import prod

from . import modp
from .cyclotomic import root_sum
from .gl import _classes, _end_units, _validate_alpha, gl_classes
from .multigraph import GUARD, Multigraph, Quiver, charge
from .polynomials import _integer, unpack
from .ring_tables import (arrow_system, block_system, chain_nullity, index_tables,
                          scaling_orbits, times)


# -- fixed points by nullspace -------------------------------------------

def fix_nullity(alg, gt, gs, rows, cols):
    """F_p-dimension of {X : gt X = X gs} on rows x cols matrices: over a
    chain ring by elimination over the ring, elsewhere by F_p rank."""
    if rows == 0 or cols == 0:
        return 0
    system = arrow_system(alg, gt, gs, rows, cols)
    if alg.is_field or alg.truncation:
        return chain_nullity(alg, system)
    return rows * cols * alg.dim - modp.rank(block_system(alg, system), alg.p)


# -- the weighted group average ------------------------------------------

def _vertex_lists(alg, alpha, guard, whole=False):
    """Per-vertex class representatives of GL_alpha_v (with whole, of all
    of M_alpha_v), their class sizes, and the product over the vertices of
    their class-size sums: |G| (|g|), as the classes partition each GL (M)."""
    classes = [gl_classes(alg, a, guard, whole) for a in alpha]
    sizes = [[size for _, size in c] for c in classes]
    return [[rep for rep, _ in c] for c in classes], sizes, prod(map(sum, sizes))


def _arrow_table(alg, rows, cols, guard, whole):
    """p^nullity of X -> gt X - X gs for the class representatives gt of
    GL_rows and gs of GL_cols (M_rows and M_cols with whole), one flat list
    over the class index pairs (ct, cs) in product order; for a loop, cols
    None, the diagonal gt = gs only.  Memoized on the algebra as _arrow_data
    by (rows, cols, whole), so every arrow of these ranks reads one table in
    any quiver and orientation; classes x classes solves are charged, an
    upper bound, memoized or not.  A pair with disjoint labels (gl._classes)
    has coprime residue characteristic polynomials and is 1 (Nakayama);
    every other pair is its own solve, none copied from the transposed pair,
    since that symmetry is the orientation theorem the checks test."""
    (targets, ft), (sources, fs) = (_classes(alg, n, guard, whole)
                                    for n in (rows, rows if cols is None else cols))
    solves = len(targets) if cols is None else len(targets) * len(sources)
    charge(solves, guard, "%d arrow solves" % solves)
    cache, key, p = alg.__dict__.setdefault("_arrow_data", {}), (rows, cols, whole), alg.p
    if key not in cache and cols is None:
        cache[key] = [p ** fix_nullity(alg, g, g, rows, rows) for g, _ in targets]
    elif key not in cache:
        cache[key] = [1 if f.isdisjoint(h) else p ** fix_nullity(alg, gt, gs, rows, cols)
                      for (gt, _), f in zip(targets, ft) for (gs, _), h in zip(sources, fs)]
    return cache[key]


def _contract(factors, counts, m, width, guard):
    """The sum over every tuple of class indices of the product of the
    factors, in Z[z]/(z^m - 1), as its value at z = 2^width: an int mod
    2^(width*m) - 1.  A factor is (scope, table): a tuple of vertices and a
    flat list of such ints over their class indices in product order.  The
    caller reads the sum by width-bit coefficients, so they must lie below
    2^(width-1); all are >= 0, so the product over the factors of each
    table's coefficient sum bounds them.  Vertices are eliminated cheapest
    first, so a tree goes leaves first: each step multiplies the factors on
    one vertex, sums out its classes and leaves one factor on their other
    vertices; the step is charged its terms, the classes of v and its neighbours."""
    modulus = (1 << width * m) - 1

    def cost(v):
        """Classes of v and of its neighbours in the factors left."""
        return prod(counts[u] for u in {v}.union(*(s for s, _ in factors if v in s))), v

    total, left = 1, set(range(len(counts)))
    while left:
        terms, v = min(map(cost, left))
        charge(terms, guard, "%d terms in one contraction step" % terms)
        left.remove(v)
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = tuple(sorted({u for s, _ in touching for u in s} - {v}))
        # each factor's values over the classes of v, for a tuple of the
        # others, are one slice of its table
        reads = []
        for s, t in touching:
            stride = {u: prod(counts[w] for w in s[k + 1:]) for k, u in enumerate(s)}
            reads.append((t, [stride.get(u, 0) for u in scope], stride[v]))
        table = []
        for key in product(*[range(counts[u]) for u in scope]):
            starts = [sum(c * st for c, st in zip(key, strides)) for _, strides, _ in reads]
            columns = [t[start:start + step * counts[v]:step]
                       for (t, _, step), start in zip(reads, starts)]
            table.append(sum(map(prod, zip(*columns))) % modulus)
        if scope:
            factors.append((scope, table))
        else:
            total = total * table[0] % modulus
    return total


def _burnside(quiver, alg, alpha, char_order=None, guard=GUARD, fix_values=None, whole=False):
    """The fixed-point counts summed over tuples of conjugacy classes,
    weighted by class size and graded by the determinant character
    exponent mod m = char_order (or 1): a contraction of one factor per
    vertex (class size times z^exponent) and one per arrow (its table of
    fixed-point counts).  fix_values lets the preprojective engine give
    its count for a tuple of class representatives instead, as one factor
    on all vertices, charged one entry per tuple.  With whole the classes
    are those of g = prod_v M_alpha_v.  Returns (buckets, |G| or |g|)."""
    alpha = _validate_alpha(quiver, alpha)
    reps, sizes, order = _vertex_lists(alg, alpha, guard, whole)
    m, factors = char_order or 1, []
    if fix_values is not None:
        tuples = prod(map(len, reps))
        charge(tuples, guard, "%d class tuples in the preprojective factor" % tuples)
        factors.append((tuple(range(quiver.n)), [fix_values(g) for g in product(*reps)]))
    else:
        for _, s, t in quiver.arrows():
            scope, cols = ((t - 1,), None) if s == t else ((t - 1, s - 1), alpha[s - 1])
            factors.append((scope, _arrow_table(alg, alpha[t - 1], cols, guard, whole)))
    # a vertex table's coefficients sum to |GL_alpha_v| (|M_alpha_v|); those multiply to order
    width = (order * prod(sum(t) for _, t in factors)).bit_length() + 1
    t = index_tables(alg)
    for v, (a, lst, weights) in enumerate(zip(alpha, reps, sizes)):
        exponents = [alg.dlog(alg.residue(t.ring[t.det(g, a)])) % m if char_order else 0
                     for g in lst]
        factors.append(((v,), [size << width * e for e, size in zip(exponents, weights)]))
    buckets = unpack(_contract(factors, [len(lst) for lst in reps], m, width, guard), width)
    return [buckets.get(e, 0) for e in range(m)], order


def _group_average(engine, quiver, alg, alpha, character=False, guard=GUARD):
    """The finishing step shared by m_count, a_count, m_preproj and
    a_preproj: run the bucketed Burnside sum of `engine` and divide by |G|.

    With `character`, bucket e weighs the determinant character value
    zeta^e, zeta of order |alpha|, which must divide q - 1 (the residue
    field must contain the roots of unity); root_sum reads the sum exactly.
    """
    alpha = _validate_alpha(quiver, alpha)
    char_order = None
    if character:
        char_order = sum(alpha)
        q = alg.residue_field.size()
        if (q - 1) % char_order:
            raise ValueError("|alpha| = %d does not divide q - 1 = %d" % (char_order, q - 1))
    buckets, order = engine(quiver, alg, alpha, char_order=char_order, guard=guard)
    value = root_sum(buckets)
    if value < 0 or value % order:
        raise AssertionError("group average is not a count: %d / %d" % (value, order))
    return value // order


def m_count(quiver, alg, alpha, guard=GUARD):
    """Number of isomorphism classes of representations of the given rank."""
    return _group_average(_burnside, quiver, alg, alpha, guard=guard)


def a_count(quiver, alg, alpha, guard=GUARD):
    """Number of isomorphism classes of absolutely indecomposable
    representations, by the determinant-character weighted group average.

    Requires alg local split with residue field F_q and |alpha| | q - 1
    (the residue field must contain the needed roots of unity).  The
    character takes logs to the base alg.primitive_element(); the count
    does not depend on that primitive root (the oracle tests check it).
    """
    return _group_average(_burnside, quiver, alg, alpha, character=True, guard=guard)


# -- double quiver, moment map, preprojective counts -----------------------

def double_quiver(quiver):
    """The double of a quiver: a reversed arrow a* for each arrow a.
    Returns (doubled quiver, map arrow id -> starred arrow id)."""
    offset, arrows = max(quiver.graph.edge_ids(), default=0), quiver.arrows()
    doubled = arrows + tuple((e + offset, t, s) for e, s, t in arrows)
    dq = Quiver(Multigraph(quiver.n, doubled), {e: (s, t) for e, s, t in doubled})
    return dq, {e: e + offset for e, _, _ in arrows}


def _moment_blocks(alg, alpha, arrows, star, x):
    """Vertex blocks (flat index lists) of sum over arrows of M_a M_a* - M_a* M_a."""
    tab = index_tables(alg)
    blocks = [[tab.zero] * (a * a) for a in alpha]
    for e, s, t in arrows:
        n, k = alpha[t - 1], alpha[s - 1]
        plus = times(tab, x[e], x[star[e]], n, k, n)
        blocks[t - 1] = [tab.add[b][y] for b, y in zip(blocks[t - 1], plus)]
        minus = times(tab, x[star[e]], x[e], k, n, k)
        blocks[s - 1] = [tab.add[b][tab.neg[y]] for b, y in zip(blocks[s - 1], minus)]
    return blocks


def _zero_fiber_fixed(quiver, alg, alpha, guard):
    """The number of points fixed by g in the moment map's zero fiber, as a
    function of a tuple g of vertex matrices.  The fixed space of the
    doubled quiver is V^g x V*^g (the arrows, then their stars), and
    mu(x, y) is F_p-bilinear; so the count is the sum over x in one half of
    p^(dim of the other half - rank of mu(x, .) on it).  The half with
    fewer points is the one enumerated and charged per tuple; for one count
    a basis is memoized by its arrow system, the sum by the pair of bases."""
    arrows, star = quiver.arrows(), double_quiver(quiver)[1]
    p, dim, ring = alg.p, alg.dim, index_tables(alg).ring
    width = sum(a * a for a in alpha) * dim

    by_system = {}      # many pairs of classes share one arrow system

    @cache
    def basis(gt, gs, rows, cols):
        """The fixed space's F_p basis, each vector as a flat index tuple."""
        key = tuple(map(tuple, arrow_system(alg, gt, gs, rows, cols)))
        if key not in by_system:
            vectors = modp.nullspace_basis(block_system(alg, key), p)
            by_system[key] = tuple(tuple(alg.element_index(v[i:i + dim])
                                         for i in range(0, len(v), dim)) for v in vectors)
        return by_system[key]

    def column(arrow, x, y):
        """mu at the point x on the arrow, y on its star, zero elsewhere,
        as a flat F_p vector."""
        blocks = _moment_blocks(alg, alpha, [arrow], star, {arrow[0]: x, star[arrow[0]]: y})
        return [c for block in blocks for entry in block for c in ring[entry]]

    @cache
    def rank_sum(enumerated, other, starred):
        """Sum over x = sum_i c_i B_i in the enumerated half of p^(dim other -
        rank of mu(x, .)): x = 0 adds p^(dim other), each line (the x whose
        last nonzero c_i is 1, walked depth first) one rank's term weighed p - 1."""
        def lines(x, k):        # the terms of x + sum_(i < k) c_i gens[i], every c
            if not k:
                return p ** (other_dim - modp.rank(x, p))
            points = accumulate([x] + [gens[k - 1]] * (p - 1), lambda y, gen: [
                [(u + w) % p for u, w in zip(col, g)] for col, g in zip(y, gen)])
            return sum(lines(y, k - 1) for y in points)

        zero, other_dim = [0] * width, sum(map(len, other))
        gens = [[(column(a, b, e) if starred else column(a, e, b)) if a == arrow else zero
                 for a, bs in zip(arrows, other) for b in bs]
                for arrow, half in zip(arrows, enumerated) for e in half]
        return p ** other_dim + (p - 1) * sum(lines(gen, k) for k, gen in enumerate(gens))

    def fix_values(g):
        bases = [tuple(basis(g[t - 1], g[s - 1], alpha[t - 1], alpha[s - 1]) for _, s, t in arrows),
                 tuple(basis(g[s - 1], g[t - 1], alpha[s - 1], alpha[t - 1]) for _, s, t in arrows)]
        dims = [sum(map(len, half)) for half in bases]
        starred = dims[1] < dims[0]     # enumerate V*^g, the smaller half
        charge(p ** dims[starred], guard, "p^%d = %d points of the enumerated preprojective "
               "half" % (dims[starred], p ** dims[starred]))
        return rank_sum(bases[starred], bases[not starred], starred)

    return fix_values


def _preproj_buckets(quiver, alg, alpha, char_order=None, guard=GUARD):
    """The Burnside sum of zero-fiber fixed counts over a validated alpha."""
    return _burnside(quiver, alg, alpha, char_order=char_order, guard=guard,
                     fix_values=_zero_fiber_fixed(quiver, alg, alpha, guard))


def m_preproj(quiver, alg, alpha, guard=GUARD):
    """Isomorphism classes of locally free modules over the preprojective
    algebra: the group average of fixed points inside the moment map's
    zero fiber."""
    return _group_average(_preproj_buckets, quiver, alg, alpha, guard=guard)


def a_preproj(quiver, alg, alpha, guard=GUARD):
    """Absolutely indecomposable classes in the moment map's zero fiber,
    with a_count's determinant-character weight (and its independence of
    the primitive root)."""
    return _group_average(_preproj_buckets, quiver, alg, alpha, character=True, guard=guard)


# -- Fourier fiber count ----------------------------------------------------

def fourier_fiber_count(quiver, alg, alpha, guard=GUARD):
    """Cardinality of the moment map's zero fiber, both as the zero-fiber
    fixed count of the identity tuple (its fixed space is all of V x V*) and
    by the additive-group average (1/|g|) sum_x |V| |ker rho(x)| over
    g = prod_v M_alpha_v, which never evaluates mu; asserts they agree.  The
    kernel is a class function of x, so _burnside sums it over classes.  The
    identity needs a Frobenius alg; any other is refused with ValueError."""
    alpha = _validate_alpha(quiver, alpha)
    if alg.find_frobenius_form(guard) is None:
        raise ValueError("the Fourier identity needs a Frobenius ring; %s is not" % alg.name)
    tab = index_tables(alg)
    identity = tuple(tuple(tab.one if i == j else tab.zero for i in range(a) for j in range(a))
                     for a in alpha)
    direct = _zero_fiber_fixed(quiver, alg, alpha, guard)(identity)
    (acc,), lie_total = _burnside(quiver, alg, alpha, guard=guard, whole=True)
    v_size = prod(alg.size() ** (alpha[t - 1] * alpha[s - 1]) for _, s, t in quiver.arrows())
    averaged, rest = divmod(v_size * acc, lie_total)
    if rest or direct != averaged:
        raise AssertionError("zero-fiber count mismatch: direct %d vs averaged %d / %d"
                             % (direct, v_size * acc, lie_total))
    return direct


# -- toric oracle and stabilizers -------------------------------------------

def toric_ai_orbit_count(quiver, alg, guard=GUARD):
    """Orbit count of rank-one representations with connected (spanning)
    support, by direct partition of the whole representation space under
    the unit-tuple action.  Points are tuples of element indices
    (ring_tables.scaling_orbits).  Independent of the group-average
    engine by construction."""
    arrows = quiver.arrows()
    points = alg.size() ** len(arrows)
    charge(points, guard, "|R|^%d = %d points" % (len(arrows), points))
    tab = index_tables(alg)
    units = [u for u, unit in enumerate(tab.is_unit) if unit]
    group = len(units) ** quiver.n
    charge(group, guard, "|R^x|^%d = %d unit tuples" % (quiver.n, group))
    # the unit tuple g scales the arrow s -> t by g_t g_s^-1
    scalings = {tuple(tab.mul[g[t - 1]][tab.inverse[g[s - 1]]] for _, s, t in arrows)
                for g in product(units, repeat=quiver.n)}
    return sum(1 for point in scaling_orbits(alg, len(arrows), scalings)
               if quiver.graph.spanning_connected(
                   frozenset(e for x, (e, _, _) in zip(point, arrows) if x != tab.zero)))


def stabilizer_order(x, quiver, alg, alpha, guard=GUARD):
    """Order of the stabilizer of a representation point x, a dict arrow
    id -> alpha_t x alpha_s matrix (rows of elements of alg; one without
    entries in any empty form): the units of End(x) among the p^dim points
    of its F_p nullspace (gl._end_units), never a scan of G.  A malformed
    point is refused with ValueError before anything is listed."""
    alpha = _validate_alpha(quiver, alpha)
    tab, point = index_tables(alg), []
    for e, s, t in quiver.arrows():
        rows, cols, m = alpha[t - 1], alpha[s - 1], x.get(e)
        try:
            flat = tuple(tab.index[y] for row in m for y in row)
        except (KeyError, TypeError):       # no such arrow, or not a matrix of elements
            flat = None
        if flat is None or tuple(map(len, m)) != (cols,) * rows and (flat or rows * cols):
            raise ValueError("arrow %d needs an alpha_t x alpha_s = %d x %d matrix over %s"
                             % (e, rows, cols, alg.name))
        point.append((flat, t - 1, s - 1))
    return sum(1 for _ in _end_units(alg, point, alpha, guard))


def toric_point(quiver, values):
    """Representation point of rank one from a map arrow id -> element."""
    return {e: ((values[e],),) for e, _, _ in quiver.arrows()}


# -- the non-self-dual counterexample ----------------------------------------

def counterexample_counts(n, q, guard=GUARD):
    """Scaling-orbit count over sqz(F_q, n)[eps] versus the preprojective
    count over sqz(F_q, n), with both checked against their closed forms:

      A_n(q) = 2 + q^n + sum_{i<n} q^(i+n-1) + sum_{i<n} q^i
      B_n(q) = 3 + (q-1) s^2 + 2 s,  s = sum_{i<n} q^i

    The defect B - A = (q^n - 1)(q^(n-1) - 1) vanishes only for n = 1,
    the one case where the ring is self-dual.
    """
    from .families import path_quiver
    from .finite_algebra import make_dual_numbers, make_field, make_square_zero

    field = make_field(q := _integer(q, "q"))
    ring = make_square_zero(field, n := _integer(n, "n"))
    doubled = make_dual_numbers(ring)
    s = sum(q ** i for i in range(n))
    closed_a = 2 + q ** n + sum(q ** (i + n - 1) for i in range(n)) + s
    closed_b = 3 + (q - 1) * s * s + 2 * s
    # Burnside: u fixes the kernel of x -> (u - 1) x: all p^dim points for u = 1, only
    # 0 off 1 + m, and on 1 + x one rank per F_p-line, x with 1 at its last nonzero k
    p, dim, rd, units = doubled.p, doubled.dim, field.dim, doubled.unit_count()
    charge(lines := (p ** (dim - rd) - 1) // (p - 1), guard, "%d line ranks" % lines)
    xs = ((0,) * rd + head + (1,) + (0,) * (dim - k)
          for k in range(rd + 1, dim + 1) for head in product(range(p), repeat=k - rd - 1))
    ranked = sum(p ** (dim - modp.rank(doubled.mul_matrix(x), p)) for x in xs)
    a_value, rest = divmod(units - p ** (dim - rd) + p ** dim + (p - 1) * ranked, units)
    if rest or a_value != closed_a:
        raise AssertionError("scaling orbit count %d != closed form %d" % (a_value, closed_a))

    b_value = m_preproj(path_quiver(2), ring, (1, 1), guard)
    if b_value != closed_b:
        raise AssertionError("preprojective count %d != closed form %d" % (b_value, closed_b))
    if b_value - a_value != (q ** n - 1) * (q ** (n - 1) - 1):
        raise AssertionError("defect is not (q^n - 1)(q^(n-1) - 1)")
    return a_value, b_value
