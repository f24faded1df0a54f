"""Independent oracles: each function here recomputes a value of the
library by another route, so that a test can compare the engine with it.

The redundancy is the cross-check.  An oracle keeps the slower or more
literal computation the engine replaced (pairwise additions, the loop
over every group element, the whole zero fiber, the sum over every depth
function) and shares no shortcut with the engine it checks.  The test
modules import their oracles, and the helpers they share, from here and
never from each other (tests/test_source.py holds them to that).
"""

from collections import Counter
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, prod

from quivercount.cyclotomic import root_sum
from quivercount.finite_algebra import FiniteAlgebra
from quivercount.genfun import GraphChar, r_genfun
from quivercount.gl import _memo, _size, _validate_alpha
from quivercount.modp import nullspace_basis, rank
from quivercount.multigraph import GUARD, Multigraph, _find, _merge, charge
from quivercount.polynomials import QPoly, QTPoly
from quivercount.ratfun import RatQT
from quivercount.repenum import _group_average, _vertex_lists, double_quiver, fix_nullity
from quivercount.ring_tables import arrow_system, block_system, index_tables
from quivercount.toric import check_depth_function, epsilon_value, r_d_polynomial


# -- multigraphs -------------------------------------------------------

def all_connected_multigraphs_by_scan(max_edges):
    """Oracle: every edge multiset on 1..n in lexicographic order, keeping
    the first connected labeling met of each isomorphism class."""
    found = {}
    for e in range(0, max_edges + 1):
        for n in range(1, e + 2):
            pair_types = [(u, v) for u in range(1, n + 1) for v in range(u, n + 1)]
            for combo in combinations_with_replacement(pair_types, e):
                g = Multigraph(n, [(i + 1, u, v) for i, (u, v) in enumerate(combo)])
                if not g.is_connected():
                    continue
                key = canonical_form_by_relabeling(n, combo)
                if key not in found:
                    found[key] = g
    return tuple(found.values())


def canonical_form_by_relabeling(n, pairs):
    """Oracle for families._canonical_form: the least sorted tuple of
    (min, max) endpoint pairs over all n! vertex relabelings."""
    return (n, min(tuple(sorted((p[u], p[v]) if p[u] <= p[v] else (p[v], p[u])
                                for u, v in pairs))
                   for p in ((0,) + perm for perm in permutations(range(1, n + 1)))))


def subset_b1_by_union_find(graph, ids):
    """Oracle for Multigraph.subset_b1: one union-find pass per bitmask
    over ids, b1 = #edges - #merges."""
    ends = list(enumerate(graph.endpoints(e) for e in ids))
    subsets = ([p for i, p in ends if mask >> i & 1] for mask in range(1 << len(ids)))
    return [len(pairs) - _merge(list(range(graph.n + 1)), pairs) for pairs in subsets]


def connected_spanning_subgraphs(graph, guard=GUARD):
    """Yield the edge subsets whose spanning subgraph is connected, in
    binary counting order over the sorted ids; 2^m subsets charged up front."""
    ids = sorted(graph.edge_ids())
    m = len(ids)
    charge(1 << m, guard, "2^%d = %d subsets" % (m, 1 << m))
    for mask in range(1 << m):
        subset = frozenset(ids[i] for i in range(m) if mask >> i & 1)
        if graph.spanning_connected(subset):
            yield subset


# -- Laurent polynomials and rational functions ------------------------

def divide_by_t_factor_slices(p, c):
    """Oracle for divide_exact_by_t_factor: the slice-by-slice QPoly
    division it replaced, on the input shifted to T-valuation 0."""
    if not p:
        return QTPoly(vars=p.vars)
    vt = p.val_t()
    work = p.shift(0, -vt) if vt else p
    slices = work.t_coefficients()
    top = max(slices)
    qc = QPoly.monomial(c)
    out = {}
    prev = QPoly()
    for j in range(0, top):
        hj = slices.get(j, QPoly()) + qc * prev
        if hj:
            out[j] = hj
        prev = hj
    if slices.get(top, QPoly()) + qc * prev != QPoly():
        raise ValueError("division by (1 - q^%d*T) is not exact" % c)
    quot = {}
    for j, poly in out.items():
        for i, cc in poly.coeffs.items():
            quot[(i, j + (vt or 0))] = cc
    return QTPoly(quot, p.vars)


def add_pairwise(a, b):
    """Oracle for RatQT.sum: the pairwise addition it replaced, which
    expands each missing factor as a QTPoly power and reduces the result."""
    a, b = (x if isinstance(x, RatQT) else RatQT(x) for x in (a, b))
    den = {c: max(a.den.get(c, 0), b.den.get(c, 0)) for c in set(a.den) | set(b.den)}
    nums = []
    for f in (a, b):
        num = f.num
        for c, m in den.items():
            extra = m - f.den.get(c, 0)
            if extra:
                num = num * (QTPoly.const(1) - QTPoly.monomial(c, 1)) ** extra
        nums.append(num)
    return RatQT(nums[0] + nums[1], den)


def den_by_powers(f):
    """Oracle for RatQT.den_poly: the product of QTPoly powers it replaced."""
    out = QTPoly.const(1)
    for c, m in f.den.items():
        out = out * (QTPoly.const(1) - QTPoly.monomial(c, 1)) ** m
    return out


def equal_by_cross_multiplication(a, b):
    """Oracle for RatQT.__eq__: the cross-multiplication it replaced, with
    both denominators expanded as powers."""
    return a.num * den_by_powers(b) == b.num * den_by_powers(a)


def series_coefficient_by_binomials(f, d):
    """Oracle for RatQT.series: the coefficient of T^d it replaced, from
    1/(1 - q^c T)^m = sum_j C(m - 1 + j, j) q^(c j) T^j for each factor,
    multiplied out and cut after T^d."""
    if d < 0:
        raise ValueError("d >= 0 required")
    if f.num and f.num.val_t() < 0:
        raise ValueError("numerator has a pole at T = 0")
    series = {0: QPoly.const(1)}
    for c, m in f.den.items():
        product = {}
        for i, p in series.items():
            for j in range(d + 1 - i):
                product[i + j] = product.get(i + j, QPoly()) + p * QPoly.monomial(
                    c * j, comb(m - 1 + j, j))
        series = product
    out = QPoly()
    for j, p in f.num.t_coefficients().items():
        if j <= d and (d - j) in series:
            out = out + p * series[d - j]
    return out


# -- depth functions and generating functions --------------------------

def delta(gamma, r, d):
    """sum over k = 1..d-1 of b1(gamma) - b1(gamma_k), where gamma_k
    contracts the edges of depth > k."""
    if not gamma.is_connected():
        raise ValueError("gamma must be connected")
    check_depth_function(gamma, r, d)
    b1 = gamma.b1()
    total = 0
    for k in range(1, d):
        deep = frozenset(e for e, value in r.items() if value > k)
        total += b1 - gamma.b1_of_contraction(deep)
    return total


def depth_function_sum(gamma, d):
    """R_d by its definition, q^delta summed over all d^|E| depth functions,
    with b1 of each contraction looked up in a table over the edge subsets."""
    if d == 0:
        return QPoly.const(1 if gamma.edge_count() == 0 else 0)
    ids = sorted(gamma.edge_ids())
    m = len(ids)
    table = {}
    for mask in range(1 << m):
        subset = frozenset(ids[i] for i in range(m) if mask >> i & 1)
        table[subset] = gamma.b1_of_contraction(subset)
    b1 = gamma.b1()
    counts = Counter()
    for values in product(range(1, d + 1), repeat=m):
        exp = 0
        for k in range(1, d):
            exp += b1 - table[frozenset(ids[i] for i in range(m) if values[i] > k)]
        counts[exp] += 1
    return QPoly(counts)


def r_d_by_components(g, d):
    """R_d of an arbitrary multigraph as the product of r_d_polynomial over
    its components, each relabelled onto 1..n as a graph of its own."""
    parent = list(range(g.n + 1))
    _merge(parent, ((u, v) for _, u, v in g.edges))
    labels = {v: _find(parent, v) for v in range(1, g.n + 1)}
    out = QPoly.const(1)
    for rep in sorted(set(labels.values())):
        verts = sorted(v for v, r in labels.items() if r == rep)
        relabel = {v: i + 1 for i, v in enumerate(verts)}
        edges = [(e, relabel[u], relabel[v]) for e, u, v in g.edges if u in relabel]
        out = out * r_d_polynomial(Multigraph(len(verts), edges), d)
    return out


def convolve_by_minors(f, g):
    """Oracle: (f * g)(Gamma) = sum over edge subsets A of f(Gamma[A]) *
    g(Gamma/A), each minor built as a graph and each factor called on it,
    so that no value is read from a b1 table."""
    def evaluate(graph):
        ids = sorted(graph.edge_ids())
        total = QPoly()
        for mask in range(1 << len(ids)):
            a = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
            total = total + f(graph.spanning_subgraph(a)) * g(graph.contract(a))
        return total

    return GraphChar("(%s*%s)" % (f.name, g.name), evaluate)


def recursion_rhs_by_minors(gamma):
    """Oracle for the right side of genfun.check_recursion: eps(gamma) + T *
    the sum over edge subsets A of R(gamma/A, q, q^b1(gamma[A]) T), one
    minor built and one r_genfun summed per A, with no memo or grouping."""
    ids = sorted(gamma.edge_ids())
    terms = [epsilon_value(gamma)]
    for mask in range(1 << len(ids)):
        a = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        b1 = gamma.spanning_subgraph(a).b1()
        terms.append(r_genfun(gamma.contract(a)).subs_t_scale(b1).t_shift(1))
    return RatQT.sum(terms)


def weighted_depth_function_sum(graph, d):
    """A_d as (q-1)^b1 * depth_function_sum over connected spanning subgraphs."""
    qm1 = QPoly({1: 1, 0: -1})
    total = QPoly()
    for subset in connected_spanning_subgraphs(graph):
        sub = graph.spanning_subgraph(subset)
        total = total + qm1 ** sub.b1() * depth_function_sum(sub, d)
    return total


def a_genfun_by_subgraphs(graph):
    """Oracle for a_genfun: the sum over connected spanning subgraphs of
    (q-1)^b1 times their filtration sum R, one RatQT addition each."""
    qm1 = QPoly({1: 1, 0: -1})
    total = RatQT(0)
    for subset in connected_spanning_subgraphs(graph):
        sub = graph.spanning_subgraph(subset)
        total = total + r_genfun(sub) * qm1 ** sub.b1()
    return total


def strict_filtrations_by_recursion(edge_ids):
    """Oracle for strict_filtrations: the recursive generator it replaced,
    which picks each next block among the nonempty subsets of the edges
    left and rebuilds the cumulative frozenset of every prefix."""
    ids = tuple(sorted(edge_ids))

    def rec(remaining, prefix_union):
        if not remaining:
            yield ()
            return
        m = len(remaining)
        for mask in range(1, 1 << m):
            block = tuple(remaining[i] for i in range(m) if mask >> i & 1)
            cumulative = prefix_union | frozenset(block)
            rest = tuple(x for x in remaining if x not in cumulative)
            for tail in rec(rest, cumulative):
                yield (cumulative,) + tail

    return rec(ids, frozenset())


def b1_of_unions(gamma, blocks):
    """b1 of the spanning subgraphs on blocks[0], blocks[0] | blocks[1],
    ..., from one union-find: edges added so far minus merges made.
    The blocks must be disjoint sets of edge ids."""
    parent = list(range(gamma.n + 1))
    edges = merges = 0
    out = []
    for block in blocks:
        pairs = [gamma.endpoints(e) for e in block]
        edges += len(pairs)
        merges += _merge(parent, pairs)
        out.append(edges - merges)
    return out


def cvector_by_unions(gamma, chain):
    """Oracle for cvector_of_filtration: c_i = b1(gamma[E - F_{i-1}]) from
    one union-find per chain, which adds the blocks from last to first;
    its last step spans gamma, whose rank |E| - c_1 is n - 1 exactly when
    gamma is connected."""
    ids = frozenset(gamma.edge_ids())
    prev = frozenset()
    blocks = []
    for step in chain:
        if not (prev < step <= ids):
            raise ValueError("not a strict filtration of the edge set")
        blocks.append(step - prev)
        prev = step
    if prev != ids:
        raise ValueError("filtration must end at the full edge set")
    cs = b1_of_unions(gamma, reversed(blocks))
    if gamma.n > 1 and len(ids) - (cs[-1] if cs else 0) != gamma.n - 1:
        raise ValueError("gamma must be connected")
    return (0,) + tuple(reversed(cs))


def series_numerator_by_rows(coeffs, den):
    """Oracle for _series_numerator: the row-wise pass it replaced, each
    factor (1 - q^c T) applied to the rows of T-coefficients top down."""
    rows = [dict(c.coeffs) for c in coeffs]
    for c in Counter(den).elements():
        for d in range(len(rows) - 1, 0, -1):
            row = rows[d]
            for e, v in rows[d - 1].items():
                row[e + c] = row.get(e + c, 0) - v
    return QTPoly({(e, d): v for d, row in enumerate(rows) for e, v in row.items()})


def same_form(f, g):
    """The same reduced numerator and denominator, so the same text and JSON."""
    return f.num.coeffs == g.num.coeffs and f.den == g.den


# -- roots of unity ----------------------------------------------------

def mobius(n):
    """The Moebius function by trial division."""
    sign, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return sign


# -- finite algebras and matrices over them ----------------------------
#
# A matrix here is a tuple of rows of coordinate tuples, computed on
# through FiniteAlgebra arithmetic; the engines take a row-major flat tuple
# of element indices, and flat_indices / coordinate_matrix convert.

def flat_indices(alg, m):
    """The engines' form of a coordinate matrix: a flat tuple of element
    indices, read off the base-p digits by FiniteAlgebra.element_index."""
    return tuple(alg.element_index(x) for row in m for x in row)


def coordinate_matrix(alg, flat, cols):
    """A flat index tuple as a matrix of coordinate tuples with cols
    columns, the digits of each index in base p; () when it has no entries."""
    entries = [tuple(i // alg.p ** k % alg.p for k in range(alg.dim)) for i in flat]
    return tuple(tuple(entries[r:r + cols]) for r in range(0, len(entries), cols or 1))


def mat_mul(alg, a, b):
    """The product of coordinate matrices through FiniteAlgebra.add/mul:
    the reference for ring_tables.times."""
    if not a or not b:
        return ()
    return tuple(tuple(reduce(alg.add, map(alg.mul, row, column), alg.zero())
                       for column in zip(*b)) for row in a)


def mat_identity(alg, n):
    """The n x n identity matrix over alg."""
    return tuple(tuple(alg.one if i == j else alg.zero() for j in range(n)) for i in range(n))


def mat_det(alg, m):
    """Determinant of a matrix of coordinate tuples by cofactor expansion
    through FiniteAlgebra arithmetic: the oracle for the index-table
    determinant (ring_tables.IndexTables.det) behind the GL scan and the
    determinant character."""
    n = len(m)
    if n == 0:
        return alg.one
    if n == 1:
        return m[0][0]
    if n == 2:
        return alg.sub(alg.mul(m[0][0], m[1][1]), alg.mul(m[0][1], m[1][0]))
    det = alg.zero()
    for j in range(n):
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in m[1:])
        term = alg.mul(m[0][j], mat_det(alg, minor))
        det = alg.add(det, term) if j % 2 == 0 else alg.sub(det, term)
    return det


def mat_inverse(alg, m):
    """Inverse of a square matrix over the algebra, by adjugate / det."""
    n = len(m)
    det = mat_det(alg, m)
    det_inv = alg.inverse(det)
    if n == 0:
        return ()
    if n == 1:
        return ((det_inv,),)
    adj = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(tuple(m[r][c] for c in range(n) if c != i)
                          for r in range(n) if r != j)
            cof = mat_det(alg, minor)
            if (i + j) % 2:
                cof = alg.neg(cof)
            row.append(alg.mul(cof, det_inv))
        adj.append(tuple(row))
    return tuple(adj)


def residue_charpoly(alg, g, n):
    """det(x - g) mod m for an n x n matrix g over alg, as indices into the
    residue field k's tables, lowest degree first: the coefficient of x^i
    is the sum of the principal minors of size n - i of -g mod m.  The
    oracle for the labels of gl.class_labels."""
    k = index_tables(alg.residue_field)
    g = [k.neg[x % len(k.ring)] for x in g]
    coefficients = []
    for i in range(n + 1):
        total = k.zero
        for keep in combinations(range(n), n - i):
            total = k.add[total][k.det(tuple(g[r * n + c] for r in keep for c in keep), n - i)]
        coefficients.append(total)
    return tuple(coefficients)


def coprime(alg, f, g):
    """Whether nonzero polynomials f and g over alg's residue field k (its
    indices, 0 the zero, lowest degree first) share no factor: Euclid over
    k, which decides the pairs that disjoint class labels decide."""
    k, f, g = index_tables(alg.residue_field), list(f), list(g)
    while any(g):
        del g[max(i for i, y in enumerate(g) if y) + 1:]
        by = k.mul[k.neg[k.inverse[g[-1]]]]
        while len(f) >= len(g):     # f -= (lead f / lead g) x^s g, dropping lead f
            c, s = k.mul[by[f.pop()]], len(f) + 1 - len(g)
            f[s:] = [k.add[x][c[y]] for x, y in zip(f[s:], g)]
        f, g = g, f
    return not any(f[1:])


def coprime_by_divisors(field, f, g):
    """Whether no monic polynomial of positive degree over the field divides
    both f and g, nonzero coefficient tuples of field elements lowest degree
    first, by trial division by every one up to the smaller degree: the
    oracle for Euclid's algorithm in coprime."""
    def divides(h, f):          # h monic
        f = list(f)
        while len(f) >= len(h):
            top, start = f.pop(), len(f) + 1 - len(h)
            f[start:] = [field.sub(x, field.mul(top, y)) for x, y in zip(f[start:], h)]
        return not any(map(any, f))

    degree = min(max(i for i, c in enumerate(p) if any(c)) for p in (f, g))
    monic = (h + (field.one,) for d in range(1, degree + 1)
             for h in product(list(field.elements()), repeat=d))
    return not any(divides(h, f) and divides(h, g) for h in monic)


def conjugacy_classes_by_partition(alg, n, elements):
    """The class under conjugation by GL_n(alg), alg local, of every one of
    `elements`, n x n flat index matrices closed under that conjugation (all
    of GL_n(alg) from gl_elements, or all of M_n(alg)), as {element: first
    element of its class in the order of elements}: union-find over the
    whole list, joining each g with s g s^-1 for every generator s,
    E_ij(1) = 1 + e_ij and diag(u, 1, ..., 1) for u in a generating set of
    the units found greedily.  The oracle for the classes that
    gl.gl_classes lifts from the residue field.  These s generate
    GL_n(alg): they give every E_ij(u), u a unit, each r is a unit or 1 + r
    is, so E_ij(r) = E_ij(1 + r) E_ij(-1), and E_n(R) = SL_n(R)."""
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

    # Each conjugation as steps m[a] += c * m[b], in order: for 1 + e_ij,
    # row i += row j, then column j -= column i; for diag(u, 1, ..., 1),
    # row 0 *= u, then column 0 *= u^-1, each entry as m[a] += (u - 1) m[a].
    plus, minus = mul[one], mul[t.neg[one]]
    conjugations = [[(i * n + k, j * n + k, plus) for k in range(n)]
                    + [(k * n + j, k * n + i, minus) for k in range(n)]
                    for i, j in permutations(range(n), 2)]
    for u in unit_gens:
        up = mul[index[alg.sub(u, alg.one)]]
        down = mul[index[alg.sub(alg.inverse(u), alg.one)]]
        conjugations.append([(k, k, up) for k in range(n)]
                            + [(k * n, k * n, down) for k in range(n)])

    def conjugates(g):
        for steps in conjugations:
            m = list(g)
            for target, source, by in steps:
                m[target] = add[m[target]][by[m[source]]]
            yield tuple(m)

    position = {g: k for k, g in enumerate(elements)}
    parent = list(range(len(elements)))
    _merge(parent, ((k, position[h]) for k, g in enumerate(elements) for h in conjugates(g)))
    return {m: elements[_find(parent, k)] for k, m in enumerate(elements)}


def _block_name(base_name, suffix):
    return base_name if suffix == "" else (suffix if base_name == "1" else base_name + "*" + suffix)


def truncated_by_blocks(base, d):
    """Oracle for make_truncated: the constructor with its own block loop."""
    if d == 1:
        return base
    bd = base.dim
    dim = bd * d
    names = []
    for j in range(d):
        suffix = "" if j == 0 else ("t" if j == 1 else "t^%d" % j)
        names.extend(_block_name(b, suffix) for b in base.basis_names)
    zero = (0,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for j1 in range(d):
        for i1 in range(bd):
            for j2 in range(d):
                for i2 in range(bd):
                    if j1 + j2 >= d:
                        continue
                    cell = [0] * dim
                    for k, c in enumerate(base.table[i1][i2]):
                        cell[(j1 + j2) * bd + k] = c
                    table[j1 * bd + i1][j2 * bd + i2] = tuple(cell)
    one = tuple(base.one) + (0,) * (dim - bd)
    alg = FiniteAlgebra(base.p, names, table, one, "kd(%s,%d)" % (base.name, d),
                        residue_field=base)
    alg.truncation = (d, bd)
    return alg


def dual_numbers_by_blocks(ring):
    """Oracle for make_dual_numbers: the constructor with its own block loop."""
    rd = ring.dim
    dim = 2 * rd
    names = [n for n in ring.basis_names]
    names += [_block_name(n, "e") for n in ring.basis_names]
    zero = (0,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for k1 in range(2):
        for i1 in range(rd):
            for k2 in range(2):
                for i2 in range(rd):
                    if k1 + k2 >= 2:
                        continue
                    cell = [0] * dim
                    for k, c in enumerate(ring.table[i1][i2]):
                        cell[(k1 + k2) * rd + k] = c
                    table[k1 * rd + i1][k2 * rd + i2] = tuple(cell)
    one = tuple(ring.one) + (0,) * rd
    return FiniteAlgebra(ring.p, names, table, one, "eps(%s)" % ring.name,
                         residue_field=ring.residue_field)


def square_zero_by_blocks(base, n):
    """Oracle for make_square_zero: the constructor with its own block loop."""
    bd = base.dim
    dim = bd * (n + 1)
    names = []
    for j in range(n + 1):
        suffix = "" if j == 0 else "t%d" % j
        names.extend(_block_name(b, suffix) for b in base.basis_names)
    zero = (0,) * dim
    table = [[zero] * dim for _ in range(dim)]
    for j1 in range(n + 1):
        for i1 in range(bd):
            for j2 in range(n + 1):
                for i2 in range(bd):
                    if j1 and j2:
                        continue
                    cell = [0] * dim
                    for k, c in enumerate(base.table[i1][i2]):
                        cell[(j1 + j2) * bd + k] = c
                    table[j1 * bd + i1][j2 * bd + i2] = tuple(cell)
    one = tuple(base.one) + (0,) * (dim - bd)
    return FiniteAlgebra(base.p, names, table, one, "sqz(%s,%d)" % (base.name, n),
                         residue_field=base)


# -- the general linear groups and G = prod_v GL_alpha_v --------------

def invertible_matrices(alg, n):
    """Every invertible n x n matrix over alg as a flat index tuple, in
    the order of product(elements(), repeat=n*n).  The determinant is
    linear in the last row, so each head (the first n - 1 rows) gives its
    signed cofactors once, and the determinants of all |R|^n completions
    come from one table pass per column."""
    if n == 0:
        return [()]
    t, out = index_tables(alg), []
    rows = list(product(range(len(t.ring)), repeat=n))
    for head in product(range(len(rows)), repeat=n - 1):
        flat = tuple(i for h in head for i in rows[h])
        dets = [t.zero]
        for j in range(n):
            minor = tuple(flat[r * n + c] for r in range(n - 1) for c in range(n) if c != j)
            cofactor = t.det(minor, n - 1)
            by = t.mul[cofactor if (n - 1 + j) % 2 == 0 else t.neg[cofactor]]
            dets = [t.add[d][y] for d in dets for y in by]
        out.extend(flat + rows[r] for r, d in enumerate(dets) if t.is_unit[d])
    return out


def gl_elements(alg, size, guard=GUARD):
    """Every invertible size x size matrix as a flat tuple of element indices,
    memoized; it charges the |alg|^(size^2) matrices of the scan, cached or not."""
    matrices = alg.size() ** (_size(size) * size)
    charge(matrices, guard, "GL_%d over %s: %d matrices" % (size, alg.name, matrices))
    return _memo(alg, size, lambda: invertible_matrices(alg, size))


def enumerate_group(quiver, alg, alpha, guard=GUARD):
    """Yield every element of the product of GL's, a tuple of flat index
    tuples, one per vertex; charges the GL scans and the |G| elements listed."""
    lists = [gl_elements(alg, a, guard) for a in _validate_alpha(quiver, alpha)]
    order = prod(map(len, lists))
    charge(order, guard, "|G| = %d group elements" % order)
    return product(*lists)


def stabilizer_by_filter(x, quiver, alg, alpha):
    """The elements g of G with g_t x_e = x_e g_s on every arrow, counted
    by filtering the whole group through mat_mul on coordinate matrices:
    the oracle for stabilizer_order, which counts the units of End(x)."""
    arrows = quiver.arrows()
    return sum(1 for g in enumerate_group(quiver, alg, alpha)
               if all(mat_mul(alg, coordinate_matrix(alg, g[t - 1], alpha[t - 1]), x[e])
                      == mat_mul(alg, x[e], coordinate_matrix(alg, g[s - 1], alpha[s - 1]))
                      for e, s, t in arrows))


# -- group averages and the preprojective counts -----------------------

def fix_system(alg, gt, gs, rows, cols):
    """The engines' F_p equation matrix of X -> gt X - X gs."""
    return block_system(alg, arrow_system(alg, gt, gs, rows, cols))


def all_matrices(alg, rows, cols):
    if rows == 0 or cols == 0:
        yield ()
        return
    for entries in product(list(alg.elements()), repeat=rows * cols):
        yield tuple(entries[i * cols:(i + 1) * cols] for i in range(rows))


def fix_system_by_products(alg, gt, gs, rows, cols):
    """The equation matrix of X -> gt X - X gs built one coefficient at a
    time through FiniteAlgebra.mul: the oracle for block_system on
    arrow_system, which reads the same entries off memoized
    multiplication blocks."""
    dim, p = alg.dim, alg.p
    n_unknowns = rows * cols * dim
    columns = []
    for i in range(rows):
        for j in range(cols):
            for k in range(dim):
                bk = alg.basis_vector(k)
                col = [0] * n_unknowns
                for a in range(rows):
                    val = alg.mul(gt[a][i], bk)
                    base = (a * cols + j) * dim
                    for t, vt in enumerate(val):
                        if vt:
                            col[base + t] = (col[base + t] + vt) % p
                for c in range(cols):
                    val = alg.mul(bk, gs[j][c])
                    base = (i * cols + c) * dim
                    for t, vt in enumerate(val):
                        if vt:
                            col[base + t] = (col[base + t] - vt) % p
                columns.append(col)
    return [[columns[c][r] for c in range(n_unknowns)] for r in range(n_unknowns)]


def fix_nullity_by_rank(alg, gt, gs, rows, cols):
    """F_p-dimension of {X : gt X = X gs} as the nullity of the whole F_p
    system: the oracle for fix_nullity's elimination over a chain ring."""
    return rows * cols * alg.dim - rank(fix_system(alg, gt, gs, rows, cols), alg.p)


def fix_count(g, quiver, alg, alpha):
    """Cardinality of the fixed space of g acting on the representation
    space; the per-arrow systems are independent, so this is a product of
    p-powers of nullities."""
    alpha = _validate_alpha(quiver, alpha)
    total = 1
    for e, s, t in quiver.arrows():
        total *= alg.p ** fix_nullity(alg, g[t - 1], g[s - 1], alpha[t - 1], alpha[s - 1])
    return total


def additive_group_sum(quiver, alg, alpha):
    """The sum over every x in g = prod_v M_alpha_v(alg) of the points of the
    representation space that x fixes, and |g|: the loop that the averaged
    side of fourier_fiber_count ran before it summed over classes, and the
    oracle for that class sum (_burnside with whole)."""
    alpha = _validate_alpha(quiver, alpha)
    lie = list(product(*[product(range(alg.size()), repeat=a * a) for a in alpha]))
    return sum(fix_count(x, quiver, alg, alpha) for x in lie), len(lie)


def fix_space_points(alg, basis, rows, cols):
    """All rows x cols matrices in the span of basis, the nullspace vectors
    of the system gt X = X gs, in product order of the coefficients, as
    flat index tuples."""
    if rows == 0 or cols == 0:
        return [()]
    n, dim = rows * cols * alg.dim, alg.dim
    points = []
    for coeffs in product(range(alg.p), repeat=len(basis)):
        vec = [0] * n
        for cf, bvec in zip(coeffs, basis):
            if cf:
                for idx, bv in enumerate(bvec):
                    vec[idx] += cf * bv
        points.append(tuple(alg.element_index([c % alg.p for c in vec[i:i + dim]])
                            for i in range(0, n, dim)))
    return points


def burnside_by_elements(quiver, alg, alpha, character=False, preproj=False):
    """The group average over every element g of G = prod GL_{alpha_v}(alg),
    one fixed-point count per element: the oracle for the class sums of
    m_count and a_count (character=True), and of m_preproj and a_preproj
    (preproj=True), which count the points of the whole zero fiber of the
    moment map that g fixes."""
    alpha = tuple(alpha)
    order = sum(alpha) if character else 1
    if preproj:
        darrows = double_quiver(quiver)[0].arrows()
        points = [dict(zip([e for e, _, _ in darrows], combo)) for combo in
                  product(*[list(all_matrices(alg, alpha[t - 1], alpha[s - 1]))
                            for _, s, t in darrows])]
        fiber = [x for x in points
                 if not any(any(entry) for block in moment_map(quiver, alg, alpha, x)
                            for row in block for entry in row)]
    buckets, listed = [0] * order, 0
    for g in enumerate_group(quiver, alg, alpha):
        listed += 1
        coordinates = [coordinate_matrix(alg, m, a) for m, a in zip(g, alpha)]
        if preproj:
            fix = sum(1 for x in fiber
                      if all(mat_mul(alg, coordinates[t - 1], x[e])
                             == mat_mul(alg, x[e], coordinates[s - 1]) for e, s, t in darrows))
        else:
            fix = fix_count(g, quiver, alg, alpha)
        exponent = sum(alg.dlog(alg.residue(mat_det(alg, m)))
                       for m in coordinates) if character else 0
        buckets[exponent % order] += fix
    value, rest = divmod(root_sum(buckets), listed)
    assert rest == 0
    return value


def residue_logs(alg, root):
    """{root^k: k} over the residue field of alg when root is a primitive
    root of it, else None: a discrete-log table built apart from
    FiniteAlgebra.dlog."""
    field = alg.residue_field
    table, value = {}, field.one
    while value not in table:
        table[value] = len(table)
        value = field.mul(value, root)
    return table if value == field.one and len(table) == field.size() - 1 else None


def primitive_roots(alg):
    """Every primitive root of the residue field of alg."""
    return [x for x in alg.residue_field.elements() if residue_logs(alg, x) is not None]


def class_tuple_buckets(quiver, alg, alpha, char_order=None, generator=None,
                        guard=GUARD, fix_values=None):
    """The Burnside sum as one loop over the product of the per-vertex
    class lists: per tuple of class representatives, the product of the
    arrows' fixed-point counts (or fix_values) times the class sizes, in
    the bucket of its determinant character exponent.  The oracle for the
    contraction of _burnside; returns (buckets, |G|) like it.  The
    exponent is the log of the residue of each cofactor determinant to
    the base generator, a primitive root (default primitive_element()),
    read from residue_logs."""
    reps, sizes, order = _vertex_lists(alg, _validate_alpha(quiver, alpha), guard)
    m = char_order or 1
    exponents = [[0] * len(lst) for lst in reps]
    if char_order:
        logs = residue_logs(alg, alg.primitive_element() if generator is None else generator)
        if logs is None:
            raise ValueError("%r is not a primitive root" % (generator,))
        exponents = [[logs[alg.residue(mat_det(alg, coordinate_matrix(alg, h, a)))] for h in lst]
                     for a, lst in zip(alpha, reps)]
    buckets = [0] * m
    solved = {}

    def fixed(gt, gs, rows, cols):
        if (gt, gs, rows, cols) not in solved:
            solved[gt, gs, rows, cols] = alg.p ** fix_nullity(alg, gt, gs, rows, cols)
        return solved[gt, gs, rows, cols]

    for combo in product(*[range(len(lst)) for lst in reps]):
        g = tuple(lst[c] for lst, c in zip(reps, combo))
        if fix_values is None:
            fix = prod(fixed(g[t - 1], g[s - 1], alpha[t - 1], alpha[s - 1])
                       for _, s, t in quiver.arrows())
        else:
            fix = fix_values(g)
        exponent = sum(e[c] for e, c in zip(exponents, combo))
        buckets[exponent % m] += fix * prod(lst[c] for lst, c in zip(sizes, combo))
    return buckets, order


def moment_equations(quiver, alpha):
    """The entries of mu on the doubled representation space as sums over
    its matrices, one list per entry: entry (i, j) of mu at v is
    sum_h a[i][h] a*[h][j] over the arrows a into v, minus the same with a*
    first over the arrows out of v, each product as (slot, flat index,
    slot, flat index, negated), a slot numbering the arrows of the double
    quiver in the order of its arrows()."""
    dq, star = double_quiver(quiver)
    slot = {e: k for k, (e, _, _) in enumerate(dq.arrows())}
    equations = {}
    for e, s, t in quiver.arrows():
        for v, w, left, right, negated in ((t, s, e, star[e], False), (s, t, star[e], e, True)):
            n, k = alpha[v - 1], alpha[w - 1]
            for i, j, h in product(range(n), range(n), range(k)):
                equations.setdefault((v, i, j), []).append(
                    (slot[left], i * k + h, slot[right], h * n + j, negated))
    return list(equations.values())


def vanishing_points(alg, matrices, sums):
    """The index tuples into `matrices`, one list of matrices per slot, at
    which every sum of moment_equations vanishes, through the index
    tables.  A point is dropped at its first nonzero sum."""
    t = index_tables(alg)
    add, mul, neg, zero = t.add, t.mul, t.neg, t.zero
    for combo in product(*[range(len(lst)) for lst in matrices]):
        point = [lst[c] for lst, c in zip(matrices, combo)]
        for terms in sums:
            acc = zero
            for a, i, b, j, negated in terms:
                x = mul[point[a][i]][point[b][j]]
                acc = add[acc][neg[x] if negated else x]
            if acc != zero:
                break
        else:
            yield combo


def whole_zero_fiber(quiver, alg, alpha, guard=GUARD):
    """The points of the whole doubled representation space, one flat
    index matrix per arrow of the double quiver in the order of its
    arrows(), on which the moment map vanishes; listed lazily once their
    number is charged.  The oracle for the fiber count that
    fourier_fiber_count reads off the preprojective rank sum."""
    alpha = _validate_alpha(quiver, alpha)
    darrows = double_quiver(quiver)[0].arrows()
    total = prod(alg.size() ** (alpha[t - 1] * alpha[s - 1]) for _, s, t in darrows)
    charge(total, guard, "%d points of the doubled representation space" % total)
    per_arrow = [list(product(range(alg.size()), repeat=alpha[t - 1] * alpha[s - 1]))
                 for _, s, t in darrows]        # every matrix of each arrow's shape
    return (tuple(matrices[c] for matrices, c in zip(per_arrow, combo))
            for combo in vanishing_points(alg, per_arrow, moment_equations(quiver, alpha)))


def preproj_by_filter(quiver, alg, alpha, character=False, generator=None):
    """m_preproj (a_preproj with character=True) by filtering: per tuple
    of class representatives g, in the class-tuple loop, list every point
    of V^g x V*^g and keep those on which the moment map vanishes.  The
    oracle for the rank sums of the engine and for their contraction;
    generator is class_tuple_buckets' primitive root."""
    alpha = tuple(alpha)
    darrows = double_quiver(quiver)[0].arrows()
    sums = moment_equations(quiver, alpha)

    def points(gt, gs, rows, cols):
        basis = nullspace_basis(fix_system(alg, gt, gs, rows, cols), alg.p)
        return fix_space_points(alg, basis, rows, cols)

    def fix_values(g):
        per_arrow = [points(g[t - 1], g[s - 1], alpha[t - 1], alpha[s - 1])
                     for _, s, t in darrows]
        return sum(1 for _ in vanishing_points(alg, per_arrow, sums))

    def engine(quiver, alg, alpha, **kwargs):
        return class_tuple_buckets(quiver, alg, alpha, generator=generator,
                                   fix_values=fix_values, **kwargs)

    return _group_average(engine, quiver, alg, alpha, character=character)


def moment_map(quiver, alg, alpha, x):
    """Vertex-wise value of sum over arrows of M_a M_a* - M_a* M_a for a
    representation x of the double quiver (dict arrow id -> coordinate
    matrix), through mat_mul: the oracle for repenum._moment_blocks."""
    alpha = _validate_alpha(quiver, alpha)
    _, star = double_quiver(quiver)
    arrows = quiver.arrows()
    for e, s, t in arrows:
        ma, rows, cols = x[e], alpha[t - 1], alpha[s - 1]
        # a matrix without entries may come in any empty form, as in stabilizer_order
        if tuple(map(len, ma)) != (cols,) * rows and (any(ma) or rows * cols):
            raise ValueError("arrow %d matrix has the wrong shape" % e)
    blocks = [[[alg.zero()] * a for _ in range(a)] for a in alpha]
    for e, s, t in arrows:
        ma, mstar = x[e], x[star[e]]
        for block, term, op in ((blocks[t - 1], mat_mul(alg, ma, mstar), alg.add),
                                (blocks[s - 1], mat_mul(alg, mstar, ma), alg.sub)):
            for i, row in enumerate(term):
                for j, entry in enumerate(row):
                    block[i][j] = op(block[i][j], entry)
    return tuple(tuple(map(tuple, block)) for block in blocks)


def preproj_orbit_partition(quiver, alg, alpha, guard=GUARD):
    """Direct-partition fallback for the preprojective class count: list
    the zero-fiber points, then sweep each unvisited one with the whole
    group.  Only viable for tiny spaces; must agree with m_preproj."""
    alpha = _validate_alpha(quiver, alpha)
    darrows = double_quiver(quiver)[0].arrows()
    points = whole_zero_fiber(quiver, alg, alpha, guard)
    elements = enumerate_group(quiver, alg, alpha, guard)
    fiber = [tuple(coordinate_matrix(alg, x, alpha[s - 1]) for x, (_, s, _) in zip(point, darrows))
             for point in points]

    group = []
    for g in elements:
        g = [coordinate_matrix(alg, gi, a) for gi, a in zip(g, alpha)]
        group.append((g, [mat_inverse(alg, gi) if gi else () for gi in g]))
    orbits = 0
    visited = set()
    for point in fiber:
        if point in visited:
            continue
        orbits += 1
        for g, inverses in group:
            image = tuple(mat_mul(alg, mat_mul(alg, g[t - 1], x), inverses[s - 1])
                          for x, (e, s, t) in zip(point, darrows))
            visited.add(image)
    return orbits


def scaling_orbits_by_units(n, q):
    """The scaling-orbit count over sqz(F_q, n)[eps] by Burnside with one F_p
    rank per unit u, of u - 1: the unit loop that counterexample_counts reads
    off the lines of the maximal ideal."""
    from quivercount.finite_algebra import make_dual_numbers, make_field, make_square_zero

    doubled = make_dual_numbers(make_square_zero(make_field(q), n))
    p, dim = doubled.p, doubled.dim
    fixed = sum(p ** (dim - rank(doubled.mul_matrix(doubled.sub(u, doubled.one)), p))
                for u in doubled.units())
    orbits, rest = divmod(fixed, doubled.unit_count())
    if rest:
        raise ArithmeticError("Burnside sum %d is not a multiple of |R^x|" % fixed)
    return orbits
