"""Closed-form counting of absolutely indecomposable rank-one ("toric")
representations over truncated polynomial rings F_q[t]/(t^d).

The combinatorial type of a toric representation is a pair (gamma, r):
gamma the connected support subgraph and r a depth function assigning
each edge an integer 1..d (r records the annihilator exponent of the
edge value).  Per-type orbit data and the polynomials A_d and R_d are
computed exactly in q.

R_d sums q^delta over the d^|E| depth functions, but delta only reads
b1 of the nested edge sets of a depth function, so A_d and R_d come
from one table of b1 over the 2^|E| edge subsets and d - 1 subset-sum
transforms over it (_r_d_table), not from the depth functions one by one.
"""

from collections import deque
from operator import add

from .multigraph import GUARD, charge
from .polynomials import QPoly, _integer, unpack


def epsilon_value(g):
    """Counit: 1 iff the graph has no edges (the class of the point)."""
    return 1 if g.edge_count() == 0 else 0


def epsilon1_value(g):
    """1 iff every edge is a loop (the class of the one-vertex graphs S_m)."""
    return 1 if all(g.is_loop(e) for e in g.edge_ids()) else 0


def check_depth_function(gamma, r, d):
    if set(r) != set(gamma.edge_ids()):
        raise ValueError("depth function must be total on the edges")
    for e, value in r.items():
        if not 1 <= value <= d:
            raise ValueError("depth value r(%d) = %r outside 1..%d" % (e, value, d))


def r_d_polynomial(gamma, d, guard=GUARD):
    """sum over all depth functions r of q^delta(gamma, r).

    Degree (d-1) * b1(gamma), leading coefficient d^bridges(gamma) (so
    monic exactly when gamma has no bridge), non-negative coefficients;
    d = 0 returns the counit value (1 iff gamma is a single vertex).
    Computed by d - 1 subset-sum transforms over the 2^|E| edge subsets
    (see _r_d_table); guard bounds their (d-1) * |E| * 2^|E| steps.
    """
    if not gamma.is_connected():
        raise ValueError("gamma must be connected")
    return r_d_on_components(gamma, d, guard)


def r_d_on_components(g, d, guard=GUARD):
    """R_d extended multiplicatively to arbitrary multigraphs: the product
    of R_d over the components.  b1 adds over components, so the transform
    over all of g gives that product; d = 0 returns 1 iff g has no edge."""
    if (d := _integer(d, "depth d")) < 0:
        raise ValueError("d >= 0 required")
    if d == 0:
        return QPoly.const(epsilon_value(g))
    if d == 1:
        return QPoly.const(1)
    _, h, width = deque(_r_d_table(g, d, guard), maxlen=1).pop()
    return QPoly(unpack(h[-1], width))


def _r_d_table(graph, d, guard):
    """Yield the steps j = 0..d-1 as (b1, h_j, width), lists by bitmask over
    the sorted edge ids, left unchanged later: b1(U) of the spanning subgraph
    on U and h_j(U) = R_{j+1}(U), packed width bits per coefficient (unpack).

    A depth function on U is a chain U = S_0 > S_1 > ... > S_{d-1} (S_k the
    edges of depth > k, not necessarily strict) and contributes
    q^(b1(S_1) + ... + b1(S_{d-1})).  So with h_0 = 1 and
    h_j(U) = sum over S in U of q^b1(S) h_{j-1}(S), one subset-sum (zeta)
    transform per j, R_d(U) = h_{d-1}(U).  The transform is the one of
    Bjorklund, Husfeldt, Kaski and Koivisto, "Fourier meets Mobius: fast
    subset convolution" (STOC 2007).  The b1 table alone costs as much as
    one transform, so the guard counts max(d-1, 1) transforms, up front.
    Width: the coefficients of h_j(U) are >= 0 and sum to (j+1)^|U|, so a
    sum of h_j over any masks (as _a_of_step takes) has coefficients at most
    (j+2)^m <= (d+1)^m <= 2^(m * bitlen(d)) < 2^width; q^b1(S) is a shift.
    """
    ids = sorted(graph.edge_ids())
    m = len(ids)
    steps = max(d - 1, 1) * m << m
    charge(steps, guard, "(d-1) * |E| * 2^|E| = %d transform steps" % steps)
    b1 = graph.subset_b1(ids, guard)
    width = m * d.bit_length() + 1
    h = [1] * len(b1)
    for j in range(d):
        if j:
            h = [x << width * b for x, b in zip(h, b1)]
            for i in range(m):
                bit = 1 << i
                for base in range(bit, 1 << m, bit << 1):
                    h[base:base + bit] = map(add, h[base:base + bit], h[base - bit:base])
        yield b1, h, width


def a_d_polynomial(graph, d, guard=GUARD):
    """Number of isomorphism classes of absolutely indecomposable toric
    representations over F_q[t]/(t^d), as an exact polynomial in q.

    Sums (q-1)^b1(gamma) * R_d(gamma) over connected spanning subgraphs;
    degree d * b1(graph) with leading coefficient d^bridges(graph).  d = 0
    returns 1 iff every edge is a loop (the one-vertex classes).  One pass
    of _r_d_table gives R_d of every spanning subgraph at once; guard
    bounds its max(d-1, 1) * |E| * 2^|E| steps.
    """
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    if (d := _integer(d, "depth d")) < 0:
        raise ValueError("d >= 0 required")
    if d == 0:
        return QPoly.const(epsilon1_value(graph))
    b1, h, width = deque(_r_d_table(graph, d, guard), maxlen=1).pop()
    return _a_of_step(_spanning_by_b1(graph.n, b1), h, width)


def _spanning_by_b1(n, b1):
    """The masks of the connected spanning S, those of rank |S| - b1(S) =
    n - 1, grouped by b1(S): one selection per b1 table of _r_d_table."""
    groups = [[] for _ in range(max(b1) + 1)]
    for mask, b in enumerate(b1):
        if mask.bit_count() - b == n - 1:
            groups[b].append(mask)
    return groups


def _a_of_step(groups, h, width):
    """sum of (q-1)^b1(S) h(S) over the connected spanning S, given by
    _spanning_by_b1, for a step (b1, h, width) of _r_d_table: the packed
    h(S) of equal b1 sum to P_b, and the P_b enter by Horner's rule in q-1."""
    qm1, total = QPoly({1: 1, 0: -1}), QPoly()
    for masks in reversed(groups):
        total = total * qm1 + QPoly(unpack(sum(map(h.__getitem__, masks)), width))
    return total


def a_d_cyclic_closed_form(n, d):
    """Closed form for the cycle C_n over F_q[t]/(t^d):
    q^d + sum_{k=1}^{d-1} [(d-k+1)^n - 2(d-k)^n + (d-k-1)^n] q^k
        + [-d^n + (d-1)^n + n d^(n-1)].
    """
    if (n := _integer(n, "cycle length n")) < 1 or (d := _integer(d, "depth d")) < 1:
        raise ValueError("n >= 1 and d >= 1 required")
    coeffs = {k: (d - k + 1) ** n - 2 * (d - k) ** n + (d - k - 1) ** n for k in range(1, d)}
    coeffs[0], coeffs[d] = -(d ** n) + (d - 1) ** n + n * d ** (n - 1), 1
    return QPoly(coeffs)


def toric_type_orbit_data(gamma, r, d):
    """Stabilizer order, representation count and orbit count, as
    polynomials in q, for the combinatorial type (gamma, r) at depth d.

    Every call checks the orbit-stabilizer identity
    reps * stab = orbits * |G|, |G| = (q^(d-1) (q-1))^n, as polynomials.
    """
    if not gamma.is_connected():
        raise ValueError("gamma must be connected")
    check_depth_function(gamma, r, d)
    ids = sorted(gamma.edge_ids())
    n, b1 = gamma.n, gamma.b1()

    dtilde = delta_simplified = delta_unsimplified = prev_size = 0
    for k in range(1, d + 1):
        shallow = [e for e in ids if r[e] <= k]
        delta_unsimplified += (k - 1) * (len(shallow) - prev_size)
        prev_size = len(shallow)
        if k <= d - 1:
            deep = frozenset(e for e in ids if r[e] > k)
            b1_k = gamma.b1_of_contraction(deep)
            dtilde += len(shallow) - b1_k
            delta_simplified += b1 - b1_k
            delta_unsimplified += len(shallow) - b1_k - n + 1
    # Built-in consistency check of the delta simplification.
    if delta_simplified != delta_unsimplified:
        raise ArithmeticError("delta simplification failed: %d != %d"
                              % (delta_simplified, delta_unsimplified))

    qm1 = QPoly({1: 1, 0: -1})
    stab = QPoly.monomial(dtilde + d - 1) * qm1
    reps = qm1 ** len(ids) * QPoly.monomial(sum(r[e] - 1 for e in ids))
    orbits = qm1 ** b1 * QPoly.monomial(delta_simplified)
    group = (QPoly.monomial(d - 1) * qm1) ** n
    if reps * stab != orbits * group:
        raise ArithmeticError("reps * stab != orbits * (q^(d-1) (q-1))^n; inconsistent type data")
    return stab, reps, orbits
