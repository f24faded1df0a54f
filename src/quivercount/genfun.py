"""Rational generating functions for the toric counting polynomials and
the convolution calculus of multiplicative graph invariants.

R(gamma, q, T) collects the depth-d counts R_d as a power series in T, a
sum over strict filtrations of the edge set.  A(graph, q, T), with (q-1)^b1
weights over connected spanning subgraphs, and the q-Eulerian numerators
come from the steps of toric._r_d_table over a known denominator.  Both
satisfy an inversion identity under (q, T) -> (1/q, 1/T), verified here by
exact substitution.

Characters are functions on multigraphs, multiplicative over disjoint union
and one-point join, with convolution (f * g)(Gamma) = sum over edge subsets
A of f(Gamma[A]) * g(Gamma/A), summed over intervals of Gamma's subset lattice.
"""

from collections import Counter
from functools import cache, cached_property
from math import comb

from .multigraph import GUARD, charge, strict_filtrations
from .polynomials import QPoly, QTPoly, _integer, _times_into, times_t_factors, unpack
from .ratfun import RatQT
from .toric import (_a_of_step, _r_d_table, _spanning_by_b1, epsilon1_value, epsilon_value,
                    r_d_on_components, r_d_polynomial)


def cvector_of_filtration(gamma, chain):
    """c-vector (c_0, ..., c_l) of a strict filtration, c_0 = 0 and
    c_i = b1(gamma) - b1(Lambda_i) where Lambda_i contracts everything
    outside F_{i-1}.

    That difference is b1(gamma[E - F_{i-1}]), read from a memo on gamma
    that one union-find fills per missing F.  strict_filtrations shares its
    F_i between chains, and a frozenset keeps its hash, so a read is one
    dictionary lookup.  c_1 = b1(gamma), and |E| - c_1 = n - 1 iff gamma is connected.
    """
    prev, cs = frozenset(), [0]
    for step in map(frozenset, chain):      # a frozenset maps to itself
        if not prev < step:
            raise ValueError("not a strict filtration of the edge set")
        cs.append(gamma._b1_outside(prev))
        prev = step
    # every F_i lies in F_l, so F_l = E keeps the whole chain inside E
    if len(prev) != len(gamma.edges) or not prev.issuperset(gamma._by_id):
        raise ValueError("filtration must end at the full edge set")
    if gamma.n > 1 and len(prev) - gamma._b1_outside(frozenset()) != gamma.n - 1:
        raise ValueError("gamma must be connected")
    return tuple(cs)


def r_of_cvector(c):
    """q^(c_2 + ... + c_l) T^l / prod_i (1 - q^(c_i) T); the degenerate
    length-one vector (0,) gives 1/(1-T)."""
    if not c or c[0] != 0 or any(x < 0 for x in c):
        raise ValueError("c-vector must start with 0 and be non-negative")
    l = len(c) - 1
    # a monomial is a unit, so it shares no factor with the denominator
    return RatQT(QTPoly.monomial(sum(c[2:]), l), Counter(c), reduce=False)


def r_genfun(gamma, guard=GUARD):
    """R(gamma, q, T) as an exact rational function: the sum of
    R(c(F), q, T) over all strict filtrations F of the edge set, whose
    number Fubini(|E|) strict_filtrations charges up front."""
    if not gamma.is_connected():
        raise ValueError("gamma must be connected")
    weights = Counter(cvector_of_filtration(gamma, chain)
                      for chain in strict_filtrations(gamma.edge_ids(), guard))
    gamma._outside_b1 = None    # so that gamma does not keep this walk's sets
    return RatQT.sum(weights[c] * r_of_cvector(c) for c in sorted(weights))


def _series_numerator(coeffs, den):
    """N = (sum_d coeffs[d] T^d) prod (1 - q^c T)^mult mod T^len(coeffs) for
    den = {c: mult}, one pass per factor.  When den clears the series to a
    numerator of T-degree below len(coeffs), the series is N / den."""
    if len(coeffs) != sum(den.values()):
        raise ValueError("need as many coefficients as the denominator's T-degree")
    series = {(e, d): v for d, c in enumerate(coeffs) for e, v in c.coeffs.items()}
    return QTPoly(times_t_factors(series, Counter(den).elements(), len(coeffs)))


def a_genfun(graph, guard=GUARD):
    """A(graph, q, T), the sum of (q-1)^b1(S) R(S, q, T) over connected
    spanning S.  Along a strict filtration b1 never increases and each value
    occurs at most n times, so D = prod_{b=0}^{b1} (1 - q^b T)^n clears A to
    a numerator of T-degree below deg D = n (b1 + 1).  A_0 = eps1; A_1, ...,
    A_{deg D - 1} come from the transform steps of _r_d_table, which guard bounds."""
    if not graph.is_connected():
        raise ValueError("graph must be connected")
    n, b1 = graph.n, graph.b1()
    coeffs, groups = [QPoly.const(epsilon1_value(graph))], None
    for b1s, h, width in _r_d_table(graph, n * (b1 + 1) - 1, guard):
        groups = groups or _spanning_by_b1(n, b1s)
        coeffs.append(_a_of_step(groups, h, width))
    den = dict.fromkeys(range(b1 + 1), n)
    return RatQT(_series_numerator(coeffs, den), den)


class GraphChar:
    """A multiplicative graph invariant valued in Laurent polynomials in q.

    Memoized on the graph's canonical_key(), which forgets the edge ids:
    the memo assumes the values do not depend on them, as they do not for
    a graph invariant or any convolution of invariants.  It only avoids
    recomputing repeated subgraph evaluations.
    """

    __slots__ = ("name", "fn", "_memo", "_on_interval")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn
        self._memo = {}
        self._on_interval = None    # set by psi and convolutions, see _interval

    def __call__(self, g):
        key = g.canonical_key()
        hit = self._memo.get(key)
        if hit is None:
            hit = self.fn(g)
            if isinstance(hit, int):
                hit = QPoly.const(hit)
            self._memo[key] = hit
        return hit

    def __repr__(self):
        return "GraphChar(%s)" % self.name

    def _interval(self, lattice, lo, hi):
        """The value on the minor Gamma[hi]/lo of a _Lattice, built if need be."""
        if self._on_interval is not None:
            return self._on_interval(lattice, lo, hi)
        return self(lattice._minor(lo, hi))


def _psi(name, k, sign):
    """Gamma -> sign^#E * q^(k * b1(Gamma)), built once per (b1, #E mod 2); on
    [lo, hi] of a lattice #E = |hi - lo|, b1 = b1(hi) - b1(lo), no minor built."""
    k = _integer(k, "psi exponent")
    mono = cache(lambda b1, odd: QPoly.monomial(k * b1, sign ** odd))
    char = GraphChar(name % k, lambda g: mono(g.b1(), g.edge_count() & 1))
    char._on_interval = lambda lat, lo, hi: mono(lat.b1[hi] - lat.b1[lo], (hi ^ lo).bit_count() & 1)
    return char


def psi_char(k=1):
    """Gamma -> q^(k * b1(Gamma)); k may be negative (Laurent values)."""
    return _psi("psi(q^%d)", k, 1)


def psi_inverse_char(k=1):
    """Gamma -> (-1)^#E * q^(k * b1); the convolution inverse of psi."""
    return _psi("(-1)^E*psi(q^%d)", k, -1)


def r_d_char(d):
    """R_d extended multiplicatively over components."""
    return GraphChar("R_%d" % d, lambda g: r_d_on_components(g, d))


class _Lattice:
    """The edge subsets of one graph as bitmasks over its sorted ids, lo <= hi
    standing for the minor Gamma[hi]/lo; memo lives for one evaluation."""

    def __init__(self, graph, guard):
        self.graph, self.ids, self.guard, self.memo = graph, sorted(graph.edge_ids()), guard, {}
        self.top = (1 << len(self.ids)) - 1

    @cached_property
    def b1(self):       # first read after the top interval has charged its terms
        return self.graph.subset_b1(self.ids, self.guard)

    def _minor(self, lo, hi):
        g = self.graph if hi == self.top else self.graph.spanning_subgraph(self._edges(hi))
        return g.contract(self._edges(lo)) if lo else g

    def _edges(self, mask):
        return [e for i, e in enumerate(self.ids) if mask >> i & 1]


def convolve(f, g, guard=GUARD):
    """(f * g)(Gamma) = sum over A of f(Gamma[A]) * g(Gamma/A): the value on
    the top interval of Gamma's lattice, where (f * g)([lo, hi]) is the sum
    over lo <= c <= hi of f([lo, c]) * g([c, hi]), charged as 2^k terms for
    the k edges of hi - lo, summed into one coefficient map, memoized."""
    if not (isinstance(f, GraphChar) and isinstance(g, GraphChar)):
        raise TypeError("convolve needs two GraphChar operands, got %r and %r" % (f, g))

    def interval(lattice, lo, hi):
        value = lattice.memo.get((interval, lo, hi))
        if value is None:
            free = hi ^ lo
            k = free.bit_count()
            charge(1 << k, guard, "2^%d = %d convolution terms" % (k, 1 << k))
            acc, c = {}, hi
            while True:
                _times_into(acc, f._interval(lattice, lo, c), g._interval(lattice, c, hi))
                if c == lo:
                    break
                c = lo | ((c ^ lo) - 1) & free      # the next c, down to lo
            value = lattice.memo[interval, lo, hi] = QPoly(acc)
        return value

    char = GraphChar("(%s*%s)" % (f.name, g.name),
                     lambda graph: interval(_Lattice(graph, guard), 0, (1 << graph.edge_count()) - 1))
    char._on_interval = interval
    return char


def r_d_via_convolution(gamma, d, guard=GUARD):
    """R_d computed as the convolution psi(q^(d-1)) * ... * psi(q^0);
    asserted equal to the direct depth-function sum."""
    if (d := _integer(d, "depth d")) < 1:
        raise ValueError("d >= 1 required")
    if not gamma.is_connected():
        raise ValueError("gamma must be connected")
    char = psi_char(d - 1)
    for k in range(d - 2, -1, -1):
        char = convolve(char, psi_char(k), guard=guard)
    value = char(gamma)
    if value != r_d_polynomial(gamma, d, guard):
        raise ArithmeticError("R_%d by convolution, %s, differs from the depth sum" % (d, value))
    return value


def check_recursion(gamma, guard=GUARD):
    """Verify R(gamma,q,T) = eps(gamma) + T * sum over A of
    R(gamma/A, q, q^b1(gamma[A]) T), exactly as rational functions."""
    return _recursion_holds(gamma, guard, {})


def _recursion_holds(gamma, guard, memo):
    """check_recursion reading each R(gamma/A) from memo by canonical_key(), filled by
    r_genfun on a miss (A = 0 is gamma, so a cold memo charges its Fubini(m) after
    the 2^m terms), and summing one term per distinct pair (key, b1(gamma[A]))."""
    if not gamma.is_connected():
        raise ValueError("gamma must be connected")
    lattice = _Lattice(gamma, guard)
    top = lattice.top
    charge(top + 1, guard, "2^%d = %d recursion terms" % (len(lattice.ids), top + 1))
    pairs = Counter()
    for a in range(top + 1):
        minor = lattice._minor(a, top)
        key = minor.canonical_key()
        if key not in memo:
            memo[key] = r_genfun(minor, guard)
        pairs[key, lattice.b1[a]] += 1
    terms = [n * memo[key].subs_t_scale(b1).t_shift(1) for (key, b1), n in pairs.items()]
    return memo[gamma.canonical_key()] == RatQT.sum([epsilon_value(gamma)] + terms)


def check_duality(g, which, guard=GUARD):
    """Inversion identity under (q, T) -> (1/q, 1/T):

      which='A':  A(1/q, 1/T) = eps1(g) + (-1)^#V * A(q, T)
      which='R':  R(1/q, 1/T) = eps(g) + (-1)^(#E - 1) * q^b1 * R(q, T)
    """
    if not g.is_connected():
        raise ValueError("g must be connected")
    if which == "A":
        f = a_genfun(g, guard)
        return f.invert_vars() == RatQT(epsilon1_value(g)) + (-1) ** (g.n % 2) * f
    if which == "R":
        f = r_genfun(g, guard)
        sign = (-1) ** ((g.edge_count() - 1) % 2)
        return f.invert_vars() == RatQT(epsilon_value(g)) + sign * (QPoly.monomial(g.b1()) * f)
    raise ValueError("which must be 'A' or 'R'")


def q_eulerian(m, guard=GUARD):
    """The q-analog Eulerian polynomial F_m(q, T), from
    R(S_m, q, T) = T F_m(q, T) / (T)_{m+1}: T F_m is the numerator of R(S_m)
    over that known denominator, built from R_0 = 0 and R_1..R_m with
    a_genfun's guard unit."""
    if (m := _integer(m, "m")) < 1:
        raise ValueError("m >= 1 required")
    from .families import loops_graph
    steps = _r_d_table(loops_graph(m), m, guard)
    coeffs = [QPoly()] + [QPoly(unpack(h[-1], w)) for _, h, w in steps]
    return _series_numerator(coeffs, dict.fromkeys(range(m + 1), 1)).shift(0, -1)


def eulerian_numbers(n):
    """Row n of the Eulerian triangle: [A(n,0), ..., A(n,n-1)], the
    numerator coefficients of sum_k (k+1)^n T^k times (1-T)^(n+1)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    row = [1]
    for size in range(2, n + 1):
        padded = [0] + row + [0]
        row = [(size - j) * padded[j] + (j + 1) * padded[j + 1] for j in range(size)]
    return row


def binomial_qseries_identity(m):
    """Check sum_{i=0}^m C(m,i) (q-1)^i F_i(q,T)/(T)_{i+1} = q^m/(1-q^m T)
    with the i = 0 term read as 1/(1-T)."""
    qm1 = QPoly({1: 1, 0: -1})
    terms = [RatQT(q_eulerian(i) * (qm1 ** i * comb(m, i)), Counter(range(i + 1)))
             for i in range(1, m + 1)]
    return RatQT.sum([RatQT.geometric(0)] + terms) == RatQT(QTPoly.monomial(m, 0), {m: 1})
