"""Hypothesis strategies for the property tests: connected multigraphs,
small quivers with rank vectors, and Laurent polynomials and rational
functions in (q, T).  Importing this module imports hypothesis, so a test
module imports it only after pytest.importorskip("hypothesis").
"""

from hypothesis import strategies as st

from quivercount.multigraph import Multigraph, Quiver
from quivercount.polynomials import QPoly, QTPoly
from quivercount.ratfun import RatQT


@st.composite
def connected_multigraphs(draw, max_edges):
    """A random spanning tree plus random extra edges (loops and parallel
    edges allowed), in shuffled order under distinct random edge ids."""
    n = draw(st.integers(1, min(max_edges + 1, 5)))
    pairs = [(v, draw(st.integers(1, v - 1))) for v in range(2, n + 1)]
    vertex = st.integers(1, n)
    pairs += draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges - len(pairs)))
    pairs = draw(st.permutations(pairs))
    ids = draw(st.lists(st.integers(1, 99), min_size=len(pairs), max_size=len(pairs),
                        unique=True))
    return Multigraph(n, [(e, u, v) for e, (u, v) in zip(ids, pairs)])


@st.composite
def small_quivers(draw):
    """A quiver with at most 3 vertices and 3 arrows, loops allowed."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(1, n)
    return Quiver.from_edges(n, draw(st.lists(st.tuples(vertex, vertex), max_size=3)))


@st.composite
def quivers_with_ranks(draw):
    """A quiver with at most 4 vertices and 6 arrows, half of them built
    on the oriented cycle through every vertex (loops and parallel arrows
    allowed), and a rank vector with entries 0..2."""
    n = draw(st.integers(1, 4))
    vertex = st.integers(1, n)
    arrows = [(v, v % n + 1) for v in range(1, n + 1)] if draw(st.booleans()) else []
    arrows += draw(st.lists(st.tuples(vertex, vertex), max_size=6 - len(arrows)))
    return Quiver.from_edges(n, arrows), draw(st.tuples(*[st.integers(0, 2)] * n))


# Laurent polynomials in (q, T) with small exponents, negative T ones included
laurent_qt = st.dictionaries(st.tuples(st.integers(-2, 4), st.integers(-2, 3)),
                             st.integers(-3, 3), max_size=5).map(QTPoly)
t_factor_exponents = st.integers(0, 3)
denominators = st.dictionaries(t_factor_exponents, st.integers(0, 2), max_size=3)


@st.composite
def sum_terms(draw):
    """An int, a QPoly, a QTPoly, a reduced RatQT, or a RatQT built with
    reduce=False, whose numerator may carry a factor of its denominator."""
    kind = draw(st.sampled_from(("int", "qpoly", "qtpoly", "reduced", "unreduced")))
    if kind == "int":
        return draw(st.integers(-4, 4))
    if kind == "qpoly":
        return QPoly(draw(st.dictionaries(st.integers(-2, 3), st.integers(-3, 3), max_size=3)))
    num, den = draw(laurent_qt), draw(denominators)
    if kind == "qtpoly":
        return num
    if kind == "reduced":
        return RatQT(num, den)
    for c in draw(st.lists(t_factor_exponents, max_size=2)):
        num = num * (QTPoly.const(1) - QTPoly.monomial(c, 1))
    return RatQT(num, den, reduce=False)


@st.composite
def ratqts(draw):
    """A reduced RatQT, or one built with reduce=False whose numerator may
    carry a factor of its denominator."""
    num, den = draw(laurent_qt), draw(denominators)
    if draw(st.booleans()):
        return RatQT(num, den)
    for c in draw(st.lists(t_factor_exponents, max_size=2)):
        num = num * (QTPoly.const(1) - QTPoly.monomial(c, 1))
    return RatQT(num, den, reduce=False)


# denominators with repeated factors (1 - q^c T)^m, c in 0..4
repeated_denominators = st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=3)


@st.composite
def series_ratqts(draw):
    """A reduced RatQT, or one built with reduce=False whose numerator may
    carry factors of its denominator; the numerator may have a pole at T = 0."""
    num = QTPoly(draw(st.dictionaries(st.tuples(st.integers(-2, 4), st.integers(-1, 4)),
                                      st.integers(-3, 3), max_size=5)))
    den = draw(repeated_denominators)
    if draw(st.booleans()):
        return RatQT(num, den)
    for c in draw(st.lists(st.integers(0, 4), max_size=2)):
        num = num * (QTPoly.const(1) - QTPoly.monomial(c, 1))
    return RatQT(num, den, reduce=False)
