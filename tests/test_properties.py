"""Property tests on random connected multigraphs with loops and parallel
edges: the subset transforms against the depth-function sum, the
filtration sum R(T) against the transforms coefficient by coefficient, and
A(T) from the transform against the sum over connected spanning subgraphs; and
on random small quivers, the conjugacy-class sums of m_count and a_count
against the loop over every group element, and the rank sums of m_preproj
and a_preproj against the zero-fiber filter.  Derandomized, so a run is
reproducible; a failure shrinks to a small graph.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from quivercount.finite_algebra import make_prime_field, make_truncated  # noqa: E402
from quivercount.genfun import a_genfun, r_genfun, series_coefficient  # noqa: E402
from quivercount.multigraph import Multigraph, Quiver  # noqa: E402
from quivercount.repenum import (a_count, a_preproj, group_order, m_count,  # noqa: E402
                                 m_preproj)
from quivercount.toric import r_d_polynomial  # noqa: E402
from test_genfun import a_genfun_by_subgraphs, same_form  # noqa: E402
from test_repenum import burnside_by_elements, preproj_by_filter  # noqa: E402
from test_toric import depth_function_sum  # noqa: E402

F2, F3 = make_prime_field(2), make_prime_field(3)
RINGS = (F2, F3, make_truncated(F2, 2))

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


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


@PROPERTY
@given(connected_multigraphs(6), st.integers(0, 4))
def test_r_d_transform_equals_the_depth_function_sum(graph, d):
    assert r_d_polynomial(graph, d) == depth_function_sum(graph, d)


@PROPERTY
@given(connected_multigraphs(5))
def test_filtration_sum_coefficients_equal_r_d(graph):
    f = r_genfun(graph)
    for d in range(4):
        assert series_coefficient(f, d) == r_d_polynomial(graph, d)


@PROPERTY
@given(connected_multigraphs(6))
def test_a_genfun_equals_the_subgraph_sum_oracle(graph):
    assert same_form(a_genfun(graph), a_genfun_by_subgraphs(graph))


@st.composite
def small_quivers(draw):
    """A quiver with at most 3 vertices and 3 arrows, loops allowed."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(1, n)
    return Quiver.from_edges(n, draw(st.lists(st.tuples(vertex, vertex), max_size=3)))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(small_quivers(), st.sampled_from(RINGS), st.data())
def test_class_sums_equal_the_element_loop(quiver, ring, data):
    alpha = data.draw(st.tuples(*[st.integers(0, 2)] * quiver.n))
    assume(any(alpha) and group_order(quiver, ring, alpha) <= 500)
    assert m_count(quiver, ring, alpha) == burnside_by_elements(quiver, ring, alpha)
    if (ring.residue_field.size() - 1) % sum(alpha) == 0:
        assert a_count(quiver, ring, alpha) == \
            burnside_by_elements(quiver, ring, alpha, character=True)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(small_quivers(), st.sampled_from(RINGS), st.data())
def test_preprojective_rank_sums_equal_the_zero_fiber_filter(quiver, ring, data):
    alpha = data.draw(st.tuples(*[st.integers(0, 2)] * quiver.n))
    # the filter lists at most the whole doubled space, |R|^(2 sum_a alpha_t alpha_s)
    doubled = ring.size() ** (2 * sum(alpha[t - 1] * alpha[s - 1] for _, s, t in quiver.arrows()))
    assume(any(alpha) and doubled <= 5000)
    assert m_preproj(quiver, ring, alpha) == preproj_by_filter(quiver, ring, alpha)
    if (ring.residue_field.size() - 1) % sum(alpha) == 0:
        assert a_preproj(quiver, ring, alpha) == \
            preproj_by_filter(quiver, ring, alpha, character=True)
