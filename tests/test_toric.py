import pytest

from quivercount.families import (all_connected_multigraphs, banana_graph,
                                  cycle_graph, loops_graph, path_graph)
from quivercount.genfun import q_eulerian, r_d_via_convolution
from quivercount.multigraph import GuardError, Multigraph
from quivercount.polynomials import QPoly
from quivercount.toric import (a_d_cyclic_closed_form, a_d_polynomial, r_d_on_components,
                               r_d_polynomial, toric_type_orbit_data)
from oracles import (connected_spanning_subgraphs, delta, depth_function_sum,
                     r_d_by_components, weighted_depth_function_sum)


def test_transforms_match_the_depth_function_sum():
    for g in all_connected_multigraphs(4):
        for d in range(0, 5):
            assert r_d_polynomial(g, d) == depth_function_sum(g, d)
            assert a_d_polynomial(g, d) == weighted_depth_function_sum(g, d)


def test_r_d_on_components_is_the_product_over_components():
    # disjoint unions of two connected multigraphs and an isolated vertex;
    # the transform over the whole graph must equal the per-component product
    for g in all_connected_multigraphs(3):
        for h in all_connected_multigraphs(2):
            union = Multigraph(g.n + h.n + 1, list(g.edges) +
                               [(e + 10, u + g.n, v + g.n) for e, u, v in h.edges])
            for d in range(0, 5):
                assert r_d_on_components(union, d) == r_d_by_components(union, d)
    with pytest.raises(ValueError, match="d >= 0"):
        r_d_on_components(union, -1)


def test_r_d_of_the_eight_cycle():
    assert str(r_d_polynomial(cycle_graph(8), 5)) == \
        "q^4 + 255*q^3 + 6305*q^2 + 58975*q + 325089"
    # 8^8 depth functions; the transforms take 7 * 8 * 2^8 steps
    qm1 = QPoly({1: 1, 0: -1})
    r_8 = r_d_polynomial(cycle_graph(8), 8)
    assert qm1 * r_8 + QPoly.const(8 * 8 ** 7) == a_d_cyclic_closed_form(8, 8)


# depths on both sides of 2^k, where bitlen(d), and with it the packed
# coefficient width of the transform, changes
BOUNDARY_DEPTHS = (1, 2, 3, 4, 5, 7, 8, 9)


def test_packed_width_boundaries():
    for n in range(1, 9):
        for d in BOUNDARY_DEPTHS:
            assert a_d_polynomial(cycle_graph(n), d) == a_d_cyclic_closed_form(n, d)
    # a tree puts all d^m depth functions in its one coefficient
    for m in range(0, 9):
        for d in BOUNDARY_DEPTHS:
            assert r_d_polynomial(path_graph(m + 1), d) == QPoly.const(d ** m)


@pytest.mark.parametrize("call, message", [
    (lambda: r_d_polynomial(cycle_graph(3), 2.5), "depth d 2.5"),
    (lambda: a_d_polynomial(cycle_graph(3), 2.5), "depth d 2.5"),
    (lambda: r_d_via_convolution(cycle_graph(3), 2.5), "depth d 2.5"),
    (lambda: q_eulerian(2.5), "m 2.5"),
    (lambda: a_d_cyclic_closed_form(3, 2.5), "depth d 2.5"),
    (lambda: a_d_cyclic_closed_form(2.5, 3), "cycle length n 2.5"),
], ids=["r_d_polynomial", "a_d_polynomial", "r_d_via_convolution", "q_eulerian",
        "a_d_cyclic_closed_form_d", "a_d_cyclic_closed_form_n"])
def test_a_non_integer_depth_is_refused_at_entry(call, message):
    # refused before the transform reads d.bit_length() or the closed form
    # computes float powers
    with pytest.raises(ValueError, match=message + " is not an integer"):
        call()


def test_delta_examples():
    c3 = cycle_graph(3)
    assert delta(c3, {1: 2, 2: 2, 3: 2}, 2) == 1
    assert delta(c3, {1: 2, 2: 2, 3: 1}, 2) == 0
    tree = path_graph(4)
    assert delta(tree, {1: 3, 2: 1, 3: 2}, 3) == 0
    with pytest.raises(ValueError):
        delta(c3, {1: 3, 2: 1, 3: 1}, 2)
    with pytest.raises(ValueError):
        delta(c3, {1: 1, 2: 1}, 2)


def test_r_d_examples():
    assert r_d_polynomial(cycle_graph(3), 2) == QPoly({1: 1, 0: 7})
    assert r_d_polynomial(loops_graph(0), 3) == QPoly.const(1)
    assert r_d_polynomial(banana_graph(2), 2) == QPoly({1: 1, 0: 3})
    # depth functions of a tree all have exponent zero
    assert r_d_polynomial(path_graph(3), 3) == QPoly.const(9)
    # d = 0 is the counit
    assert r_d_polynomial(loops_graph(0), 0) == QPoly.const(1)
    assert r_d_polynomial(cycle_graph(3), 0) == QPoly()


def test_a_d_examples():
    assert a_d_polynomial(cycle_graph(3), 2) == QPoly({2: 1, 1: 6, 0: 5})
    for d in range(1, 7):
        expected = QPoly({d: 1, 0: 1, **{k: 2 for k in range(1, d)}})
        assert a_d_polynomial(banana_graph(2), d) == expected
    for m in range(0, 4):
        for d in range(1, 5):
            assert a_d_polynomial(loops_graph(m), d) == QPoly.monomial(d * m)
    # d = 0: 1 exactly when every edge is a loop
    assert a_d_polynomial(loops_graph(2), 0) == QPoly.const(1)
    assert a_d_polynomial(cycle_graph(3), 0) == QPoly()
    with pytest.raises(ValueError):
        a_d_polynomial(Multigraph(2, []), 2)


def test_a_d_as_weighted_r_d_sum():
    qm1 = QPoly({1: 1, 0: -1})
    for g in [cycle_graph(3), banana_graph(3), loops_graph(2)]:
        for d in range(0, 4):
            total = QPoly()
            for subset in connected_spanning_subgraphs(g):
                sub = g.spanning_subgraph(subset)
                total = total + qm1 ** sub.b1() * r_d_polynomial(sub, d)
            assert total == a_d_polynomial(g, d)


def test_cyclic_closed_form():
    for d in range(1, 5):
        assert a_d_cyclic_closed_form(1, d) == QPoly.monomial(d)
        literal = QPoly({d: 1, 0: 3 * d - 1,
                         **{k: 6 * (d - k) for k in range(1, d)}})
        assert a_d_cyclic_closed_form(3, d) == literal
    for n in range(1, 6):
        for d in range(1, 5):
            closed = a_d_cyclic_closed_form(n, d)
            assert closed == a_d_polynomial(cycle_graph(n), d)
            assert all(c >= 0 for c in closed.coeffs.values())


def test_value_at_one_counts_trees():
    for g in [cycle_graph(4), banana_graph(3), path_graph(3)]:
        for d in range(1, 5):
            assert a_d_polynomial(g, d)(1) == d ** (g.n - 1) * g.spanning_tree_count()


def test_laws_on_every_small_graph():
    from quivercount.families import all_connected_multigraphs
    for g in all_connected_multigraphs(4):
        b1 = g.b1()
        bridges = g.bridge_count()
        trees = g.spanning_tree_count()
        for d in range(1, 5):
            a = a_d_polynomial(g, d)
            assert a(1) == d ** (g.n - 1) * trees
            # R_d: degree (d-1) b1, leading coefficient d^bridges
            r = r_d_polynomial(g, d)
            assert r.degree() == (d - 1) * b1 and r.leading_coefficient() == d ** bridges
            if b1 > 0:
                assert a.degree() == d * b1
                assert a.leading_coefficient() == d ** bridges
            else:
                assert a == QPoly.const(d ** (g.n - 1))


def test_degree_and_leading_coefficient():
    for g, bridges in [(cycle_graph(3), 0), (banana_graph(2), 0), (loops_graph(2), 0)]:
        for d in range(1, 5):
            a = a_d_polynomial(g, d)
            assert a.is_monic() and a.degree() == d * g.b1()
            r = r_d_polynomial(g, d)
            assert r.is_monic() and r.degree() == (d - 1) * g.b1()
    # a bridge hanging off a cycle doubles the leading coefficient at d = 2
    g = Multigraph(4, [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 3, 4)])
    assert a_d_polynomial(g, 2) == QPoly({2: 2, 1: 12, 0: 10})


def test_orbit_data_symbolic_rows():
    c3 = cycle_graph(3)
    q = QPoly.q()
    qm1 = QPoly({1: 1, 0: -1})
    stab, reps, orbits = toric_type_orbit_data(c3, {1: 2, 2: 2, 3: 2}, 2)
    assert (stab, reps, orbits) == (q * qm1, q ** 3 * qm1 ** 3, q * qm1)
    stab, reps, orbits = toric_type_orbit_data(c3, {1: 1, 2: 1, 3: 1}, 2)
    assert (stab, reps, orbits) == (q ** 3 * qm1, qm1 ** 3, qm1)
    two = c3.spanning_subgraph([1, 2])
    stab, reps, orbits = toric_type_orbit_data(two, {1: 2, 2: 2}, 2)
    assert (stab, reps, orbits) == (q * qm1, q ** 2 * qm1 ** 2, QPoly.const(1))


def test_orbit_data_numeric():
    c3 = cycle_graph(3)
    rows = [(toric_type_orbit_data(c3, {1: 2, 2: 2, 3: 2}, 2), 2, (2, 8, 2)),
            (toric_type_orbit_data(c3, {1: 1, 2: 1, 3: 1}, 2), 3, (54, 8, 2))]
    for polys, q, values in rows:
        assert tuple(f(q) for f in polys) == values
    with pytest.raises(ValueError):
        toric_type_orbit_data(c3, {1: 5, 2: 1, 3: 1}, 2)


def test_guard_on_depth_enumeration():
    # predicted before any table is built: 2^40 subsets would never finish
    with pytest.raises(GuardError):
        r_d_polynomial(cycle_graph(40), 2)
    with pytest.raises(GuardError):
        a_d_polynomial(cycle_graph(40), 1)
