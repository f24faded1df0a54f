import os
import time
from itertools import combinations

import pytest

from quivercount.families import (_canonical_form, _class_keys, all_connected_multigraphs,
                                  banana_graph, cycle_graph, loops_graph, path_graph, path_quiver,
                                  point_graph)
from quivercount.multigraph import GuardError, Multigraph, Quiver, strict_filtrations
from quivercount.polynomials import QTPoly
from oracles import (all_connected_multigraphs_by_scan, canonical_form_by_relabeling,
                     connected_spanning_subgraphs, subset_b1_by_union_find)

ORDERED_BELL = [1, 1, 3, 13, 75, 541]


def _labelled(graphs):
    return [(g.n, g.edges) for g in graphs]


def _labeled_key(g):
    """The vertex count and the sorted (id, end, end) triples of the edges."""
    return g.n, sorted((e, min(u, v), max(u, v)) for e, u, v in g.edges)


def test_enumeration_equals_the_multiset_scan():
    for k in range(5):
        assert _labelled(all_connected_multigraphs(k)) == \
            _labelled(all_connected_multigraphs_by_scan(k))


@pytest.mark.skipif(not os.environ.get("QUIVERCOUNT_SLOW"),
                    reason="set QUIVERCOUNT_SLOW=1 to run the scan at 5 edges (about 5 s)")
def test_enumeration_equals_the_multiset_scan_at_five_edges():
    assert _labelled(all_connected_multigraphs(5)) == \
        _labelled(all_connected_multigraphs_by_scan(5))


def test_canonical_form_equals_the_relabeling_scan_on_every_candidate():
    # the augmented keys that the enumeration canonicalizes, up to 5 edges
    candidates = [(max(n, v), pairs + ((u, v),)) for n, pairs in _class_keys(4)
                  for u in range(1, n + 1) for v in range(u, n + 2)]
    assert len(candidates) == 433
    for n, pairs in candidates:
        assert _canonical_form(n, pairs) == canonical_form_by_relabeling(n, pairs)


def test_enumeration_builds_fresh_graphs_per_call():
    # so that a memo a caller leaves on a graph goes with the caller
    first, second = all_connected_multigraphs(4), all_connected_multigraphs(4)
    assert _labelled(first) == _labelled(second)
    assert not any(a is b for a, b in zip(first, second))


def test_class_counts_at_six_edges():
    # connected multigraphs with loops; trees (OEIS A000055); connected
    # simple graphs by edge count (OEIS A002905)
    graphs = all_connected_multigraphs(6)
    loopless_simple = [g for g in graphs if len({(u, v) for _, u, v in g.edges}) == g.edge_count()
                       and all(u != v for _, u, v in g.edges)]
    for name, subset, expected in [("all", graphs, [1, 2, 4, 11, 30, 95, 328]),
                                   ("trees", [g for g in graphs if g.n == g.edge_count() + 1],
                                    [1, 1, 1, 2, 3, 6, 11]),
                                   ("simple", loopless_simple, [1, 1, 1, 3, 5, 12, 30])]:
        counts = [sum(1 for g in subset if g.edge_count() == e) for e in range(7)]
        assert counts == expected, name
    assert all(g.is_connected() for g in graphs)


@pytest.mark.parametrize("bad", [-1, 2.5, True, "3"])
def test_edge_bound_must_be_a_non_negative_int(bad):
    with pytest.raises(ValueError):
        all_connected_multigraphs(bad)


def test_b1_examples():
    assert cycle_graph(3).b1() == 1
    assert point_graph().b1() == 0
    assert loops_graph(2).b1() == 2
    assert path_graph(4).b1() == 0


def test_construction_validation():
    with pytest.raises(ValueError):
        Multigraph(2, [(1, 1, 3)])
    with pytest.raises(ValueError):
        Multigraph(2, [(1, 1, 2), (1, 2, 2)])


def test_contract_examples():
    c3 = cycle_graph(3)
    g = c3.contract([1])
    assert g.n == 2 and g.edge_count() == 2
    assert sorted(g.edge_ids()) == [2, 3]
    assert not g.is_loop(2) and not g.is_loop(3)
    assert {g.endpoints(2), g.endpoints(3)} <= {(1, 2), (2, 1)}

    g = c3.contract([1, 2])
    assert g.n == 1 and g.edge_count() == 1 and g.is_loop(3)

    s1 = loops_graph(1)
    g = s1.contract([1])
    assert g.n == 1 and g.edge_count() == 0

    with pytest.raises(ValueError):
        c3.contract([99])


def test_spanning_subgraph_examples():
    c3 = cycle_graph(3)
    g = c3.spanning_subgraph([1])
    assert g.n == 3 and g.edge_count() == 1 and g.b1() == 0
    assert _labeled_key(c3.spanning_subgraph([1, 2, 3])) == _labeled_key(c3)
    g = c3.spanning_subgraph([])
    assert g.n == 3 and g.edge_count() == 0
    with pytest.raises(ValueError):
        c3.spanning_subgraph([7])


def test_connected_spanning_subgraphs():
    assert len(list(connected_spanning_subgraphs(cycle_graph(3)))) == 4
    assert len(list(connected_spanning_subgraphs(banana_graph(2)))) == 3
    assert list(connected_spanning_subgraphs(path_graph(2))) == [frozenset([1])]
    # disconnected host yields nothing
    g = Multigraph(3, [(1, 1, 2)])
    assert list(connected_spanning_subgraphs(g)) == []


def test_connected_spanning_subgraphs_against_naive_filter():
    for g in [cycle_graph(4), cycle_graph(6), banana_graph(3), loops_graph(2),
              Multigraph(3, [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 1, 1), (5, 2, 3)]),
              Multigraph(3, [(1, 1, 2), (2, 1, 2), (3, 2, 3), (4, 2, 3), (5, 1, 3), (6, 3, 3)])]:
        ids = sorted(g.edge_ids())
        naive = set()
        for r in range(len(ids) + 1):
            for combo in combinations(ids, r):
                if g.spanning_subgraph(combo).is_connected():
                    naive.add(frozenset(combo))
        assert set(connected_spanning_subgraphs(g)) == naive


def test_strict_filtration_counts():
    for m in range(6):
        assert sum(1 for _ in strict_filtrations(range(m))) == ORDERED_BELL[m]
    chains = list(strict_filtrations([1, 2]))
    assert (frozenset([1, 2]),) in chains
    assert (frozenset([1]), frozenset([1, 2])) in chains
    assert (frozenset([2]), frozenset([1, 2])) in chains
    assert len(chains) == 3
    assert list(strict_filtrations([])) == [()]


def test_spanning_tree_counts():
    assert cycle_graph(3).spanning_tree_count() == 3
    assert banana_graph(2).spanning_tree_count() == 2
    assert path_graph(5).spanning_tree_count() == 1
    assert loops_graph(3).spanning_tree_count() == 1
    assert Multigraph(3, [(1, 1, 2)]).spanning_tree_count() == 0
    assert cycle_graph(4).spanning_tree_count() == 4


def test_tutte_base_cases_and_values():
    y = QTPoly.monomial(0, 1, vars=("x", "y"))
    x = QTPoly.monomial(1, 0, vars=("x", "y"))
    assert loops_graph(1).tutte() == y
    assert path_graph(2).tutte() == x
    assert banana_graph(2).tutte() == x + y
    assert cycle_graph(3).tutte() == x ** 2 + x + y
    with pytest.raises(ValueError):
        Multigraph(2, []).tutte()


def test_tutte_at_one_one_counts_spanning_trees():
    for g in all_connected_multigraphs(5):
        assert g.tutte().evaluate(1, 1) == g.spanning_tree_count()


def test_b1_additivity_over_all_subsets():
    for g in all_connected_multigraphs(5):
        ids = sorted(g.edge_ids())
        for mask in range(1 << len(ids)):
            a = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
            sub = g.spanning_subgraph(a)
            quo = g.contract(a)
            assert g.b1() == sub.b1() + quo.b1()
            assert g.edge_count() == sub.edge_count() + quo.edge_count()


def test_contract_composition_on_disjoint_subsets():
    g = Multigraph(4, [(1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 1), (5, 1, 1)])
    ids = sorted(g.edge_ids())
    for mask_a in range(1 << len(ids)):
        a = frozenset(ids[i] for i in range(len(ids)) if mask_a >> i & 1)
        rest = [e for e in ids if e not in a]
        for mask_b in range(1 << len(rest)):
            b = frozenset(rest[i] for i in range(len(rest)) if mask_b >> i & 1)
            lhs = g.contract(a | b)
            rhs = g.contract(a).contract(b)
            assert lhs.n == rhs.n and _labeled_key(lhs) == _labeled_key(rhs)


def test_subset_b1_equals_the_union_find_table():
    for g in all_connected_multigraphs(5):
        ids = g.edge_ids()
        # all ids in order, unsorted, and a proper subset
        for chosen in (ids, ids[::-1], ids[1::2]):
            assert g.subset_b1(chosen) == subset_b1_by_union_find(g, chosen)


def test_subset_b1_keeps_the_table_of_the_last_ids_only():
    g = Multigraph(3, [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 1, 1)])
    full = g.subset_b1([1, 2, 3, 4])
    assert g.subset_b1((1, 2, 3, 4)) is full
    assert g.subset_b1([4, 3]) == [0, 1, 0, 1]        # a loop, then the edge 3-1
    assert g.subset_b1([3, 4]) == [0, 0, 1, 1]
    again = g.subset_b1([1, 2, 3, 4])
    assert again is not full and again == full == subset_b1_by_union_find(g, [1, 2, 3, 4])
    with pytest.raises(ValueError):
        g.subset_b1([1, 5])


def test_subset_b1_refuses_a_duplicate_edge_id():
    # a repeated id would count as a parallel edge, b1 = 1 at mask 0b011
    with pytest.raises(ValueError, match="duplicate edge id"):
        cycle_graph(3).subset_b1([1, 1, 2])


def test_spanning_connected_refuses_an_unknown_edge_id():
    with pytest.raises(ValueError, match="unknown edge id 9"):
        cycle_graph(3).spanning_connected([9])


def test_strict_filtrations_refuse_a_duplicate_edge_id():
    # [1, 1] would yield ({1}, {1}) twice, a chain that is not strict
    with pytest.raises(ValueError, match="duplicate edge id"):
        strict_filtrations([1, 1])


def test_flip_refuses_an_unknown_edge_id():
    with pytest.raises(ValueError, match="unknown edge id 9"):
        path_quiver(2).flip([9])


def test_subset_b1_guard_trips_before_listing():
    g = banana_graph(40)
    start = time.perf_counter()
    with pytest.raises(GuardError, match=r"2\^40 = 1099511627776 subsets"):
        g.subset_b1(g.edge_ids())
    assert time.perf_counter() - start < 1


def test_b1_of_contraction_matches_graph_construction():
    for g in all_connected_multigraphs(4):
        ids = sorted(g.edge_ids())
        for mask in range(1 << len(ids)):
            a = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
            assert g.b1_of_contraction(a) == g.contract(a).b1()


def test_guard_on_subset_enumeration():
    g = cycle_graph(3)
    for _ in range(2):      # exactly 2^3 subsets admitted, warm or cold
        with pytest.raises(GuardError, match=r"2\^3 = 8 subsets"):
            list(connected_spanning_subgraphs(g, 7))
        assert list(connected_spanning_subgraphs(g, 8)) == list(connected_spanning_subgraphs(g))
    with pytest.raises(GuardError):
        list(strict_filtrations([1, 2, 3], guard=2))


def test_quiver_orientations():
    q = Quiver.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    assert q.arrows() == ((1, 1, 2), (2, 2, 3), (3, 3, 1))
    flipped = q.flip([2])
    assert flipped.arrows()[1] == (2, 3, 2)
    assert _labeled_key(flipped.graph) == _labeled_key(q.graph)
    assert len(list(q.all_orientations())) == 8
    loop = Quiver.from_edges(1, [(1, 1)])
    assert len(list(loop.all_orientations())) == 1
    with pytest.raises(ValueError):
        Quiver(q.graph, {1: (1, 3), 2: (2, 3), 3: (3, 1)})
