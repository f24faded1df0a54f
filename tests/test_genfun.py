import time

import pytest

from quivercount.families import (all_connected_multigraphs, banana_graph, cycle_graph,
                                  loops_graph, path_graph, point_graph)
from quivercount.genfun import (GraphChar, _series_numerator, a_genfun, check_duality,
                                check_recursion, convolve, cvector_of_filtration,
                                epsilon1_value, epsilon_value, eulerian_numbers, psi_char,
                                psi_inverse_char, q_eulerian, r_d_char,
                                r_d_via_convolution, r_genfun, r_of_cvector)
from quivercount.multigraph import GuardError, Multigraph, strict_filtrations
from quivercount.polynomials import QPoly, QTPoly
from quivercount.ratfun import RatQT
from quivercount.toric import r_d_polynomial
from quivercount.verify import check_recursion_battery
from oracles import a_genfun_by_subgraphs, recursion_rhs_by_minors, same_form


def t_pochhammer(m):
    """(T)_m = prod_{i=0}^{m-1} (1 - q^i T) as a QTPoly."""
    out = QTPoly.const(1)
    for i in range(m):
        out = out * (QTPoly.const(1) - QTPoly.monomial(i, 1))
    return out


def test_cvector_examples():
    c3 = cycle_graph(3)
    full = frozenset([1, 2, 3])
    assert cvector_of_filtration(c3, (frozenset([1]), full)) == (0, 1, 0)
    assert cvector_of_filtration(c3, (full,)) == (0, 1)
    tree = path_graph(3)
    for chain in [(frozenset([1]), frozenset([1, 2])), (frozenset([1, 2]),)]:
        assert set(cvector_of_filtration(tree, chain)) == {0}
    with pytest.raises(ValueError):
        cvector_of_filtration(c3, (frozenset([1]),))
    with pytest.raises(ValueError):
        cvector_of_filtration(c3, (full, full))
    with pytest.raises(ValueError):
        cvector_of_filtration(Multigraph(2, [(1, 1, 1)]), (frozenset([1]),))


def test_cvector_matches_the_definition():
    # c_i = b1 - b1(gamma contracted by everything outside F_{i-1})
    from quivercount.families import all_connected_multigraphs
    for g in all_connected_multigraphs(4):
        ids, b1 = frozenset(g.edge_ids()), g.b1()
        for chain in strict_filtrations(ids):
            outside = [ids - prev for prev in ((frozenset(),) + chain)[:len(chain)]]
            expected = (0,) + tuple(b1 - g.b1_of_contraction(a) for a in outside)
            assert cvector_of_filtration(g, chain) == expected


def test_one_chain_of_a_large_bouquet_reads_no_subset_table():
    # 2^40 subsets: the c-vector of one chain must touch only its own sets
    bouquet = loops_graph(40)
    ids = frozenset(bouquet.edge_ids())
    start = time.perf_counter()
    assert cvector_of_filtration(bouquet, (ids,)) == (0, 40)
    assert cvector_of_filtration(bouquet, (frozenset([1]), ids)) == (0, 40, 39)
    assert time.perf_counter() - start < 1


def test_r_of_cvector_examples():
    assert r_of_cvector((0,)) == RatQT(QTPoly.const(1), {0: 1})
    assert r_of_cvector((0, 3)) == RatQT(QTPoly.monomial(0, 1), {0: 1, 3: 1})
    assert r_of_cvector((0, 1, 0)) == RatQT(QTPoly.monomial(0, 2), {0: 2, 1: 1})
    assert r_of_cvector((0, 1, 2)) == RatQT(QTPoly.monomial(2, 2), {0: 1, 1: 1, 2: 1})
    with pytest.raises(ValueError):
        r_of_cvector((1, 0))


def test_r_genfun_small_graphs():
    assert r_genfun(point_graph()) == RatQT(QTPoly.const(1), {0: 1})
    assert r_genfun(banana_graph(2)) == RatQT(
        QTPoly({(0, 2): 1, (0, 1): 1}), {0: 2, 1: 1})
    assert r_genfun(cycle_graph(3)) == RatQT(
        QTPoly({(0, 3): 1, (0, 2): 4, (0, 1): 1}), {0: 3, 1: 1})


def test_a_genfun_small_graphs():
    assert a_genfun(cycle_graph(3)) == RatQT(
        QTPoly({(1, 2): 2, (0, 2): 1, (1, 1): 1, (0, 1): 2}), {0: 2, 1: 1})
    assert a_genfun(loops_graph(2)) == RatQT(QTPoly.const(1), {2: 1})
    assert a_genfun(banana_graph(2)) == RatQT(
        QTPoly({(1, 1): 1, (0, 1): 1}), {0: 1, 1: 1})


def test_series_coefficients_match_depth_polynomials():
    from quivercount.families import all_connected_multigraphs
    from quivercount.toric import a_d_polynomial
    for g in all_connected_multigraphs(4):
        r = r_genfun(g)
        a = a_genfun(g)
        for d in range(0, 6):
            assert r.series_coefficient(d) == r_d_polynomial(g, d)
            assert a.series_coefficient(d) == a_d_polynomial(g, d)


def test_convolution_examples():
    c3 = cycle_graph(3)
    assert convolve(psi_char(1), psi_char(0))(c3) == QPoly({1: 1, 0: 7})
    assert convolve(psi_inverse_char(1), psi_char(1))(c3) == QPoly()
    assert convolve(psi_inverse_char(1), psi_char(1))(point_graph()) == QPoly.const(1)
    # epsilon is the unit of convolution
    eps = GraphChar("eps", epsilon_value)
    for char in [psi_char(1), r_d_char(2), GraphChar("eps1", epsilon1_value)]:
        for g in [c3, banana_graph(2), loops_graph(2)]:
            assert convolve(eps, char)(g) == char(g)
            assert convolve(char, eps)(g) == char(g)


def test_convolution_associativity():
    f, g, h = psi_char(2), psi_char(1), psi_inverse_char(1)
    left = convolve(convolve(f, g), h)
    right = convolve(f, convolve(g, h))
    for graph in [cycle_graph(3), banana_graph(2), loops_graph(2), path_graph(3)]:
        assert left(graph) == right(graph)


def test_iterated_loop_join_count():
    # the k-fold convolution of the all-loops indicator distributes the m
    # loops over k ordered layers: value k^m on a bouquet, 0 elsewhere
    eps1 = GraphChar("eps1", epsilon1_value)
    char = eps1
    for _ in range(3):
        char = convolve(char, eps1)
    for m in range(0, 4):
        assert char(loops_graph(m)) == QPoly.const(4 ** m)
    assert char(path_graph(2)) == QPoly()


def test_r_d_via_convolution_examples():
    assert r_d_via_convolution(cycle_graph(3), 2) == QPoly({1: 1, 0: 7})
    for d in range(1, 5):
        assert r_d_via_convolution(point_graph(), d) == QPoly.const(1)
    expected = r_genfun(banana_graph(2)).series_coefficient(3)
    assert r_d_via_convolution(banana_graph(2), 3) == expected


def test_transforms_lattices_and_recursion_share_one_b1_table():
    g = Multigraph(3, [(3, 1, 2), (1, 2, 3), (2, 3, 1), (4, 1, 1)])
    table = g.subset_b1([1, 2, 3, 4])
    r_d_polynomial(g, 3)
    a_genfun(g)
    convolve(psi_inverse_char(1), psi_char(1))(g)
    assert check_recursion(g)
    assert g.subset_b1((1, 2, 3, 4)) is table


def test_psi_convolutions_build_no_minor(monkeypatch):
    # psi and psi^-1 read #E and b1 of every interval from one subset_b1
    # table, so neither convolution nor r_d_via_convolution builds a graph
    built = []
    for name in ("contract", "spanning_subgraph"):
        original = getattr(Multigraph, name)
        monkeypatch.setattr(Multigraph, name,
                            lambda self, a, name=name, original=original:
                            built.append(name) or original(self, a))
    g = Multigraph(3, [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 1, 1)])
    assert r_d_via_convolution(g, 4) == r_d_polynomial(g, 4)
    assert convolve(psi_inverse_char(1), psi_char(1))(g) == QPoly()
    assert built == []
    assert convolve(r_d_char(2), psi_char(1))(g) and built    # a built-minor factor


def test_lattice_sums_build_no_polynomial_per_term(monkeypatch):
    # the transform keeps one packed int per edge subset, and a convolution
    # interval sums its terms into one coefficient map, reading psi values
    # built once per (b1, parity)
    built = []
    init = QPoly.__init__
    monkeypatch.setattr(QPoly, "__init__",
                        lambda self, coeffs=None: built.append(1) or init(self, coeffs))
    r_d_polynomial(cycle_graph(8), 5)
    assert len(built) == 1          # R_5 itself, not one per subset of 2^8
    built.clear()
    g = Multigraph(3, [(1, 1, 2), (2, 2, 3), (3, 3, 1), (4, 1, 1)])
    assert convolve(psi_char(1), psi_char(0))(g) == QPoly({2: 1, 1: 8, 0: 7})    # R_2(g)
    assert len(built) < 2 ** 4      # fewer than the terms of the top interval


def test_psi_char_refuses_a_non_integer_exponent():
    # psi(q^0.5) would print as psi(q^0) and evaluate to q^0 silently
    with pytest.raises(ValueError, match="psi exponent 0.5 is not an integer"):
        psi_char(0.5)


def test_psi_inverse_char_refuses_a_non_integer_exponent():
    with pytest.raises(ValueError, match="psi exponent '1' is not an integer"):
        psi_inverse_char("1")


def test_convolve_refuses_an_operand_that_is_not_a_character():
    # refused when the convolution is built, not when it is first evaluated
    for f, g in ((psi_char(1), 3), (epsilon_value, psi_char(1))):
        with pytest.raises(TypeError, match="GraphChar operands"):
            convolve(f, g)


def test_recursion_examples():
    assert check_recursion(point_graph())
    assert check_recursion(banana_graph(2))
    assert check_recursion(cycle_graph(3))
    assert check_recursion(loops_graph(2))


def test_recursion_rhs_by_minors_equals_r_genfun():
    # the one-term-per-A sum, independent of the memo and grouping of check_recursion
    graphs = all_connected_multigraphs(4)
    assert len(graphs) == 48
    for g in graphs:
        assert recursion_rhs_by_minors(g) == r_genfun(g), g


def test_recursion_battery_sums_each_minor_once(monkeypatch):
    from quivercount import genfun
    keys, original = [], genfun.r_genfun
    monkeypatch.setattr(genfun, "r_genfun",
                        lambda g, guard: keys.append(g.canonical_key()) or original(g, guard))
    assert check_recursion_battery()[0][1]
    assert len(keys) == len(set(keys)) == 59
    # the battery's memo is gone, and a public call starts cold: Gamma itself
    # charges its Fubini(3) filtrations right after its 2^3 terms
    assert check_recursion(cycle_graph(3))
    with pytest.raises(GuardError, match="Fubini\\(3\\) = 13"):
        check_recursion(cycle_graph(3), guard=12)


def test_duality_examples():
    assert check_duality(cycle_graph(3), "A")
    assert check_duality(point_graph(), "R")
    assert check_duality(loops_graph(2), "A")
    a = a_genfun(cycle_graph(3))
    assert a.invert_vars() == -1 * a
    with pytest.raises(ValueError):
        check_duality(cycle_graph(3), "X")


def test_q_eulerian_values():
    assert q_eulerian(1) == QTPoly.const(1)
    assert q_eulerian(2) == QTPoly({(1, 1): 1, (0, 0): 1})
    assert q_eulerian(3) == QTPoly({(3, 2): 1, (2, 1): 2, (1, 1): 2, (0, 0): 1})
    # specializing q = 1 recovers the classical Eulerian numbers; m = 7, 8
    # sit on both sides of the packed width step at d = 2^3
    for m in (1, 2, 3, 4, 7, 8):
        at_one = q_eulerian(m).evaluate(QPoly.const(1), QPoly.q())
        assert at_one == QPoly({j: c for j, c in enumerate(eulerian_numbers(m))})


def test_eulerian_rows():
    assert eulerian_numbers(1) == [1]
    assert eulerian_numbers(3) == [1, 4, 1]
    assert eulerian_numbers(5) == [1, 26, 66, 26, 1]


def test_cycle_genfun_from_eulerian_numbers():
    # numerator of A(C_n)/T is sum_j A(n-1, j) [q (j+1) + n-1-j] T^j
    for n in range(2, 7):
        row = eulerian_numbers(n - 1)
        num = QTPoly()
        for j, a in enumerate(row):
            num = num + QTPoly({(1, j + 1): a * (j + 1), (0, j + 1): a * (n - 1 - j)})
        expected = RatQT(num, {0: n - 1, 1: 1})
        assert a_genfun(cycle_graph(n)) == expected


def test_r_loop_bouquet_coefficient_formula():
    # T-coefficients of R(S_m) are ((q^d - 1)/(q - 1))^m
    for m in range(1, 4):
        f = r_genfun(loops_graph(m))
        for d in range(1, 5):
            expected = QPoly({k: 1 for k in range(d)}) ** m
            assert f.series_coefficient(d) == expected


def test_convolution_guard():
    big = loops_graph(6)
    with pytest.raises(GuardError):
        convolve(psi_char(1), psi_char(0), guard=3)(big)
    with pytest.raises(GuardError):
        r_genfun(big, guard=3)


def test_r_genfun_guard_predicts_the_strict_filtrations():
    # C12: Fubini(12) chains, above the default 2^24, refused before the first
    start = time.perf_counter()
    with pytest.raises(GuardError, match="28091567595"):
        r_genfun(cycle_graph(12))
    assert time.perf_counter() - start < 1
    # check_recursion's guard still counts the edges behind its 2^m terms
    with pytest.raises(GuardError, match="2\\^3"):
        check_recursion(cycle_graph(3), guard=2)


def test_a_genfun_equals_the_subgraph_sum_oracle():
    graphs = all_connected_multigraphs(5)
    assert len(graphs) == 143
    for g in graphs:
        assert same_form(a_genfun(g), a_genfun_by_subgraphs(g)), g


def test_a_genfun_selects_the_connected_spanning_masks_once(monkeypatch):
    # the selection depends only on the b1 table, so the 2^m masks are
    # scanned once per a_genfun, not once per transform step (7 for C_4)
    from quivercount import genfun
    calls = []
    select = genfun._spanning_by_b1
    monkeypatch.setattr(genfun, "_spanning_by_b1", lambda *args: calls.append(1) or select(*args))
    g = cycle_graph(4)
    assert same_form(a_genfun(g), a_genfun_by_subgraphs(g))
    assert len(calls) == 1


def test_filtration_sum_equals_the_series_with_its_known_denominator():
    # the engine r_genfun is to move to: R_0..R_{deg D - 1} over the
    # denominator prod_{b=0}^{b1} (1 - q^b T)^n
    for g in all_connected_multigraphs(5):
        deg = g.n * (g.b1() + 1)
        den = dict.fromkeys(range(g.b1() + 1), g.n)
        num = _series_numerator([r_d_polynomial(g, d) for d in range(deg)], den)
        assert same_form(RatQT(num, den), r_genfun(g)), g


def test_q_eulerian_equals_the_bouquet_filtration_sum():
    for m in range(1, 7):
        f = r_genfun(loops_graph(m)) * t_pochhammer(m + 1)
        assert not f.den
        assert q_eulerian(m) == f.num.shift(0, -1)


def test_series_numerator_needs_one_coefficient_per_factor():
    with pytest.raises(ValueError):
        _series_numerator([QPoly.const(1)], {0: 2})
    # 1 + T + T^2 + ... over (1 - T): numerator 1
    assert _series_numerator([QPoly.const(1)], {0: 1}) == QTPoly.const(1)


def test_a_genfun_guard_predicts_the_transform_steps():
    # C16: deg D = 32, so 30 * 16 * 2^16 steps, above the default 2^24
    start = time.perf_counter()
    with pytest.raises(GuardError, match=str(30 * 16 << 16)):
        a_genfun(cycle_graph(16))
    assert time.perf_counter() - start < 1
    # check_duality passes its guard on: C3's A(T) takes deg D = 6, so
    # 4 * 3 * 2^3 = 96 transform steps, and its R(T) Fubini(3) = 13 filtrations
    with pytest.raises(GuardError, match="96"):
        check_duality(cycle_graph(3), "A", guard=95)
    assert check_duality(cycle_graph(3), "A", guard=96)
    with pytest.raises(GuardError):
        check_duality(cycle_graph(3), "R", guard=2)

