"""Property tests on random connected multigraphs with loops and parallel
edges: the subset transforms against the depth-function sum, the
filtration sum R(T) against the transforms coefficient by coefficient, its
mask-walk chains and memoized c-vectors against the recursive generator and
one union-find per chain, and A(T) from the transform against the sum over
connected spanning subgraphs, and the lattice convolution of characters
against the sum over built minors; and on random small quivers, the
conjugacy-class sums of m_count and a_count against the loop over every
group element, their contraction along the
quiver against the loop over class tuples, stabilizer_order's units of
End(x) against the filter over G, and the rank sums of m_preproj,
a_preproj and fourier_fiber_count against the zero-fiber filter; and on random Laurent
polynomials, RatQT.sum against the pairwise addition, RatQT equality
against cross-multiplication, the one-pass division by (1 - q^c T)
against the slice-by-slice division, the series by synthetic division
against the binomial expansion, the series numerator against the row pass
and den_poly against the power expansion; and on random elements of GL_1 and
GL_2 over seven rings, the block-built arrow systems against the systems
built one product at a time; on the classes of GL_n and M_n, n <= 2, over
ten rings, the arrow tables that skip the pairs with disjoint labels
against a full solve per pair, and on the classes of GL_n and M_n, n <= 3,
over eight rings, each label against the irreducible factors of the
residue characteristic polynomial by brute force; and on arbitrary
matrices over every chain ring of the tests, the elimination over the ring
against the F_p rank.
Derandomized, so a run is reproducible; a failure shrinks to a small graph.
"""

from functools import cache, reduce
from itertools import product
from math import prod
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from quivercount import gl, repenum  # noqa: E402
from quivercount.families import _canonical_form  # noqa: E402
from quivercount.finite_algebra import (make_dual_numbers, make_field,  # noqa: E402
                                        make_prime_field, make_square_zero, make_truncated,
                                        ring_from_spec)
from quivercount.genfun import (GraphChar, _series_numerator, a_genfun,  # noqa: E402
                                convolve, cvector_of_filtration, epsilon1_value,
                                epsilon_value, psi_char, psi_inverse_char, r_d_char, r_genfun)
from quivercount.gl import gl_classes  # noqa: E402
from quivercount.multigraph import GUARD, Quiver, _fubini, strict_filtrations  # noqa: E402
from quivercount.polynomials import QPoly, QTPoly, divide_exact_by_t_factor  # noqa: E402
from quivercount.ratfun import RatQT  # noqa: E402
from quivercount.repenum import (_burnside, a_count, a_preproj,  # noqa: E402
                                 fix_nullity, fourier_fiber_count, m_count, m_preproj,
                                 stabilizer_order)
from quivercount.ring_tables import index_tables  # noqa: E402
from quivercount.toric import r_d_polynomial  # noqa: E402
from oracles import (a_genfun_by_subgraphs, add_pairwise, additive_group_sum,  # noqa: E402
                     burnside_by_elements,
                     canonical_form_by_relabeling, class_tuple_buckets, convolve_by_minors,
                     cvector_by_unions, den_by_powers,
                     depth_function_sum, divide_by_t_factor_slices, equal_by_cross_multiplication,
                     coordinate_matrix, coprime_by_divisors, fix_nullity_by_rank, fix_system,
                     fix_system_by_products, gl_elements, residue_charpoly,
                     preproj_by_filter, same_form, stabilizer_by_filter,
                     series_coefficient_by_binomials, series_numerator_by_rows,
                     strict_filtrations_by_recursion, whole_zero_fiber)
from strategies import (connected_multigraphs, laurent_qt, quivers_with_ranks,  # noqa: E402
                        ratqts, repeated_denominators, series_ratqts, small_quivers,
                        sum_terms, t_factor_exponents)

F2, F3 = make_prime_field(2), make_prime_field(3)
RINGS = (F2, F3, make_truncated(F2, 2))
GRADED_RINGS = (F3, make_field(4), make_prime_field(5), make_truncated(F2, 2),
                make_truncated(F3, 2))
# fields, chain rings, the dual numbers F_3[eps] and the non-Frobenius sqz(F_2, 2)
SYSTEM_RINGS = (F2, make_field(4), make_prime_field(5), make_truncated(F3, 2),
                make_truncated(F2, 3), make_dual_numbers(F3), make_square_zero(F2, 2))
# every chain ring of the tests: the fields F_2..F_7 and k_d over a field
CHAIN_RINGS = (F2, F3, make_field(4), make_prime_field(5), make_prime_field(7),
               make_truncated(F2, 2), make_truncated(F3, 2), make_truncated(F2, 3),
               make_truncated(make_field(4), 2), make_truncated(make_prime_field(5), 2))

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@PROPERTY
@given(connected_multigraphs(6), st.integers(0, 4))
def test_r_d_transform_equals_the_depth_function_sum(graph, d):
    assert r_d_polynomial(graph, d) == depth_function_sum(graph, d)


@PROPERTY
@given(connected_multigraphs(5))
def test_filtration_sum_coefficients_equal_r_d(graph):
    f = r_genfun(graph)
    for d in range(4):
        assert f.series_coefficient(d) == r_d_polynomial(graph, d)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(connected_multigraphs(6))
def test_mask_walk_and_memo_equal_the_recursion_and_union_find(graph):
    chains = list(strict_filtrations(graph.edge_ids()))
    expected = list(strict_filtrations_by_recursion(graph.edge_ids()))
    assert len(chains) == len(set(chains)) == len(expected) == _fubini(graph.edge_count())
    assert set(chains) == set(expected)
    for chain in chains:
        assert cvector_of_filtration(graph, chain) == cvector_by_unions(graph, chain)


# psi and psi^-1 read the lattice's b1 table; R_d, eps and eps1 are called on built minors
CHARACTERS = ([psi_char(k) for k in (-1, 0, 2)] + [psi_inverse_char(k) for k in (0, 1)]
              + [r_d_char(d) for d in (0, 2, 3)]
              + [GraphChar("eps", epsilon_value), GraphChar("eps1", epsilon1_value)])


@PROPERTY
@given(connected_multigraphs(5), *[st.sampled_from(CHARACTERS)] * 3)
def test_lattice_convolution_equals_the_sum_over_built_minors(graph, f, g, h):
    pairs = [(convolve(f, g), convolve_by_minors(f, g)),
             (convolve(convolve(f, g), h), convolve_by_minors(convolve_by_minors(f, g), h)),
             (convolve(f, convolve(g, h)), convolve_by_minors(f, convolve_by_minors(g, h)))]
    for lattice, oracle in pairs:
        assert lattice(graph) == oracle(graph)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(1, n), st.integers(1, n)), max_size=8))))
def test_refined_canonical_form_equals_the_relabeling_scan(graph):
    # any multigraph, connected or not, loops and parallel edges included
    n, pairs = graph
    assert _canonical_form(n, pairs) == canonical_form_by_relabeling(n, pairs)


@PROPERTY
@given(connected_multigraphs(6))
def test_a_genfun_equals_the_subgraph_sum_oracle(graph):
    assert same_form(a_genfun(graph), a_genfun_by_subgraphs(graph))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(small_quivers(), st.sampled_from(RINGS), st.data())
def test_class_sums_equal_the_element_loop(quiver, ring, data):
    alpha = data.draw(st.tuples(*[st.integers(0, 2)] * quiver.n))
    assume(any(alpha) and prod(len(gl_elements(ring, a)) for a in alpha) <= 500)
    assert m_count(quiver, ring, alpha) == burnside_by_elements(quiver, ring, alpha)
    if (ring.residue_field.size() - 1) % sum(alpha) == 0:
        assert a_count(quiver, ring, alpha) == \
            burnside_by_elements(quiver, ring, alpha, character=True)


# fields, a chain ring, the non-Frobenius sqz(F_2, 2) and the non-chain eps(k_2(F_2))
STABILIZER_RINGS = (F2, F3, make_truncated(F2, 2), make_square_zero(F2, 2),
                    make_dual_numbers(make_truncated(F2, 2)))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(small_quivers(), st.sampled_from(STABILIZER_RINGS), st.tuples(*[st.integers(0, 2)] * 3),
       st.lists(st.one_of(st.sampled_from((0, 1)), st.integers(0, 15)), min_size=12,
                max_size=12))
# a zero rank between a loop and parallel arrows, and the non-chain ring
# at a loop beside an arrow
@example(Quiver.from_edges(3, [(1, 1), (1, 3), (1, 3)]), F3, (2, 0, 1), [1, 0, 0, 1, 2, 0] * 2)
@example(Quiver.from_edges(2, [(1, 2), (2, 2)]), STABILIZER_RINGS[4], (1, 1, 0), [4, 1] * 6)
def test_stabilizer_orders_equal_the_group_filter(quiver, ring, ranks, entries):
    # the units of End(x) against the loop over every element of G; the
    # entries are element indices, 0 and 1 (zero and one) half the time so
    # that larger stabilizers show, up to 4 per arrow
    alpha = ranks[:quiver.n]
    q, m = ring.residue_field.size(), ring.size() // ring.residue_field.size()
    order = prod(m ** (a * a) * prod(q ** a - q ** i for i in range(a)) for a in alpha)
    assume(any(alpha) and order <= 2000)
    x = {e: coordinate_matrix(ring, [i % ring.size() for i in entries[4 * k:4 * k + a * b]], b)
         for k, (e, s, t) in enumerate(quiver.arrows())
         for a, b in [(alpha[t - 1], alpha[s - 1])]}
    assert stabilizer_order(x, quiver, ring, alpha) == \
        stabilizer_by_filter(x, quiver, ring, alpha)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(small_quivers(), st.sampled_from(RINGS), st.data())
def test_preprojective_rank_sums_equal_the_zero_fiber_filter(quiver, ring, data):
    alpha = data.draw(st.tuples(*[st.integers(0, 2)] * quiver.n))
    # the filter lists at most the whole doubled space, |R|^(2 sum_a alpha_t alpha_s);
    # the bound on the additive group, prod_v |R|^(alpha_v^2), which the Fourier
    # average once listed and now sums over classes, keeps the draws as they were
    doubled = ring.size() ** (2 * sum(alpha[t - 1] * alpha[s - 1] for _, s, t in quiver.arrows()))
    additive = prod(ring.size() ** (a * a) for a in alpha)
    assume(any(alpha) and doubled <= 5000 and additive <= 1 << 16)
    assert m_preproj(quiver, ring, alpha) == preproj_by_filter(quiver, ring, alpha)
    assert fourier_fiber_count(quiver, ring, alpha) == \
        sum(1 for _ in whole_zero_fiber(quiver, ring, alpha))
    if (ring.residue_field.size() - 1) % sum(alpha) == 0:
        assert a_preproj(quiver, ring, alpha) == \
            preproj_by_filter(quiver, ring, alpha, character=True)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(quivers_with_ranks(), st.sampled_from(SYSTEM_RINGS))
# rank-2 vertices over local rings, which the random draws seldom give: the
# lifted classes of M_2 over k_2(F_2), eps(F_2), k_3(F_2) (m^2 != 0) and the
# non-Frobenius sqz(F_2, 2), beside a loop and a zero rank
@example((Quiver.from_edges(2, [(1, 2)]), (2, 1)), make_truncated(F2, 2))
@example((Quiver.from_edges(2, [(1, 2), (1, 2)]), (1, 2)), make_dual_numbers(F2))
@example((Quiver.from_edges(1, [(1, 1)]), (2,)), make_truncated(F2, 3))
@example((Quiver.from_edges(1, [(1, 1)]), (2,)), make_square_zero(F2, 2))
@example((Quiver.from_edges(2, [(1, 1), (1, 2)]), (2, 1)), F2)
@example((Quiver.from_edges(3, [(1, 2), (2, 3)]), (1, 0, 2)), F3)
def test_fourier_class_sum_equals_the_additive_group_loop(quiver_and_ranks, ring):
    # the averaged side of the Fourier identity sums over the classes of the
    # M_alpha_v what the loop sums over their elements, over any ring
    quiver, alpha = quiver_and_ranks
    assume(any(alpha) and prod(ring.size() ** (a * a) for a in alpha) <= 1 << 12)
    (total,), order = _burnside(quiver, ring, alpha, whole=True)
    assert (total, order) == additive_group_sum(quiver, ring, alpha)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(quivers_with_ranks(), st.sampled_from(GRADED_RINGS))
# cycles with every rank nonzero, which the random draws seldom give
@example((Quiver.from_edges(3, [(1, 2), (2, 3), (3, 1)]), (1, 2, 1)), GRADED_RINGS[2])
@example((Quiver.from_edges(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 2)]), (1, 1, 1, 1)),
         GRADED_RINGS[4])
def test_contraction_equals_the_class_tuple_loop(quiver_alpha, ring):
    quiver, alpha = quiver_alpha
    assume(any(alpha))
    tuples = 1
    for a in alpha:
        tuples *= len(gl_classes(ring, a))
    assume(tuples <= 3000)
    # graded by the determinant exponent mod |alpha| (a character when
    # |alpha| divides q - 1, a class function either way) and ungraded
    for char_order in (sum(alpha), None):
        assert _burnside(quiver, ring, alpha, char_order=char_order) == \
            class_tuple_buckets(quiver, ring, alpha, char_order=char_order)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.sampled_from(SYSTEM_RINGS), st.integers(1, 2), st.integers(1, 2), st.booleans(),
       st.integers(0, 1 << 16), st.integers(0, 1 << 16))
@example(SYSTEM_RINGS[6], 2, 1, False, 5, 1)
@example(SYSTEM_RINGS[4], 2, 2, True, 100, 0)
def test_block_built_system_equals_the_per_coefficient_one(ring, rows, cols, loop, t, s):
    # a loop arrow solves gt X = X gt on square matrices
    if loop:
        cols = rows
    targets, sources = gl_elements(ring, rows), gl_elements(ring, cols)
    gt = targets[t % len(targets)]
    gs = gt if loop else sources[s % len(sources)]
    # the oracle computes on coordinate matrices
    assert fix_system(ring, gt, gs, rows, cols) == fix_system_by_products(
        ring, coordinate_matrix(ring, gt, rows), coordinate_matrix(ring, gs, cols), rows, cols)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.sampled_from(["fq(2)", "fq(3)", "fq(2,2)", "fq(5)", "kd(fq(2),2)", "kd(fq(3),2)",
                        "kd(fq(2),3)", "eps(fq(3))", "eps(kd(fq(2),2))", "sqz(fq(2),2)"]),
       st.integers(1, 2), st.integers(1, 2), st.booleans())
@example("kd(fq(2),2)", 2, 2, True)
@example("sqz(fq(2),2)", 2, 1, False)
def test_arrow_tables_solve_exactly_the_pairs_of_positive_nullity(spec, rows, cols, whole):
    # a pair of classes with disjoint labels has coprime residue
    # characteristic polynomials, so nullity 0, and is not solved
    # (Nakayama); each pair still solved has a positive nullity.  A fresh
    # ring, so that its table is built here.
    ring = ring_from_spec(spec)
    targets, sources = ([g for g, _ in gl_classes(ring, n, whole=whole)] for n in (rows, cols))
    assume(len(targets) * len(sources) <= 4000)
    solved = []

    def solve(*args):
        solved.append(fix_nullity(*args))
        return solved[-1]

    with mock.patch.object(repenum, "fix_nullity", solve):
        table = repenum._arrow_table(ring, rows, cols, GUARD, whole)
    assert table == [ring.p ** fix_nullity(ring, gt, gs, rows, cols)
                     for gt in targets for gs in sources]
    assert 0 not in solved


# the rings of the label property, with their residue field's monic
# irreducibles up to degree 3 by brute force: f is irreducible when it is
# coprime to every monic polynomial of degree at most deg f / 2
LABEL_RINGS = (F2, F3, make_field(4), make_prime_field(5), make_truncated(F2, 2),
               make_truncated(F3, 2), make_dual_numbers(F3), make_square_zero(F2, 2))


@cache
def _irreducibles(field):
    monic = [h + (field.one,) for d in (1, 2, 3) for h in product(list(field.elements()), repeat=d)]
    return [f for f in monic if all(coprime_by_divisors(field, f, h) for h in monic
                                    if 2 * len(h) <= len(f) + 1)]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.sampled_from(LABEL_RINGS), st.integers(1, 3), st.booleans(), st.integers(0, 1 << 16))
@example(make_prime_field(5), 2, False, 7)
def test_a_class_label_is_the_set_of_irreducible_factors_of_its_charpoly(ring, n, whole, pick):
    # the label that decides the Nakayama skip is exactly the set of monic
    # irreducibles sharing a factor with the residue characteristic
    # polynomial det(x - g) mod m, read from the determinant oracle
    assume(n < 3 or ring.is_field and ring.size() < 5)
    classes, labels = gl._classes(ring, n, GUARD, whole)
    k = ring.residue_field
    g, label = classes[pick % len(classes)][0], labels[pick % len(classes)]
    elements = index_tables(k).ring
    charpoly = tuple(elements[c] for c in residue_charpoly(ring, g, n))
    assert {tuple(elements[c] for c in f) for f in label} == \
        {f for f in _irreducibles(k) if len(f) <= n + 1 and not coprime_by_divisors(k, f, charpoly)}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from(CHAIN_RINGS), st.integers(1, 3), st.integers(1, 3), st.booleans(),
       st.data())
def test_chain_ring_elimination_equals_the_f_p_rank(ring, rows, cols, loop, data):
    # arbitrary matrices, singular ones included, with non-units drawn as
    # often as units so that pivots of every valuation and zero columns
    # occur; a loop arrow solves gt X = X gt on square matrices
    elements = list(ring.elements())
    entries = st.sampled_from(elements) | st.sampled_from([x for x in elements
                                                           if not ring.is_unit(x)])

    def matrix(n):
        flat = data.draw(st.lists(entries, min_size=n * n, max_size=n * n))
        return tuple(ring.element_index(x) for x in flat)     # row-major, as the engine reads

    if loop:
        cols = rows
    gt = matrix(rows)
    gs = gt if loop else matrix(cols)
    assert fix_nullity(ring, gt, gs, rows, cols) == \
        fix_nullity_by_rank(ring, gt, gs, rows, cols)


@PROPERTY
@given(st.lists(sum_terms(), max_size=6))
def test_sum_equals_the_pairwise_fold(terms):
    total = RatQT.sum(terms)
    expected = reduce(add_pairwise, terms, RatQT(0))
    assert total.num.coeffs == expected.num.coeffs
    assert total.den == expected.den


@PROPERTY
@given(ratqts(), ratqts(), st.lists(t_factor_exponents, max_size=3),
       st.one_of(st.just(QTPoly()), laurent_qt))
def test_equality_equals_cross_multiplication(f, g, extra, perturbation):
    # f with extra factors on both sides, unreduced: equal to f exactly
    # when the perturbation of its numerator is zero
    num, den = f.num, dict(f.den)
    for c in extra:
        num = num * (QTPoly.const(1) - QTPoly.monomial(c, 1))
        den[c] = den.get(c, 0) + 1
    h = RatQT(num + perturbation, den, reduce=False)
    assert (f == h) == (h == f) == (not perturbation)
    for a, b in ((f, h), (f, g), (g, h)):
        assert (a == b) == (b == a) == equal_by_cross_multiplication(a, b)


@PROPERTY
@given(laurent_qt, t_factor_exponents)
def test_division_of_a_multiple_equals_the_slice_division(p, c):
    multiple = p * (QTPoly.const(1) - QTPoly.monomial(c, 1))
    quotient = divide_exact_by_t_factor(multiple, c)
    assert quotient == divide_by_t_factor_slices(multiple, c) == p


@PROPERTY
@given(laurent_qt, t_factor_exponents)
def test_division_fails_where_the_slice_division_fails(p, c):
    try:
        expected = divide_by_t_factor_slices(p, c)
    except ValueError:
        with pytest.raises(ValueError):
            divide_exact_by_t_factor(p, c)
    else:
        assert divide_exact_by_t_factor(p, c) == expected


@PROPERTY
@given(series_ratqts(), st.integers(0, 8))
def test_series_equals_the_binomial_expansion(f, order):
    try:
        expected = [series_coefficient_by_binomials(f, d) for d in range(order + 1)]
    except ValueError:
        with pytest.raises(ValueError, match="pole"):
            f.series(order)
        return
    assert f.series(order) == expected
    assert f.series_coefficient(order) == expected[order]


@PROPERTY
@given(repeated_denominators, st.data())
def test_series_numerator_equals_the_row_pass(den, data):
    coeffs = data.draw(st.lists(st.dictionaries(st.integers(-2, 4), st.integers(-3, 3),
                                                max_size=3).map(QPoly),
                                min_size=sum(den.values()), max_size=sum(den.values())))
    assert _series_numerator(coeffs, den) == series_numerator_by_rows(coeffs, den)


# q-only polynomials: the T^0 slice of a Laurent polynomial in (q, T)
qpolys = laurent_qt.map(lambda p: p.t_coefficients().get(0, QPoly()))


@PROPERTY
@given(qpolys, qpolys, st.integers(0, 3))
def test_qpoly_and_qtpoly_share_one_arithmetic(a, b, n):
    lift = QTPoly.from_qpoly
    assert lift(a + b) == lift(a) + lift(b) and lift(a - b) == lift(a) - lift(b)
    assert lift(a * b) == lift(a) * lift(b) and lift(a ** n) == lift(a) ** n
    assert str(a) == str(lift(a)) and lift(a).as_dict() == \
        {"%s,0" % e: c for e, c in a.as_dict().items()}
    if a.coeffs.keys() <= {0}:
        k = a.coeffs.get(0, 0)
        assert a == k == lift(a) and hash(a) == hash(k) == hash(lift(a))


@PROPERTY
@given(repeated_denominators)
def test_den_poly_equals_the_power_expansion(den):
    f = RatQT(QTPoly.monomial(0, 0), den)
    assert f.den_poly() == den_by_powers(f)
