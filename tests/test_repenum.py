from collections import Counter
from functools import partial, reduce
from itertools import islice, product
from math import prod
import random
import re
import time

import pytest

from quivercount.families import (banana_quiver, cycle_quiver, jordan_quiver,
                                  path_quiver)
from quivercount.finite_algebra import (FiniteAlgebra, make_dual_numbers, make_field,
                                        make_prime_field, make_square_zero,
                                        make_truncated, truncated_generator)
from quivercount.gl import gl_classes
from quivercount.multigraph import GUARD, GuardError, Multigraph, Quiver
from quivercount.repenum import (_burnside, _group_average, _moment_blocks, a_count, a_preproj,
                                 counterexample_counts, double_quiver, fix_nullity,
                                 fourier_fiber_count, m_count, m_preproj, stabilizer_order,
                                 toric_ai_orbit_count, toric_point)
from quivercount.ring_tables import index_tables
from oracles import (all_matrices, burnside_by_elements, class_tuple_buckets,
                     conjugacy_classes_by_partition, coordinate_matrix, coprime,
                     coprime_by_divisors, enumerate_group, gl_elements, residue_charpoly,
                     fix_count, flat_indices,
                     mat_det, mat_identity, mat_inverse, mat_mul, moment_map, preproj_by_filter,
                     preproj_orbit_partition, primitive_roots, scaling_orbits_by_units,
                     whole_zero_fiber)

F2 = make_prime_field(2)
F3 = make_prime_field(3)
K2F2 = make_truncated(F2, 2)


def test_group_orders():
    assert len(list(enumerate_group(path_quiver(2), K2F2, (1, 1)))) == 4
    assert len(list(enumerate_group(jordan_quiver(1), F3, (1,)))) == 2
    assert len(list(enumerate_group(path_quiver(3), K2F2, (1, 1, 1)))) == 8
    assert len(gl_elements(F2, 2)) == 6
    assert len(gl_elements(K2F2, 2)) == 96
    assert len(gl_elements(F3, 2)) == 48
    assert len(gl_elements(F2, 0)) == 1


def test_gl_order_of_truncated_rings():
    # GL_n(k_d(F_q)) is GL_n(F_q) times the kernel 1 + t M_n(k_d), of size q^(n^2 (d - 1))
    for q, d, n in [(2, 2, 2), (3, 2, 2), (2, 3, 2), (2, 1, 3), (3, 1, 3)]:
        field_order = prod(q ** n - q ** i for i in range(n))
        ring = make_truncated(make_prime_field(q), d)
        assert len(gl_elements(ring, n)) == field_order * q ** (n * n * (d - 1))


def test_gl_elements_equal_the_determinant_filter():
    ring = make_truncated(F2, 2)
    assert gl_elements(ring, 2) == [flat_indices(ring, m) for m in all_matrices(ring, 2, 2)
                                    if ring.is_unit(mat_det(ring, m))]


def test_enumerate_group():
    elems = list(enumerate_group(path_quiver(2), K2F2, (1, 1)))
    assert len(elems) == 4 and len(set(elems)) == 4
    assert len(gl_elements(F2, 2)) == 6
    with pytest.raises(GuardError):
        list(enumerate_group(path_quiver(2), K2F2, (2, 2), guard=10))


def test_fix_count_examples():
    a2 = path_quiver(2)
    one = flat_indices(F2, ((F2.one,),))
    assert fix_count((one, one), a2, F2, (1, 1)) == 2
    k_one = flat_indices(K2F2, ((K2F2.one,),))
    k_u = flat_indices(K2F2, (((1, 1),),))
    # identity fixes everything
    assert fix_count((k_one, k_one), a2, K2F2, (1, 1)) == 4
    # (1, 1+t): fixed points form the annihilator of t
    assert fix_count((k_one, k_u), a2, K2F2, (1, 1)) == 2
    ident2 = flat_indices(K2F2, mat_identity(K2F2, 2))
    assert fix_count((ident2, ident2), a2, K2F2, (2, 2)) == 4 ** 4


def test_m_count_values():
    a2 = path_quiver(2)
    for q, d in [(2, 2), (3, 2), (2, 3)]:
        ring = make_truncated(make_prime_field(q), d)
        assert m_count(a2, ring, (1, 1)) == d + 1
    for q in (2, 3):
        ring = make_prime_field(q)
        assert m_count(jordan_quiver(1), ring, (1,)) == q
    lhs = m_count(path_quiver(3), K2F2, (1, 1, 1))
    rhs = m_count(path_quiver(3).flip([2]), K2F2, (1, 1, 1))
    assert lhs == rhs


def test_loop_arrow_solves_once_per_class(monkeypatch):
    from quivercount import repenum
    calls = []
    original = repenum.fix_nullity

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(repenum, "fix_nullity", counting)
    # conjugacy classes of 2x2 matrices over F_5: q^2 + q
    assert m_count(jordan_quiver(), make_prime_field(5), (2,)) == 30
    # one solve per conjugacy class of GL_2(F_5), q^2 - 1 of them
    assert len(calls) == 24


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def _count_solves(monkeypatch):
    from quivercount import repenum
    return _count_calls(monkeypatch, repenum, "fix_nullity")


def test_one_arrow_table_per_algebra_and_ranks(monkeypatch):
    calls = _count_solves(monkeypatch)
    ring = make_truncated(make_prime_field(7), 2)
    a3 = path_quiver(3)
    # 42 classes in GL_1(k_2(F_7)): one 42 x 42 table serves both arrows of
    # all four orientations (the class-tuple loop solved 4 * 2 * 42^2), and
    # only the pairs of one residue are solved, 6 residues of 7^2 pairs each:
    # the residue characteristic polynomials of the others are coprime
    assert {a_count(q, ring, (1, 1, 1)) for q in a3.all_orientations()} == {4}
    assert len(calls) == 6 * 7 ** 2 == 294
    # every ordered pair is its own solve, the transposed one included
    assert len({(gt, gs) for _, gt, gs, _, _ in calls}) == 294
    assert m_count(a3.flip([1]), ring, (1, 1, 1)) == m_count(a3, ring, (1, 1, 1))
    assert len(calls) == 294
    # another algebra object, even an equal one, keeps its own tables
    assert a_count(a3, make_truncated(make_prime_field(7), 2), (1, 1, 1)) == 4
    assert len(calls) == 2 * 294


def test_residue_charpoly_is_det_of_x0_minus_g_at_every_x0():
    # n < |k|, so two polynomials of degree at most n agree when their values
    # on k do; every matrix where there are at most 6561, else a seeded sample
    rng = random.Random(32)
    cases = [(F2, 1), (F3, 2), (make_field(4), 3), (make_prime_field(5), 3), (K2F2, 1),
             (make_truncated(F3, 2), 2), (make_dual_numbers(F3), 2),
             (make_truncated(make_field(4), 2), 2)]
    for ring, n in cases:
        k, size = ring.residue_field, ring.size()
        matrices = product(range(size), repeat=n * n) if size ** (n * n) <= 6561 else \
            [[rng.randrange(size) for _ in range(n * n)] for _ in range(300)]
        for flat in matrices:
            coefficients = [index_tables(k).ring[c] for c in residue_charpoly(ring, flat, n)]
            assert len(coefficients) == n + 1
            g = [[ring.residue(x) for x in row] for row in coordinate_matrix(ring, flat, n)]
            for x0 in k.elements():
                value = reduce(k.add, (k.mul(c, k.power(x0, i)) for i, c in enumerate(coefficients)))
                shifted = [[k.sub(x0 if i == j else k.zero(), x) for j, x in enumerate(row)]
                           for i, row in enumerate(g)]
                assert value == mat_det(k, shifted), (ring.name, flat, x0)


def test_coprime_equals_the_brute_gcd():
    # every pair of nonzero polynomials up to the given degree, leading
    # coefficients other than 1 included; a local ring decides over its
    # residue field
    for ring, top in [(F2, 3), (F3, 2), (make_field(4), 2), (make_truncated(F3, 2), 2)]:
        k = ring.residue_field
        polys = [f for d in range(top + 1) for f in product(list(k.elements()), repeat=d + 1)
                 if any(f[-1])]
        for f, g in product(polys, repeat=2):
            indices = [[k.element_index(c) for c in h] for h in (f, g)]
            assert coprime(ring, *indices) == coprime_by_divisors(k, f, g), (ring.name, f, g)


def test_the_orientation_check_can_fail_over_a_non_frobenius_ring():
    # the negative control of the orientation check: over the non-Frobenius
    # sqz(F_2, 2) the Kronecker counts at (2, 1) depend on the orientation,
    # and the element loop, which solves every arrow, agrees; over the
    # non-chain Frobenius eps(k_2(F_2)) they do not depend on it.  So arrow
    # tables that skip the coprime pairs are not symmetric by construction.
    sqz, dual = make_square_zero(F2, 2), make_dual_numbers(K2F2)
    kronecker = list(banana_quiver(2).all_orientations())
    assert [m_count(q, sqz, (2, 1)) for q in kronecker] == [82, 79, 79, 82]
    assert [burnside_by_elements(q, sqz, (2, 1)) for q in kronecker[:2]] == [82, 79]
    for alpha in ((2, 1), (1, 2)):
        assert {m_count(q, dual, alpha) for q in kronecker} == {137}


def test_chain_rings_solve_arrow_tables_without_an_f_p_rank(monkeypatch):
    from quivercount import modp
    # built first: a field's construction checks rank its multiplication matrices
    k2f3, f5, k3f2 = make_truncated(F3, 2), make_prime_field(5), make_truncated(F2, 3)
    k2f4 = make_truncated(make_field(4), 2)
    dual, sqz = make_dual_numbers(K2F2), make_square_zero(F2, 2)
    calls = _count_calls(monkeypatch, modp, "rank")
    # fields and k_d eliminate over the ring itself
    assert m_count(path_quiver(2), k2f3, (1, 2)) == 3
    assert m_count(jordan_quiver(), f5, (2,)) == 30
    assert m_count(banana_quiver(2), k3f2, (1, 1)) == 22
    assert a_count(path_quiver(3), k2f4, (1, 1, 1)) == 4
    assert calls == []
    # the dual numbers over k_2(F_2) and sqz(F_2, 2) are not chain rings
    assert m_count(path_quiver(2), dual, (1, 1)) == 6
    solved = len(calls)
    assert solved > 0
    assert m_count(path_quiver(2), sqz, (1, 1)) == 5
    assert len(calls) > solved


def test_guards_trip_before_any_arrow_table(monkeypatch):
    calls = _count_solves(monkeypatch)
    cases = [
        (m_count, path_quiver(2), make_truncated(F2, 2), (2, 2), {"guard": 10}),
        (m_count, path_quiver(2), make_prime_field(2), (2, 1), {"guard": 2}),
        (a_count, path_quiver(2), make_prime_field(3), (1, 1), {"guard": 1}),
        (m_count, jordan_quiver(), make_prime_field(7), (9,), {}),     # 40350870 classes
    ]
    for count, quiver, ring, alpha, guards in cases:
        with pytest.raises(GuardError) as engine:
            count(quiver, ring, alpha, **guards)
        with pytest.raises(GuardError) as loop:
            class_tuple_buckets(quiver, ring, alpha, **guards)
        assert str(engine.value) == str(loop.value)
        assert calls == [] and not hasattr(ring, "_arrow_data")


def test_contraction_buckets_equal_the_class_tuple_loop():
    f5, k2f3 = make_prime_field(5), make_truncated(F3, 2)
    jordan_and_arrow = Quiver.from_edges(2, [(1, 1), (1, 2)])
    cases = [
        (path_quiver(4), k2f3, (1, 1, 1, 1)),          # a tree, eliminated leaves first
        (cycle_quiver(3), f5, (1, 2, 1)),               # a cycle
        (banana_quiver(3), f5, (1, 2)),                 # parallel arrows
        (jordan_and_arrow, f5, (2, 1)),                 # a loop beside an arrow
        (jordan_quiver(2), F3, (2,)),                   # two loops on one vertex
        (path_quiver(3), k2f3, (1, 0, 2)),              # a zero rank cuts the path
        (Quiver.from_edges(3, [(1, 2)]), f5, (1, 2, 2)),  # an isolated vertex
        (banana_quiver(28), f5, (1, 2)),                # buckets past 2^64, the slot width
    ]
    for quiver, ring, alpha in cases:
        for char_order in (None, 2, 3, 4):
            assert _burnside(quiver, ring, alpha, char_order=char_order) == \
                class_tuple_buckets(quiver, ring, alpha, char_order=char_order)
    assert sum(_burnside(banana_quiver(28), f5, (1, 2))[0]) > 2 ** 64


def test_gl2_of_a_field_has_q_squared_minus_one_classes():
    for q in (2, 3, 4, 5):
        field = make_field(q)
        classes = gl_classes(field, 2)
        assert len(classes) == q * q - 1
        assert sum(size for _, size in classes) == len(gl_elements(field, 2))


def test_class_equation():
    for ring in (F3, make_field(4), K2F2):
        elements = [coordinate_matrix(ring, h, 2) for h in gl_elements(ring, 2)]
        classes = gl_classes(ring, 2)
        assert sum(size for _, size in classes) == len(gl_elements(ring, 2))
        for rep, size in classes:
            rep = coordinate_matrix(ring, rep, 2)
            centralizer = sum(1 for h in elements
                              if mat_mul(ring, h, rep) == mat_mul(ring, rep, h))
            assert size * centralizer == len(elements)
    assert gl_classes(F2, 0) == [((), 1)]
    assert gl_classes(K2F2, 1) == [(m, 1) for m in gl_elements(K2F2, 1)]


def test_classes_are_the_conjugation_orbits():
    # The classes are the orbits: each representative's orbit under every
    # element of GL_2 has the reported size, the orbits are pairwise
    # distinct, and together they cover GL_2.  No representative is pinned:
    # a class lifted from the residue field is named by a point of its fibre.
    for ring in (F3, K2F2):
        elements = [coordinate_matrix(ring, h, 2) for h in gl_elements(ring, 2)]
        inverses = [mat_inverse(ring, h) for h in elements]
        classes = [(coordinate_matrix(ring, g, 2), size) for g, size in gl_classes(ring, 2)]
        orbits = [frozenset(mat_mul(ring, mat_mul(ring, h, g), h_inv)
                            for h, h_inv in zip(elements, inverses)) for g, _ in classes]
        assert [len(orbit) for orbit in orbits] == [size for _, size in classes]
        assert len(set(orbits)) == len(orbits)
        assert frozenset().union(*orbits) == frozenset(elements)


def _skew_basis_ring():
    """F_2[x, y]/(x^2, y^2) in the basis 1, x, y, w = x + y + xy: the 1 + b
    for b in the basis of m generate only 4 of the 8 units 1 + m, as
    1 + w = (1 + x)(1 + y); 1 + xy comes from the product x * y."""
    e = [tuple(int(i == k) for k in range(4)) for i in range(4)]
    zero, xy = (0,) * 4, (0, 1, 1, 1)
    table = [e, [e[1], zero, xy, xy], [e[2], xy, zero, xy], [e[3], xy, xy, zero]]
    return FiniteAlgebra(2, ("1", "x", "y", "w"), table, e[0], "skew", residue_field=F2)


# Every local ring the tests build, at rank 2, and GL_3(k_2(F_2)); a ring
# whose basis of m does not follow the powers of m; the canonical forms
# over the fields F_2 and F_3 at rank 3 and F_4, F_5 and F_7 at rank 2 (a
# companion column without its sign shows over F_3, F_5 and F_7 only); and
# the one-by-one classes over local rings.
LIFTED = [(make_truncated(F2, 2), 2), (make_truncated(F3, 2), 2),
          (make_truncated(make_field(4), 2), 2), (make_truncated(F2, 3), 2),
          (make_truncated(F3, 3), 2), (make_dual_numbers(F3), 2),
          (make_dual_numbers(make_truncated(F2, 2)), 2), (make_square_zero(F2, 2), 2),
          (make_truncated(F2, 2), 3), (_skew_basis_ring(), 2), (F2, 3), (F3, 3),
          (make_field(4), 2), (make_prime_field(5), 2), (make_prime_field(7), 2),
          (make_truncated(F3, 2), 1), (make_square_zero(F2, 2), 1)]
# The classes of all of M_n under GL_n, with their counts: over a field, a
# local ring with m^2 = 0 and one with m^2 != 0
WHOLE = [(F2, 2, 6), (F3, 2, 12), (make_field(4), 2, 20), (make_truncated(F2, 2), 2, 28),
         (make_dual_numbers(F2), 2, 28), (make_truncated(F2, 3), 2, 120), (F2, 3, 14),
         (make_prime_field(5), 2, 30), (make_truncated(F2, 2), 1, 4)]


@pytest.mark.parametrize("ring, n, count", [(r, n, None) for r, n in LIFTED] + WHOLE,
                         ids=["%s-%d" % (r.name, n) for r, n in LIFTED]
                         + ["M-%s-%d" % (r.name, n) for r, n, _ in WHOLE])
def test_lifted_classes_equal_the_whole_group_partition(ring, n, count):
    # count None: the classes of GL_n; else those of all of M_n, count of them
    whole = count is not None
    elements = list(product(range(ring.size()), repeat=n * n)) if whole else gl_elements(ring, n)
    partition = conjugacy_classes_by_partition(ring, n, elements)
    oracle = Counter(partition.values())
    classes = gl_classes(ring, n, whole=whole)
    assert len(classes) == len(oracle)
    assert not whole or len(classes) == count
    assert sorted(size for _, size in classes) == sorted(oracle.values())

    def weighted(pairs):
        return sum(size * ring.p ** fix_nullity(ring, g, g, n, n) for g, size in pairs)

    assert weighted(classes) == weighted(oracle.items())
    # each representative lies in its own class of the partition, of its size
    assert len({partition[g] for g, _ in classes}) == len(classes)
    assert all(oracle[partition[g]] == size for g, size in classes)


def test_the_socle_is_the_annihilator_of_m():
    # soc R = Ann(m) by brute force over the elements; it is all of m
    # exactly when every product of basis vectors of m vanishes (k_3(F_2)
    # has t * t = t^2, a basis vector, so "no new product" would not do)
    for ring in dict.fromkeys(ring for ring, _ in LIFTED if not ring.is_field):
        m = [x for x in ring.elements() if not ring.is_unit(x)]
        annihilator = {x for x in ring.elements() if not any(any(ring.mul(x, y)) for y in m)}
        socle = ring.socle()
        span = {tuple(sum(c * v[k] for c, v in zip(cs, socle)) % ring.p for k in range(ring.dim))
                for cs in product(range(ring.p), repeat=len(socle))}
        assert len(span) == ring.p ** len(socle) and span == annihilator
        basis = [ring.basis_vector(i) for i in range(ring.residue_field.dim, ring.dim)]
        square_zero = not any(any(ring.mul(a, b)) for a in basis for b in basis)
        assert (len(socle) == len(basis)) == square_zero


def test_the_lift_lists_each_fibre_modulo_w(monkeypatch):
    # k_2(F_3), n = 2: soc = m, so W = [M_2(m), g0] and the fibre over g0
    # has 3^dim C(g0) points: 2 central classes x 81 and 6 x 9, not 8 x 81
    from quivercount import gl
    f3 = make_prime_field(3)
    gl_classes(f3, 2)
    listed = _count_calls(monkeypatch, gl, "_orbit_parts")
    assert len(gl_classes(make_truncated(f3, 2), 2)) == 78
    assert sorted(len(points) for points, _ in listed) == [9] * 6 + [81] * 2


def test_residue_field_indices_are_those_of_their_embeddings():
    # the facts behind one matrix format: gl_classes lifts GL_n(k) without
    # converting, and the residue of ring index i is i mod |k|
    for ring in dict.fromkeys(ring for ring, _ in LIFTED):
        field = ring.residue_field
        t, pad = index_tables(ring), (0,) * (ring.dim - field.dim)
        k = list(field.elements())
        assert [t.index[x + pad] for x in k] == list(range(len(k)))
        assert all(ring.residue(x) == k[i % len(k)] for i, x in enumerate(t.ring))


def test_index_table_inverses_equal_the_algebra_inverses():
    for ring in dict.fromkeys(ring for ring, _ in LIFTED):
        t = index_tables(ring)
        assert len(t.inverse) == ring.size()
        for x, inverse in zip(t.ring, t.inverse):
            if ring.is_unit(x):
                assert t.ring[inverse] == ring.inverse(x)
            else:
                assert inverse is None


def test_warm_group_averages_make_no_coordinate_arithmetic(monkeypatch):
    # the engines compute on element indices: once the tables and memos of
    # an algebra are built, a count makes no FiniteAlgebra.add/sub/mul call
    f5, k2f4 = make_prime_field(5), make_truncated(make_field(4), 2)
    cases = [(a_count, path_quiver(3), k2f4, (1, 1, 1), 4),
             (m_preproj, path_quiver(2), F3, (2, 2), 6),
             (a_preproj, path_quiver(2), f5, (1, 1), 2),
             (a_preproj, jordan_quiver(1), make_truncated(F3, 2), (1,), 81)]
    for count, quiver, ring, alpha, value in cases:
        assert count(quiver, ring, alpha) == value
    calls = []
    for name in ("add", "sub", "mul"):
        calls += [_count_calls(monkeypatch, FiniteAlgebra, name)]
    for count, quiver, ring, alpha, value in cases:
        assert count(quiver, ring, alpha) == value
    assert calls == [[], [], []]


def test_field_classes_list_no_matrix_and_charge_their_number(monkeypatch):
    # the canonical forms: no matrix is scanned, the class count charged
    # before listing is the length of the list, and the sizes sum to
    # |GL_n(q)| (to q^(n^2) with whole)
    import oracles
    scanned = _count_calls(monkeypatch, oracles, "invertible_matrices")
    for q, n in [(2, 0), (2, 1), (2, 4), (3, 3), (4, 3), (5, 4), (7, 3)]:
        field = make_field(q)
        for whole in (False, True):
            classes = gl_classes(field, n, whole=whole)
            with pytest.raises(GuardError, match="%d classes" % len(classes)):
                gl_classes(field, n, len(classes) - 1, whole)
            assert gl_classes(field, n, len(classes), whole) == classes
            order = q ** (n * n) if whole else prod(q ** n - q ** i for i in range(n))
            assert sum(size for _, size in classes) == order
    assert scanned == []


def test_a_bad_size_is_refused_before_anything_is_charged():
    # guard 0 trips on any charge, so the ValueError comes first
    calls = [gl_elements, gl_classes, partial(gl_classes, whole=True)]
    for call, ring in product(calls, (F2, K2F2)):
        with pytest.raises(ValueError, match="size -1 is negative"):
            call(ring, -1, 0)
        with pytest.raises(ValueError, match="size 2.0 is not an integer"):
            call(ring, 2.0, 0)


def test_canonical_forms_reach_ranks_three_and_four_over_larger_fields():
    # each was refused by a scan of |k|^(n^2) matrices; q^3 + q^2 + q
    # similarity classes of M_3(F_7), and q + 1 absolutely indecomposable
    # Kronecker classes at (3, 3)
    assert m_count(jordan_quiver(), make_prime_field(7), (3,)) == 399
    assert a_count(jordan_quiver(), make_prime_field(5), (4,)) == 5
    assert a_count(banana_quiver(2), make_prime_field(7), (3, 3)) == 8


def test_the_rank_sum_holds_one_point_per_generator():
    # the lines of the enumerated half are walked depth first, so the rank
    # sum over the 2^12 points of M_2(k_3(F_2)) holds a few, not all of them
    import tracemalloc
    ring = make_truncated(F2, 3)
    index_tables(ring)
    tracemalloc.start()
    try:
        assert fourier_fiber_count(jordan_quiver(), ring, (2,)) == 434176
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_lifted_classes_never_scan_the_ring(monkeypatch):
    # no matrix of GL_2(F_3) is scanned: each of its 8 classes reads the
    # units of one commutant
    import oracles
    from quivercount import gl
    scanned = _count_calls(monkeypatch, oracles, "invertible_matrices")
    commutants = _count_calls(monkeypatch, gl, "_end_units")
    f3 = make_prime_field(3)
    assert len(gl_classes(make_truncated(f3, 2), 2)) == 78
    assert scanned == [] and len(commutants) == 8


def test_the_lift_keeps_a_unit_only_outside_the_closure(monkeypatch):
    # over k_2(F_q) m = soc, so the orbits of a fibre are those of the
    # centralizer lifts alone, one image list each; the lift keeps the
    # units that a closure rebuilt from scratch keeps, in the same order (g0
    # first, then End(g0)), the central scalars never
    from quivercount import gl
    lifts, orbit_parts = [], gl._orbit_parts
    monkeypatch.setattr(gl, "_orbit_parts", lambda points, images: orbit_parts(
        points, lifts.append(list(images)) or lifts[-1]))
    for field, n in [(F2, 3), (F3, 2)]:
        q = field.size()
        lifts.clear()
        gl_classes(make_truncated(field, 2), n)
        order = prod(q ** n - q ** i for i in range(n))
        scalars = {tuple(tuple(u if i == j else field.zero() for j in range(n)) for i in range(n))
                   for u in field.elements() if field.is_unit(u)}
        kept = []
        for g0, size0 in gl_classes(field, n):
            units = [coordinate_matrix(field, h, n)
                     for (h,) in [(g0,)] + list(gl._end_units(field, [(g0, 0, 0)], (n,), GUARD))]
            group, generators = set(scalars), []
            for h in units:
                if len(group) == order // size0:
                    break
                if h not in group:
                    generators.append(h)
                    group, new = set(scalars), scalars
                    while new:
                        new = {mat_mul(field, x, s) for x in new for s in generators} - group
                        group |= new
            assert len(group) == order // size0
            kept.append(len(generators))
        assert [len(images) for images in lifts] == kept


def test_units_ending_before_the_centralizer_order_raise(monkeypatch):
    # a commutant whose units end before |GL_n(k)| / size0 would lift the
    # fibres by a smaller group into wrong class sizes; it must raise
    from quivercount import gl
    end_units = gl._end_units
    monkeypatch.setattr(gl, "_end_units", lambda *args: islice(end_units(*args), 1))
    with pytest.raises(ArithmeticError, match="end before"):
        gl_classes(make_truncated(make_prime_field(2), 2), 2)


def test_a_product_whose_powers_never_reach_one_raises(monkeypatch):
    # the inverse of a centralizer lift is a power of it; a broken product
    # whose powers stay put must raise, not loop
    from quivercount import gl
    monkeypatch.setattr(gl, "times", lambda t, a, b, rows, inner, cols: a)
    start = time.perf_counter()
    with pytest.raises(ArithmeticError, match="no power"):
        gl_classes(make_truncated(make_prime_field(2), 2), 2)
    assert time.perf_counter() - start < 1


def test_class_sums_match_the_element_loop():
    a2, a3 = path_quiver(2), path_quiver(3)
    k2f3 = make_truncated(F3, 2)
    counts = [
        (a2, make_truncated(F2, 3), (1, 1)),
        (a2, k2f3, (1, 1)),
        (jordan_quiver(1), F3, (1,)),
        (a3, K2F2, (1, 1, 1)),
        (a3.flip([2]), K2F2, (1, 1, 1)),
        (jordan_quiver(), make_prime_field(5), (2,)),
        (a2, F2, (2, 2)),
        (a2, K2F2, (2, 1)),
        (cycle_quiver(2), F3, (2, 1)),
    ]
    for quiver, ring, alpha in counts:
        assert m_count(quiver, ring, alpha) == burnside_by_elements(quiver, ring, alpha)
    characters = [
        (a2, F3, (1, 1)),
        (a2, make_truncated(F3, 3), (1, 1)),
        (a3, make_truncated(make_field(4), 2), (1, 1, 1)),
        (jordan_quiver(1), k2f3, (1,)),
        (banana_quiver(2), k2f3, (1, 1)),
        (jordan_quiver(), make_prime_field(5), (2,)),
        (a2, make_field(4), (2, 1)),
    ]
    for quiver, ring, alpha in characters:
        assert a_count(quiver, ring, alpha) == \
            burnside_by_elements(quiver, ring, alpha, character=True)
    preprojective = [
        (a2, F2, (1, 1)),
        (jordan_quiver(1), F3, (1,)),
        (a2, make_square_zero(F2, 2), (1, 1)),
        (a2, F2, (2, 1)),
    ]
    for quiver, ring, alpha in preprojective:
        assert m_preproj(quiver, ring, alpha) == \
            burnside_by_elements(quiver, ring, alpha, preproj=True)
    assert a_preproj(a2, F3, (1, 1)) == \
        burnside_by_elements(a2, F3, (1, 1), character=True, preproj=True)


def test_a_count_values():
    a2 = path_quiver(2)
    for d in (1, 2, 3):
        ring = make_truncated(F3, d)
        assert a_count(a2, ring, (1, 1)) == d
    ring = make_truncated(make_field(4), 2)
    assert a_count(path_quiver(3), ring, (1, 1, 1)) == 4
    for q, d in [(2, 2), (3, 2)]:
        ring = make_truncated(make_prime_field(q), d)
        assert a_count(jordan_quiver(1), ring, (1,)) == q ** d


def test_a_count_generator_independence():
    # the count does not depend on the primitive root behind the character:
    # the oracle's own log table reproduces it with every one
    f5, k2f4 = make_prime_field(5), make_truncated(make_field(4), 2)
    assert primitive_roots(f5) == [(2,), (3,)] and len(primitive_roots(k2f4)) == 2
    for count, quiver, ring, alpha, value in ((a_count, jordan_quiver(), f5, (2,), 5),
                                              (a_count, banana_quiver(2), f5, (1, 1), 6),
                                              (a_preproj, path_quiver(2), f5, (1, 1), 2),
                                              (a_count, path_quiver(3), k2f4, (1, 1, 1), 4)):
        assert count(quiver, ring, alpha) == value
        for root in primitive_roots(ring):
            if count is a_preproj:
                oracle = preproj_by_filter(quiver, ring, alpha, character=True, generator=root)
            else:
                oracle = _group_average(partial(class_tuple_buckets, generator=root),
                                        quiver, ring, alpha, character=True)
            assert oracle == value


def test_a_generator_that_misses_units_fails_before_any_arrow_solve(monkeypatch):
    import oracles
    calls = _count_calls(monkeypatch, oracles, "fix_nullity")
    f5 = make_prime_field(5)
    a_oracle = partial(class_tuple_buckets, char_order=2)
    for count in (a_oracle, partial(preproj_by_filter, character=True)):
        for gen in ((4,), (1,)):    # orders 2 and 1 in F_5^x
            with pytest.raises(ValueError, match=r"\(%d,\) is not a primitive root" % gen[0]):
                count(path_quiver(2), f5, (1, 1), generator=gen)
    assert calls == [] and not hasattr(f5, "_arrow_data")
    # the two primitive roots 2 and 3 give the default generator's buckets
    assert a_oracle(path_quiver(2), f5, (1, 1), generator=(2,)) \
        == a_oracle(path_quiver(2), f5, (1, 1), generator=(3,)) \
        == a_oracle(path_quiver(2), f5, (1, 1))


def test_a_count_requires_roots_of_unity():
    with pytest.raises(ValueError):
        a_count(path_quiver(2), F2, (1, 1))     # |alpha| = 2, q - 1 = 1
    with pytest.raises(ValueError):
        a_count(path_quiver(2), F3, (1, 2))     # |alpha| = 3, q - 1 = 2


def test_a_at_most_m():
    grid = [
        (path_quiver(2), make_truncated(F3, 2), (1, 1)),
        (banana_quiver(2), make_truncated(F3, 2), (1, 1)),
        (path_quiver(3), make_truncated(make_field(4), 2), (1, 1, 1)),
        (jordan_quiver(1), F3, (1,)),
    ]
    for quiver, ring, alpha in grid:
        assert 0 <= a_count(quiver, ring, alpha) <= m_count(quiver, ring, alpha)


def test_rank_vector_validation():
    with pytest.raises(ValueError):
        m_count(path_quiver(2), F2, (0, 0))
    with pytest.raises(ValueError):
        m_count(path_quiver(2), F2, (1,))
    with pytest.raises(ValueError):
        m_count(path_quiver(2), F2, (1, -1))


def test_non_integer_ranks_and_sizes_are_refused():
    # int() would truncate 1.5 and 2.9 and parse "1"; each is refused by name
    with pytest.raises(ValueError, match="rank 1.5 is not an integer"):
        m_count(path_quiver(2), F3, (1.5, 1))
    with pytest.raises(ValueError, match="rank '1' is not an integer"):
        m_count(path_quiver(2), F3, ("1", 1))
    with pytest.raises(ValueError, match="vertex count 2.9 is not an integer"):
        Multigraph(2.9, [(1, 1, 2)])
    with pytest.raises(ValueError, match="edge ids and endpoints must be integers"):
        Multigraph(2, [(1, 1, 2.0)])


def _engine_moment_map(quiver, alg, alpha, x):
    """repenum._moment_blocks on x as flat index tuples, read back as
    coordinate blocks to compare with the oracle moment_map."""
    arrows, star = quiver.arrows(), double_quiver(quiver)[1]
    flat = {e: flat_indices(alg, m) for e, m in x.items()}
    return tuple(coordinate_matrix(alg, block, a)
                 for block, a in zip(_moment_blocks(alg, alpha, arrows, star, flat), alpha))


def test_moment_map_examples():
    a2 = path_quiver(2)
    _, star = double_quiver(a2)
    assert star == {1: 2}
    x_val, y_val = (1, 0), (1, 1)
    x = {1: ((x_val,),), 2: ((y_val,),)}
    value = moment_map(a2, K2F2, (1, 1), x)
    yx = K2F2.mul(y_val, x_val)
    assert value[0] == ((K2F2.neg(yx),),)
    assert value[1] == ((yx,),)
    assert _engine_moment_map(a2, K2F2, (1, 1), x) == value
    zero = {1: ((K2F2.zero(),),), 2: ((K2F2.zero(),),)}
    value = moment_map(a2, K2F2, (1, 1), zero)
    assert all(entry == K2F2.zero() for block in value for row in block for entry in row)
    assert _engine_moment_map(a2, K2F2, (1, 1), zero) == value
    # the engine on every point of small doubled spaces, loops, a cycle and
    # rectangular arrows included
    for quiver, ring, alpha in ((a2, K2F2, (1, 1)), (a2, F2, (2, 1)), (jordan_quiver(), F2, (2,)),
                                (cycle_quiver(2), F3, (1, 1)), (a2, F3, (1, 2)),
                                (path_quiver(3), F3, (1, 0, 1))):
        darrows = double_quiver(quiver)[0].arrows()
        for combo in product(*[all_matrices(ring, alpha[t - 1], alpha[s - 1])
                               for _, s, t in darrows]):
            point = {e: m for (e, _, _), m in zip(darrows, combo)}
            assert _engine_moment_map(quiver, ring, alpha, point) == \
                moment_map(quiver, ring, alpha, point)
    with pytest.raises(ValueError):
        moment_map(a2, K2F2, (1, 1), {1: ((x_val,), (y_val,)), 2: ((y_val,),)})


def test_preprojective_counts():
    a2 = path_quiver(2)
    assert m_preproj(a2, F2, (1, 1)) == 3
    for q in (2, 3):
        ring = make_prime_field(q)
        assert m_preproj(jordan_quiver(1), ring, (1,)) == q ** 2
        assert a_preproj(jordan_quiver(1), ring, (1,)) == q ** 2
    assert m_preproj(a2, make_square_zero(F2, 2), (1, 1)) == 18
    assert a_preproj(a2, F3, (1, 1)) == a_count(a2, make_dual_numbers(F3), (1, 1)) == 2


def test_rank_sum_equals_the_zero_fiber_filter():
    a2 = path_quiver(2)
    cases = [
        (a2, F3, (2, 2)),
        (a2, F2, (2, 2)),
        (jordan_quiver(), F3, (2,)),
        (jordan_quiver(), K2F2, (2,)),
        (path_quiver(3), F2, (1, 2, 1)),
        (cycle_quiver(2), F2, (2, 2)),
        (a2, K2F2, (1, 1)),
        (a2, K2F2, (2, 1)),
        # over this non-Frobenius ring V*^g can be the smaller half
        (a2, make_square_zero(F2, 2), (2, 1)),
    ]
    for quiver, ring, alpha in cases:
        assert m_preproj(quiver, ring, alpha) == preproj_by_filter(quiver, ring, alpha)
    for ring in (F3, make_prime_field(5)):
        assert a_preproj(a2, ring, (1, 1)) == \
            preproj_by_filter(a2, ring, (1, 1), character=True)


def test_preprojective_counts_equal_dual_number_counts_at_rank_two():
    # the preprojective theorem: Pi_Q over R against Q over R[eps]
    cases = [
        (path_quiver(2), F3, (2, 2), 6),
        (path_quiver(2), F2, (2, 2), 6),
        (jordan_quiver(), F3, (2,), 117),
        (path_quiver(3), F2, (1, 2, 1), 14),
    ]
    for quiver, ring, alpha, value in cases:
        assert m_preproj(quiver, ring, alpha) == value
        assert m_count(quiver, make_dual_numbers(ring), alpha) == value
    # under the default guards
    assert a_preproj(path_quiver(2), make_prime_field(5), (2, 2)) == 0


def test_preproj_columns_are_combinations_of_basis_pairs(monkeypatch):
    from quivercount import repenum
    calls, engine = [], {}
    original = repenum._moment_blocks

    def counting(*args):
        calls.append(args)
        return original(*args)

    def capture(quiver, alg, alpha, fix_values=None, **kwargs):
        engine["fix_values"] = fix_values
        return [1], 1

    monkeypatch.setattr(repenum, "_moment_blocks", counting)
    monkeypatch.setattr(repenum, "_burnside", capture)
    # at the identity tuple both halves of A2 at (2,2) over F_3 are all of
    # M_2(F_3): k = |b| = 4, so 4 * 4 moment maps, not 3^4 * 4, and the
    # count is that of the pairs X, Y with XY = 0 and YX = 0
    a2, identity = path_quiver(2), flat_indices(F3, mat_identity(F3, 2))
    m_preproj(a2, F3, (2, 2))
    fiber = sum(1 for _ in whole_zero_fiber(a2, F3, (2, 2), GUARD))
    assert engine["fix_values"]((identity, identity)) == fiber
    assert len(calls) == 16
    # Kronecker at (1,1): k = |b| = 1 on each of its two arrows; the fiber
    # is x . y = 0 on F_3^2, 9 points y at x = 0 and 3 at each x != 0
    calls.clear()
    m_preproj(banana_quiver(2), F3, (1, 1))
    assert engine["fix_values"]((flat_indices(F3, ((F3.one,),)),) * 2) == 9 + 8 * 3
    assert len(calls) == 2


def test_one_rank_per_line_once_per_pair_of_fixed_spaces(monkeypatch):
    from quivercount import modp, repenum
    a2 = path_quiver(2)
    # built first: a field's construction checks rank its multiplication matrices
    sqz2, sqz5, f5 = make_square_zero(F2, 2), make_square_zero(F2, 5), make_prime_field(5)
    calls = _count_calls(monkeypatch, modp, "rank")
    systems = _count_calls(monkeypatch, repenum, "block_system")
    cases = [
        # units a, b of sqz(F_2, n) differ by an element of m, so the fixed
        # space ann(a - b) is the ring or m: two pairs of fixed spaces in
        # 4^2 (n = 2) or 32^2 (n = 5) class tuples, 2^(n+1) - 1 + 2^n - 1
        # lines, and one F_p system and nullspace per arrow system [a - b],
        # 2^n of them
        (m_preproj, sqz2, (1, 1), 18, 7 + 3, 4),
        (m_preproj, sqz5, (1, 1), 1026, 63 + 31, 32),
        # 20 pairs of fixed spaces in the 8^2 class tuples of GL_2(F_3), and
        # 63 arrow systems, as the pairs (I, I) and (2I, 2I) share the zero
        # system; this value and the next are wrong without each line's
        # weight p - 1
        (m_preproj, F3, (2, 2), 6, 100, 63),
        # a = b gives the one line F_5, a != b the zero space and no rank;
        # the systems [a - b] are the 5 elements of F_5
        (a_preproj, f5, (1, 1), 2, 1, 5),
    ]
    for count, ring, alpha, value, ranks, nullspaces in cases:
        calls.clear()
        systems.clear()
        assert count(a2, ring, alpha) == value
        assert len(calls) == ranks
        assert len(systems) == nullspaces


def test_preproj_partition_fallback_agrees():
    cases = [
        (path_quiver(2), F2, (1, 1)),
        (path_quiver(2), F3, (1, 1)),
        (path_quiver(2), K2F2, (1, 1)),
        (jordan_quiver(1), F2, (1,)),
        (path_quiver(3), F2, (1, 1, 1)),
    ]
    for quiver, ring, alpha in cases:
        assert preproj_orbit_partition(quiver, ring, alpha) == \
            m_preproj(quiver, ring, alpha)
    with pytest.raises(GuardError):
        preproj_orbit_partition(path_quiver(2), K2F2, (1, 1), guard=10)


def test_fourier_fiber_counts():
    assert fourier_fiber_count(path_quiver(2), F2, (1, 1)) == 3
    assert fourier_fiber_count(path_quiver(2), K2F2, (1, 1)) == 8
    assert fourier_fiber_count(jordan_quiver(1), F2, (1,)) == 4
    assert fourier_fiber_count(jordan_quiver(1), F3, (1,)) == 9
    # the averaged side sums over the 39 x 39 class pairs of M_3(F_3) and
    # the 117 x 117 of M_2(k_2(F_3)), not over 3^18 and 9^8 elements of g
    assert fourier_fiber_count(path_quiver(2), F3, (3, 3)) == 82629
    assert fourier_fiber_count(path_quiver(2), make_truncated(F3, 2), (2, 2)) == 35073
    with pytest.raises(GuardError):
        fourier_fiber_count(path_quiver(2), K2F2, (1, 1), guard=10)


def test_gl_and_matrix_class_memos_stay_apart():
    # m_count sums over the classes of GL_n, fourier_fiber_count over those
    # of all of M_n; on one fresh ring at one rank, in either order, each
    # returns its cold value, so neither reads the other's classes or tables
    cases = [(path_quiver(2), lambda: make_prime_field(3), (2, 2), 3, 225),
             (jordan_quiver(), lambda: make_truncated(make_prime_field(2), 2), (2,), 28, 6400)]
    for quiver, fresh, alpha, classes, fiber in cases:
        cold = {count: count(quiver, fresh(), alpha) for count in (m_count, fourier_fiber_count)}
        assert cold == {m_count: classes, fourier_fiber_count: fiber}
        for first, second in ((m_count, fourier_fiber_count), (fourier_fiber_count, m_count)):
            ring = fresh()
            assert first(quiver, ring, alpha) == cold[first]
            assert second(quiver, ring, alpha) == cold[second]


def test_toric_orbit_counts():
    assert toric_ai_orbit_count(cycle_quiver(3), K2F2) == 21
    assert toric_ai_orbit_count(banana_quiver(2), K2F2) == 9
    # trees: d classes per edge chain with full support
    for q, d in [(2, 2), (3, 2), (2, 3)]:
        ring = make_truncated(make_prime_field(q), d)
        assert toric_ai_orbit_count(path_quiver(2), ring) == d
    # every class, connected support or not, is m_count at rank (1, 1)
    assert m_count(path_quiver(2), K2F2, (1, 1)) == 3
    with pytest.raises(GuardError):
        toric_ai_orbit_count(cycle_quiver(3), K2F2, guard=10)


def test_stabilizer_orders():
    tri = cycle_quiver(3)
    ones = toric_point(tri, {1: K2F2.one, 2: K2F2.one, 3: K2F2.one})
    assert stabilizer_order(ones, tri, K2F2, (1, 1, 1)) == 2
    t = truncated_generator(K2F2)
    ts = toric_point(tri, {1: t, 2: t, 3: t})
    assert stabilizer_order(ts, tri, K2F2, (1, 1, 1)) == 8
    zero = toric_point(tri, {e: K2F2.zero() for e in (1, 2, 3)})
    assert stabilizer_order(zero, tri, K2F2, (1, 1, 1)) == 8


def test_stabilizer_order_refuses_a_wrong_shape():
    # a 1 x 2 matrix at rank (1, 1) gave 0 instead of an error
    a2 = path_quiver(2)
    with pytest.raises(ValueError, match=r"arrow 1 needs an alpha_t x alpha_s = 1 x 1 matrix"):
        stabilizer_order({1: ((F2.one, F2.one),)}, a2, F2, (1, 1))
    with pytest.raises(ValueError, match=r"arrow 1 needs an alpha_t x alpha_s = 2 x 1 matrix"):
        stabilizer_order({1: ((F2.one,),)}, a2, F2, (1, 2))


def test_stabilizer_order_refuses_a_missing_arrow():
    # a KeyError from deep inside the filter before
    with pytest.raises(ValueError, match=r"arrow 2 needs an alpha_t x alpha_s = 1 x 1 matrix"):
        stabilizer_order({1: ((F2.one,),)}, banana_quiver(2), F2, (1, 1))


def test_stabilizer_order_refuses_an_entry_outside_the_ring():
    # an int, an unreduced coordinate tuple, a tuple of the wrong length and
    # a list were each accepted and compared as they were
    a2 = path_quiver(2)
    for entry in (1, (2,), (1, 0), [1]):
        with pytest.raises(ValueError, match=r"arrow 1 needs .* 1 x 1 matrix over fq\(2\)"):
            stabilizer_order({1: ((entry,),)}, a2, F2, (1, 1))
    assert stabilizer_order({1: ((F2.one,),)}, a2, F2, (1, 1)) == 1


def test_counterexample_counts():
    for q in (2, 3):
        a, b = counterexample_counts(1, q)
        assert a == b == q + 4
    assert counterexample_counts(2, 2) == (15, 18)
    a, b = counterexample_counts(2, 3)
    assert b - a == (9 - 1) * (3 - 1)


@pytest.mark.parametrize("n, q, lines", [(1, 2, 7), (1, 3, 13), (2, 2, 31), (2, 3, 121),
                                         (3, 2, 127)])
def test_counterexample_line_ranks_equal_the_unit_loop(n, q, lines):
    # one rank per F_p-line of the maximal ideal, (|m| - 1)/(p - 1) charged
    # before anything else is listed, against the Burnside sum with one rank
    # per unit
    assert counterexample_counts(n, q)[0] == scaling_orbits_by_units(n, q)
    with pytest.raises(GuardError, match="%d line ranks" % lines):
        counterexample_counts(n, q, lines - 1)


@pytest.mark.parametrize("n, q, message", [(1, 2.0, "q 2.0"), ("1", 2, "n '1'")])
def test_counterexample_arguments_are_integers(n, q, message):
    # these raised a TypeError from deep inside: a float in range(), a str in <
    with pytest.raises(ValueError, match=re.escape(message + " is not an integer")):
        counterexample_counts(n, q)


def test_random_graphs_cross_validate_closed_form():
    import random

    from quivercount.families import random_connected_multigraph
    from quivercount.multigraph import Quiver
    from quivercount.toric import a_d_polynomial

    rng = random.Random(424242)
    tested = 0
    for _ in range(10):
        g = random_connected_multigraph(rng, max_edges=4)
        quiver = Quiver(g, {e: (u, v) for e, u, v in g.edges})
        for q, d in [(2, 2), (2, 3), (3, 2)]:
            ring = make_truncated(make_prime_field(q), d)
            if ring.size() ** g.edge_count() > 1 << 13 or ring.unit_count() ** g.n > 3000:
                continue
            assert toric_ai_orbit_count(quiver, ring) == a_d_polynomial(g, d)(q)
            tested += 1
    assert tested >= 20
