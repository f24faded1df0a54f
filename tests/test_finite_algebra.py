import random
import re
from itertools import product

import pytest

from quivercount import modp
from quivercount.finite_algebra import (FiniteAlgebra, make_dual_numbers,
                                        make_field, make_field_ext,
                                        make_prime_field, make_square_zero,
                                        make_truncated, ring_from_spec,
                                        truncated_generator)
from quivercount.multigraph import GuardError
from quivercount.ring_tables import IndexTables, index_tables, times
from oracles import (dual_numbers_by_blocks, flat_indices, mat_det, mat_identity, mat_inverse,
                     mat_mul, square_zero_by_blocks, truncated_by_blocks)


def test_prime_field_basics():
    f5 = make_prime_field(5)
    assert f5.size() == 5 and f5.is_field
    assert f5.mul((2,), (3,)) == (1,)
    assert f5.inverse((4,)) == (4,)
    with pytest.raises(ValueError):
        make_prime_field(4)


def test_field_extension():
    f4 = make_field_ext(2, [1, 1, 1])
    assert f4.size() == 4
    assert all(f4.is_unit(x) for x in f4.elements() if any(x))
    x = f4.basis_vector(1)
    assert f4.mul(x, x) == f4.add(x, f4.one)   # x^2 = x + 1
    with pytest.raises(ValueError):
        make_field_ext(2, [1, 0, 1])           # (x+1)^2
    assert make_field(9).size() == 9
    with pytest.raises(ValueError):
        make_field(6)


def test_truncated_ring():
    k2 = make_truncated(make_prime_field(2), 2)
    t = truncated_generator(k2)
    assert k2.mul(t, t) == k2.zero()
    assert sorted(k2.units()) == sorted([(1, 0), (1, 1)])
    assert k2.unit_count() == 2
    k2f3 = make_truncated(make_prime_field(3), 2)
    assert k2f3.size() == 9 and k2f3.unit_count() == 6
    assert make_truncated(make_prime_field(2), 1).size() == 2
    with pytest.raises(ValueError):
        make_truncated(make_truncated(make_prime_field(2), 2), 2)


def test_truncated_generator():
    k3 = make_truncated(make_prime_field(2), 3)
    t = truncated_generator(k3)
    t2 = k3.mul(t, t)
    assert k3.zero() not in (t, t2) and k3.mul(t, t2) == k3.zero()
    # rings not built by make_truncated with d >= 2 have no generator t
    f2 = make_prime_field(2)
    for ring in (make_dual_numbers(f2), make_square_zero(f2, 1), make_truncated(f2, 1)):
        with pytest.raises(ValueError, match=re.escape("%s was not built by make_truncated"
                                                       % ring.name)):
            truncated_generator(ring)


def test_dual_numbers():
    f2 = make_prime_field(2)
    r = make_dual_numbers(f2)
    assert r.size() == 4 and r.unit_count() == 2
    eps = r.basis_vector(1)
    assert r.mul(eps, eps) == r.zero()
    rr = make_dual_numbers(make_truncated(f2, 2))
    assert rr.size() == 16 and rr.unit_count() == 8 and rr.dim == 4
    assert make_dual_numbers(make_prime_field(3)).unit_count() == 6


def test_square_zero_rings():
    f2 = make_prime_field(2)
    r = make_square_zero(f2, 2)
    assert r.dim == 3 and r.size() == 8 and r.unit_count() == 4
    t1, t2 = r.basis_vector(1), r.basis_vector(2)
    assert r.mul(t1, t2) == r.zero() and r.mul(t1, t1) == r.zero()
    assert make_square_zero(make_prime_field(3), 2).unit_count() == 18
    assert make_square_zero(f2, 1).size() == make_truncated(f2, 2).size()


def test_unit_iff_residue_nonzero():
    local_rings = [CONSTRUCTORS[case[0]][0](ring_from_spec(case[1]), *case[2:])
                   for case in LOCAL_RINGS]
    for alg in local_rings + [make_dual_numbers(make_truncated(make_prime_field(3), 2))]:
        for x in alg.elements():
            by_residue = any(alg.residue(x))
            by_operator = modp.is_invertible(alg.mul_matrix(x), alg.p)
            assert by_residue == by_operator
        assert alg.unit_count() == sum(1 for x in alg.elements() if alg.is_unit(x))


def test_inverse_examples():
    k2f3 = make_truncated(make_prime_field(3), 2)
    two_plus_t = (2, 1)
    assert k2f3.is_unit(two_plus_t)
    assert k2f3.inverse(two_plus_t) == (2, 2)
    assert k2f3.mul((2, 1), (2, 2)) == k2f3.one
    t = truncated_generator(k2f3)
    assert not k2f3.is_unit(t)
    with pytest.raises(ZeroDivisionError):
        k2f3.inverse(t)
    k2f2 = make_truncated(make_prime_field(2), 2)
    u = (1, 1)
    assert k2f2.inverse(u) == u


def test_structure_constant_validation():
    # a*(a*b) = a but (a*a)*b = b*b = 0: rejected as non-associative
    one, a, b, zero = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    table = ((one, a, b), (a, b, one), (b, one, zero))
    with pytest.raises(ValueError):
        FiniteAlgebra(2, ("1", "a", "b"), table, one, "bogus")
    # F_2 x F_2 is associative and commutative but not local: given with
    # no residue field it would pass for a field, so it is rejected
    e1, e2, zero = (1, 0), (0, 1), (0, 0)
    with pytest.raises(ValueError, match="zero divisors"):
        FiniteAlgebra(2, ("e1", "e2"), ((e1, zero), (zero, e2)), (1, 1), "F2xF2")


def test_characteristic_and_structure_constants_are_integers():
    # Z/4 with one basis vector built as a field, is_field True, and its
    # counts failed deep inside; each constructor now refuses a composite p
    for build in (lambda: FiniteAlgebra(4, ("1",), (((1,),),), (1,), "z4"),
                  lambda: make_prime_field(4), lambda: make_field_ext(4, (1, 1, 1))):
        with pytest.raises(ValueError, match="4 is not prime"):
            build()
    for p in (2.0, "2"):
        with pytest.raises(ValueError, match=re.escape("characteristic p %r is not an integer"
                                                       % p)):
            make_prime_field(p)
    with pytest.raises(ValueError, match="structure constant 0.5 is not an integer"):
        FiniteAlgebra(2, ("1",), (((0.5,),),), (1,), "half")
    with pytest.raises(ValueError, match="unit coordinate 1.0 is not an integer"):
        FiniteAlgebra(2, ("1",), (((1,),),), (1.0,), "float unit")
    # this built "fq(2,2)" with the structure constant 0.5
    with pytest.raises(ValueError, match="coefficient 1.5 is not an integer"):
        make_field_ext(2, (1, 1.5, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: make_truncated(make_prime_field(2), 2.0), "depth d 2.0"),
    (lambda: make_square_zero(make_prime_field(2), 1.0), "n 1.0"),
    (lambda: make_field(4.0), "field size q 4.0"),
])
def test_constructor_sizes_are_integers(build, message):
    # each raised "'float' object cannot be interpreted as an integer"
    with pytest.raises(ValueError, match=re.escape(message + " is not an integer")):
        build()


def test_residue_map_validation():
    f2 = make_prime_field(2)
    e1, e2, zero = (1, 0), (0, 1), (0, 0)

    def build(table, one, residue_field=f2, names=("e1", "e2")):
        return FiniteAlgebra(2, names, table, one, "test", residue_field=residue_field)

    # F_2 x F_2 projected onto its first factor: a ring map onto F_2, but
    # its kernel (e2) is idempotent, not nilpotent, so the ring is not local
    with pytest.raises(ValueError, match="kernel vector e2 is not nilpotent"):
        build(((e1, zero), (zero, e2)), (1, 1))
    # k_2(F_2) = F_2[t]/(t^2) in basis (1, t): residue coordinate first
    dual = ((e1, e2), (e2, zero))
    assert build(dual, (1, 0), names=("1", "t")).unit_count() == 2
    # the same ring in basis (t, 1): the first coordinate is not a ring map
    with pytest.raises(ValueError, match="not multiplicative"):
        build(((zero, e1), (e1, e2)), (0, 1), names=("t", "1"))
    with pytest.raises(ValueError, match="must be a field"):
        build(dual, (1, 0), residue_field=make_truncated(f2, 2))
    # F_4 as the residue field of the 2-dim dual-number table
    with pytest.raises(ValueError, match="not multiplicative"):
        build(dual, (1, 0), residue_field=make_field(4))
    # k_2(F_2) in basis (1 + t, t): the projection is a ring map onto F_2
    # with a nilpotent kernel, but x -> (x, 0) sends 1 to 1 + t, which is
    # not the unit, so the residue field does not embed and the classes of
    # GL_n could not lift from it; refused with ValueError, not an assert
    with pytest.raises(ValueError, match="does not embed the residue field"):
        build((((1, 1), e2), (e2, zero)), (1, 1), names=("1+t", "t"))


def test_local_ring_is_built_without_listing_its_elements(monkeypatch):
    f2, f3 = make_prime_field(2), make_prime_field(3)

    def refuse(self):
        raise AssertionError("%s listed its elements" % self.name)

    monkeypatch.setattr(FiniteAlgebra, "elements", refuse)
    assert make_truncated(f2, 24).unit_count() == 2 ** 23
    assert make_square_zero(f3, 10).unit_count() == 2 * 3 ** 10
    assert make_dual_numbers(make_truncated(f2, 12)).unit_count() == 2 ** 23


def test_every_builtin_ring_constructs():
    for spec in ["fq(2)", "fq(2,2)", "fq(3,2)", "kd(fq(3),3)", "kd(fq(2,2),2)",
                 "eps(fq(5))", "eps(kd(fq(2),2))", "eps(eps(fq(2)))", "sqz(fq(3),2)"]:
        ring = ring_from_spec(spec)
        assert ring.unit_count() == len(ring.units())


def matrix_is_invertible(alg, m):
    if m and any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    return alg.is_unit(mat_det(alg, m))


def test_matrix_determinant_criterion_exhaustive():
    for alg in [make_truncated(make_prime_field(2), 2), make_field(4)]:
        elems = list(alg.elements())
        for x in elems:
            assert matrix_is_invertible(alg, ((x,),)) == alg.is_unit(x)
        for entries in product(elems, repeat=4):
            m = (entries[0:2], entries[2:4])
            by_det = matrix_is_invertible(alg, m)
            # brute force: injectivity of v -> M v on all column vectors
            images = set()
            for v in product(elems, repeat=2):
                images.add(mat_mul(alg, m, ((v[0],), (v[1],))))
            assert by_det == (len(images) == alg.size() ** 2)


def test_matrix_helpers():
    alg = make_truncated(make_prime_field(2), 2)
    t = truncated_generator(alg)
    ident = mat_identity(alg, 2)
    upper = ((alg.one, t), (alg.zero(), alg.one))
    assert matrix_is_invertible(alg, upper)
    singular = ((t, alg.zero()), (alg.zero(), alg.one))
    assert not matrix_is_invertible(alg, singular)
    assert mat_det(alg, ident) == alg.one
    with pytest.raises(ValueError):
        matrix_is_invertible(alg, ((alg.one,), (alg.zero(),)))


def test_three_by_three_determinants():
    # the oracle's cofactor branch (n >= 3) against IndexTables.det, the
    # sign of a transposition and the product rule det(AB) = det(A) det(B)
    rng = random.Random(3)
    for alg in (make_prime_field(3), make_truncated(make_prime_field(2), 2)):
        t, elems = index_tables(alg), list(alg.elements())
        zero, one = alg.zero(), alg.one
        swap = ((zero, one, zero), (one, zero, zero), (zero, zero, one))
        assert mat_det(alg, swap) == alg.neg(one)
        matrices = [tuple(tuple(rng.choice(elems) for _ in range(3)) for _ in range(3))
                    for _ in range(100)]
        for m in matrices:
            assert mat_det(alg, m) == t.ring[t.det(tuple(t.index[x] for row in m for x in row), 3)]
        for a, b in zip(matrices, matrices[1:]):
            assert mat_det(alg, mat_mul(alg, a, b)) == alg.mul(mat_det(alg, a), mat_det(alg, b))


def test_index_product_equals_the_coordinate_product():
    # ring_tables.times, the one matrix product of the engines, against
    # mat_mul on every shape up to 3 x 3 x 3, empty rows or columns included;
    # an inner dimension 0 gives the zero matrix
    rng = random.Random(5)
    for alg in (make_prime_field(3), make_truncated(make_prime_field(2), 2), make_field(4)):
        t, elems = index_tables(alg), list(alg.elements())
        for rows, inner, cols in product(range(4), repeat=3):
            a = tuple(tuple(rng.choice(elems) for _ in range(inner)) for _ in range(rows))
            b = tuple(tuple(rng.choice(elems) for _ in range(cols)) for _ in range(inner))
            flat = times(t, flat_indices(alg, a), flat_indices(alg, b), rows, inner, cols)
            if inner:
                assert flat == flat_indices(alg, mat_mul(alg, a, b))
            else:
                assert flat == (t.zero,) * (rows * cols)


def test_matrix_inverse():
    for alg in [make_truncated(make_prime_field(2), 2), make_prime_field(5)]:
        elems = list(alg.elements())
        ident = mat_identity(alg, 2)
        for entries in product(elems, repeat=4):
            m = (entries[0:2], entries[2:4])
            if not matrix_is_invertible(alg, m):
                continue
            inv = mat_inverse(alg, m)
            assert mat_mul(alg, m, inv) == ident
            assert mat_mul(alg, inv, m) == ident


def test_frobenius_form_search():
    f2 = make_prime_field(2)
    for d in range(1, 4):
        assert make_truncated(f2, d).find_frobenius_form() is not None
    assert make_dual_numbers(f2).find_frobenius_form() is not None
    # dual numbers over a self-dual ring stay self-dual
    ring = make_dual_numbers(make_truncated(make_prime_field(3), 2))
    assert ring.size() == 81 and ring.find_frobenius_form() is not None
    assert make_square_zero(f2, 2).find_frobenius_form() is None
    assert make_square_zero(f2, 3).find_frobenius_form() is None
    # the found form for k_3 weights the top coefficient
    lam = make_truncated(f2, 3).find_frobenius_form()
    assert lam == (0, 0, 1)
    with pytest.raises(GuardError):
        make_truncated(f2, 3).find_frobenius_form(guard=2)


def test_dlog_tables():
    f7 = make_prime_field(7)
    gen = f7.primitive_element()
    assert gen == (3,)
    for k in range(6):
        assert f7.dlog(f7.power(gen, k)) == k
    f4 = make_field(4)
    gen = f4.primitive_element()
    assert f4.dlog(f4.one) == 0
    assert f4.dlog(f4.mul(gen, gen)) == 2
    k2f3 = make_truncated(make_prime_field(3), 2)
    assert k2f3.dlog(k2f3.residue((2, 1))) == 1


CONSTRUCTORS = {"kd": (make_truncated, truncated_by_blocks),
                "sqz": (make_square_zero, square_zero_by_blocks),
                "eps": (make_dual_numbers, dual_numbers_by_blocks)}
FIELD_SPECS = ("fq(2)", "fq(3)", "fq(2,2)", "fq(5)", "fq(7)", "fq(2,3)", "fq(3,2)")  # F_2..F_9
LOCAL_RINGS = ([("kd", spec, d) for spec in FIELD_SPECS for d in (1, 2, 3)]
               + [("sqz", spec, n) for spec in FIELD_SPECS for n in (1, 2, 3)]
               + [("eps", spec) for spec in FIELD_SPECS
                  + ("kd(fq(2),2)", "sqz(fq(3),2)", "eps(fq(2))")])


@pytest.mark.parametrize("case", LOCAL_RINGS, ids=lambda case: "-".join(map(str, case)))
def test_local_ring_constructors_equal_their_block_loops(case):
    make, oracle = CONSTRUCTORS[case[0]]
    base = ring_from_spec(case[1])
    ring, oracle = make(base, *case[2:]), oracle(base, *case[2:])
    assert (ring.name, ring.basis_names, ring.table, ring.one) == \
        (oracle.name, oracle.basis_names, oracle.table, oracle.one)
    assert ring.residue_field is oracle.residue_field
    assert getattr(ring, "truncation", None) == getattr(oracle, "truncation", None)
    assert all(ring.residue(x) == oracle.residue(x) for x in ring.elements())


def test_ring_spec_parser():
    assert ring_from_spec("fq(2)").size() == 2
    assert ring_from_spec("fq(2,2)").size() == 4
    assert ring_from_spec("kd(fq(2),2)").size() == 4
    assert ring_from_spec("eps(kd(fq(3),2))").dim == 4
    assert ring_from_spec("sqz(fq(2),2)").dim == 3
    assert ring_from_spec("eps(sqz(fq(2),2))").size() == 64
    for bad in ["fq(4)", "kd(sqz(fq(2),2),2)", "kd(fq(2),2)x", "zz(3)", "fq(2", "sqz(kd(fq(2),2),1)"]:
        with pytest.raises(ValueError):
            ring_from_spec(bad)
    # each message comes from the constructor that refuses the spec
    for bad, message in [("fq(4,2)", "no built-in polynomial for F_4^2"),
                         ("fq(5,3)", "no built-in polynomial for F_5^3"),
                         ("fq(2,0)", "no built-in polynomial for F_2^0"),
                         ("kd(eps(fq(2)),2)", "truncated polynomial rings require a field base")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            ring_from_spec(bad)


def test_element_enumeration_order():
    alg = make_truncated(make_prime_field(2), 2)
    elems = list(alg.elements())
    assert len(elems) == 4 and len(set(elems)) == 4
    assert all(alg.element_index(x) == i for i, x in enumerate(elems))


# every ring the tests build, up to 125 elements so that the |R|^2
# products against FiniteAlgebra.mul stay quick
TABLE_RINGS = [alg for alg in
               [CONSTRUCTORS[case[0]][0](ring_from_spec(case[1]), *case[2:]) for case in LOCAL_RINGS]
               + [ring_from_spec(spec) for spec in FIELD_SPECS + ("kd(fq(2,2),2)", "eps(kd(fq(2),2))",
                                                                 "eps(eps(fq(2)))", "sqz(fq(3),2)")]
               if alg.size() <= 125]


@pytest.mark.parametrize("alg", TABLE_RINGS, ids=lambda alg: alg.name)
def test_index_tables_products_equal_the_algebra_product(alg):
    # the tables are filled by linearity; every entry against FiniteAlgebra.mul
    # and FiniteAlgebra.add
    t = IndexTables(alg)
    assert t.ring == list(alg.elements())
    for x, row, sums in zip(t.ring, t.mul, t.add):
        assert [t.ring[i] for i in row] == [alg.mul(x, y) for y in t.ring]
        assert [t.ring[i] for i in sums] == [alg.add(x, y) for y in t.ring]
