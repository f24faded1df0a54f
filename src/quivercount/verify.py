"""Named verification batteries.

Every check recomputes a published value or structural identity with the
exact engines and reports (label, passed).  The CLI `verify` verb runs a
suite and exits nonzero if anything fails; the test suite asserts the
same batteries.
"""

import random

from .families import (all_connected_multigraphs, banana_graph, banana_quiver,
                       cycle_graph, cycle_quiver, jordan_quiver, loops_graph,
                       path_graph, path_quiver, point_graph,
                       random_connected_multigraph)
from .finite_algebra import (make_dual_numbers, make_field, make_prime_field,
                             make_square_zero, make_truncated,
                             truncated_generator)
from .genfun import (GUARD, _recursion_holds, a_genfun, binomial_qseries_identity,
                     check_duality, convolve, epsilon_value, psi_char,
                     psi_inverse_char, q_eulerian, r_d_char,
                     r_d_via_convolution, r_genfun)
from .polynomials import QPoly, QTPoly
from .ratfun import RatQT
from .repenum import (a_count, a_preproj, counterexample_counts,
                      fourier_fiber_count, m_count, m_preproj,
                      stabilizer_order, toric_ai_orbit_count, toric_point)
from .toric import (a_d_cyclic_closed_form, a_d_polynomial, r_d_polynomial,
                    toric_type_orbit_data)


def _qt(triples):
    return QTPoly({(i, j): c for i, j, c in triples})


def _rat(triples, den):
    return RatQT(_qt(triples), den)


# -- exact polynomial identities -------------------------------------------

def check_polynomial_identities():
    return [("A_2 of the triangle is q^2 + 6q + 5",
             a_d_polynomial(cycle_graph(3), 2) == QPoly({2: 1, 1: 6, 0: 5})),
            ("cycle closed form matches the subgraph sum, n <= 5, d <= 4",
             all(a_d_polynomial(cycle_graph(n), d) == a_d_cyclic_closed_form(n, d)
                 for n in range(1, 6) for d in range(1, 5))),
            ("double edge: A_d = q^d + 2q^(d-1) + ... + 2q + 1, d <= 6",
             all(a_d_polynomial(banana_graph(2), d) == a_d_cyclic_closed_form(2, d)
                 == QPoly({d: 1, 0: 1, **{k: 2 for k in range(1, d)}}) for d in range(1, 7))),
            ("loop bouquets: A_d = q^(dm), m <= 3, d <= 4",
             all(a_d_polynomial(loops_graph(m), d) == QPoly.monomial(d * m)
                 for m in range(0, 4) for d in range(1, 5)))]


# -- generating function tables ---------------------------------------------

def _table_rows():
    q1 = [(0, 0, 1)]
    return [
        ("point", point_graph(),
         _rat(q1, {0: 1}), _rat(q1, {0: 1})),
        ("single loop", loops_graph(1),
         _rat([(0, 1, 1)], {0: 1, 1: 1}), _rat(q1, {1: 1})),
        ("single edge", path_graph(2),
         _rat([(0, 1, 1)], {0: 2}), _rat([(0, 1, 1)], {0: 2})),
        ("double edge", banana_graph(2),
         _rat([(0, 2, 1), (0, 1, 1)], {0: 2, 1: 1}),
         _rat([(1, 1, 1), (0, 1, 1)], {0: 1, 1: 1})),
        ("triple edge", banana_graph(3),
         _rat([(1, 3, 1), (1, 2, 2), (0, 2, 2), (0, 1, 1)], {0: 2, 1: 1, 2: 1}),
         _rat([(2, 1, 1), (1, 1, 1), (0, 1, 1)], {0: 1, 2: 1})),
        ("triangle", cycle_graph(3),
         _rat([(0, 3, 1), (0, 2, 4), (0, 1, 1)], {0: 3, 1: 1}),
         _rat([(1, 2, 2), (0, 2, 1), (1, 1, 1), (0, 1, 2)], {0: 2, 1: 1})),
    ]


_CYCLE_NUMERATORS = {
    2: [(1, 0, 1), (0, 0, 1)],
    3: [(1, 1, 2), (0, 1, 1), (1, 0, 1), (0, 0, 2)],
    4: [(1, 2, 3), (0, 2, 1), (1, 1, 8), (0, 1, 8), (1, 0, 1), (0, 0, 3)],
    5: [(1, 3, 4), (0, 3, 1), (1, 2, 33), (0, 2, 22), (1, 1, 22), (0, 1, 33),
        (1, 0, 1), (0, 0, 4)],
    6: [(1, 4, 5), (0, 4, 1), (1, 3, 104), (0, 3, 52), (1, 2, 198), (0, 2, 198),
        (1, 1, 52), (0, 1, 104), (1, 0, 1), (0, 0, 5)],
}

_QEULERIAN = {
    1: [(0, 0, 1)],
    2: [(1, 1, 1), (0, 0, 1)],
    3: [(3, 2, 1), (2, 1, 2), (1, 1, 2), (0, 0, 1)],
    4: [(6, 3, 1), (5, 2, 3), (4, 2, 5), (3, 2, 3), (3, 1, 3), (2, 1, 5),
        (1, 1, 3), (0, 0, 1)],
}


def check_genfun_tables():
    rows = _table_rows()
    return [("series table: all six R rows", all(r_genfun(g) == r for _, g, r, _ in rows)),
            ("series table: all six A rows", all(a_genfun(g) == a for _, g, _, a in rows)),
            ("A(triangle) = ((2q+1)T^2 + (q+2)T) / ((1-T)^2 (1-qT))",
             a_genfun(cycle_graph(3)) ==
             _rat([(1, 2, 2), (0, 2, 1), (1, 1, 1), (0, 1, 2)], {0: 2, 1: 1})),
            ("cycle numerator table, n = 2..6",
             all(a_genfun(cycle_graph(n)) == RatQT(_qt(triples).shift(0, 1), {0: n - 1, 1: 1})
                 for n, triples in _CYCLE_NUMERATORS.items())),
            ("q-Eulerian numerators F_1..F_4",
             all(q_eulerian(m) == _qt(triples) for m, triples in _QEULERIAN.items())),
            ("T^2 coefficient of A(triangle) is q^2 + 6q + 5",
             a_genfun(cycle_graph(3)).series_coefficient(2) == QPoly({2: 1, 1: 6, 0: 5})),
            ("T^2 coefficient of R(double edge) is q + 3",
             r_genfun(banana_graph(2)).series_coefficient(2) == QPoly({1: 1, 0: 3})),
            ("coefficients of 1/(1-T) are all 1",
             all(RatQT.geometric(0).series_coefficient(d) == QPoly.const(1) for d in range(6)))]


# -- duality -----------------------------------------------------------------

def check_duality_battery():
    graphs = all_connected_multigraphs(4)
    label = "inversion identity, %s form, all connected graphs <= 4 edges"
    checks = [(label % form, all(check_duality(g, form) for g in graphs)) for form in "AR"]
    checks.append(("cycle inversion sign (-1)^n, n = 2..5",
                   all((f := a_genfun(cycle_graph(n))).invert_vars() == ((-1) ** (n % 2)) * f
                       for n in range(2, 6))))
    return checks


# -- recursion and convolution calculus ---------------------------------------

def check_recursion_battery():
    memo = {}       # R by canonical key, shared by the 48 graphs and dropped here
    ok = all(_recursion_holds(g, GUARD, memo) for g in all_connected_multigraphs(4))
    return [("one-step recursion for R, all connected graphs <= 4 edges", ok)]


def check_hopf():
    graphs = all_connected_multigraphs(4)
    inv, doubling = convolve(psi_inverse_char(1), psi_char(1)), convolve(psi_char(0), psi_char(0))
    return [("R_(d+1) equals psi(q^d) * R_d, d <= 4",
             all(step(g) == r_d_polynomial(g, d + 1) for d in range(0, 5)
                 for step in [convolve(psi_char(d), r_d_char(d))] for g in graphs)),
            ("R_d as an iterated psi convolution, d <= 4",
             all(r_d_via_convolution(g, d) == r_d_polynomial(g, d)
                 for d in range(1, 5) for g in graphs)),
            ("signed psi is the convolution inverse of psi",
             all(inv(g) == QPoly.const(epsilon_value(g)) for g in graphs)),
            ("(1 * 1)(Gamma) counts the 2^#E edge subsets",
             all(doubling(g) == QPoly.const(2 ** g.edge_count()) for g in graphs)),
            ("binomial series identity for loop bouquets, m <= 4",
             all(binomial_qseries_identity(m) for m in range(1, 5)))]


# -- Tutte specializations ----------------------------------------------------

def check_tutte():
    graphs, qv = all_connected_multigraphs(5), QPoly.q()
    checks = [("A_1 equals the Tutte polynomial at (1, q)",
               all(a_d_polynomial(g, 1) == g.tutte().evaluate(1, qv) for g in graphs)),
              ("R_2 equals the Tutte polynomial at (2, q+1)",
               all(r_d_polynomial(g, 2) == g.tutte().evaluate(2, qv + 1) for g in graphs))]
    diff = (r_genfun(banana_graph(2)) - r_genfun(path_graph(2)) - r_genfun(loops_graph(1)))
    expected = RatQT(_qt([(1, 2, 1), (0, 2, 2), (0, 1, -1)]), {0: 2, 1: 1})
    return checks + [("deletion-contraction defect of the double edge", diff == expected),
                     ("defect series: T^2 coefficient vanishes",
                      diff.series_coefficient(2) == QPoly()),
                     ("defect series: T^3 coefficient is 2q + 1",
                      diff.series_coefficient(3) == QPoly({1: 2, 0: 1})),
                     ("defect series: T^4 coefficient is 2q^2 + 4q + 2",
                      diff.series_coefficient(4) == QPoly({2: 2, 1: 4, 0: 2}))]


# -- structural properties ----------------------------------------------------

def check_structural():
    """Degree, leading coefficient, positivity and pole-order laws over a
    seeded random sample of 50 graphs, d <= 4.

    The leading coefficient of A_d and R_d is d^(number of bridges): the
    depth of a bridge never moves b1, so bridge depths are free in the
    top-degree terms.  Monic therefore means bridgeless (or d = 1), which
    is also forced by R_2 = T(2, q+1), where bridges contribute a factor
    x = 2.  The blanket monicity claim holds on the bridgeless part of the
    sample and the refined law is asserted everywhere.
    """
    rng = random.Random(20240229)
    ok_lead_a = ok_value_at_one = ok_r = ok_vanish = True
    for _ in range(50):
        g = random_connected_multigraph(rng, max_edges=5)
        b1, bridges, trees = g.b1(), g.bridge_count(), g.spanning_tree_count()
        for d in range(1, 5):
            a = a_d_polynomial(g, d)
            ok_lead_a &= (a.degree() == d * b1 and a.leading_coefficient() == d ** bridges
                          and (bridges > 0 or a.is_monic())) if b1 > 0 \
                else a == QPoly.const(d ** (g.n - 1))
            ok_value_at_one &= a(1) == d ** (g.n - 1) * trees
            r = r_d_polynomial(g, d)
            ok_r &= all(c >= 0 for c in r.coeffs.values()) and (b1 == 0 or (
                r.degree() == (d - 1) * b1 and (bridges > 0 or r.is_monic())
                and r.leading_coefficient() == (d ** bridges if d > 1 else 1)))
        f = r_genfun(g)
        ok_vanish &= f.numerator_t_degree() < f.den_t_degree()
    return [
        ("A_d degree d*b1, leading coefficient d^bridges (monic when bridgeless)", ok_lead_a),
        ("A_d at q = 1 counts spanning trees times d^(n-1)", ok_value_at_one),
        ("R_d non-negative, degree (d-1)*b1, leading coefficient d^bridges", ok_r),
        ("R numerator T-degree below denominator T-degree", ok_vanish),
    ]


# -- toric brute-force oracle -------------------------------------------------

def check_toric_oracle():
    quivers = [("A2", path_quiver(2)), ("path3", path_quiver(3)),
               ("C2", banana_quiver(2)), ("C3", cycle_quiver(3)),
               ("S1", jordan_quiver(1)), ("S2", jordan_quiver(2))]
    checks = [("orbit partition matches A_d at q for six quivers, three (q, d)",
               all(a_d_polynomial(quiver.graph, d)(q) == toric_ai_orbit_count(quiver, ring)
                   for q, d in [(2, 2), (3, 2), (2, 3)]
                   for ring in [make_truncated(make_prime_field(q), d)] for _, quiver in quivers))]
    ring = make_truncated(make_prime_field(2), 2)
    checks.append(("triangle over k_2(F_2) has 21 classes",
                   toric_ai_orbit_count(cycle_quiver(3), ring) == 21))
    return checks


# -- the depth-type orbit table ----------------------------------------------

def _orbit_table_rows():
    tri = cycle_graph(3)
    two = tri.spanning_subgraph([1, 2])
    qm1 = QPoly({1: 1, 0: -1})
    q = QPoly.q()
    return [
        (tri, {1: 2, 2: 2, 3: 2}, 1, q * qm1, q ** 3 * qm1 ** 3, q * qm1),
        (tri, {1: 2, 2: 2, 3: 1}, 3, q * qm1, q ** 2 * qm1 ** 3, qm1),
        (tri, {1: 2, 2: 1, 3: 1}, 3, q ** 2 * qm1, q * qm1 ** 3, qm1),
        (tri, {1: 1, 2: 1, 3: 1}, 1, q ** 3 * qm1, qm1 ** 3, QPoly.const(1) * qm1),
        (two, {1: 2, 2: 2}, 3, q * qm1, q ** 2 * qm1 ** 2, QPoly.const(1)),
        (two, {1: 2, 2: 1}, 6, q ** 2 * qm1, q * qm1 ** 2, QPoly.const(1)),
        (two, {1: 1, 2: 1}, 3, q ** 3 * qm1, qm1 ** 2, QPoly.const(1)),
    ]


def check_orbit_table():
    rows = _orbit_table_rows()
    total = sum((orbits * mult for _, _, mult, _, _, orbits in rows), QPoly())
    checks = [("all seven depth-type rows for the triangle at d = 2",
               all(toric_type_orbit_data(g, r, 2) == (stab, reps, orbits)
                   for g, r, _, stab, reps, orbits in rows)),
              ("row multiplicities resum to q^2 + 6q + 5", total == QPoly({2: 1, 1: 6, 0: 5}))]
    ring = make_truncated(make_prime_field(2), 2)
    quiver = cycle_quiver(3)
    ones = toric_point(quiver, {e: ring.one for e in (1, 2, 3)})
    t = truncated_generator(ring)
    ts = toric_point(quiver, {e: t for e in (1, 2, 3)})
    checks.append(("stabilizer of the all-units point at q = 2 is q(q-1) = 2",
                   stabilizer_order(ones, quiver, ring, (1, 1, 1)) == 2))
    checks.append(("stabilizer of the all-t point at q = 2 is q^3(q-1) = 8",
                   stabilizer_order(ts, quiver, ring, (1, 1, 1)) == 8))
    return checks


# -- orientation independence --------------------------------------------------

def _m_orientation_grid():
    f2 = make_prime_field(2)
    rings = [f2, make_truncated(f2, 2), make_truncated(f2, 3),
             make_truncated(make_prime_field(3), 2)]
    small = {rings[0].name, rings[1].name}
    grid = []
    for ring in rings:
        big_ok = ring.name in small
        grid.append((path_quiver(2), ring, [(1, 1), (2, 1)] + ([(2, 2)] if big_ok else [])))
        grid.append((path_quiver(3), ring, [(1, 1, 1)] + ([(1, 2, 1)] if big_ok else [])))
        grid.append((banana_quiver(2), ring, [(1, 1)] + ([(2, 2)] if big_ok else [])))
    return grid


def check_orientation():
    checks = [("class counts agree across all orientations (three quivers, four rings)",
               all(len({m_count(variant, ring, alpha)
                        for variant in quiver.all_orientations()}) == 1
                   for quiver, ring, ranks in _m_orientation_grid() for alpha in ranks))]
    f3 = make_prime_field(3)
    k2f3 = make_truncated(f3, 2)
    a_grid = [
        (path_quiver(2), f3, (1, 1)),
        (path_quiver(2), k2f3, (1, 1)),
        (banana_quiver(2), k2f3, (1, 1)),
        (path_quiver(3), k2f3, (1, 1, 0)),
        (path_quiver(3), make_truncated(make_field(4), 2), (1, 1, 1)),
        (path_quiver(3), make_truncated(make_prime_field(7), 2), (1, 1, 1)),
    ]
    checks.append(("absolutely indecomposable counts agree across orientations",
                   all(len({a_count(variant, ring, alpha)
                            for variant in quiver.all_orientations()}) == 1
                       for quiver, ring, alpha in a_grid)))
    return checks


# -- preprojective correspondence ----------------------------------------------

def check_preprojective():
    f2, f3 = make_prime_field(2), make_prime_field(3)
    k2f2 = make_truncated(f2, 2)
    m_grid = [
        ("Jordan loop over F_2", jordan_quiver(1), f2, (1,)),
        ("Jordan loop over F_3", jordan_quiver(1), f3, (1,)),
        ("A2 over F_2", path_quiver(2), f2, (1, 1)),
        ("A2 over k_2(F_2)", path_quiver(2), k2f2, (1, 1)),
        ("A3 over F_2", path_quiver(3), f2, (1, 1, 1)),
    ]
    checks = [("preprojective class count equals the dual-number count (5 cases)",
               all(m_preproj(quiver, ring, alpha)
                   == m_count(quiver, make_dual_numbers(ring), alpha)
                   for _, quiver, ring, alpha in m_grid))]
    lhs = a_preproj(path_quiver(2), f3, (1, 1))
    rhs = a_count(path_quiver(2), make_dual_numbers(f3), (1, 1))
    checks.append(("A2 over F_3: absolutely indecomposable sides agree and equal 2",
                   lhs == rhs == 2))
    f4 = make_field(4)
    lhs = a_preproj(path_quiver(3), f4, (1, 1, 1))
    rhs = a_count(path_quiver(3), make_dual_numbers(f4), (1, 1, 1))
    return checks + [("A3 over F_4: absolutely indecomposable sides agree and equal 4",
                      lhs == rhs == 4)]


# -- zero-fiber count identity ---------------------------------------------------

def check_fourier():
    f2 = make_prime_field(2)
    cases = [("A2 over F_2: zero fiber has 3 points", path_quiver(2), f2, (1, 1), 3),
             ("A2 over k_2(F_2): zero fiber has 8 points",
              path_quiver(2), make_truncated(f2, 2), (1, 1), 8),
             ("Jordan loop over F_2: zero fiber is everything (4)", jordan_quiver(1), f2, (1,), 4),
             ("Jordan loop over F_3: zero fiber is everything (9)",
              jordan_quiver(1), make_prime_field(3), (1,), 9)]
    return [(label, fourier_fiber_count(quiver, ring, alpha) == value)
            for label, quiver, ring, alpha, value in cases]


# -- the non-self-dual counterexample ---------------------------------------------

def check_counterexample():
    counts = {(n, q): counterexample_counts(n, q) for n, q in [(1, 2), (1, 3), (2, 2), (2, 3)]}
    ok = all(b - a == (q ** n - 1) * (q ** (n - 1) - 1) and (a == b) == (n == 1)
             for (n, q), (a, b) in counts.items())
    return [("defect formula at (n, q) in {1,2} x {2,3}", ok),
            ("(n, q) = (2, 2) gives (15, 18)", counts[2, 2] == (15, 18))]


# -- small count tables ------------------------------------------------------------

def check_count_tables():
    f3 = make_prime_field(3)
    return [("A2 over k_d(F_3): d classes of rank (1,1), d = 1..3",
             all(a_count(path_quiver(2), make_truncated(f3, d), (1, 1)) == d
                 for d in range(1, 4))),
            ("A3 over k_2(F_4): 4 classes of rank (1,1,1)",
             a_count(path_quiver(3), make_truncated(make_field(4), 2), (1, 1, 1)) == 4),
            ("A3 over k_2(F_7): 4 classes of rank (1,1,1)",
             a_count(path_quiver(3), make_truncated(make_prime_field(7), 2), (1, 1, 1)) == 4),
            ("A3 over k_2(F_3): 2 classes of rank (1,1,0)",
             a_count(path_quiver(3), make_truncated(f3, 2), (1, 1, 0)) == 2)]


def check_count_tables_slow():
    ring = make_truncated(make_prime_field(5), 2)
    value = a_count(path_quiver(3), ring, (1, 2, 1))
    return [("A3 over k_2(F_5): 1 class of rank (1,2,1)", value == 1)]


# -- self-duality detection ----------------------------------------------------------

def check_frobenius():
    f2 = make_prime_field(2)
    return [("truncated rings k_d(F_2), d <= 3, admit a non-degenerate form",
             all(make_truncated(f2, d).find_frobenius_form() is not None for d in range(1, 4))),
            ("dual numbers F_2[eps] admit a non-degenerate form",
             make_dual_numbers(f2).find_frobenius_form() is not None),
            ("k_2(F_2)[eps] admits a non-degenerate form",
             make_dual_numbers(make_truncated(f2, 2)).find_frobenius_form() is not None),
            ("square-zero ring with 2 generators admits none",
             make_square_zero(f2, 2).find_frobenius_form() is None),
            ("square-zero ring with 3 generators admits none",
             make_square_zero(f2, 3).find_frobenius_form() is None)]


SUITES = {
    "duality": [check_duality_battery],
    "recursion": [check_recursion_battery, check_hopf],
    "tutte": [check_tutte],
    "orientation": [check_orientation],
    "preprojective": [check_preprojective],
    "fourier": [check_fourier],
    "tables": [check_polynomial_identities, check_genfun_tables,
               check_orbit_table, check_count_tables],
    "counterexample": [check_counterexample],
}

EXTRA = [check_structural, check_toric_oracle, check_frobenius]


def run_suite(name, slow=False):
    """Run a named suite; returns a list of (label, passed)."""
    if name == "all":       # every suite's checks once each, in suite order, then EXTRA
        fns = list(dict.fromkeys(fn for group in SUITES.values() for fn in group)) + EXTRA
    else:
        fns = SUITES[name]
    results = []
    for fn in fns:
        results.extend(fn())
    if slow and name in ("tables", "all"):
        results.extend(check_count_tables_slow())
    return results
