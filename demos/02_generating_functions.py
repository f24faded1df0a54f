#!/usr/bin/env python3
"""Rational generating functions and the inversion identity.

Collecting the depth-d counts A_d and R_d into power series in T gives
rational functions with denominators built from factors (1 - q^c T).
R is computed exactly as a sum over strict filtrations of the edge set;
A and the q-Eulerian numerators come from their first series coefficients
over a denominator known in advance.  Both transform with a simple sign
under (q, T) -> (1/q, 1/T).
"""

from quivercount import (a_genfun, banana_graph, check_duality, cycle_graph,
                         loops_graph, path_graph, point_graph, q_eulerian,
                         r_d_polynomial, r_genfun)

print("Small-graph table (R on the left, A on the right):")
rows = [("point", point_graph()), ("loop", loops_graph(1)),
        ("edge", path_graph(2)), ("double edge", banana_graph(2)),
        ("triple edge", banana_graph(3)), ("triangle", cycle_graph(3))]
for label, g in rows:
    print("  %-12s R = %-42s A = %s" % (label, r_genfun(g), a_genfun(g)))
print()

print("Series coefficients recover the counting polynomials:")
tri = cycle_graph(3)
a = a_genfun(tri)
for d in range(4):
    coeff = a.series_coefficient(d)
    print("  [T^%d] A(C3) = %s" % (d, coeff))
    from quivercount import a_d_polynomial
    assert coeff == a_d_polynomial(tri, d)
print()

print("Inversion: substituting (q, T) -> (1/q, 1/T) reproduces the")
print("function up to a sign (and a counit correction):")
for label, g in rows:
    assert check_duality(g, "A") and check_duality(g, "R")
    print("  %-12s both inversion identities hold" % label)
print()

print("Loop bouquets hide a q-analog of the Eulerian polynomials in")
print("their numerators:")
for m in range(1, 5):
    print("  F_%d = %s" % (m, q_eulerian(m)))
print()
print("and their T-coefficients are powers of the q-integer [d]_q:")
s2 = r_genfun(loops_graph(2))
for d in range(1, 4):
    print("  [T^%d] R(S_2) = %s" % (d, r_d_polynomial(loops_graph(2), d)))
