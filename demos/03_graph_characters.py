#!/usr/bin/env python3
"""The convolution calculus of multiplicative graph invariants.

A character assigns each multigraph a Laurent polynomial in q,
multiplicatively over disjoint unions.  Convolution sums a character of
a spanning subgraph against a character of the complementary
contraction; the depth-count polynomials R_d arise as iterated
convolutions of the cycle-counting character psi(q^k): Gamma -> q^(k b1).
"""

from quivercount import (GraphChar, QPoly, banana_graph, convolve, cycle_graph,
                         loops_graph, path_graph, psi_char,
                         psi_inverse_char, r_d_polynomial,
                         r_d_via_convolution, r_genfun)
from quivercount.genfun import epsilon_value

tri = cycle_graph(3)

print("psi(q) * psi(1) evaluated on the triangle:")
r2 = convolve(psi_char(1), psi_char(0))(tri)
print("  sum over the 8 edge subsets of q^b1(subgraph):", r2)
assert r2 == r_d_polynomial(tri, 2)
print("  ... which is exactly R_2(C3).")
print()

print("Iterating: R_d = psi(q^(d-1)) * ... * psi(q^0):")
for d in range(1, 5):
    value = r_d_via_convolution(tri, d)
    print("  d = %d: %s" % (d, value))
print()

print("The convolution inverse of psi(q) is its edge-signed twin:")
inv = convolve(psi_inverse_char(1), psi_char(1))
for g in [tri, banana_graph(2), loops_graph(2)]:
    print("  on %-40s -> %s" % (g, inv(g)))
    assert inv(g) == GraphChar("eps", epsilon_value)(g)
print("  (1 on the point class, 0 elsewhere: the counit.)")
print()

print("R_2 is a Tutte evaluation (at x = 2, y = q + 1):")
for g in [tri, banana_graph(2), banana_graph(3)]:
    lhs = r_d_polynomial(g, 2)
    rhs = g.tutte().evaluate(2, QPoly.q() + 1)
    assert lhs == rhs
    print("  %-40s R_2 = %s" % (g, lhs))
print()

print("Higher R_d are finer than the Tutte polynomial: deleting and")
print("contracting an edge of the double edge leaves a nonzero defect")
defect = (r_genfun(banana_graph(2)) - r_genfun(path_graph(2))
          - r_genfun(loops_graph(1)))
print("  R(C2) - R(C2 minus e) - R(C2 / e) =", defect)
for d in range(1, 5):
    print("  [T^%d] = %s" % (d, defect.series_coefficient(d)))
